package sexpr

import (
	"testing"
	"testing/quick"
)

func read1(t *testing.T, src string) Value {
	t.Helper()
	r := NewReader(NewInterner(), src)
	v, ok, err := r.Read()
	if err != nil {
		t.Fatalf("Read(%q): %v", src, err)
	}
	if !ok {
		t.Fatalf("Read(%q): no form", src)
	}
	return v
}

func TestReadAtom(t *testing.T) {
	for _, tc := range []struct{ src, want string }{
		{"foo", "foo"},
		{"42", "42"},
		{"-7", "-7"},
		{"()", "()"},
		{"nil", "()"},
		{`"a\"b"`, `"a\"b"`},
		{"(a b c)", "(a b c)"},
		{"(a . b)", "(a . b)"},
		{"(a b . c)", "(a b . c)"},
		{"'x", "(quote x)"},
		{"'(1 2)", "(quote (1 2))"},
		{"(a ; comment\n b)", "(a b)"},
		{"((a) (b (c)))", "((a) (b (c)))"},
		{"1-", "1-"}, // not a number: trailing minus makes it a symbol
		{"-", "-"},
		{"+", "+"},
	} {
		got := String(read1(t, tc.src))
		if got != tc.want {
			t.Errorf("read %q = %s, want %s", tc.src, got, tc.want)
		}
	}
}

// TestReadNumberClassification pins which tokens read as integers: only a
// token that starts with a digit, or with '-' and a digit, and parses as
// an int64 in full. Everything else, an overflow included, is a symbol.
func TestReadNumberClassification(t *testing.T) {
	for _, tc := range []struct {
		src   string
		isInt bool
		want  string
	}{
		{"-", false, "-"},
		{"-x", false, "-x"},
		{"-5x", false, "-5x"},
		{"+5", false, "+5"},
		{"007", true, "7"},
		{"1x", false, "1x"},
		{"-12", true, "-12"},
		{"--5", false, "--5"},
		{"9223372036854775807", true, "9223372036854775807"},
		{"9223372036854775808", false, "9223372036854775808"},
		{"-9223372036854775809", false, "-9223372036854775809"},
	} {
		v := read1(t, tc.src)
		_, isInt := v.(Int)
		_, isSym := v.(*Sym)
		if isInt != tc.isInt || isInt == isSym || String(v) != tc.want {
			t.Errorf("read %q = %T %s, want int=%v %s", tc.src, v, String(v), tc.isInt, tc.want)
		}
	}
}

func TestReadAll(t *testing.T) {
	r := NewReader(NewInterner(), "(a) (b) 3")
	vs, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 3 {
		t.Fatalf("got %d forms, want 3", len(vs))
	}
	if String(vs[2]) != "3" {
		t.Errorf("third form = %s", String(vs[2]))
	}
}

func TestReadErrors(t *testing.T) {
	for _, src := range []string{"(", ")", `"abc`, "(a .", "(. a)", "(a . b c)", `"\q"`} {
		r := NewReader(NewInterner(), src)
		if _, _, err := r.Read(); err == nil {
			t.Errorf("Read(%q): expected error", src)
		}
	}
}

func TestInterning(t *testing.T) {
	in := NewInterner()
	a := in.Intern("foo")
	b := in.Intern("foo")
	if a != b {
		t.Error("same name interned to different symbols")
	}
	if in.Intern("bar") == a {
		t.Error("different names interned to same symbol")
	}
}

func TestListHelpers(t *testing.T) {
	in := NewInterner()
	l := List(in.Intern("a"), Int(1), Int(2))
	if Length(l) != 3 {
		t.Errorf("Length = %d", Length(l))
	}
	vs, err := ListVals(l)
	if err != nil || len(vs) != 3 {
		t.Fatalf("ListVals: %v %v", vs, err)
	}
	if _, err := ListVals(&Cell{Car: Int(1), Cdr: Int(2)}); err == nil {
		t.Error("ListVals on improper list: expected error")
	}
	if Length(nil) != 0 {
		t.Error("Length(nil) != 0")
	}
}

// TestPrintReadRoundTrip checks that printing then re-reading a random tree
// yields the same printed form.
func TestPrintReadRoundTrip(t *testing.T) {
	in := NewInterner()
	syms := []*Sym{in.Intern("a"), in.Intern("bee"), in.Intern("c3")}
	// Build a deterministic pseudo-random tree from an integer seed.
	var build func(seed, depth int64) Value
	build = func(seed, depth int64) Value {
		seed = seed*6364136223846793005 + 1442695040888963407
		k := (seed >> 33) & 7
		if k < 0 {
			k = -k
		}
		if depth <= 0 || k < 3 {
			switch k % 3 {
			case 0:
				return Int(seed & 1023)
			case 1:
				return syms[(seed>>3)&3&1+(seed>>5)&1]
			default:
				return nil
			}
		}
		n := k % 4
		var items []Value
		for i := int64(0); i < n; i++ {
			items = append(items, build(seed+i*7919, depth-1))
		}
		return List(items...)
	}
	f := func(seed int64) bool {
		v := build(seed, 4)
		s1 := String(v)
		r := NewReader(in, s1)
		v2, ok, err := r.Read()
		if err != nil {
			// nil (empty tree) prints as "()" which reads fine, so any
			// error is a failure.
			return false
		}
		if !ok {
			return s1 == ""
		}
		return String(v2) == s1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
