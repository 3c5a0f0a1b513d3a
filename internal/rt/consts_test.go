package rt

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/layout"
	"repro/internal/sexpr"
	"repro/internal/tags"
)

func TestConstPoolInterning(t *testing.T) {
	for _, s := range tags.All() {
		p := newConstPool(s)
		a := p.SymbolItem("foo")
		b := p.SymbolItem("foo")
		if a != b {
			t.Errorf("%v: symbol re-interned", s.Kind())
		}
		if p.SymbolItem("bar") == a {
			t.Errorf("%v: distinct symbols share an item", s.Kind())
		}
		if p.nilItem == 0 {
			t.Errorf("%v: nil item not established", s.Kind())
		}
		// Strings memoize by content.
		s1 := p.StringItem("hello")
		s2 := p.StringItem("hello")
		if s1 != s2 {
			t.Errorf("%v: string not memoized", s.Kind())
		}
	}
}

func TestConstPoolSymbolLayout(t *testing.T) {
	s := tags.New(tags.High5)
	p := newConstPool(s)
	item := p.SymbolItem("example")
	addr := s.Addr(item)
	hdr := p.words[addr/4]
	typ, size := s.HeaderInfo(hdr)
	if !s.IsHeader(hdr) || typ != tags.TSymbol || size != symbolWords {
		t.Fatalf("bad symbol header: %#x (type %v size %d)", hdr, typ, size)
	}
	// Fields: name string, then nil value/plist/function.
	name := p.words[addr/4+1]
	if s.TypeOf(name, func(a uint32) uint32 { return p.words[a/4] }) != tags.TString {
		t.Error("symbol name is not a string item")
	}
	for i := 2; i <= 4; i++ {
		if p.words[addr/4+uint32(i)] != p.nilItem {
			t.Errorf("symbol field %d not initialized to nil", i)
		}
	}
}

func TestConstPoolStringEncoding(t *testing.T) {
	s := tags.New(tags.Low3)
	p := newConstPool(s)
	item := p.StringItem("abcde")
	addr := s.Addr(item)
	if n := s.IntVal(p.words[addr/4+1]); n != 5 {
		t.Fatalf("length word = %d", n)
	}
	data := p.words[addr/4+2]
	if byte(data) != 'a' || byte(data>>8) != 'b' || byte(data>>24) != 'd' {
		t.Errorf("packed bytes wrong: %#x", data)
	}
	if byte(p.words[addr/4+3]) != 'e' {
		t.Error("second data word wrong")
	}
	// Low3 strings start at odd word addresses (borrowed tag bit).
	if addr%8 != 4 {
		t.Errorf("low3 string at %#x, want addr%%8 == 4", addr)
	}
}

func TestConstPoolQuoteSharing(t *testing.T) {
	s := tags.New(tags.High5)
	p := newConstPool(s)
	in := sexpr.NewInterner()
	read := func(src string) sexpr.Value {
		v, _, err := sexpr.NewReader(in, src).Read()
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	a := p.QuoteItem(read("(a b (c 1))"))
	b := p.QuoteItem(read("(a b (c 1))"))
	if a != b {
		t.Error("identical quoted forms not shared")
	}
	if p.QuoteItem(read("(a b (c 2))")) == a {
		t.Error("distinct quoted forms shared")
	}
}

func TestConstPoolAlignment(t *testing.T) {
	for _, s := range tags.All() {
		p := newConstPool(s)
		in := sexpr.NewInterner()
		v, _, err := sexpr.NewReader(in, "(x (y) 3)").Read()
		if err != nil {
			t.Fatal(err)
		}
		item := p.QuoteItem(v)
		align, off := s.Align(tags.TPair)
		if addr := s.Addr(item); addr%align != off {
			t.Errorf("%v: quoted pair at %#x violates alignment", s.Kind(), addr)
		}
		if p.End()%8 != 0 {
			t.Errorf("%v: static area end %#x not 8-aligned", s.Kind(), p.End())
		}
		if p.End() <= layout.StaticBase {
			t.Errorf("%v: static area empty", s.Kind())
		}
	}
}

func TestImageDecodeRoundTrip(t *testing.T) {
	img, err := Build(`'(sym "str" 42 (nested -1) . tail)`, BuildOptions{Scheme: tags.High5})
	if err != nil {
		t.Fatal(err)
	}
	m := img.NewMachine()
	m.MaxCycles = 10_000_000
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	want := `(sym "str" 42 (nested -1) . tail)`
	if got := sexpr.String(img.DecodeItem(m.Mem, m.Regs[2])); got != want {
		t.Errorf("decode = %s, want %s", got, want)
	}
}

func TestBuildRejectsOversizedPlan(t *testing.T) {
	_, err := Build("1", BuildOptions{Scheme: tags.High5, HeapWords: 1 << 23})
	if err == nil {
		t.Error("a memory plan beyond the fixnum-safe address space must fail")
	}
}

// TestBuildLongQuotedListLinear is the regression test for quoted
// constants built in quadratic time and space: a quoted list from a source
// of about 500 KB (near the service's 1 MB body limit) must build in
// bounded time and allocation.
func TestBuildLongQuotedListLinear(t *testing.T) {
	const n = 250_000
	src := "(car (cdr '(2 " + strings.Repeat("1 ", n) + ")))"
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	img, err := Build(src, BuildOptions{Scheme: tags.High5})
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	alloc := after.TotalAlloc - before.TotalAlloc
	t.Logf("%d-byte source: built in %v, allocated %.1f MB", len(src), elapsed, float64(alloc)/1e6)
	// Linear costs are a few tens of MB and well under a second; the
	// quadratic builder needed over 400 MB and 4 s for a list 25 times
	// shorter.
	if limit := uint64(200 * len(src)); alloc > limit {
		t.Errorf("allocated %d bytes, want at most %d", alloc, limit)
	}
	if elapsed > 10*time.Second {
		t.Errorf("build took %v, want under 10s", elapsed)
	}
	m := img.NewMachine()
	m.MaxCycles = 10_000_000
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if got := sexpr.String(img.DecodeItem(m.Mem, m.Regs[2])); got != "1" {
		t.Errorf("value %s, want 1", got)
	}
}
