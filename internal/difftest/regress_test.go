package difftest

import (
	"testing"

	"repro/internal/core"
	"repro/internal/mipsx"
)

// TestRegressions pins minimized reproducers for compiler bugs found by the
// differential harness. Each reproducer runs under the full configuration
// spectrum — the bugs were found under single configurations, but nothing
// about either fix is configuration-specific.
func TestRegressions(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{
			// Deferred slow-path blocks read the result register at
			// emission time (end of function) instead of defer time; when
			// the temp was spilled in between, the generic-add fallback
			// moved its result into the wrong register and the join point
			// saw stale bits — here, raw float bits listed as a bare item
			// instead of the boxed float. Found by seed 1 of the sweep.
			"deferred-slow-path-result-register",
			`(list 7 (+ (float 95) 1) 8 9 10 -2 -10)`,
		},
		{
			// The High6 result-only integer test (§4.2) is sound for
			// addition but was also applied to subtraction: equal pointer
			// tags cancel, so subtracting two adjacent float boxes yielded
			// a small sign-extended "fixnum" (their address difference)
			// instead of entering generic-sub. Found by seed 214.
			"high6-sub-tag-cancellation",
			`(princ (- (float 100) (float 69)))`,
		},
		{
			// Operands snapshot their register at creation, but a temp that
			// is spilled across a call and reloaded moves to a fresh
			// register; reg() trusted the stale snapshot for any unspilled
			// temp, so rplaca returned whatever landed in the old register —
			// here its value argument instead of the pair. Found by the
			// FuzzGenerated coverage-guided target.
			"spill-reload-stale-operand-register",
			`(let* ((lv0 nil) (lv1 (rplaca (cons -824 (list 'zeta)) (cons (length lv0) lv0)))) (princ (length lv1)))`,
		},
		{
			// An empty unit's synthesized main was padded with the literal 0,
			// but the interpreter evaluates the empty program to nil. Found
			// by the FuzzSource raw-bytes target (the empty input).
			"empty-program-value",
			``,
		},
		{
			// Same hole one level down: a defun with an empty body never
			// wrote the return register, so the call returned whatever was
			// left there instead of nil. Found by FuzzSource.
			"empty-function-body-value",
			`(defun f (x))
(f 10)`,
		},
		{
			// The library's float did not type-check: a non-number was
			// raw-shifted into a garbage boxed float instead of raising
			// error 6 like every other generic numeric route (the
			// interpreter failed fast with a different code, so the two
			// sides disagreed on both the error and where it happened).
			// Found by FuzzSource.
			"float-non-number-error",
			`(princ (* (float (cdr '(1))) 2))`,
		},
		{
			// A vector in cdr position: the image decoder renders vectors
			// as (vector e...) lists, which flatten into the enclosing
			// list, while the interpreter printed a dotted tail. Found by
			// FuzzGenerated.
			"vector-cdr-rendering",
			`(rplacd (cons -972 (list 'alpha)) (make-vector 1 44))`,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, cfg := range Spectrum() {
				if f := Check(tc.src, cfg, Options{}); f != nil {
					t.Errorf("%v", f)
				}
			}
		})
	}
}

// TestRegressionValues pins the expected results of the reproducers, so the
// test still bites if interpreter and machine ever drift in tandem.
func TestRegressionValues(t *testing.T) {
	cfg, err := core.ParseConfig("high5+check")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		src, value, output string
	}{
		{`(list 7 (+ (float 95) 1) 8 9 10 -2 -10)`, "(7 #float 8 9 10 -2 -10)", ""},
		{`(princ (- (float 100) (float 69)))`, "#float", "f31"},
		{`(let* ((lv0 nil) (lv1 (rplaca (cons -824 (list 'zeta)) (cons (length lv0) lv0)))) (princ (length lv1)))`, "2", "2"},
		{``, "()", ""},
		{`(rplacd (cons -972 (list 'alpha)) (make-vector 1 44))`, "(-972 vector 44)", ""},
	} {
		img, err := buildImage(tc.src, cfg, Options{}.withDefaults())
		if err != nil {
			t.Fatalf("%s: %v", tc.src, err)
		}
		r := runEngine(img, 50_000_000, mipsx.EngineTranslated)
		if r.err != nil {
			t.Fatalf("%s: %v", tc.src, r.err)
		}
		if r.value != tc.value {
			t.Errorf("%s: value %s, want %s", tc.src, r.value, tc.value)
		}
		if got := r.m.Output.String(); got != tc.output {
			t.Errorf("%s: output %q, want %q", tc.src, got, tc.output)
		}
	}
}
