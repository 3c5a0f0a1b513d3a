package difftest

import (
	"fmt"
	"slices"
	"strings"
)

// Gen generates random Lisp programs that are valid by construction: every
// program terminates, never raises a runtime error, and stays within the
// vocabulary shared by internal/interp and internal/lispc, so it must
// compute identical results on every implementation spectrum point —
// including with run-time checking compiled out, where an erroneous program
// would be undefined behavior rather than a comparable error.
//
// Generation is typed (int, float, bool, symbol, string, list, vector
// expressions are produced by separate grammars) and value-bounded:
// integers stay far below the smallest fixnum range (±2^26 under the
// high-tag schemes) because the machine's overflow path boxes a float while
// the bounded oracle keeps exact integers; floats stay small enough that
// their printed truncation is exact; lists stay shorter than the image
// decoder's recursion bound. Recursive helper functions are built from
// structurally-terminating templates (a counter argument decremented to
// zero, or structural recursion on a finite list). The counters of loops
// and recursions (a dotimes variable, a helper's n or l) are readable but
// never assigned: a setq of one could reset it on every pass.
type Gen struct {
	r *Rand

	intVars []string
	fltVars []string
	lstVars []string
	vecVars []vecVar
	// counters holds the loop and recursion counters in scope: names in
	// intVars or lstVars that no setq may target.
	counters []string

	// helper function templates already emitted, usable at call sites
	sumFns   []string // (fn n acc) -> int, counts n down
	buildFns []string // (fn n) -> list of length n
	countFns []string // (fn l acc) -> int, structural on l
	plKeys   []plKey  // plist entries (put before any get) holding ints
}

type vecVar struct {
	name string
	len  int
}

type plKey struct{ sym, key string }

var genSyms = []string{"alpha", "beta", "gamma", "delta", "eps", "zeta"}
var genStrs = []string{`"a"`, `"bc"`, `"hello"`, `"tag"`}

// Generate builds one complete program from r's decision stream.
func Generate(r *Rand) string {
	g := &Gen{r: r}
	var b strings.Builder

	for i, n := 0, g.r.Intn(3); i < n; i++ {
		b.WriteString(g.genDefun())
	}

	b.WriteString("(let* (")
	for i, n := 0, 1+g.r.Intn(2); i < n; i++ {
		name := fmt.Sprintf("iv%d", i)
		fmt.Fprintf(&b, "(%s %s) ", name, g.genInt(2))
		g.intVars = append(g.intVars, name)
	}
	for i, n := 0, 1+g.r.Intn(2); i < n; i++ {
		name := fmt.Sprintf("lv%d", i)
		fmt.Fprintf(&b, "(%s %s) ", name, g.genList(2))
		g.lstVars = append(g.lstVars, name)
	}
	if g.r.Intn(2) == 0 {
		name := "fv0"
		fmt.Fprintf(&b, "(%s %s) ", name, g.genFloat(2))
		g.fltVars = append(g.fltVars, name)
	}
	if g.r.Intn(2) == 0 {
		v := vecVar{name: "vv0", len: 1 + g.r.Intn(5)}
		fmt.Fprintf(&b, "(%s (make-vector %d %s)) ", v.name, v.len, g.genInt(1))
		g.vecVars = append(g.vecVars, v)
	}
	b.WriteString(")\n")

	for i, n := 0, 1+g.r.Intn(5); i < n; i++ {
		fmt.Fprintf(&b, "  %s\n", g.genStmt())
	}

	// The result tuple samples every kind so the final-value comparison has
	// teeth even when the statements printed nothing.
	fmt.Fprintf(&b, "  (list %s %s %s (if %s 'yes 'no)))\n",
		g.genInt(3), g.genAny(2), g.genInt(2), g.genBool(3))
	return b.String()
}

// genDefun emits one helper function from a terminating template and
// registers it for call sites. Function bodies see only their own
// parameters, so the variable pools are swapped out while generating them.
func (g *Gen) genDefun() string {
	savedI, savedF, savedL, savedV := g.intVars, g.fltVars, g.lstVars, g.vecVars
	g.fltVars, g.vecVars = nil, nil
	defer func() {
		g.intVars, g.fltVars, g.lstVars, g.vecVars = savedI, savedF, savedL, savedV
		g.counters = nil
	}()

	switch g.r.Intn(3) {
	case 0:
		name := fmt.Sprintf("gsum%d", len(g.sumFns))
		g.intVars, g.lstVars, g.counters = []string{"n", "acc"}, nil, []string{"n"}
		step := g.genInt(1)
		g.sumFns = append(g.sumFns, name)
		return fmt.Sprintf("(defun %s (n acc) (if (<= n 0) acc (%s (1- n) (+ acc %s))))\n",
			name, name, step)
	case 1:
		name := fmt.Sprintf("gbuild%d", len(g.buildFns))
		g.intVars, g.lstVars, g.counters = []string{"n"}, nil, []string{"n"}
		elem := g.genInt(1)
		g.buildFns = append(g.buildFns, name)
		return fmt.Sprintf("(defun %s (n) (if (<= n 0) nil (cons %s (%s (1- n)))))\n",
			name, elem, name)
	default:
		name := fmt.Sprintf("gcount%d", len(g.countFns))
		g.intVars, g.lstVars, g.counters = []string{"acc"}, []string{"l"}, []string{"l"}
		step := g.genInt(1)
		g.countFns = append(g.countFns, name)
		return fmt.Sprintf("(defun %s (l acc) (if (consp l) (%s (cdr l) (+ acc %s)) acc))\n",
			name, name, step)
	}
}

// enterLoop brings a dotimes counter, dt, into scope for the loop body;
// leaveLoop takes it out again.
func (g *Gen) enterLoop() {
	g.intVars = append(g.intVars, "dt")
	g.counters = append(g.counters, "dt")
}

func (g *Gen) leaveLoop() {
	g.intVars = g.intVars[:len(g.intVars)-1]
	g.counters = g.counters[:len(g.counters)-1]
}

// counter reports whether v is a loop or recursion counter in scope,
// which no setq may target.
func (g *Gen) counter(v string) bool { return slices.Contains(g.counters, v) }

// genStmt is one body statement of the main let*.
func (g *Gen) genStmt() string {
	switch g.r.Intn(8) {
	case 0:
		// The main body has no counter in scope: dt is one only inside a
		// loop body, which genStmt never generates.
		if len(g.intVars) > 0 {
			return fmt.Sprintf("(setq %s %s)", pick(g.r, g.intVars), g.genInt(3))
		}
	case 1:
		if len(g.lstVars) > 0 {
			return fmt.Sprintf("(setq %s %s)", pick(g.r, g.lstVars), g.genList(3))
		}
	case 2:
		if len(g.vecVars) > 0 {
			v := pick(g.r, g.vecVars)
			return fmt.Sprintf("(vset %s %d %s)", v.name, g.r.Intn(v.len), g.genInt(2))
		}
	case 3:
		k := plKey{sym: pick(g.r, genSyms), key: pick(g.r, genSyms)}
		g.plKeys = append(g.plKeys, k)
		return fmt.Sprintf("(put '%s '%s %s)", k.sym, k.key, g.genInt(2))
	case 4:
		// Bounded loop mutating an int accumulator; the counter is an
		// ordinary int variable inside the loop body.
		if len(g.intVars) > 0 {
			iv := pick(g.r, g.intVars)
			g.enterLoop()
			body := fmt.Sprintf("(setq %s (+ %s %s))", iv, iv, g.genInt(1))
			g.leaveLoop()
			return fmt.Sprintf("(dotimes (dt %d) %s)", 1+g.r.Intn(8), body)
		}
	case 5:
		// Bounded list-building loop; growth is capped well below the
		// image decoder's depth limit.
		if len(g.lstVars) > 0 {
			lv := pick(g.r, g.lstVars)
			g.enterLoop()
			elem := g.genInt(1)
			g.leaveLoop()
			return fmt.Sprintf("(dotimes (dt %d) (setq %s (cons %s %s)))",
				1+g.r.Intn(6), lv, elem, lv)
		}
	case 6:
		return fmt.Sprintf("(princ %s)", g.genAny(2))
	}
	if g.r.Intn(3) == 0 {
		return "(terpri)"
	}
	return fmt.Sprintf("(princ %s)", g.genAny(1))
}

// genInt produces an integer-valued expression. Magnitudes are bounded (see
// the type comment) so no spectrum point ever reaches the fixnum overflow
// path.
func (g *Gen) genInt(d int) string {
	if d <= 0 || g.r.Intn(4) == 0 {
		switch g.r.Intn(5) {
		case 0:
			if len(g.intVars) > 0 {
				return pick(g.r, g.intVars)
			}
		case 1:
			if len(g.vecVars) > 0 {
				return fmt.Sprintf("(vlength %s)", pick(g.r, g.vecVars).name)
			}
		case 2:
			if len(g.plKeys) > 0 {
				k := pick(g.r, g.plKeys)
				return fmt.Sprintf("(get '%s '%s)", k.sym, k.key)
			}
		}
		return fmt.Sprintf("%d", g.r.Intn(1999)-999)
	}
	switch g.r.Intn(16) {
	case 0:
		return fmt.Sprintf("(+ %s %s)", g.genInt(d-1), g.genInt(d-1))
	case 1:
		return fmt.Sprintf("(- %s %s)", g.genInt(d-1), g.genInt(d-1))
	case 2:
		return fmt.Sprintf("(* %d %d)", g.r.Intn(21)-10, g.r.Intn(21)-10)
	case 3:
		return fmt.Sprintf("(quotient %s %d)", g.genInt(d-1), 1+g.r.Intn(9))
	case 4:
		return fmt.Sprintf("(remainder %s %d)", g.genInt(d-1), 1+g.r.Intn(9))
	case 5:
		return fmt.Sprintf("(length %s)", g.genList(d-1))
	case 6:
		return fmt.Sprintf("(if %s %s %s)", g.genBool(d-1), g.genInt(d-1), g.genInt(d-1))
	case 7:
		op := pick(g.r, []string{"min", "max"})
		return fmt.Sprintf("(%s %s %s)", op, g.genInt(d-1), g.genInt(d-1))
	case 8:
		op := pick(g.r, []string{"abs", "minus", "1+", "1-"})
		return fmt.Sprintf("(%s %s)", op, g.genInt(d-1))
	case 9:
		op := pick(g.r, []string{"logand", "logor", "logxor"})
		return fmt.Sprintf("(%s %s %s)", op, g.genInt(d-1), g.genInt(d-1))
	case 10:
		if len(g.vecVars) > 0 {
			v := pick(g.r, g.vecVars)
			return fmt.Sprintf("(vref %s %d)", v.name, g.r.Intn(v.len))
		}
		return g.genInt(d - 1)
	case 11:
		if len(g.sumFns) > 0 {
			f := pick(g.r, g.sumFns)
			call := fmt.Sprintf("%s %d %s", f, g.r.Intn(11), g.genInt(d-1))
			if g.r.Intn(3) == 0 {
				return fmt.Sprintf("(funcall '%s)", call)
			}
			return "(" + call + ")"
		}
		return g.genInt(d - 1)
	case 12:
		if len(g.countFns) > 0 {
			f := pick(g.r, g.countFns)
			return fmt.Sprintf("(%s %s %s)", f, g.genList(d-1), g.genInt(d-1))
		}
		return g.genInt(d - 1)
	case 13:
		// Mutation inside a subexpression: argument values snapshot at
		// evaluation time.
		if len(g.intVars) > 0 {
			if v := pick(g.r, g.intVars); !g.counter(v) {
				return fmt.Sprintf("(+ %s (progn (setq %s %s) %s))", v, v, g.genInt(d-1), v)
			}
		}
		return g.genInt(d - 1)
	case 14:
		return fmt.Sprintf("(car (cons %s %s))", g.genInt(d-1), g.genList(d-1))
	default:
		return fmt.Sprintf("(1+ %s)", g.genInt(d-1))
	}
}

// genFloat produces a float-valued expression. No division, so no
// infinities or NaNs from generated arithmetic; mixed int/float operands
// exercise the generic coercion path.
func (g *Gen) genFloat(d int) string {
	if d <= 0 || g.r.Intn(3) == 0 {
		if len(g.fltVars) > 0 && g.r.Intn(2) == 0 {
			return pick(g.r, g.fltVars)
		}
		return fmt.Sprintf("(float %d)", g.r.Intn(201)-100)
	}
	switch g.r.Intn(6) {
	case 0:
		return fmt.Sprintf("(+ %s %s)", g.genFloat(d-1), g.genFloat(d-1))
	case 1:
		return fmt.Sprintf("(- %s %s)", g.genFloat(d-1), g.genFloat(d-1))
	case 2:
		return fmt.Sprintf("(+ %s %s)", g.genFloat(d-1), g.genInt(1))
	case 3:
		return fmt.Sprintf("(* %s %d)", g.genFloat(d-1), g.r.Intn(10))
	case 4:
		return fmt.Sprintf("(minus %s)", g.genFloat(d-1))
	default:
		return fmt.Sprintf("(1+ %s)", g.genFloat(d-1))
	}
}

func (g *Gen) genBool(d int) string {
	if d <= 0 {
		if g.r.Intn(2) == 0 {
			return "t"
		}
		return "nil"
	}
	switch g.r.Intn(12) {
	case 0:
		op := pick(g.r, []string{"=", "<", ">", "<=", ">="})
		return fmt.Sprintf("(%s %s %s)", op, g.genInt(d-1), g.genInt(d-1))
	case 1:
		op := pick(g.r, []string{"<", ">=", "="})
		return fmt.Sprintf("(%s %s %s)", op, g.genFloat(d-1), g.genFloat(d-1))
	case 2:
		return fmt.Sprintf("(eq %s %s)", g.genSym(), g.genSym())
	case 3:
		return fmt.Sprintf("(consp %s)", g.genList(d-1))
	case 4:
		return fmt.Sprintf("(null %s)", g.genList(d-1))
	case 5:
		return fmt.Sprintf("(and %s %s)", g.genBool(d-1), g.genBool(d-1))
	case 6:
		return fmt.Sprintf("(or %s %s)", g.genBool(d-1), g.genBool(d-1))
	case 7:
		pred := pick(g.r, []string{"intp", "floatp", "numberp", "stringp", "symbolp", "atom"})
		return fmt.Sprintf("(%s %s)", pred, g.genAny(d-1))
	case 8:
		return fmt.Sprintf("(equal %s %s)", g.genList(d-1), g.genList(d-1))
	case 9:
		return fmt.Sprintf("(eq %s %s)", pick(g.r, genStrs), pick(g.r, genStrs))
	case 10:
		return fmt.Sprintf("(neq %s %s)", g.genInt(d-1), g.genInt(d-1))
	default:
		return fmt.Sprintf("(not %s)", g.genBool(d-1))
	}
}

func (g *Gen) genSym() string { return "'" + pick(g.r, genSyms) }

func (g *Gen) genList(d int) string {
	if d <= 0 || g.r.Intn(4) == 0 {
		switch g.r.Intn(4) {
		case 0:
			return "nil"
		case 1:
			if len(g.lstVars) > 0 {
				return pick(g.r, g.lstVars)
			}
		case 2:
			return fmt.Sprintf("'(%d %s %d)", g.r.Intn(10), pick(g.r, genSyms), g.r.Intn(10))
		}
		return fmt.Sprintf("(list %s %s)", g.genSym(), g.genInt(0))
	}
	switch g.r.Intn(12) {
	case 0:
		return fmt.Sprintf("(cons %s %s)", g.genAny(d-1), g.genList(d-1))
	case 1:
		return fmt.Sprintf("(append %s %s)", g.genList(d-1), g.genList(d-1))
	case 2:
		return fmt.Sprintf("(reverse %s)", g.genList(d-1))
	case 3:
		return fmt.Sprintf("(copy-list %s)", g.genList(d-1))
	case 4:
		return fmt.Sprintf("(if %s %s %s)", g.genBool(d-1), g.genList(d-1), g.genList(d-1))
	case 5:
		op := pick(g.r, []string{"memq", "member"})
		return fmt.Sprintf("(%s %s %s)", op, g.genSym(), g.genList(d-1))
	case 6:
		op := pick(g.r, []string{"assq", "assoc"})
		return fmt.Sprintf("(%s '%s '((alpha . 1) (beta . 2) (gamma . 3)))",
			op, pick(g.r, genSyms))
	case 7:
		return fmt.Sprintf("(cdr (cons %s %s))", g.genAny(d-1), g.genList(d-1))
	case 8:
		// Fresh cells only: mutating quoted structure would alias the
		// constant pool, which both sides share but which makes failures
		// miserable to shrink.
		op := pick(g.r, []string{"rplaca", "rplacd"})
		return fmt.Sprintf("(%s (cons %s (list %s)) %s)",
			op, g.genInt(0), g.genSym(), g.genAny(d-1))
	case 9:
		if len(g.buildFns) > 0 {
			return fmt.Sprintf("(%s %d)", pick(g.r, g.buildFns), g.r.Intn(9))
		}
		return g.genList(d - 1)
	case 10:
		if len(g.lstVars) > 0 {
			// Mutation mid-expression, as in the lispc fuzz generator.
			if v := pick(g.r, g.lstVars); !g.counter(v) {
				return fmt.Sprintf("(cons (length %s) (progn (setq %s %s) %s))",
					v, v, g.genList(d-1), v)
			}
		}
		return g.genList(d - 1)
	default:
		return fmt.Sprintf("(cadr (cons %s (cons %s nil)))", g.genAny(d-1), g.genList(d-1))
	}
}

// genAny produces a value of any kind, for princ and result tuples.
func (g *Gen) genAny(d int) string {
	switch g.r.Intn(7) {
	case 0:
		return g.genInt(d)
	case 1:
		return g.genList(d)
	case 2:
		return g.genSym()
	case 3:
		return pick(g.r, genStrs)
	case 4:
		return g.genFloat(d)
	case 5:
		if len(g.vecVars) > 0 {
			return pick(g.r, g.vecVars).name
		}
		return g.genInt(d)
	default:
		if g.r.Intn(2) == 0 {
			return g.genBool(d)
		}
		return g.genInt(d)
	}
}
