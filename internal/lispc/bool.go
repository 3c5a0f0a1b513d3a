package lispc

import (
	"repro/internal/mipsx"
	"repro/internal/sexpr"
	"repro/internal/tags"
)

// test compiles expr as a condition: control transfers to target when the
// truth of expr equals branchWhen, and falls through otherwise. squash marks
// the emitted branches to target as squashing (used for loop back-edges).
// Boolean structure (and/or/not), type predicates, eq and numeric compares
// compile to direct branches without materializing t/nil.
func (f *fnc) test(e sexpr.Value, target mipsx.Label, branchWhen, squash bool) {
	f.spillAllTemps()
	from := f.a.Len()
	f.test1(e, target, branchWhen)
	if squash {
		f.a.MarkSquash(from, target)
	}
}

func (f *fnc) test1(e sexpr.Value, target mipsx.Label, branchWhen bool) {
	switch v := e.(type) {
	case nil:
		if !branchWhen {
			f.a.Jmp(target)
		}
		return
	case sexpr.Int, sexpr.Str:
		if branchWhen {
			f.a.Jmp(target)
		}
		return
	case *sexpr.Sym:
		if v.Name == "nil" {
			f.test1(nil, target, branchWhen)
			return
		}
		if v.Name == "t" {
			if branchWhen {
				f.a.Jmp(target)
			}
			return
		}
	case *sexpr.Cell:
		if f.testCompound(v, target, branchWhen) {
			return
		}
	}
	// General case: evaluate and compare with NIL.
	o := f.expr(e)
	r := f.reg(o)
	f.a.Work()
	if branchWhen {
		f.a.Bne(r, mipsx.RNil, target)
	} else {
		f.a.Beq(r, mipsx.RNil, target)
	}
	f.free(o)
}

// testCompound handles boolean-structured forms; reports false when the
// form has no special conditional compilation.
func (f *fnc) testCompound(cell *sexpr.Cell, target mipsx.Label, branchWhen bool) bool {
	head, ok := cell.Car.(*sexpr.Sym)
	if !ok {
		return false
	}
	args, err := sexpr.ListVals(cell.Cdr)
	if err != nil {
		panic(f.errf("improper form %s", sexpr.String(cell)))
	}
	s := f.c.Opts.Scheme
	hw := f.c.Opts.HW

	switch head.Name {
	case "quote":
		// Quoted data is always true except nil.
		truth := args[0] != nil
		if truth == branchWhen {
			f.a.Jmp(target)
		}
		return true

	case "not", "null":
		if len(args) != 1 {
			panic(f.errf("%s wants 1 arg", head.Name))
		}
		f.test1(args[0], target, !branchWhen)
		return true

	case "and":
		if len(args) == 0 {
			f.test1(&sexpr.Sym{Name: "t"}, target, branchWhen)
			return true
		}
		if !branchWhen {
			for _, a := range args {
				f.test1(a, target, false)
			}
		} else {
			out := f.label()
			for _, a := range args[:len(args)-1] {
				f.test1(a, out, false)
			}
			f.test1(args[len(args)-1], target, true)
			f.a.Bind(out)
		}
		return true

	case "or":
		if len(args) == 0 {
			f.test1(nil, target, branchWhen)
			return true
		}
		if branchWhen {
			for _, a := range args {
				f.test1(a, target, true)
			}
		} else {
			out := f.label()
			for _, a := range args[:len(args)-1] {
				f.test1(a, out, true)
			}
			f.test1(args[len(args)-1], target, false)
			f.a.Bind(out)
		}
		return true

	case "consp", "pairp":
		f.typePred(args, tags.TPair, branchWhen, target, false)
		return true
	case "atom":
		f.typePred(args, tags.TPair, !branchWhen, target, false)
		return true
	case "symbolp":
		f.typePred(args, tags.TSymbol, branchWhen, target, false)
		return true
	case "vectorp":
		f.typePred(args, tags.TVector, branchWhen, target, false)
		return true
	case "stringp":
		f.typePred(args, tags.TString, branchWhen, target, false)
		return true
	case "floatp":
		f.typePred(args, tags.TFloat, branchWhen, target, false)
		return true
	case "intp", "fixp", "numberp":
		// numberp treats fixnums as the common case; floats take the
		// slow path through the general test only when floats exist,
		// which our dialect folds into intp for the benchmarks.
		if len(args) != 1 {
			panic(f.errf("%s wants 1 arg", head.Name))
		}
		o := f.expr(args[0])
		r := f.reg(o)
		f.withSub(mipsx.SubSource, false)
		if head.Name == "numberp" {
			// Integer test, then float test on failure.
			if branchWhen {
				tags.EmitIntTest(f.a, s, r, scratch, true, target)
				tags.EmitTypeTest(f.a, s, hw, r, scratch, tags.TFloat, true, target)
			} else {
				isNum := f.label()
				tags.EmitIntTest(f.a, s, r, scratch, true, isNum)
				tags.EmitTypeTest(f.a, s, hw, r, scratch, tags.TFloat, false, target)
				f.a.Bind(isNum)
			}
		} else {
			tags.EmitIntTest(f.a, s, r, scratch, branchWhen, target)
		}
		f.a.Work()
		f.free(o)
		return true

	case "eq", "neq":
		if len(args) != 2 {
			panic(f.errf("%s wants 2 args", head.Name))
		}
		want := branchWhen == (head.Name == "eq")
		f.eqTest(args[0], args[1], want, target)
		return true

	case "=", "<", ">", "<=", ">=":
		if len(args) != 2 {
			panic(f.errf("%s wants 2 args", head.Name))
		}
		f.numCompare(head.Name, args[0], args[1], branchWhen, target)
		return true

	case "%=", "%<", "%<=", "%>", "%>=":
		// Raw machine comparisons for system code.
		if len(args) != 2 {
			panic(f.errf("%s wants 2 args", head.Name))
		}
		o1 := f.protect(f.expr(args[0]), args[1])
		o2 := f.expr(args[1])
		r1, r2 := f.reg(o1), f.reg(o2)
		f.a.Work()
		f.rawBranch(head.Name[1:], r1, r2, branchWhen, target)
		f.free(o2)
		f.free(o1)
		return true

	case "%headerp":
		if len(args) != 1 {
			panic(f.errf("%%headerp wants 1 arg"))
		}
		o := f.expr(args[0])
		r := f.reg(o)
		f.a.Cat(mipsx.CatTagExtract, mipsx.SubNone)
		if s.NeedsMask() {
			f.a.Srli(scratch, r, int32(s.HWShift()))
		} else {
			f.a.Andi(scratch, r, int32(s.HWMask()))
		}
		f.a.Cat(mipsx.CatTagCheck, mipsx.SubNone)
		hdrTag := int32(s.Tag(tags.THeader))
		if branchWhen {
			f.a.Beqi(scratch, hdrTag, target)
		} else {
			f.a.Bnei(scratch, hdrTag, target)
		}
		f.a.Work()
		f.free(o)
		return true

	case "%fits-fixnum":
		// Raw value fits the scheme's fixnum range.
		if len(args) != 1 {
			panic(f.errf("%%fits-fixnum wants 1 arg"))
		}
		o := f.expr(args[0])
		r := f.reg(o)
		fb := s.FixnumBits()
		lo := int32(-1) << (fb - 1)
		hi := int32(1)<<(fb-1) - 1
		f.a.Work()
		if branchWhen {
			out := f.label()
			f.a.Blti(r, lo, out)
			f.a.Bgei(r, hi+1, out)
			f.a.Jmp(target)
			f.a.Bind(out)
		} else {
			f.a.Blti(r, lo, target)
			f.a.Bgei(r, hi+1, target)
		}
		f.free(o)
		return true

	case "%heapptrp":
		if len(args) != 1 {
			panic(f.errf("%%heapptrp wants 1 arg"))
		}
		o := f.expr(args[0])
		r := f.reg(o)
		f.emitHeapPtrTest(r, branchWhen, target)
		f.free(o)
		return true
	}
	return false
}

// typePred compiles a one-argument type predicate in branch position.
func (f *fnc) typePred(args []sexpr.Value, t tags.Type, whenEq bool, target mipsx.Label, rt bool) {
	if len(args) != 1 {
		panic(f.errf("type predicate wants 1 arg"))
	}
	o := f.expr(args[0])
	r := f.reg(o)
	f.withSub(mipsx.SubSource, rt)
	tags.EmitTypeTest(f.a, f.c.Opts.Scheme, f.c.Opts.HW, r, scratch, t, whenEq, target)
	f.a.Work()
	f.free(o)
}

// eqTest compiles pointer equality, folding constant operands into
// compare-immediate branches.
func (f *fnc) eqTest(x, y sexpr.Value, branchWhen bool, target mipsx.Label) {
	// Prefer the constant on the right.
	if f.constItem(x) != nil && f.constItem(y) == nil {
		x, y = y, x
	}
	o := f.protect(f.expr(x), y)
	f.a.Work()
	if item := f.constItem(y); item != nil {
		r := f.reg(o)
		if *item == f.c.Consts.SymbolItem("nil") {
			if branchWhen {
				f.a.Beq(r, mipsx.RNil, target)
			} else {
				f.a.Bne(r, mipsx.RNil, target)
			}
		} else if branchWhen {
			f.a.Beqi(r, int32(*item), target)
		} else {
			f.a.Bnei(r, int32(*item), target)
		}
		f.free(o)
		return
	}
	o2 := f.expr(y)
	r1, r2 := f.reg(o), f.reg(o2)
	f.a.Work()
	if branchWhen {
		f.a.Beq(r1, r2, target)
	} else {
		f.a.Bne(r1, r2, target)
	}
	f.free(o2)
	f.free(o)
}

// constItem resolves a compile-time-constant expression to its item.
func (f *fnc) constItem(e sexpr.Value) *uint32 {
	switch v := e.(type) {
	case nil:
		item := f.c.Consts.SymbolItem("nil")
		return &item
	case sexpr.Int:
		item := f.intItem(int64(v))
		return &item
	case *sexpr.Sym:
		if v.Name == "nil" || v.Name == "t" {
			item := f.c.Consts.SymbolItem(v.Name)
			return &item
		}
	case *sexpr.Cell:
		if head, ok := v.Car.(*sexpr.Sym); ok && head.Name == "quote" {
			if args, err := sexpr.ListVals(v.Cdr); err == nil && len(args) == 1 {
				item := f.quoteItem(args[0])
				return &item
			}
		}
	}
	return nil
}

// numCompare compiles a numeric comparison in branch position. Without
// checking it is a raw compare-and-branch (fixnum items order like machine
// integers under every scheme). With checking it becomes integer-biased:
// inline integer tests guard a raw compare, with a deferred call to the
// generic comparison routine for non-fixnum operands.
func (f *fnc) numCompare(op string, x, y sexpr.Value, branchWhen bool, target mipsx.Label) {
	o1 := f.protect(f.expr(x), y)
	o2 := f.expr(y)
	r1, r2 := f.reg(o1), f.reg(o2)

	if !f.c.Opts.Checking {
		f.a.Work()
		f.rawBranch(op, r1, r2, branchWhen, target)
		f.free(o2)
		f.free(o1)
		return
	}

	s := f.c.Opts.Scheme
	slow := f.namedLabel("gencmp")
	cont := f.label()
	_, k1 := constInt(x)
	_, k2 := constInt(y)
	f.withSub(mipsx.SubArith, true)
	if !k1 {
		tags.EmitIntTest(f.a, s, r1, scratch, false, slow)
	}
	if !k2 {
		tags.EmitIntTest(f.a, s, r2, scratch, false, slow)
	}
	f.a.Work()
	f.rawBranch(op, r1, r2, branchWhen, target)
	f.a.Bind(cont)
	f.deferSlowCall(slow, cont, "generic-compare",
		[]uint8{r1, r2}, []uint32{f.intItem(int64(cmpCode(op)))},
		[]operand{o1, o2},
		func() {
			// Generic compare returned t or nil in R2.
			f.a.Work()
			if branchWhen {
				f.a.Bne(mipsx.RRet, mipsx.RNil, target)
			} else {
				f.a.Beq(mipsx.RRet, mipsx.RNil, target)
			}
		})
	f.free(o2)
	f.free(o1)
}

func cmpCode(op string) int {
	switch op {
	case "=":
		return 0
	case "<":
		return 1
	case "<=":
		return 2
	case ">":
		return 3
	case ">=":
		return 4
	}
	panic("bad compare op " + op)
}

// rawBranch emits the machine compare-and-branch for op with the given
// polarity.
func (f *fnc) rawBranch(op string, r1, r2 uint8, branchWhen bool, target mipsx.Label) {
	type br struct{ pos, neg mipsx.Op }
	table := map[string]br{
		"=":  {mipsx.BEQ, mipsx.BNE},
		"<":  {mipsx.BLT, mipsx.BGE},
		"<=": {mipsx.BLE, mipsx.BGT},
		">":  {mipsx.BGT, mipsx.BLE},
		">=": {mipsx.BGE, mipsx.BLT},
	}
	b, ok := table[op]
	if !ok {
		panic(f.errf("bad comparison %q", op))
	}
	o := b.pos
	if !branchWhen {
		o = b.neg
	}
	f.a.Raw(mipsx.Instr{Op: o, Rs1: r1, Rs2: r2, Target: int32(target)})
}

// emitHeapPtrTest branches when the item is (or is not) a heap pointer that
// the garbage collector must trace. Raw addresses, fixnums and code items
// all fail the test by construction. The sequence is derived from the
// scheme's tag table (tags.EmitHeapPtrTest), so searched schemes compile
// without scheme-specific compiler cases.
func (f *fnc) emitHeapPtrTest(r uint8, branchWhen bool, target mipsx.Label) {
	tags.EmitHeapPtrTest(f.a, f.c.Opts.Scheme, r, scratch, branchWhen, target)
	f.a.Work()
}

// boolValue materializes a boolean expression as t/nil through the merge
// register.
func (f *fnc) boolValue(e sexpr.Value) operand {
	f.spillAllTemps()
	lTrue := f.label()
	lEnd := f.label()
	f.test(e, lTrue, true, false)
	f.a.Work()
	f.a.Mov(mipsx.RRet, mipsx.RNil)
	f.a.Jmp(lEnd)
	f.a.Bind(lTrue)
	f.a.Li(mipsx.RRet, int32(f.c.Consts.SymbolItem("t")))
	f.a.Bind(lEnd)
	t := f.allocTemp()
	f.a.Mov(t.reg, mipsx.RRet)
	return operand{reg: t.reg, tmp: t}
}
