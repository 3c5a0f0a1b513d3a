package mipsx

// Superblock dataflow: value-numbering availability analysis, tag-check
// elision, and cross-block refusion over the flattened stream.
//
// formSuperblock rebuilds each element's body as single-instruction units
// straight from the predecoded stream and hands the whole flat sequence to
// optimizeUnits, which runs three passes:
//
//  1. Elision. A forward walk assigns every register a value number (a
//     congruence class: two operands with the same VN provably hold the
//     same word on this execution of the stream). Facts learned from
//     passed guards — "the edge at element 3 only lets values with tag 5
//     through" — are keyed on VNs, not registers, so nothing is killed by
//     register writes; a fact dies only when every register holding its
//     value has been overwritten, which the VN indirection tracks for
//     free. A tag check (LDC/STC, or the software srli/bnei idiom's
//     compare edge) dominated by an earlier identical check on the same
//     VN always passes — a failing dominator would have left the stream
//     first — so the repeat is elided: conditional edges are dropped
//     outright, checked accesses are weakened to unchecked kinds that
//     keep the access's masking and fault semantics bit-identical.
//     Memory-tagging granule checks (LDM/STM) get the same treatment from
//     a separate fact set that is invalidated by *any* store, because
//     granule colors live in simulated memory; a granule check is never
//     elided across a store. Pure recomputations whose destination
//     already holds the result VN are dropped too.
//
//     Elision never touches simulated statistics: block bodies are
//     charged statically per element run, so the reference-exact
//     expansion at flush charges every elided check's cycles and CatCheck
//     attribution exactly as if it had executed. What elision removes is
//     host dispatches, and those are counted honestly in
//     NativeStats.ElidedChecks via the same exit-site expansion.
//
//  2. Refusion. The surviving units are re-fused with the block
//     translator's peephole table, but across former block boundaries:
//     elision opens adjacencies (a dropped check puts its neighbors side
//     by side) that block-local fusion could never see. Memory-pair kinds
//     whose executors attribute faults to textually adjacent pcs are only
//     formed when the halves really are adjacent; pairs with a pure first
//     half borrow the step's otherwise-unused off field so the faultable
//     second half still reports its exact source pc.
//
//  3. Edge fusion. The hottest remaining dispatch shapes around guards
//     are collapsed: the software tag-check idiom's srli feeding a bnei
//     edge becomes one kEdgeSrliBnei step, a bnei edge followed by the
//     next element's leading and (the untag that follows a passed check)
//     becomes kEdgeBneiAnd with the and performed only after the guard
//     passes, and the jr+ADDI return fold from the original formation is
//     reapplied here.
//
// The pass runs only on superblock streams — private copies — never on
// the shared per-block steps the translated engine executes, so the
// engine being used as the speedup denominator is untouched.

import (
	"fmt"
	"strings"
	"sync/atomic"
)

// SBOpt toggles individual superblock dataflow passes, for ablation
// benchmarks and the difftest dataflow-equivalence invariant. Settings
// affect superblocks formed after the call; build a fresh image (or
// Program) to measure a setting from a cold start.
type SBOpt struct {
	NoElide  bool // keep every check and redundant op in the stream
	NoRefuse bool // fuse only within one element, original kinds only
}

var sbOptP atomic.Pointer[SBOpt]

// SetSBOpt installs o for subsequently formed superblocks.
func SetSBOpt(o SBOpt) { sbOptP.Store(&o) }

// CurSBOpt returns the current superblock dataflow settings.
func CurSBOpt() SBOpt {
	if p := sbOptP.Load(); p != nil {
		return *p
	}
	return SBOpt{}
}

// ParseSBOpt parses a comma-separated ablation list ("noelide,norefuse",
// empty for the defaults), the spelling the SIM_SBOPT
// environment variable and the benchmark harnesses use.
func ParseSBOpt(s string) (SBOpt, error) {
	var o SBOpt
	if s == "" {
		return o, nil
	}
	for _, f := range strings.Split(s, ",") {
		switch strings.TrimSpace(f) {
		case "":
		case "noelide":
			o.NoElide = true
		case "norefuse":
			o.NoRefuse = true
		default:
			return o, fmt.Errorf("unknown superblock ablation %q (want noelide or norefuse)", f)
		}
	}
	return o, nil
}

// sbUnit is one stream step during formation, tagged with the element it
// came from and whether it is a delay-slot step (slots never fuse with
// body or edge steps, so a slot fault keeps attributing to a slot pc).
type sbUnit struct {
	s    tstep
	elem int32
	slot bool
}

// sbOptResult is what optimizeUnits hands back to formSuperblock.
type sbOptResult struct {
	steps []tstep
	// Per-element unit ranges in steps, same convention as sbElem.
	stepLo, slotLo, stepHi []int32
	// Per-element count of checks elided from that element's units.
	elided []uint16
	// Static pass totals for introspection.
	elidedChecks int32 // check sites removed or weakened
	droppedSteps int32 // redundant pure units dropped
	rawUnits     int32 // units before optimization
}

// optimizeUnits runs elision, refusion and edge fusion over the stream.
func optimizeUnits(units []sbUnit, nElems int, sp *nspec, opt SBOpt) sbOptResult {
	res := sbOptResult{rawUnits: int32(len(units))}
	elided := make([]uint16, nElems)
	if !opt.NoElide {
		units = elideUnits(units, sp, elided, &res)
	}
	units = refuseUnits(units, !opt.NoRefuse)
	if !opt.NoRefuse {
		units = fuseEdgeUnits(units, elided, &res)
	}
	units = foldJrSlots(units)

	res.steps = make([]tstep, len(units))
	res.stepLo = make([]int32, nElems)
	res.slotLo = make([]int32, nElems)
	res.stepHi = make([]int32, nElems)
	res.elided = elided
	cur := int32(0)
	res.stepLo[0] = 0
	res.slotLo[0] = -1
	for i := range units {
		u := &units[i]
		for cur < u.elem {
			if res.slotLo[cur] < 0 {
				res.slotLo[cur] = int32(i)
			}
			res.stepHi[cur] = int32(i)
			cur++
			res.stepLo[cur] = int32(i)
			res.slotLo[cur] = -1
		}
		if u.slot && res.slotLo[cur] < 0 {
			res.slotLo[cur] = int32(i)
		}
		res.steps[i] = u.s
	}
	for {
		if res.slotLo[cur] < 0 {
			res.slotLo[cur] = int32(len(units))
		}
		res.stepHi[cur] = int32(len(units))
		cur++
		if int(cur) >= nElems {
			break
		}
		res.stepLo[cur] = int32(len(units))
		res.slotLo[cur] = -1
	}
	return res
}

// Fact kinds for the availability analysis. Every fact is a predicate over
// value numbers whose truth was established by a passed guard; branch
// opcodes canonicalize onto these five shapes (BNE is a negated BEQ, BGT
// a,b is LT(b,a), and so on).
const (
	fEQ    uint8 = iota // values a and b are equal
	fLT                 // signed a < b
	fEQI                // value a equals immediate
	fLTI                // signed a < immediate
	fTAGEQ              // tag field of value a equals immediate
)

type factKey struct {
	kind uint8
	a, b uint32
	imm  int32
}

// vnKey interns the result class of a pure operation.
type vnKey struct {
	op   uint8
	a, b uint32
	imm  int32
}

// mtKey identifies one granule check: the checked item's VN, the access
// offset, and the color-base register's VN. Kept in a set separate from
// the register facts because granule colors live in simulated memory:
// any store clears the whole set.
type mtKey struct {
	av, cv uint32
	imm    int32
}

// vnAn is the analysis state of one forward walk.
type vnAn struct {
	vn     [33]uint32 // current VN per working register (incl. RScratch)
	next   uint32
	tab    map[vnKey]uint32
	consts map[uint32]int32 // VNs with a known constant value
	facts  map[factKey]bool
	posTag map[uint32]uint8 // VN -> proven tag field (from a true fTAGEQ)
	posImm map[uint32]int32 // VN -> proven value (from a true fEQI)
	mt     map[mtKey]bool
	sp     *nspec
}

func newVNAn(sp *nspec) *vnAn {
	a := &vnAn{
		tab:    make(map[vnKey]uint32),
		consts: make(map[uint32]int32),
		facts:  make(map[factKey]bool),
		posTag: make(map[uint32]uint8),
		posImm: make(map[uint32]int32),
		mt:     make(map[mtKey]bool),
		sp:     sp,
	}
	for i := range a.vn {
		a.vn[i] = uint32(i)
	}
	a.next = uint32(len(a.vn))
	return a
}

func (a *vnAn) fresh() uint32 {
	v := a.next
	a.next++
	return v
}

func (a *vnAn) intern(k vnKey) uint32 {
	if v, ok := a.tab[k]; ok {
		return v
	}
	v := a.fresh()
	a.tab[k] = v
	return v
}

// constVN interns the VN of a known constant.
func (a *vnAn) constVN(v int32) uint32 {
	id := a.intern(vnKey{op: uint8(LI), imm: v})
	a.consts[id] = v
	return id
}

// killStores clears the granule-check facts; called for every store kind.
func (a *vnAn) killStores() {
	if len(a.mt) > 0 {
		clear(a.mt)
	}
}

// pureVN computes the result VN of a pure single-instruction step, folding
// constants where both operands are known. ok is false for ops the
// analysis does not model as droppable-pure.
func (a *vnAn) pureVN(s *tstep) (uint32, bool) {
	op := Op(s.kind)
	v1 := a.vn[s.rs1]
	switch op {
	case MOV:
		return v1, true
	case LI:
		return a.constVN(s.imm), true
	case ADDI, ORI, XORI, SLLI, SRLI, SRAI:
		if s.imm == 0 {
			return v1, true
		}
		fallthrough
	case ANDI:
		if c, ok := a.consts[v1]; ok {
			var r int32
			switch op {
			case ADDI:
				r = c + s.imm
			case ANDI:
				r = int32(uint32(c) & uint32(s.imm))
			case ORI:
				r = int32(uint32(c) | uint32(s.imm))
			case XORI:
				r = int32(uint32(c) ^ uint32(s.imm))
			case SLLI:
				r = int32(uint32(c) << (uint32(s.imm) & 31))
			case SRLI:
				r = int32(uint32(c) >> (uint32(s.imm) & 31))
			case SRAI:
				r = c >> (uint32(s.imm) & 31)
			}
			return a.constVN(r), true
		}
		return a.intern(vnKey{op: s.kind, a: v1, imm: s.imm}), true
	case ADD, SUB, AND, OR, XOR, SLL, SRL, SRA, MUL,
		FADD, FSUB, FMUL, FDIV, FLT, FEQ:
		v2 := a.vn[s.rs2]
		switch op { // commutative ops get a canonical operand order
		case ADD, AND, OR, XOR, MUL, FADD, FMUL, FEQ:
			if v2 < v1 {
				v1, v2 = v2, v1
			}
		}
		return a.intern(vnKey{op: s.kind, a: v1, b: v2}), true
	case ITOF, FTOI:
		return a.intern(vnKey{op: s.kind, a: v1}), true
	case DIV, REM, ADDTC, SUBTC:
		// Faultable, but deterministic given the operands: reaching a
		// repeat proves the first did not fault, so a repeat with both
		// operand VNs unchanged is droppable like a pure op.
		v2 := a.vn[s.rs2]
		if op == ADDTC {
			if v2 < v1 {
				v1, v2 = v2, v1
			}
		}
		return a.intern(vnKey{op: s.kind, a: v1, b: v2}), true
	}
	return 0, false
}

// edgePred canonicalizes a conditional edge's predicate: the fact key, the
// sense relating the fact's truth to "branch taken", and the branch
// operands' validity.
func (a *vnAn) edgePred(op Op, s *tstep) (key factKey, sense bool, ok bool) {
	v1 := a.vn[s.rs1]
	switch op {
	case BEQ, BNE:
		v2 := a.vn[s.rs2]
		if v2 < v1 {
			v1, v2 = v2, v1
		}
		return factKey{kind: fEQ, a: v1, b: v2}, op == BEQ, true
	case BLT, BGE:
		return factKey{kind: fLT, a: v1, b: a.vn[s.rs2]}, op == BLT, true
	case BLE, BGT: // a<=b == !(b<a); a>b == b<a
		return factKey{kind: fLT, a: a.vn[s.rs2], b: v1}, op == BGT, true
	case BEQI, BNEI:
		return factKey{kind: fEQI, a: v1, imm: s.imm}, op == BEQI, true
	case BLTI, BGEI:
		return factKey{kind: fLTI, a: v1, imm: s.imm}, op == BLTI, true
	case BTEQ, BTNE:
		return factKey{kind: fTAGEQ, a: v1, imm: int32(s.tag)}, op == BTEQ, true
	}
	return factKey{}, false, false
}

// lookupFact resolves a fact's truth from recorded guards, proven values,
// and constants. The second result is false when the truth is unknown.
func (a *vnAn) lookupFact(k factKey) (bool, bool) {
	if v, ok := a.facts[k]; ok {
		return v, true
	}
	c1, ok1 := a.consts[k.a]
	switch k.kind {
	case fEQI:
		if v, ok := a.posImm[k.a]; ok {
			return v == k.imm, true
		}
		if ok1 {
			return c1 == k.imm, true
		}
	case fLTI:
		if v, ok := a.posImm[k.a]; ok {
			return v < k.imm, true
		}
		if ok1 {
			return c1 < k.imm, true
		}
	case fTAGEQ:
		if t, ok := a.posTag[k.a]; ok {
			return t == uint8(k.imm), true
		}
		v := uint32(0)
		if v2, ok := a.posImm[k.a]; ok {
			v, ok1 = uint32(v2), true
		} else if ok1 {
			v = uint32(c1)
		}
		if ok1 {
			return uint8((v>>a.sp.tagShift)&a.sp.tagMask) == uint8(k.imm), true
		}
	case fEQ, fLT:
		if k.a == k.b {
			return k.kind == fEQ, true
		}
		if c2, ok2 := a.consts[k.b]; ok1 && ok2 {
			if k.kind == fEQ {
				return c1 == c2, true
			}
			return c1 < c2, true
		}
	}
	return false, false
}

// recordFact stores a guard-established fact and its implications.
func (a *vnAn) recordFact(k factKey, val bool) {
	a.facts[k] = val
	if !val {
		return
	}
	switch k.kind {
	case fEQI:
		a.posImm[k.a] = k.imm
	case fTAGEQ:
		a.posTag[k.a] = uint8(k.imm)
	case fEQ:
		// Equality merges knowledge between the two classes.
		if v, ok := a.posImm[k.a]; ok {
			a.posImm[k.b] = v
		} else if v, ok := a.posImm[k.b]; ok {
			a.posImm[k.a] = v
		}
		if t, ok := a.posTag[k.a]; ok {
			a.posTag[k.b] = t
		} else if t, ok := a.posTag[k.b]; ok {
			a.posTag[k.a] = t
		}
	}
}

// elideUnits is the forward availability walk. It returns the surviving
// units, bumps elided[elem] for every check site removed or weakened, and
// fills the pass totals in res.
func elideUnits(units []sbUnit, sp *nspec, elided []uint16, res *sbOptResult) []sbUnit {
	a := newVNAn(sp)
	out := units[:0]
	for i := range units {
		u := units[i]
		s := &u.s
		if s.kind < uint8(numOps) {
			op := Op(s.kind)
			switch op {
			case LD:
				a.vn[s.rd] = a.fresh()
			case LDT:
				a.vn[s.rd] = a.fresh()
			case ST, STT:
				a.killStores()
			case LDC, STC:
				k := factKey{kind: fTAGEQ, a: a.vn[s.rs1], imm: int32(s.tag)}
				if v, known := a.lookupFact(k); known && v {
					if op == LDC {
						s.kind = kLdcNC
					} else {
						s.kind = kStcNC
					}
					elided[u.elem]++
					res.elidedChecks++
				} else if !known {
					a.recordFact(k, true)
				}
				if op == LDC {
					a.vn[s.rd] = a.fresh()
				} else {
					a.killStores()
				}
			case LDM, STM:
				cb := s.tag
				if cb == RZero {
					cb = s.rs1
				}
				k := mtKey{av: a.vn[s.rs1], cv: a.vn[cb], imm: s.imm}
				if a.mt[k] {
					if op == LDM {
						s.kind = kLdmNC
					} else {
						s.kind = kStmNC
					}
					elided[u.elem]++
					res.elidedChecks++
				} else if op == LDM {
					a.mt[k] = true
				}
				if op == LDM {
					a.vn[s.rd] = a.fresh()
				} else {
					a.killStores()
				}
			default:
				if nv, pure := a.pureVN(s); pure {
					if a.vn[s.rd] == nv {
						res.droppedSteps++
						continue
					}
					a.vn[s.rd] = nv
				} else {
					// Unmodelled register-writing op: invalidate rd.
					a.vn[s.rd] = a.fresh()
				}
			}
			out = append(out, u)
			continue
		}

		switch k := s.kind; {
		case k == kEdge || (k >= kEdgeOp0 && k < kEdgeOp0+12):
			op := Op(s.rd)
			if k != kEdge {
				op = BEQ + Op(k-kEdgeOp0)
			}
			key, sense, ok := a.edgePred(op, s)
			if !ok {
				out = append(out, u)
				continue
			}
			hot := s.rs3 != 0
			pass := sense == hot // fact value that lets the stream continue
			if v, known := a.lookupFact(key); known {
				if v == pass {
					// The guard provably resolves to the hot direction:
					// the edge can never fire.
					elided[u.elem]++
					res.elidedChecks++
					continue
				}
				// Provably exits: keep the edge, learn nothing past it.
				out = append(out, u)
				continue
			}
			a.recordFact(key, pass)
			out = append(out, u)

		case k == kEdgeJr || k == kEdgeJrL:
			key := factKey{kind: fEQI, a: a.vn[s.rs1], imm: s.imm}
			v, known := a.lookupFact(key)
			if known && v {
				elided[u.elem]++
				res.elidedChecks++
				if k == kEdgeJr {
					continue // guard implied, nothing else to do
				}
				// Keep the link write as a plain LI.
				li := tstep{kind: uint8(LI), n: s.n, rd: RRA, imm: s.imm2, off: s.off}
				a.vn[RRA] = a.constVN(s.imm2)
				out = append(out, sbUnit{s: li, elem: u.elem})
				continue
			}
			if !known {
				a.recordFact(key, true)
				a.vn[s.rs1] = a.constVN(s.imm)
			}
			if k == kEdgeJrL {
				a.vn[RRA] = a.constVN(s.imm2)
			}
			out = append(out, u)

		default:
			out = append(out, u)
		}
	}
	return out
}

// unitRunLen measures a packable save/restore run over units: the same
// rule as memRunLen, plus textual adjacency (the run executor attributes
// a slow-path fault to off+k).
func unitRunLen(units []sbUnit, i, end int) int {
	s0 := &units[i].s
	op := Op(s0.kind)
	if op != LD && op != ST {
		return 0
	}
	n := 1
	for n < 4 && i+n < end {
		s := &units[i+n].s
		if s.kind != s0.kind || s.rs1 != s0.rs1 ||
			s.imm != s0.imm+int32(4*n) || s.off != s0.off+int32(n) {
			break
		}
		if op == LD && units[i+n-1].s.rd == s0.rs1 {
			break
		}
		n++
	}
	if n < 3 {
		return 0
	}
	return n
}

// unitRunStep packs a measured run into one kLd3/kLd4/kSt3/kSt4 step.
func unitRunStep(units []sbUnit, i, n int) tstep {
	s0 := &units[i].s
	s := tstep{rs1: s0.rs1, imm: s0.imm, off: s0.off}
	var packed uint32
	var cover uint8
	for k := 0; k < n; k++ {
		e := &units[i+k].s
		reg := e.rd
		if Op(s0.kind) == ST {
			reg = e.rs2
		}
		packed |= uint32(reg) << (8 * k)
		cover += e.n
	}
	s.n = cover
	s.imm2 = int32(packed)
	switch {
	case Op(s0.kind) == LD && n == 3:
		s.kind = kLd3
	case Op(s0.kind) == LD && n == 4:
		s.kind = kLd4
	case Op(s0.kind) == ST && n == 3:
		s.kind = kSt3
	default:
		s.kind = kSt4
	}
	return s
}

// fuseUnitPair applies the translator's pair table to two stream units.
// Pairs whose executors touch memory in both halves attribute faults to
// off and off+1, so they require textual adjacency; a pure first half
// instead repositions off so the faultable second half keeps its exact pc.
func fuseUnitPair(s1, s2 *tstep, newKinds bool) (tstep, bool) {
	if s1.kind >= uint8(numOps) || s2.kind >= uint8(numOps) {
		return tstep{}, false
	}
	o1, o2 := Op(s1.kind), Op(s2.kind)
	var kind uint8
	switch {
	case o1 == SRLI && o2 == ANDI:
		kind = kSrliAndi
	case o1 == SLLI && o2 == ORI:
		kind = kSlliOri
	case o1 == MOV && o2 == MOV:
		kind = kMovMov
	case o1 == ANDI && o2 == LD:
		kind = kAndiLd
	case o1 == ADDI && o2 == LD:
		kind = kAddiLd
	case o1 == AND && o2 == LD && newKinds:
		kind = kAndLd
	case o1 == LD && o2 == LD:
		kind = kLdLd
	case o1 == ST && o2 == ST:
		kind = kStSt
	case o1 == MOV && o2 == LD:
		kind = kMovLd
	case o1 == LD && o2 == MOV:
		kind = kLdMov
	case o1 == LD && o2 == ST:
		kind = kLdSt
	case o1 == ST && o2 == LD:
		kind = kStLd
	case o1 == ST && o2 == MOV:
		kind = kStMov
	case o1 == MOV && o2 == ST:
		kind = kMovSt
	case o1 == ADDI && o2 == ST:
		kind = kAddiSt
	case o1 == LD && o2 == SRLI:
		kind = kLdSrli
	case o1 == MOV && o2 == SRLI:
		kind = kMovSrli
	case o1 == LD && o2 == ADDI:
		kind = kLdAddi
	case o1 == ST && o2 == LI:
		kind = kStLi
	case o1 == LI && o2 == OR:
		kind = kLiOr
	case o1 == OR && o2 == ADDI:
		kind = kOrAddi
	case o1 == SLLI && o2 == SRAI:
		kind = kSlliSrai
	default:
		return tstep{}, false
	}
	off := s1.off
	switch kind {
	case kLdLd, kStSt, kLdSt, kStLd:
		if s2.off != s1.off+1 {
			return tstep{}, false
		}
	case kAndiLd, kAddiLd, kAndLd, kMovLd, kMovSt, kAddiSt:
		off = s2.off - 1 // pure first half: fault pc is off+1 == s2.off
	}
	return tstep{
		kind: kind, n: s1.n + s2.n,
		rd: s1.rd, rs1: s1.rs1, rs2: s1.rs2, imm: s1.imm,
		rd2: s2.rd, rs3: s2.rs1, tag: s2.rs2, imm2: s2.imm,
		off: off,
	}, true
}

// refuseUnits re-fuses the stream. With cross set, regions of consecutive
// body units extend across element boundaries and the new pair kinds are
// allowed; otherwise fusion is element-local with the original table
// (the no-refusion ablation baseline, matching block-level fusion). Edge
// units always break regions; delay-slot units form their own regions so
// a slot never fuses with body or edge steps.
func refuseUnits(units []sbUnit, cross bool) []sbUnit {
	out := units[:0]
	for lo := 0; lo < len(units); {
		u0 := &units[lo]
		hi := lo + 1
		if u0.s.kind < uint8(numOps) {
			for hi < len(units) {
				u := &units[hi]
				if u.s.kind >= uint8(numOps) || u.slot != u0.slot ||
					(!cross && u.elem != u0.elem) ||
					(u0.slot && u.elem != u0.elem) {
					break
				}
				hi++
			}
		}
		out = refuseRegion(out, units, lo, hi, cross)
		lo = hi
	}
	return fuseUnitMovRuns(out)
}

// refuseRegion greedily packs [lo, hi): save/restore runs first, then
// pairs, then singles, mirroring fuseSteps.
func refuseRegion(out, units []sbUnit, lo, hi int, newKinds bool) []sbUnit {
	for i := lo; i < hi; {
		if n := unitRunLen(units, i, hi); n >= 3 {
			out = append(out, sbUnit{
				s: unitRunStep(units, i, n), elem: units[i].elem, slot: units[i].slot,
			})
			i += n
			continue
		}
		if i+1 < hi {
			if s, ok := fuseUnitPair(&units[i].s, &units[i+1].s, newKinds); ok {
				out = append(out, sbUnit{s: s, elem: units[i].elem, slot: units[i].slot})
				i += 2
				continue
			}
		}
		out = append(out, units[i])
		i++
	}
	return out
}

// fuseUnitMovRuns is the second-level mov merge from fuseMovRuns, applied
// to adjacent body units (slots excluded, as in block translation where
// slots never reach this pass).
func fuseUnitMovRuns(units []sbUnit) []sbUnit {
	out := units[:0]
	for i := 0; i < len(units); i++ {
		u := units[i]
		s := &u.s
		if i+1 < len(units) && !u.slot && !units[i+1].slot {
			t := &units[i+1].s
			switch {
			case s.kind == kMovMov && t.kind == kMovMov:
				s.kind = kMov4
				s.rs2, s.tag = t.rd, t.rs1
				s.imm = int32(uint32(t.rd2) | uint32(t.rs3)<<8)
				s.n += t.n
				i++
			case s.kind == kMovMov && t.kind == uint8(MOV):
				s.kind = kMov3
				s.rs2, s.tag = t.rd, t.rs1
				s.n += t.n
				i++
			case s.kind == uint8(MOV) && t.kind == kMovMov:
				s.kind = kMov3
				s.rd2, s.rs3 = t.rd, t.rs1
				s.rs2, s.tag = t.rd2, t.rs3
				s.n += t.n
				i++
			}
		}
		out = append(out, u)
	}
	return out
}

// fuseEdgeUnits collapses the hottest guard-adjacent shapes. The srli half
// of kEdgeSrliBnei belongs to the same element as its edge, so its write
// has always happened when a side exit charges that element's full body.
// The and half of kEdgeBneiAnd belongs to the *next* element and executes
// only after the guard passes — a side exit leaves it to the per-block
// path — which is only sound when no delay-slot steps sit between the
// edge and the next body (slots run before the next element's body).
func fuseEdgeUnits(units []sbUnit, elided []uint16, res *sbOptResult) []sbUnit {
	out := units[:0]
	for i := 0; i < len(units); i++ {
		u := units[i]
		s := &u.s
		if i+1 < len(units) {
			t := &units[i+1].s
			switch {
			case s.kind == uint8(SRLI) && !u.slot &&
				t.kind == kEdgeOp0+uint8(BNEI-BEQ) &&
				units[i+1].elem == u.elem && t.rs1 == s.rd:
				u.s = tstep{
					kind: kEdgeSrliBnei, n: s.n + t.n,
					rd: s.rd, rs1: s.rs1, imm: s.imm,
					imm2: t.imm, rd2: t.rd2, rs3: t.rs3, off: t.off,
				}
				u.elem = units[i+1].elem
				i++
			case s.kind == kEdgeOp0+uint8(BNEI-BEQ) &&
				t.kind == uint8(AND) && !units[i+1].slot &&
				units[i+1].elem == u.elem+1:
				u.s = tstep{
					kind: kEdgeBneiAnd, n: s.n + t.n,
					rs1: s.rs1, imm: s.imm, rd2: s.rd2, rs3: s.rs3,
					rd: t.rd, tag: t.rs1, rs2: t.rs2, off: s.off,
				}
				i++
			}
		}
		out = append(out, u)
	}
	return out
}

// foldJrSlots reapplies the jr+ADDI return fold: a kEdgeJr edge whose
// element's only delay-slot step is a single ADDI absorbs it, exactly as
// the original formation did (the ADDI runs only once the guard has
// passed, and cannot fault).
func foldJrSlots(units []sbUnit) []sbUnit {
	out := units[:0]
	for i := 0; i < len(units); i++ {
		u := units[i]
		if u.s.kind == kEdgeJr && i+1 < len(units) {
			sl := &units[i+1]
			last := i+2 >= len(units) || !units[i+2].slot || units[i+2].elem != u.elem
			if sl.slot && sl.elem == u.elem && sl.s.kind == uint8(ADDI) && last {
				u.s.kind = kEdgeJrA
				u.s.rd, u.s.rs2, u.s.imm2 = sl.s.rd, sl.s.rs1, sl.s.imm
				u.s.n += sl.s.n
				i++
			}
		}
		out = append(out, u)
	}
	return out
}
