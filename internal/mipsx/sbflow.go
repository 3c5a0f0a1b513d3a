package mipsx

// Superblock dataflow: value-numbering availability analysis, tag-check
// elision, and fusion of the surviving steps.
//
// formSuperblock rebuilds each element's body as single-instruction units
// straight from the program's instructions and hands the whole flat sequence to
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
//  2. Fusion. Each element's surviving body units, and its delay-slot
//     units, are packed with the block translator's own peephole fuser
//     (fuseRegion), so a stream holds the block kinds and no others.
//     Runs and pairs never span two elements; only the mov-run merge
//     joins adjacent body steps of different elements (where no edge or
//     slot step separates them), and MOVs cannot fault, so a faulting
//     step always belongs to the element its index falls in.
//
//  3. The jr+ADDI return fold (foldJrSlots).
//
// Fusing across element boundaries, with its own pair kinds and edge
// fusions, was measured and removed: it won nothing over element-local
// fusion (EXPERIMENTS.md, "Superblock dataflow ablation").
//
// The pass runs only on superblock streams — private copies — never on
// the shared per-block steps the translated engine executes, so the
// engine being used as the speedup denominator is untouched.

import "math/bits"

// sbUnit is one stream step during formation, tagged with the element it
// came from and whether it is a delay-slot step (slots never fuse with
// body or edge steps, so a slot fault keeps attributing to a slot pc).
type sbUnit struct {
	s    tstep
	elem int32
	slot bool
}

// optimizeUnits runs elision, fusion and the jr+ADDI fold over sc.units,
// the stream units of sb, using sc's analysis state, and stores the result
// in sb: the exactly sized step stream, each element's step ranges and
// elided count, and the static pass totals.
func optimizeUnits(sb *sblock, sc *sbScratch, sig *nsig) {
	units := sc.units
	sb.rawSteps = int32(len(units))
	sc.an.reset(sig)
	units = elideUnits(units, sb, &sc.an)
	units = fuseUnits(units, &sc.fuse)
	units = foldJrSlots(units)

	sb.steps = make([]tstep, len(units))
	elems := sb.elems
	cur := int32(0)
	elems[0].stepLo = 0
	elems[0].slotLo = -1
	for i := range units {
		u := &units[i]
		for cur < u.elem {
			if elems[cur].slotLo < 0 {
				elems[cur].slotLo = int32(i)
			}
			elems[cur].stepHi = int32(i)
			cur++
			elems[cur].stepLo = int32(i)
			elems[cur].slotLo = -1
		}
		if u.slot && elems[cur].slotLo < 0 {
			elems[cur].slotLo = int32(i)
		}
		sb.steps[i] = u.s
	}
	for {
		if elems[cur].slotLo < 0 {
			elems[cur].slotLo = int32(len(units))
		}
		elems[cur].stepHi = int32(len(units))
		cur++
		if int(cur) >= len(elems) {
			break
		}
		elems[cur].stepLo = int32(len(units))
		elems[cur].slotLo = -1
	}
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

// vnKey is the key of all three analysis tables. In vnAn.tab it interns
// the result class of a pure operation (op, operand VNs a and b, imm); in
// vnAn.facts it names a fact (op is the fact kind); in vnAn.mt it names
// one granule check (a is the checked item's VN, b the color-base
// register's VN, imm the access offset).
type vnKey struct {
	op   uint8
	a, b uint32
	imm  int32
}

// hash mixes every field of k into 64 bits whose top bits index a vnTable
// (multiplicative hashing: the high bits of a product depend on all the
// low bits of its factors).
func (k vnKey) hash() uint64 {
	h := uint64(k.a)<<32 | uint64(k.b)
	h ^= (uint64(uint32(k.imm))<<8 | uint64(k.op)) * 0x9e3779b97f4a7c15
	return h * 0xbf58476d1ce4e5b9
}

// vnSlot is one vnTable cell; it is occupied when its gen is the table's.
type vnSlot struct {
	gen uint32
	val uint32
	key vnKey
}

// vnTable is an open-addressed (linear probing) map from vnKey to uint32,
// emptied in O(1) by bumping a generation stamp, so one table serves every
// formation a machine performs and the granule-check set can be killed at
// every store without touching its cells. Its size is a power of two, at
// most half full.
type vnTable struct {
	slots []vnSlot
	gen   uint32
	shift uint8 // 64 - log2(len(slots))
	n     int
}

// reset empties t.
func (t *vnTable) reset() {
	t.n = 0
	t.gen++
	if t.gen == 0 { // wrapped: stale stamps would read as occupied
		clear(t.slots)
		t.gen = 1
	}
}

// get returns k's value and whether k is present.
func (t *vnTable) get(k vnKey) (uint32, bool) {
	if t.n == 0 {
		return 0, false
	}
	mask := len(t.slots) - 1
	for i := int(k.hash() >> t.shift); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.gen != t.gen {
			return 0, false
		}
		if s.key == k {
			return s.val, true
		}
	}
}

// cell returns k's value cell, inserting k with value 0 when it is absent;
// found reports whether k was present. The pointer is valid until the
// next insertion.
func (t *vnTable) cell(k vnKey) (val *uint32, found bool) {
	if 2*(t.n+1) > len(t.slots) {
		t.grow()
	}
	mask := len(t.slots) - 1
	for i := int(k.hash() >> t.shift); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.gen != t.gen {
			*s = vnSlot{gen: t.gen, key: k}
			t.n++
			return &s.val, false
		}
		if s.key == k {
			return &s.val, true
		}
	}
}

// grow doubles t (to 64 cells at first) and reinserts its entries.
func (t *vnTable) grow() {
	old, gen := t.slots, t.gen
	size := max(64, 2*len(old))
	t.slots = make([]vnSlot, size)
	t.shift = uint8(64 - bits.TrailingZeros(uint(size)))
	t.gen, t.n = 1, 0
	for i := range old {
		if old[i].gen == gen {
			v, _ := t.cell(old[i].key)
			*v = old[i].val
		}
	}
}

// What vnInfo.has records about a value number.
const (
	vnConst  uint8 = 1 << iota // konst is the VN's constant value
	vnPosImm                   // imm is its value, proven by a passed guard
	vnPosTag                   // tag is its tag field, proven by a passed guard
)

// vnInfo is what the analysis knows about one value number.
type vnInfo struct {
	has   uint8
	tag   uint8
	konst int32
	imm   int32
}

// vnAn is the analysis state of one forward walk. Value numbers are dense
// (0 to len(info)-1), so per-VN knowledge is a slice, not a map. A machine
// keeps one vnAn in its formation scratch and resets it per stream.
type vnAn struct {
	vn    [33]uint32 // current VN per working register (incl. RScratch)
	info  []vnInfo   // per-VN constants and proven values, indexed by VN
	tab   vnTable    // pure-operation interning: key -> VN
	facts vnTable    // guard-established facts: key -> truth (0 or 1)
	mt    vnTable    // granule checks passed since the last store
	sig   *nsig      // the config the stream is formed for (tag geometry)
}

// reset prepares a for a walk over a stream formed for sig: every working
// register holds its own initial VN and nothing is known.
func (a *vnAn) reset(sig *nsig) {
	a.sig = sig
	a.info = a.info[:0]
	for i := range a.vn {
		a.vn[i] = uint32(i)
		a.info = append(a.info, vnInfo{})
	}
	a.tab.reset()
	a.facts.reset()
	a.mt.reset()
}

func (a *vnAn) fresh() uint32 {
	v := uint32(len(a.info))
	a.info = append(a.info, vnInfo{})
	return v
}

func (a *vnAn) intern(k vnKey) uint32 {
	v, ok := a.tab.cell(k)
	if !ok {
		*v = a.fresh()
	}
	return *v
}

// constVN interns the VN of a known constant.
func (a *vnAn) constVN(v int32) uint32 {
	id := a.intern(vnKey{op: uint8(LI), imm: v})
	in := &a.info[id]
	in.has |= vnConst
	in.konst = v
	return id
}

// killStores clears the granule-check facts; called for every store kind.
func (a *vnAn) killStores() {
	if a.mt.n > 0 {
		a.mt.reset()
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
		if in := &a.info[v1]; in.has&vnConst != 0 {
			c := in.konst
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
func (a *vnAn) edgePred(op Op, s *tstep) (key vnKey, sense bool, ok bool) {
	v1 := a.vn[s.rs1]
	switch op {
	case BEQ, BNE:
		v2 := a.vn[s.rs2]
		if v2 < v1 {
			v1, v2 = v2, v1
		}
		return vnKey{op: fEQ, a: v1, b: v2}, op == BEQ, true
	case BLT, BGE:
		return vnKey{op: fLT, a: v1, b: a.vn[s.rs2]}, op == BLT, true
	case BLE, BGT: // a<=b == !(b<a); a>b == b<a
		return vnKey{op: fLT, a: a.vn[s.rs2], b: v1}, op == BGT, true
	case BEQI, BNEI:
		return vnKey{op: fEQI, a: v1, imm: s.imm}, op == BEQI, true
	case BLTI, BGEI:
		return vnKey{op: fLTI, a: v1, imm: s.imm}, op == BLTI, true
	case BTEQ, BTNE:
		return vnKey{op: fTAGEQ, a: v1, imm: int32(s.tag)}, op == BTEQ, true
	}
	return vnKey{}, false, false
}

// lookupFact resolves a fact's truth from recorded guards, proven values,
// and constants. The second result is false when the truth is unknown.
func (a *vnAn) lookupFact(k vnKey) (bool, bool) {
	if v, ok := a.facts.get(k); ok {
		return v != 0, true
	}
	i1 := &a.info[k.a]
	c1, ok1 := i1.konst, i1.has&vnConst != 0
	switch k.op {
	case fEQI:
		if i1.has&vnPosImm != 0 {
			return i1.imm == k.imm, true
		}
		if ok1 {
			return c1 == k.imm, true
		}
	case fLTI:
		if i1.has&vnPosImm != 0 {
			return i1.imm < k.imm, true
		}
		if ok1 {
			return c1 < k.imm, true
		}
	case fTAGEQ:
		if i1.has&vnPosTag != 0 {
			return i1.tag == uint8(k.imm), true
		}
		v := uint32(0)
		if i1.has&vnPosImm != 0 {
			v, ok1 = uint32(i1.imm), true
		} else if ok1 {
			v = uint32(c1)
		}
		if ok1 {
			return uint8((v>>a.sig.tagShift)&a.sig.tagMask) == uint8(k.imm), true
		}
	case fEQ, fLT:
		if k.a == k.b {
			return k.op == fEQ, true
		}
		if i2 := &a.info[k.b]; ok1 && i2.has&vnConst != 0 {
			c2 := i2.konst
			if k.op == fEQ {
				return c1 == c2, true
			}
			return c1 < c2, true
		}
	}
	return false, false
}

// recordFact stores a guard-established fact and its implications.
func (a *vnAn) recordFact(k vnKey, val bool) {
	v, _ := a.facts.cell(k)
	*v = 0
	if !val {
		return
	}
	*v = 1
	switch k.op {
	case fEQI:
		a.setPosImm(k.a, k.imm)
	case fTAGEQ:
		a.setPosTag(k.a, uint8(k.imm))
	case fEQ:
		// Equality merges knowledge between the two classes.
		ia, ib := &a.info[k.a], &a.info[k.b]
		if ia.has&vnPosImm != 0 {
			a.setPosImm(k.b, ia.imm)
		} else if ib.has&vnPosImm != 0 {
			a.setPosImm(k.a, ib.imm)
		}
		if ia.has&vnPosTag != 0 {
			a.setPosTag(k.b, ia.tag)
		} else if ib.has&vnPosTag != 0 {
			a.setPosTag(k.a, ib.tag)
		}
	}
}

func (a *vnAn) setPosImm(vn uint32, v int32) {
	in := &a.info[vn]
	in.has |= vnPosImm
	in.imm = v
}

func (a *vnAn) setPosTag(vn uint32, t uint8) {
	in := &a.info[vn]
	in.has |= vnPosTag
	in.tag = t
}

// elideUnits is the forward availability walk, over the reset analysis
// state a. It returns the surviving units, bumps the element's elided
// count for every check site removed or weakened, and fills the pass
// totals in sb.
func elideUnits(units []sbUnit, sb *sblock, a *vnAn) []sbUnit {
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
				k := vnKey{op: fTAGEQ, a: a.vn[s.rs1], imm: int32(s.tag)}
				if v, known := a.lookupFact(k); known && v {
					if op == LDC {
						s.kind = kLdcNC
					} else {
						s.kind = kStcNC
					}
					sb.elems[u.elem].elided++
					sb.elidedChecks++
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
				k := vnKey{a: a.vn[s.rs1], b: a.vn[cb], imm: s.imm}
				if _, seen := a.mt.get(k); seen {
					if op == LDM {
						s.kind = kLdmNC
					} else {
						s.kind = kStmNC
					}
					sb.elems[u.elem].elided++
					sb.elidedChecks++
				} else if op == LDM {
					a.mt.cell(k)
				}
				if op == LDM {
					a.vn[s.rd] = a.fresh()
				} else {
					a.killStores()
				}
			default:
				if nv, pure := a.pureVN(s); pure {
					if a.vn[s.rd] == nv {
						sb.droppedSteps++
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
		case k >= kEdgeOp0 && k <= kEdgeOp0+uint8(BTNE-BEQ):
			key, sense, ok := a.edgePred(BEQ+Op(k-kEdgeOp0), s)
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
					sb.elems[u.elem].elided++
					sb.elidedChecks++
					continue
				}
				// Provably exits: keep the edge, learn nothing past it.
				out = append(out, u)
				continue
			}
			a.recordFact(key, pass)
			out = append(out, u)

		case k == kEdgeJr || k == kEdgeJrL:
			key := vnKey{op: fEQI, a: a.vn[s.rs1], imm: s.imm}
			v, known := a.lookupFact(key)
			if known && v {
				sb.elems[u.elem].elided++
				sb.elidedChecks++
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

// fuseUnits packs the stream with fuseRegion, one region at a time: the
// consecutive body units of one element, or the delay-slot units of one
// element (a slot never fuses with a body or edge step, so a slot fault
// keeps attributing to a slot pc). Edge and check-elided units pass
// through. Adjacent body steps then get the mov-run merge (mergeMovs),
// which may join two elements' steps where nothing separates them. buf is
// the caller's scratch for one region.
func fuseUnits(units []sbUnit, buf *[]tstep) []sbUnit {
	out := units[:0]
	for lo := 0; lo < len(units); {
		u0 := units[lo]
		hi := lo + 1
		if u0.s.kind >= uint8(numOps) {
			out = append(out, u0)
			lo = hi
			continue
		}
		for hi < len(units) && units[hi].s.kind < uint8(numOps) &&
			units[hi].elem == u0.elem && units[hi].slot == u0.slot {
			hi++
		}
		steps := (*buf)[:0]
		for i := lo; i < hi; i++ {
			steps = append(steps, units[i].s)
		}
		*buf = steps
		for _, s := range fuseRegion(steps) {
			out = append(out, sbUnit{s: s, elem: u0.elem, slot: u0.slot})
		}
		lo = hi
	}
	units = out
	out = units[:0]
	for i := 0; i < len(units); i++ {
		u := units[i]
		if i+1 < len(units) && !u.slot && !units[i+1].slot && mergeMovs(&u.s, &units[i+1].s) {
			i++
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
