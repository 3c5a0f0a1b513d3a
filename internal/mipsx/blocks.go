package mipsx

// Basic-block translation (the discovery/translation half of the block
// engine; the execution loop lives in translate.go).
//
// A translated block covers one straight-line run of the instruction
// stream: a body of non-control instructions followed by a terminator (a
// branch or jump with its two delay slots, a SYS, a HALT, or a plain fall
// into the next block when the body cap is reached). Blocks are discovered
// lazily at the program counters execution actually reaches — every branch
// target or fallthrough that runs becomes a block leader — and may overlap:
// jumping into what is usually a delay slot simply starts a block whose
// leader is that slot instruction, with the same semantics the reference
// engine gives it.
//
// The body's accounting is fully static. Cycle costs come from the
// opcodes, and the load-delay interlock is a register-number
// comparison between a load and its textual successor, so body cycles and
// stall attribution are computed once at translation time and one block
// execution charges them with two additions. Delay-slot accounting is
// static per branch outcome (taken, fall-through, annulled), including the
// slot-2 load interlock against the first instruction at the branch
// target. Only indirect jumps (JALR/JR) leave a stall test for run time.
//
// Recurring tag idioms in the body are peephole-fused into
// superinstructions dispatched as one step: SRLI+ANDI (tag extract),
// SLLI+ORI (tag insert), ANDI+LD and ADDI+LD (tag removal or address
// arithmetic folded into the load), MOV+MOV (argument shuffles), a census
// of other frequent pairs, and register save/restore runs of three or four
// consecutive spills or reloads. All destination writes are performed in
// textual order, so architectural state stays bit-identical to the
// reference engine's.

import (
	"sync/atomic"
	"time"
)

// bodyCap bounds a block body so pathological straight-line programs do
// not produce unbounded translations; the block falls through (and chains)
// to its successor.
const bodyCap = 64

// Fused superinstruction step kinds. Single-instruction steps reuse the Op
// value as their kind, so fused kinds start above every opcode. The tag
// idioms came first (extract, insert, strip-into-load); the rest were
// picked from a dynamic census of adjacent-pair frequencies on the ten PSL
// workloads (spill/reload and argument-shuffle traffic dominates). A pair
// with a NOP on either side needs no kind of its own: fusePair elides the
// NOP and the surviving instruction's step covers both source pcs.
const (
	kSrliAndi uint8 = 64 + iota // tag extract: shift then mask
	kSlliOri                    // tag insert: shift then or
	kMovMov                     // register shuffle pair
	kAndiLd                     // tag removal folded into the load
	kAddiLd                     // address arithmetic folded into the load
	kLdLd                       // reload pair
	kStSt                       // spill pair
	kMovLd                      // shuffle + reload
	kLdMov                      // reload + shuffle
	kLdSt                       // reload + spill
	kStLd                       // spill + reload
	kStMov                      // spill + shuffle
	kMovSt                      // shuffle + spill
	kAddiSt                     // address arithmetic folded into the store
	kLdSrli                     // reload + tag shift
	kMovSrli                    // shuffle + tag shift
	kLdAddi                     // reload + address arithmetic
	kStLi                       // spill + constant
	kLiOr                       // constant + or (tag assembly)
	kOrAddi                     // or + address arithmetic
	kSlliSrai                   // sign-extension pair
	kLd3                        // register-restore run: three consecutive reloads
	kLd4                        // register-restore run: four consecutive reloads
	kSt3                        // register-save run: three consecutive spills
	kSt4                        // register-save run: four consecutive spills
	kMov3                       // register shuffle triple (second-level fusion)
	kMov4                       // register shuffle quad (second-level fusion)
)

// Superblock-stream kinds, produced only by the dataflow pass over formed
// superblocks (never in shared block bodies), numbered above the edge
// kinds: checked accesses whose tag or granule check an earlier identical
// check proved redundant. They keep the access's masking and fault
// semantics bit-identical and skip only the check itself.
const (
	kLdcNC uint8 = 111 + iota // LDC with a provably redundant tag check elided
	kStcNC                    // STC with a provably redundant tag check elided
	kLdmNC                    // LDM with a provably redundant granule check elided
	kStmNC                    // STM with a provably redundant granule check elided
)

// Compile-time guard: opcode values must stay below the fused-kind space.
const _opsFitBelowFusedKinds = uint(64 - int(numOps))

// RScratch indexes the scratch slot just past the architectural register
// file in the translated engine's working array; destination register 0 is
// remapped here at translation time (see zdst).
const RScratch = 32

// tstep is one dispatch step of a block body: a single instruction, a
// fused pair, or a save/restore run, executed with no per-instruction
// bookkeeping.
//
// Field conventions: a single instruction uses rd/rs1/rs2/tag/imm as
// decoded (rd through the zero-destination remap). A fused pair maps its
// first instruction to rd/rs1/rs2/imm and its second to rd2/rs3/tag/imm2
// (tag is the second instruction's rs2 — no fused kind carries a real
// tag). A save/restore run keeps the base in rs1 and the first offset in
// imm, and packs its element registers a byte apiece into imm2. A mov run
// (kMov3/kMov4) holds its copies in order as rd←rs1, rd2←rs3, rs2←tag,
// and a fourth pair packed into imm's low bytes (dst, then src at bit 8).
// ADDTC/SUBTC single steps repurpose tag for the pre-remap rd, which the
// trap mailbox records.
type tstep struct {
	kind uint8
	n    uint8 // source instructions covered, swallowed trailing NOPs included
	rd   uint8
	rs1  uint8
	rs2  uint8
	tag  uint8
	// Second instruction of a fused pair.
	rd2  uint8
	rs3  uint8
	imm  int32
	imm2 int32
	off  int32 // source pc of the step's first instruction
}

// stallRec attributes one static load-interlock stall cycle.
type stallRec struct {
	cat     Category
	sub     SubCat
	rtCheck bool
}

// outcome is the static accounting of one branch direction: total cycles
// (branch, slots, slot stalls), the portion the block engines have charged
// when they perform their cycle-limit check, stall attributions, and where
// execution continues.
type outcome struct {
	cyc      uint64
	checkCyc uint64
	stalls   []stallRec
	nextPC   int32
	annul    bool   // squashing branch not taken: slots are annulled
	s2wmask  uint32 // slot-2 load interlock mask, peeked at run time (indirect targets only)
}

// Terminator kinds.
const (
	termFall    uint8 = iota // fall into the next block (body cap or end of stream)
	termHalt                 // HALT
	termSys                  // SYS, handled inline
	termCond                 // conditional branch, slots executed inline
	termJump                 // JMP/JAL, slots executed inline
	termJumpInd              // JALR/JR, slots executed inline
	termInterp               // control transfer whose slots need the reference stepper
)

// tterm is a block's terminator.
type tterm struct {
	kind     uint8
	op       Op
	rs1      uint8
	rs2      uint8
	tag      uint8
	link     bool // JAL/JALR write the return address
	slotsNop bool
	imm      int32
	pc       int32 // source pc of the terminator (termFall: first pc past the block)
	target   int32
	slot1    *Instr
	slot2    *Instr
	// The delay slots precompiled into steps (never fused, so a slot
	// fault attributes to the right source pc), run by the same executor
	// (execSteps) as block bodies. Valid for termCond/termJump/termJumpInd
	// terminators whose slots are not both NOPs.
	slots [2]tstep
	taken outcome
	fall  outcome
	// Chain pointers: the successor blocks for the taken and
	// fall-through/unconditional edges, filled on first use so steady-state
	// control flow never consults the PC-keyed table. Shared across
	// machines (the cache is per Program), hence atomic.
	tnext atomic.Pointer[tblock]
	fnext atomic.Pointer[tblock]
	// Inline target cache for indirect jumps (termJumpInd): the last
	// computed target and its block, so monomorphic call sites skip the
	// PC-keyed table. Target pc and block must be read as a consistent
	// pair, hence one atomic pointer to an immutable entry.
	icache atomic.Pointer[icacheEnt]
}

// icacheEnt is an immutable indirect-jump target cache entry.
type icacheEnt struct {
	pc int32
	b  *tblock
}

// tblock is one translated basic block. id densely numbers the program's
// blocks in translation order; per-machine execution counters are indexed
// by it (a few cache lines for a whole program, where per-pc counters
// would sprawl).
type tblock struct {
	id         int32
	start      int32
	bodyLen    int32  // source instructions covered by the body
	leadReads  uint32 // registers the leader reads: an indirect jump's slot-2 load stalls on them
	bodyCyc    uint64
	fusedN     uint64
	steps      []tstep
	bodyStalls []stallRec
	term       tterm
	// sb is the superblock anchored at this block, if the native engine
	// has formed one (published under the program's tmu, see
	// superblock.go). sbTried counts the formation attempts made for this
	// head; a failed attempt (typically for lack of direction evidence) is
	// retried at higher body counts, staged early and then at a slow
	// unbounded cadence (see sbRetryAt).
	sb      atomic.Pointer[sblock]
	sbTried atomic.Int32
}

// blockCtr is one machine's execution counters for one block: body
// executions, taken-terminator executions and fall-through-terminator
// executions since the last flush, expanded into per-instruction
// statistics on exit (see translate.go).
type blockCtr struct {
	body, taken, fall uint64
}

// initTranslation prepares the program's block cache.
func (p *Program) initTranslation() {
	p.tonce.Do(func() {
		p.tblocks = make([]atomic.Pointer[tblock], len(p.Instrs))
	})
}

// blockAt returns the block starting at pc if one is published, and nil
// if pc is outside the instruction stream or its block is not translated
// yet (see translateAt). It is the fast path of every block lookup and
// inlines into its callers: the lock, the timer's defer and the
// translation stay in translateAt.
func (p *Program) blockAt(pc int) *tblock {
	if uint(pc) < uint(len(p.tblocks)) {
		return p.tblocks[pc].Load()
	}
	return nil
}

// translateAt returns the block starting at pc, translating and
// publishing it on first use. A nil block means pc is outside the
// instruction stream. The second result reports whether this call
// performed the translation (another machine may have published the
// block first).
func (p *Program) translateAt(pc int) (*tblock, bool) {
	if uint(pc) >= uint(len(p.tblocks)) {
		return nil, false
	}
	p.tmu.Lock()
	defer p.tmu.Unlock()
	if b := p.tblocks[pc].Load(); b != nil {
		return b, false
	}
	t0 := time.Now()
	defer func() { p.transNS.Add(time.Since(t0).Nanoseconds()) }()
	b := p.translate(pc)
	var old []*tblock
	if lp := p.blist.Load(); lp != nil {
		old = *lp
	}
	b.id = int32(len(old))
	// Publish by appending into the list's spare capacity, as formed
	// superblocks are: readers never index past the length they loaded,
	// so no published list changes, and adding a block does not copy the
	// whole list (quadratic in the blocks a run translates).
	list := append(old, b)
	p.blist.Store(&list)
	p.tblocks[pc].Store(b)
	return b, true
}

// translate builds the block with leader pc.
func (p *Program) translate(start int) *tblock {
	ins := p.Instrs
	b := &tblock{start: int32(start), leadReads: ins[start].readMask()}
	i := start
	for i < len(ins) && i-start < bodyCap {
		op := ins[i].Op
		if op.IsControl() || op == SYS || op == HALT {
			break
		}
		i++
	}
	b.bodyLen = int32(i - start)
	for j := start; j < i; j++ {
		in := &ins[j]
		b.bodyCyc += in.Op.Cycles()
		if j+1 < len(ins) && in.stallsBefore(&ins[j+1]) {
			b.bodyCyc++
			b.bodyStalls = append(b.bodyStalls, stallRec{in.Cat, in.Sub, in.RTCheck})
		}
	}
	b.steps = fuseSteps(ins, start, i)
	for k := range b.steps {
		if b.steps[k].n >= 2 {
			b.fusedN++
		}
	}
	p.buildTerm(b, i)
	return b
}

// zdst remaps destination register 0 to the scratch slot past the
// architectural file (RScratch): writes to the hardwired zero are discarded
// by construction, so the step executor needs no per-step zero restore.
func zdst(x uint8) uint8 {
	x &= 31
	if x == 0 {
		return RScratch
	}
	return x
}

// singleStep compiles one instruction into an unfused dispatch step.
// ADDTC/SUBTC repurpose the (otherwise unused) tag field to carry the
// original destination register number for the trap mailbox, since rd has
// been through the zero-destination remap.
func singleStep(in *Instr, pc int) tstep {
	s := tstep{
		kind: uint8(in.Op), n: 1,
		rd: zdst(in.Rd), rs1: in.Rs1 & 31, rs2: in.Rs2 & 31,
		tag: in.Tag, imm: in.Imm, off: int32(pc),
	}
	if in.Op == ADDTC || in.Op == SUBTC {
		s.tag = in.Rd & 31
	}
	return s
}

// fuseSteps packs the body instructions of [start, end) into dispatch
// steps: each instruction becomes a single step, fuseRegion packs them,
// and fuseMovRuns merges the mov pairs it leaves.
func fuseSteps(ins []Instr, start, end int) []tstep {
	steps := make([]tstep, 0, end-start)
	for i := start; i < end; i++ {
		steps = append(steps, singleStep(&ins[i], i))
	}
	return fuseMovRuns(fuseRegion(steps))
}

// fuseRegion packs a sequence of single steps in place: save/restore runs
// first (they cover the most instructions per dispatch), then recognized
// idiom pairs, then singles. Trailing NOPs are swallowed into whichever
// step precedes them — they have no effect, so the step's n simply covers
// them and dispatch skips them entirely. The block translator packs a
// whole body; superblock formation packs each element's surviving body
// units (fuseUnits), which hold no NOPs but may have gaps where elision
// dropped a step, so the run and pair rules below check that the halves
// they join sit at adjacent source pcs (always so in a block body).
func fuseRegion(steps []tstep) []tstep {
	out := steps[:0]
	for i := 0; i < len(steps); {
		s, k := steps[i], 1
		if n := memRunLen(steps, i); n >= 3 {
			s, k = memRunStep(steps[i:i+n]), n
		} else if i+1 < len(steps) {
			if p, ok := fusePair(&steps[i], &steps[i+1]); ok {
				s, k = p, 2
			}
		}
		for i += k; i < len(steps) && steps[i].kind == uint8(NOP); i++ {
			s.n++
		}
		out = append(out, s)
	}
	return out
}

// fuseMovRuns is the second-level fusion pass: argument-shuffle code leaves
// long runs of MOVs that the pair fuser turns into adjacent kMovMov steps,
// and this pass merges each adjacent pair of them (mergeMovs), halving the
// dispatches the hottest shuffle sequences cost.
func fuseMovRuns(steps []tstep) []tstep {
	out := steps[:0]
	for i := 0; i < len(steps); i++ {
		s := steps[i]
		if i+1 < len(steps) && mergeMovs(&s, &steps[i+1]) {
			i++
		}
		out = append(out, s)
	}
	return out
}

// mergeMovs folds t into s when s and t are an adjacent kMovMov+kMovMov
// (into one kMov4) or a kMovMov next to a lone MOV (into kMov3), and
// reports whether it did. MOVs cannot fault, so merging never changes
// fault attribution; the merged step's n covers every source instruction
// (swallowed NOPs included) of both halves.
func mergeMovs(s, t *tstep) bool {
	switch {
	case s.kind == kMovMov && t.kind == kMovMov:
		s.kind = kMov4
		s.rs2, s.tag = t.rd, t.rs1
		s.imm = int32(uint32(t.rd2) | uint32(t.rs3)<<8)
	case s.kind == kMovMov && t.kind == uint8(MOV):
		s.kind = kMov3
		s.rs2, s.tag = t.rd, t.rs1
	case s.kind == uint8(MOV) && t.kind == kMovMov:
		s.kind = kMov3
		s.rd2, s.rs3 = t.rd, t.rs1
		s.rs2, s.tag = t.rd2, t.rs3
	default:
		return false
	}
	s.n += t.n
	return true
}

// memRunLen measures the register save/restore run starting at steps[i]:
// three or four consecutive LDs or STs off the same base register at
// consecutive word offsets — the shape spill and reload bursts take at
// call boundaries. The run executor attributes a slow-path fault to off+k,
// so the elements must also sit at consecutive source pcs. A reload run
// must not clobber its base before its last element (the run's
// precomputed element addresses would go stale); rd is already remapped
// (zdst), so a reload into r0, which lands in the scratch slot, never
// clobbers an r0 base.
func memRunLen(steps []tstep, i int) int {
	s0 := &steps[i]
	op := Op(s0.kind)
	if op != LD && op != ST {
		return 0
	}
	n := 1
	for n < 4 && i+n < len(steps) {
		s := &steps[i+n]
		if s.kind != s0.kind || s.rs1 != s0.rs1 ||
			s.imm != s0.imm+int32(4*n) || s.off != s0.off+int32(n) {
			break
		}
		if op == LD && steps[i+n-1].rd == s0.rs1 {
			break
		}
		n++
	}
	if n < 3 {
		return 0
	}
	return n
}

// memRunStep packs a measured save/restore run into one step: base in rs1,
// first offset in imm, and the element registers (value sources for a
// save, remapped destinations for a restore) packed a byte apiece into
// imm2, element k at bits 8k.
func memRunStep(run []tstep) tstep {
	s0 := &run[0]
	s := tstep{rs1: s0.rs1, imm: s0.imm, off: s0.off}
	var packed uint32
	for k := range run {
		e := &run[k]
		reg := e.rd
		if Op(s0.kind) == ST {
			reg = e.rs2
		}
		packed |= uint32(reg) << (8 * k)
		s.n += e.n
	}
	s.imm2 = int32(packed)
	switch {
	case Op(s0.kind) == LD && len(run) == 3:
		s.kind = kLd3
	case Op(s0.kind) == LD && len(run) == 4:
		s.kind = kLd4
	case Op(s0.kind) == ST && len(run) == 3:
		s.kind = kSt3
	default:
		s.kind = kSt4
	}
	return s
}

// fusePair recognizes the superinstruction idioms in two single steps. The
// fused executors run the two halves in textual order (the second half
// reads registers after the first half's write), so fusion never changes
// architectural state.
func fusePair(s1, s2 *tstep) (tstep, bool) {
	// NOP elision: the surviving instruction's step covers both source
	// pcs. A fault inside a NOP+X step must attribute to X's pc, so the
	// step keeps the survivor's address.
	if s2.kind == uint8(NOP) {
		s := *s1
		s.n += s2.n
		return s, true
	}
	if s1.kind == uint8(NOP) {
		s := *s2
		s.n += s1.n
		return s, true
	}
	var kind uint8
	switch o1, o2 := Op(s1.kind), Op(s2.kind); {
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
	// The executors attribute a fault in the first half to off and one in
	// the second half to off+1. Pairs that touch memory in both halves
	// need the halves at adjacent pcs; a pure first half cannot fault, so
	// off is placed one before the second half's pc. In a block body both
	// rules hold trivially (off+1 is the second half's pc).
	off := s1.off
	switch kind {
	case kLdLd, kStSt, kLdSt, kStLd:
		if s2.off != s1.off+1 {
			return tstep{}, false
		}
	case kAndiLd, kAddiLd, kMovLd, kMovSt, kAddiSt:
		off = s2.off - 1
	}
	return tstep{
		kind: kind, n: s1.n + s2.n,
		rd: s1.rd, rs1: s1.rs1, rs2: s1.rs2, imm: s1.imm,
		rd2: s2.rd, rs3: s2.rs1, tag: s2.rs2, imm2: s2.imm,
		off: off,
	}, true
}

// slotSimple reports whether a delay-slot instruction can be executed
// inline by the terminator. Excluded ops (control transfers, checked or
// trap-checked accesses, SYS, HALT) have delay-slot semantics subtle
// enough — faults, pend-state cancellation — that the terminator delegates
// the whole transfer to the reference stepper instead.
func slotSimple(o Op) bool {
	switch o {
	case NOP, MOV, LI, ADD, ADDI, SUB, AND, ANDI, OR, ORI, XOR, XORI,
		SLL, SLLI, SRL, SRLI, SRA, SRAI, MUL, DIV, REM,
		FADD, FSUB, FMUL, FDIV, FLT, FEQ, ITOF, FTOI,
		LD, ST, LDT, STT:
		return true
	}
	return false
}

// buildTerm fills in the terminator for the block body ending at tpc.
func (p *Program) buildTerm(b *tblock, tpc int) {
	ins := p.Instrs
	t := &b.term
	t.pc = int32(tpc)
	if tpc >= len(ins) {
		// Ran off the end of the stream: the transfer to tpc faults with
		// "pc out of range", exactly where the reference engine does.
		t.kind = termFall
		t.fall.nextPC = int32(tpc)
		return
	}
	d := &ins[tpc]
	if !(d.Op.IsControl() || d.Op == SYS || d.Op == HALT) {
		t.kind = termFall
		t.fall.nextPC = int32(tpc)
		return
	}
	t.op = d.Op
	t.rs1, t.rs2, t.tag = d.Rs1&31, d.Rs2&31, d.Tag
	t.imm, t.target = d.Imm, d.Target
	switch d.Op {
	case HALT:
		t.kind = termHalt
		return
	case SYS:
		t.kind = termSys
		t.fall.nextPC = int32(tpc + 1)
		return
	}
	if tpc+2 >= len(ins) {
		t.kind = termInterp
		return
	}
	s1, s2 := &ins[tpc+1], &ins[tpc+2]
	t.slot1, t.slot2 = s1, s2
	t.slotsNop = s1.Op == NOP && s2.Op == NOP
	if !slotSimple(s1.Op) || !slotSimple(s2.Op) {
		t.kind = termInterp
		return
	}
	t.slots[0] = singleStep(s1, tpc+1)
	t.slots[1] = singleStep(s2, tpc+2)
	switch d.Op {
	case JMP, JAL:
		t.kind = termJump
		t.link = d.Op == JAL
		t.taken = p.makeOutcome(t, int(d.Target), false)
	case JALR, JR:
		t.kind = termJumpInd
		t.link = d.Op == JALR
		t.taken = p.makeOutcome(t, -1, false)
	default:
		t.kind = termCond
		t.taken = p.makeOutcome(t, int(d.Target), false)
		t.fall = p.makeOutcome(t, tpc+3, d.Squash)
	}
}

// makeOutcome computes the static accounting of one direction of t's
// transfer. target < 0 means the transfer target is computed at run time
// (JALR/JR); annul means this is the not-taken direction of a squashing
// branch.
func (p *Program) makeOutcome(t *tterm, target int, annul bool) outcome {
	o := outcome{nextPC: int32(target)}
	branchCyc := t.op.Cycles()
	// The block engines check the cycle limit right after dispatching the
	// transfer: before the slots run, except on the both-slots-NOP fast
	// path, where they consume the two slot cycles first.
	o.checkCyc = branchCyc
	if t.slotsNop {
		o.checkCyc = branchCyc + 2
	}
	if annul {
		o.annul = true
		o.cyc = branchCyc + 2 // two annulled slot cycles
		return o
	}
	s1, s2 := t.slot1, t.slot2
	o.cyc = branchCyc + s1.Op.Cycles() + s2.Op.Cycles()
	if s1.stallsBefore(s2) {
		o.cyc++
		o.stalls = append(o.stalls, stallRec{s1.Cat, s1.Sub, s1.RTCheck})
	}
	if s2.Op.IsLoad() {
		if target < 0 {
			o.s2wmask = s2.loadMask()
		} else if uint(target) < uint(len(p.Instrs)) && s2.stallsBefore(&p.Instrs[target]) {
			o.cyc++
			o.stalls = append(o.stalls, stallRec{s2.Cat, s2.Sub, s2.RTCheck})
		}
	}
	return o
}
