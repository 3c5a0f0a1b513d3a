package mipsx

// Basic-block translation (the discovery/translation half of the block
// engine; the execution loop lives in translate.go).
//
// A translated block covers one straight-line run of the predecoded
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
// predecoded stream, and the load-delay interlock is a register-number
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
// kinds. kAndLd is the untag-and-load shape the pass exposes by fusing
// across former block boundaries; the *NC kinds are checked accesses whose
// tag or granule check an earlier identical check proved redundant — they
// keep the access's masking and fault semantics bit-identical and skip
// only the check itself.
const (
	kAndLd uint8 = 113 + iota // register untag (and) folded into the load
	kLdcNC                    // LDC with a provably redundant tag check elided
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
	slot1    *decoded
	slot2    *decoded
	// The delay slots precompiled into dispatch steps (never fused, so a
	// slot fault attributes to the right source pc), executed by the same
	// dispatch loop as block bodies. Valid for termCond/termJump/termJumpInd
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
	bodyLen    int32 // source instructions covered by the body
	bodyCyc    uint64
	fusedN     uint64
	steps      []tstep
	bodyStalls []stallRec
	term       tterm
	// nat is the block's native (closure-threaded) compilation, built
	// lazily under the program's tmu (see nclosure.go).
	nat atomic.Pointer[nblock]
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
		p.predecode()
		p.tblocks = make([]atomic.Pointer[tblock], len(p.dec))
	})
}

// blockAt returns the block starting at pc, translating and publishing it
// on first use. A nil block means pc is outside the instruction stream.
// The second result reports whether this call performed the translation.
func (p *Program) blockAt(pc int) (*tblock, bool) {
	if uint(pc) >= uint(len(p.tblocks)) {
		return nil, false
	}
	if b := p.tblocks[pc].Load(); b != nil {
		return b, false
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
	list := make([]*tblock, len(old)+1)
	copy(list, old)
	list[len(old)] = b
	p.blist.Store(&list)
	p.tblocks[pc].Store(b)
	return b, true
}

// translate builds the block with leader pc.
func (p *Program) translate(start int) *tblock {
	dec := p.dec
	b := &tblock{start: int32(start)}
	i := start
	for i < len(dec) && i-start < bodyCap {
		op := dec[i].op
		if op.IsControl() || op == SYS || op == HALT {
			break
		}
		i++
	}
	b.bodyLen = int32(i - start)
	for j := start; j < i; j++ {
		d := &dec[j]
		b.bodyCyc += uint64(d.cycles)
		if d.op.IsLoad() && j+1 < len(dec) && dec[j+1].readMask&d.wmask != 0 {
			b.bodyCyc++
			b.bodyStalls = append(b.bodyStalls, stallRec{d.cat, d.sub, d.rtCheck})
		}
	}
	b.steps = fuseSteps(dec, start, i)
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
// by construction, so the dispatch loop needs no per-step zero restore.
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
func singleStep(d *decoded, pc int) tstep {
	s := tstep{
		kind: uint8(d.op), n: 1,
		rd: zdst(d.rd), rs1: d.rs1 & 31, rs2: d.rs2 & 31,
		tag: d.tag, imm: d.imm, off: int32(pc),
	}
	if d.op == ADDTC || d.op == SUBTC {
		s.tag = d.rd & 31
	}
	return s
}

// fuseSteps packs the body instructions of [start, end) into dispatch
// steps: save/restore runs first (they cover the most instructions per
// dispatch), then recognized idiom pairs, then singles. Trailing NOPs are
// swallowed into whichever step precedes them — they have no effect, so
// the step's n simply covers them and dispatch skips them entirely.
func fuseSteps(dec []decoded, start, end int) []tstep {
	steps := make([]tstep, 0, end-start)
	for i := start; i < end; {
		var s tstep
		if n := memRunLen(dec, i, end); n >= 3 {
			s = memRunStep(dec, i, n)
		} else if i+1 < end {
			var ok bool
			if s, ok = fusePair(&dec[i], &dec[i+1], i); !ok {
				s = singleStep(&dec[i], i)
			}
		} else {
			s = singleStep(&dec[i], i)
		}
		for j := i + int(s.n); j < end && dec[j].op == NOP; j++ {
			s.n++
		}
		steps = append(steps, s)
		i += int(s.n)
	}
	return fuseMovRuns(steps)
}

// fuseMovRuns is the second-level fusion pass: argument-shuffle code leaves
// long runs of MOVs that the pair fuser turns into adjacent kMovMov steps,
// and this pass merges each adjacent kMovMov+kMovMov into one kMov4 step
// (and a kMovMov next to a lone MOV into kMov3), halving the dispatches the
// hottest shuffle sequences cost. MOVs cannot fault, so merging never
// changes fault attribution; the merged step's n covers every source
// instruction (swallowed NOPs included) of both halves.
func fuseMovRuns(steps []tstep) []tstep {
	out := steps[:0]
	for i := 0; i < len(steps); i++ {
		s := steps[i]
		if i+1 < len(steps) {
			t := &steps[i+1]
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
		out = append(out, s)
	}
	return out
}

// memRunLen measures the register save/restore run starting at i: three or
// four consecutive LDs or STs off the same base register at consecutive
// word offsets — the shape spill and reload bursts take at call
// boundaries. A reload run must not clobber its base before its last
// element (the run's precomputed element addresses would go stale).
func memRunLen(dec []decoded, i, end int) int {
	op := dec[i].op
	if op != LD && op != ST {
		return 0
	}
	base, imm := dec[i].rs1&31, dec[i].imm
	n := 1
	for n < 4 && i+n < end {
		d := &dec[i+n]
		if d.op != op || d.rs1&31 != base || d.imm != imm+int32(4*n) {
			break
		}
		if op == LD && dec[i+n-1].rd&31 == base {
			break
		}
		n++
	}
	if n < 3 {
		return 0
	}
	return n
}

// memRunStep packs a save/restore run of n elements into one step: base in
// rs1, first offset in imm, and the element registers (value sources for a
// save, remapped destinations for a restore) packed a byte apiece into
// imm2, element k at bits 8k.
func memRunStep(dec []decoded, i, n int) tstep {
	d := &dec[i]
	s := tstep{n: uint8(n), rs1: d.rs1 & 31, imm: d.imm, off: int32(i)}
	var packed uint32
	for k := 0; k < n; k++ {
		var reg uint8
		if d.op == ST {
			reg = dec[i+k].rs2 & 31
		} else {
			reg = zdst(dec[i+k].rd)
		}
		packed |= uint32(reg) << (8 * k)
	}
	s.imm2 = int32(packed)
	switch {
	case d.op == LD && n == 3:
		s.kind = kLd3
	case d.op == LD && n == 4:
		s.kind = kLd4
	case d.op == ST && n == 3:
		s.kind = kSt3
	default:
		s.kind = kSt4
	}
	return s
}

// fusePair recognizes the superinstruction idioms. The fused executors run
// the two halves in textual order (the second half reads registers after
// the first half's write), so fusion never changes architectural state.
func fusePair(d1, d2 *decoded, i int) (tstep, bool) {
	// NOP elision: the surviving instruction's step covers both source
	// pcs. A fault inside a NOP+X step must attribute to X's pc, so the
	// step is compiled at the survivor's address.
	if d2.op == NOP {
		s := singleStep(d1, i)
		s.n = 2
		return s, true
	}
	if d1.op == NOP {
		s := singleStep(d2, i+1)
		s.n = 2
		return s, true
	}
	var kind uint8
	switch {
	case d1.op == SRLI && d2.op == ANDI:
		kind = kSrliAndi
	case d1.op == SLLI && d2.op == ORI:
		kind = kSlliOri
	case d1.op == MOV && d2.op == MOV:
		kind = kMovMov
	case d1.op == ANDI && d2.op == LD:
		kind = kAndiLd
	case d1.op == ADDI && d2.op == LD:
		kind = kAddiLd
	case d1.op == LD && d2.op == LD:
		kind = kLdLd
	case d1.op == ST && d2.op == ST:
		kind = kStSt
	case d1.op == MOV && d2.op == LD:
		kind = kMovLd
	case d1.op == LD && d2.op == MOV:
		kind = kLdMov
	case d1.op == LD && d2.op == ST:
		kind = kLdSt
	case d1.op == ST && d2.op == LD:
		kind = kStLd
	case d1.op == ST && d2.op == MOV:
		kind = kStMov
	case d1.op == MOV && d2.op == ST:
		kind = kMovSt
	case d1.op == ADDI && d2.op == ST:
		kind = kAddiSt
	case d1.op == LD && d2.op == SRLI:
		kind = kLdSrli
	case d1.op == MOV && d2.op == SRLI:
		kind = kMovSrli
	case d1.op == LD && d2.op == ADDI:
		kind = kLdAddi
	case d1.op == ST && d2.op == LI:
		kind = kStLi
	case d1.op == LI && d2.op == OR:
		kind = kLiOr
	case d1.op == OR && d2.op == ADDI:
		kind = kOrAddi
	case d1.op == SLLI && d2.op == SRAI:
		kind = kSlliSrai
	default:
		return tstep{}, false
	}
	return tstep{
		kind: kind, n: 2,
		rd: zdst(d1.rd), rs1: d1.rs1 & 31, rs2: d1.rs2 & 31, imm: d1.imm,
		rd2: zdst(d2.rd), rs3: d2.rs1 & 31, tag: d2.rs2 & 31, imm2: d2.imm,
		off: int32(i),
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
	dec := p.dec
	t := &b.term
	t.pc = int32(tpc)
	if tpc >= len(dec) {
		// Ran off the end of the stream: the transfer to tpc faults with
		// "pc out of range", exactly where the reference engine does.
		t.kind = termFall
		t.fall.nextPC = int32(tpc)
		return
	}
	d := &dec[tpc]
	if !(d.op.IsControl() || d.op == SYS || d.op == HALT) {
		t.kind = termFall
		t.fall.nextPC = int32(tpc)
		return
	}
	t.op = d.op
	t.rs1, t.rs2, t.tag = d.rs1&31, d.rs2&31, d.tag
	t.imm, t.target = d.imm, d.target
	switch d.op {
	case HALT:
		t.kind = termHalt
		return
	case SYS:
		t.kind = termSys
		t.fall.nextPC = int32(tpc + 1)
		return
	}
	if tpc+2 >= len(dec) {
		t.kind = termInterp
		return
	}
	s1, s2 := &dec[tpc+1], &dec[tpc+2]
	t.slot1, t.slot2 = s1, s2
	t.slotsNop = d.slotsNop
	if !slotSimple(s1.op) || !slotSimple(s2.op) {
		t.kind = termInterp
		return
	}
	t.slots[0] = singleStep(s1, tpc+1)
	t.slots[1] = singleStep(s2, tpc+2)
	switch d.op {
	case JMP, JAL:
		t.kind = termJump
		t.link = d.op == JAL
		t.taken = p.makeOutcome(d, s1, s2, int(d.target), false)
	case JALR, JR:
		t.kind = termJumpInd
		t.link = d.op == JALR
		t.taken = p.makeOutcome(d, s1, s2, -1, false)
	default:
		t.kind = termCond
		t.taken = p.makeOutcome(d, s1, s2, int(d.target), false)
		t.fall = p.makeOutcome(d, s1, s2, tpc+3, d.squash)
	}
}

// makeOutcome computes the static accounting of one branch direction.
// target < 0 means the transfer target is computed at run time (JALR/JR);
// annul means this is the not-taken direction of a squashing branch.
func (p *Program) makeOutcome(d, s1, s2 *decoded, target int, annul bool) outcome {
	o := outcome{nextPC: int32(target)}
	branchCyc := uint64(d.cycles)
	// The block engines check the cycle limit right after dispatching the
	// transfer: before the slots run, except on the both-slots-NOP fast
	// path, where they consume the two slot cycles first.
	o.checkCyc = branchCyc
	if d.slotsNop {
		o.checkCyc = branchCyc + 2
	}
	if annul {
		o.annul = true
		o.cyc = branchCyc + 2 // two annulled slot cycles
		return o
	}
	o.cyc = branchCyc + uint64(s1.cycles) + uint64(s2.cycles)
	if s1.op.IsLoad() && s2.readMask&s1.wmask != 0 {
		o.cyc++
		o.stalls = append(o.stalls, stallRec{s1.cat, s1.sub, s1.rtCheck})
	}
	if s2.op.IsLoad() {
		if target < 0 {
			o.s2wmask = s2.wmask
		} else if uint(target) < uint(len(p.dec)) && p.dec[target].readMask&s2.wmask != 0 {
			o.cyc++
			o.stalls = append(o.stalls, stallRec{s2.cat, s2.sub, s2.rtCheck})
		}
	}
	return o
}
