package mipsx

// The block loop shared by the translated and native engines (the
// execution half; block discovery and translation live in blocks.go,
// superblock formation in superblock.go).
//
// runBlocks executes translated blocks: one counter increment and two
// additions charge a whole block body, the step executor (execSteps,
// sbexec.go) runs its fused superinstructions, and the terminator resolves
// the branch, runs both delay slots through the same executor (they are
// precompiled into steps at translation time) and follows a chain pointer
// to the successor block, so steady-state control flow touches neither the
// PC-keyed block table nor any per-instruction statistics. Each terminator
// kind only resolves its transfer (outcome, direction, pending target);
// the limit check, the slots, the static accounting and the successor
// lookup are written once, on the transfer path every kind joins.
// execSteps and the reference stepper (Step, sim.go) are the only two
// places that execute instructions. Destination register 0 is remapped at translation
// time to a scratch slot past the architectural file, so no step restores
// the hardwired zero. Per-category, per-opcode and stall statistics are
// reconstructed on exit from per-block execution counters and the blocks'
// static accounting — the result is bit-identical to the reference
// engine's Stats, registers, memory, output and faults (PC and cycle
// included; the cycle-limit fault is the one exception, see below), which
// the differential tests assert.
//
// The native engine is this loop plus superblocks: at block entry, when
// the program's native state is pinned to the machine's hardware config,
// a hot block anchors a superblock stream (superblock.go), run by the
// same executor and charged with one counter bump and one precomputed
// cycle addition per complete run. Everything a stream cannot finish
// itself — side exits, faults, traps, terminal terminators — continues on
// this loop's ordinary paths.
//
// Rare events leave the fast path without breaking that identity:
//   - A fault inside a body backs out the block's static accounting and
//     re-charges the executed prefix instruction by instruction
//     (accountPrefix), so the fault carries the same cycle count the
//     reference engine reports.
//   - A fault inside a delay slot reproduces the reference engine's state at
//     that point: branch and executed slots counted, pending-branch
//     pipeline restored.
//   - LDC/STC check failures, LDM/STM granule failures and ADDTC/SUBTC
//     traps back out the body accounting the same way, then redirect to
//     the software handler.
//   - Control transfers whose delay slots are too subtle to run as
//     precompiled steps (nested control, checked accesses, SYS — or slots
//     past the end of the stream) are delegated to the reference stepper
//     (termInterp).
//   - A superblock edge that resolves against the formed direction side
//     exits: the completed prefix is recorded by exit site, and the
//     exiting element's terminator resolves on the ordinary path. A fault
//     or trap inside a stream is attributed to the element holding the
//     faulting instruction and handled as a body or slot fault there.
//
// MaxCycles and cancellation share one test: limit is the earlier of
// MaxCycles and the next Ctx poll point (cycleLimit), compared at control
// transfers and trap entries rather than after every instruction as the
// reference engine does, so a runaway run can overshoot MaxCycles by one
// straight-line run of code before faulting (both block engines fault at
// exactly the same point: a superblock is entered only when its most
// expensive path cannot cross limit). Crossing it enters pollLimit, which
// faults past MaxCycles, stops with *Canceled when Ctx is done, or
// advances limit. A canceled run stops where no pipeline state is
// pending: at a terminator before its branch dispatches, at a trap entry,
// or after a delegated transfer's delay slots drain.
//
// Both engines transparently fall back to the reference engine when an
// Observer is attached (tracing keeps working) or when the machine stops
// mid-pipeline (pending branch or interlock from a prior Step), so the
// loop never needs to model resumed pipeline state.

import (
	"strconv"
	"sync/atomic"
)

// RunTranslated executes until HALT, a fault, a Lisp runtime error, or
// MaxCycles, using the translated-block cache shared across all machines
// running the same Program.
func (m *Machine) RunTranslated() error {
	if m.needsReference() {
		m.Trans.Fallbacks++
		return m.RunReference()
	}
	return runBlocks[translatedLoop](m, nil)
}

// Why execSteps stopped early.
const (
	abFault  uint8 = iota // simulator fault: failf, failargs set
	abCheck               // LDC/STC tag mismatch: trapA the item, trapB the wanted tag
	abMemtag              // LDM/STM granule mismatch: trapA the item, trapB the address
	abTrap                // ADDTC/SUBTC trap: trapA, trapB the operands
	abSide                // superblock side exit (streams only): sbj, taken
)

// stepExit records why execSteps stopped early, in a block body, a
// transfer's delay slots or a stream: a fault, check failure or trap at
// source pc fpc (handled at runBlocks' abort, slotFault or streamAbort),
// or a superblock side exit at element sbj whose branch went the taken
// way.
type stepExit struct {
	why      uint8
	taken    bool
	sbj      int32
	fpc      int
	failf    string
	failargs []any
	// abCheck: the item and the wanted tag; abMemtag: the item and the
	// checked address; abTrap: the two operands, the opcode and the
	// original destination register.
	trapA, trapB uint32
	trapOp       uint8
	trapRd       uint8
}

// The recorders below fill in x for the step at index i and return i, so
// an early exit from execSteps is one `return x.memFault(si-1, ...)` with
// nothing live after the call. The two that box their message arguments
// stay out of line, which keeps the allocation's runtime calls out of the
// step loop.

// fault records a simulator fault whose message takes no arguments.
func (x *stepExit) fault(i int, pc int32, f string) int {
	x.why, x.fpc, x.failf, x.failargs = abFault, int(pc), f, nil
	return i
}

// opFault records a fault whose message names step s's opcode.
//
//go:noinline
func (x *stepExit) opFault(i int, s *tstep, f string) int {
	x.why, x.fpc, x.failf, x.failargs = abFault, int(s.off), f, []any{Op(s.kind)}
	return i
}

// memFault records the misaligned or out-of-range fault of one word
// access at pc.
//
//go:noinline
func (x *stepExit) memFault(i int, pc int32, addr uint32, isLoad bool) int {
	x.why, x.fpc = abFault, int(pc)
	x.failf, x.failargs = memFault(addr, isLoad)
	return i
}

// trap records a tag-check, granule-check or arithmetic-trap exit at step
// s. ADDTC/SUBTC carry their original destination register in s.tag.
func (x *stepExit) trap(i int, why uint8, s *tstep, a, b uint32) int {
	x.why, x.fpc, x.trapA, x.trapB = why, int(s.off), a, b
	x.trapOp, x.trapRd = s.kind, s.tag
	return i
}

// side records a cold edge at element j.
func (x *stepExit) side(i int, j uint8, taken bool) int {
	x.why, x.sbj, x.taken = abSide, int32(j), taken
	return i
}

// blockRun is the block loop's per-run bookkeeping: which engine the run
// is credited to, the native state, the engine counters, and the record
// of the last early exit from execSteps.
type blockRun struct {
	np         *nativeProg // superblocks enabled when non-nil
	x          stepExit    // why execSteps last stopped early
	sb         *sblock     // the stream x refers to, after a stream stopped early
	sbIdx      int32       // the index of the step that stopped it
	translated uint64      // blocks this run translated (Trans only)
	// How the run ends, read at flush: a fault message, an error from a
	// delegated Step, or the Ctx error that canceled it.
	failf     string
	failargs  []any
	failErr   error
	cancelErr error
	chainHits uint64
	slowRuns  uint64 // per-block body runs while superblocks are enabled
}

// lookup returns the block at pc from the PC-keyed table, translating it
// on first use. A nil block means pc is outside the instruction stream,
// and the run ends with the reference engine's fault.
func (br *blockRun) lookup(p *Program, pc int) *tblock {
	if b := p.blockAt(pc); b != nil {
		return b
	}
	b, trans := p.translateAt(pc)
	if b == nil {
		br.failf = "pc out of range"
	} else if trans {
		br.translated++
	}
	return b
}

// The block loop's two instantiations. runBlocks is generic only so that
// each engine gets its own compiled copy: the array length is a constant
// in each, so the translated engine's copy contains none of the
// superblock code. That matters for speed, not just size: the translated
// engine is the no-superblock baseline every native ratio is measured
// against, and code it never runs still costs a loop this size register
// shuffles (DESIGN.md §12).
type (
	translatedLoop [0]byte
	nativeLoop     [1]byte
)

// runBlocks is the block loop. L selects the engine: nativeLoop credits
// the run to m.Native and, when np is non-nil (the program's native state
// pinned to m.HW), runs superblocks; translatedLoop credits m.Trans.
func runBlocks[L translatedLoop | nativeLoop](m *Machine, np *nativeProg) error {
	var engine L
	native := len(engine) == 1
	p := m.Prog
	p.initTranslation()
	ins := p.Instrs
	mem := m.Mem
	tagShift, tagMask := m.HW.TagShift, m.HW.TagMask
	trapCycles := m.HW.TrapCycles
	st := &m.Stats

	// The working register file: the 32 architectural registers plus the
	// scratch slot absorbing remapped zero-destination writes (RScratch).
	// Sized 256 so every uint8 register index is provably in range and the
	// compiler elides the bounds check on each step's access; slots past
	// RScratch are never touched.
	var regs [256]uint32
	copy(regs[:32], m.Regs[:])
	r := &regs

	pc := m.PC
	cycles := st.Cycles
	// The folded MaxCycles/cancellation threshold; with a Ctx attached the
	// first control transfer polls, so a pre-canceled run stops at once.
	limit := m.cycleLimit(cycles)
	var over bool

	counts := m.execCounts[:len(ins)]
	// Per-block counters, indexed by dense block id; grown (with headroom)
	// when execution reaches a block translated past the current size.
	bctr := m.bctr
	// The loop's bookkeeping lives in br, which stays in memory (its
	// address is taken), so none of it competes with the loop's hot
	// locals for registers.
	br := blockRun{np: np}

	// The pipeline state (m.pendTarget and friends) is written only on
	// MaxCycles faults and around delegated transfers, so a subsequent
	// Step resumes exactly where the run stopped. The run was not entered
	// mid-pipeline (see RunTranslated), so only the target needs a reset.
	m.pendTarget = -1
	var squashed uint64
	var b *tblock
	var t *tterm
	// The resolved transfer a terminator's delay slots run under: its
	// outcome, direction and pending target (-1 for a fall-through).
	var o *outcome
	var taken bool
	var pendT int
	var bc *blockCtr
	// The chain pointer the successor at pc is looked up through.
	var ch *atomic.Pointer[tblock]

	if m.halted {
		goto flush
	}

loop:
	for {
		if b == nil {
			if b = br.lookup(p, pc); b == nil {
				break loop
			}
		}
		if int(b.id) >= len(bctr) {
			grown := make([]blockCtr, int(b.id)+64)
			copy(grown, bctr)
			bctr = grown
			m.bctr = bctr
		}
		bc = &bctr[b.id]

		if native && br.np != nil {
			// Superblock fast path: enter only when even the most
			// expensive path through the stream cannot cross the cycle
			// limit, so the stream itself needs no limit checks; near the
			// limit (or a cancellation poll point) the per-block path
			// below faults or polls exactly where the translated engine
			// would.
			if sb := b.sb.Load(); sb != nil {
				if cycles+sb.maxCyc <= limit {
					if idx := execSteps(sb.steps, r, mem, &m.HW, &br.x); idx >= 0 {
						// The stream left early at step idx: a cold edge
						// side-exits, anything else aborts as if step idx
						// of a body had.
						br.sb, br.sbIdx = sb, int32(idx)
						if br.x.why == abSide {
							goto sideExit
						}
						goto streamAbort
					}
					// The stream ran to completion: one exit-site bump and
					// the precomputed cycle sum charge every element (the
					// counters expand into per-block counts at flush). This
					// function is past the inliner's budget, so the fast
					// paths of markSBExit and growBctr are spelled out here
					// and on the side-exit path.
					if i := int(sb.exitBase) + len(sb.elems); i < len(m.nctr) {
						m.nctr[i]++
					} else {
						m.markSBExit(sb, int32(len(sb.elems)))
					}
					cycles += sb.fullCyc
					m.Native.SBRuns++
					if sb.termB != nil {
						// Terminal element: its body has run and been
						// charged; resolve its unpredicted terminator
						// ordinarily.
						b = sb.termB
						if int(b.id) >= len(bctr) {
							m.growBctr(b.id)
							bctr = m.bctr
						}
						bc = &bctr[b.id]
						goto terminator
					}
					// The stream's successor keeps its own lookup: routed
					// through the chain path, native measured slower
					// (DESIGN.md §12). A successor outside the program
					// (nil) faults at the loop top.
					if b = sb.next.Load(); b == nil {
						pc = int(sb.nextPC)
						b = br.lookup(p, pc)
						sb.next.Store(b)
					}
					continue loop
				}
			} else if (bc.body+1)%sbHotThreshold == 0 {
				m.formSuperblockAt(b, bc.body+1, br.np)
				if b.sb.Load() != nil {
					// A stream formed here runs at once, from the loop
					// top: b's body does not run per-block again, so the
					// blocks after it on the stream's path (a loop's other
					// blocks) never cross the threshold themselves and
					// form no rotated copies of the stream.
					continue loop
				}
			}
			br.slowRuns++
		}

		// Block body: the whole body's cycles (including static interlock
		// stalls) are charged up front; per-instruction counts, categories
		// and stall attribution are expanded from the block counters at
		// flush. Bodies average under two steps, so the call to the step
		// executor is a large part of a block's cost, and the 12–39% of
		// block runs whose body is empty (a branch behind a branch, a bare
		// return) skip it.
		bc.body++
		cycles += b.bodyCyc
		if len(b.steps) != 0 && execSteps(b.steps, r, mem, &m.HW, &br.x) >= 0 {
			goto abort
		}

	terminator:
		// Each kind resolves its transfer — the outcome o, the direction
		// taken and the pending target pendT (-1 for a fall-through) — and
		// joins the one transfer path below. Kinds without delay slots go
		// straight to the successor lookup.
		t = &b.term
		switch t.kind {
		case termFall:
			pc, ch = int(t.fall.nextPC), &t.fnext
			goto chain

		case termHalt:
			counts[t.pc]++
			cycles++
			m.halted = true
			pc = int(t.pc)
			break loop

		case termSys:
			counts[t.pc]++
			cycles++
			switch t.imm {
			case SysHalt:
				m.halted = true
				pc = int(t.pc)
				break loop
			case SysError:
				st.ErrorCode = int32(r[RRet])
				st.ErrorItem = r[3]
				m.halted = true
				pc = int(t.pc)
				break loop
			case SysPutChar:
				m.Output.WriteByte(byte(r[RRet]))
			case SysPutInt:
				m.Output.WriteString(strconv.FormatInt(int64(int32(r[RRet])), 10))
			case SysGCNotify:
				st.GCs++
				st.GCWords += uint64(r[RRet])
			case SysTrapReturn:
				// No pending branch is possible here, so the reference engine's
				// trap-return-in-delay-slot fault cannot occur.
				rd := mem[TrapRdAddr>>2]
				if rd >= 32 {
					pc = int(t.pc)
					br.failf, br.failargs = "bad trap destination register %d", []any{rd}
					break loop
				}
				if rd != RZero {
					r[rd] = mem[TrapResultAddr>>2]
				}
				pc = int(mem[TrapPCAddr>>2])
				goto trapEntry
			default:
				pc = int(t.pc)
				br.failf, br.failargs = "bad syscall %d", []any{t.imm}
				break loop
			}
			pc, ch = int(t.fall.nextPC), &t.fnext
			goto chain

		case termCond:
			switch t.op {
			case BEQ:
				taken = r[t.rs1] == r[t.rs2]
			case BNE:
				taken = r[t.rs1] != r[t.rs2]
			case BLT:
				taken = int32(r[t.rs1]) < int32(r[t.rs2])
			case BGE:
				taken = int32(r[t.rs1]) >= int32(r[t.rs2])
			case BLE:
				taken = int32(r[t.rs1]) <= int32(r[t.rs2])
			case BGT:
				taken = int32(r[t.rs1]) > int32(r[t.rs2])
			case BEQI:
				taken = int32(r[t.rs1]) == t.imm
			case BNEI:
				taken = int32(r[t.rs1]) != t.imm
			case BLTI:
				taken = int32(r[t.rs1]) < t.imm
			case BGEI:
				taken = int32(r[t.rs1]) >= t.imm
			case BTEQ:
				taken = uint8((r[t.rs1]>>tagShift)&tagMask) == t.tag
			case BTNE:
				taken = uint8((r[t.rs1]>>tagShift)&tagMask) != t.tag
			}
			goto condBranch

		case termJump:
			if t.link {
				r[RRA] = uint32(int(t.pc)+1+delaySlots) << 2
			}
			taken, pendT = true, int(t.target)

		case termJumpInd:
			v := r[t.rs1]
			if v&3 != 0 {
				counts[t.pc]++
				cycles++
				pc = int(t.pc)
				br.failf, br.failargs = "%s to misaligned code address %#x", []any{t.op, v}
				break loop
			}
			if t.link {
				r[RRA] = uint32(int(t.pc)+1+delaySlots) << 2
			}
			taken, pendT = true, int(v>>2)

		case termInterp:
			// Delegate the transfer and its delay slots to the reference
			// stepper: sync the hot locals into the machine, step until the
			// pipeline drains, and pull the (possibly faulted or halted)
			// state back. The limit is checked right after dispatching the
			// transfer, as on the transfer path; a cancellation seen there
			// stops the run only once the delay slots have drained.
			copy(m.Regs[:], regs[:32])
			m.PC = int(t.pc)
			st.Cycles = cycles
			err := m.Step()
			if err == nil && st.Cycles > limit {
				limit, over, br.cancelErr = m.pollLimit(st.Cycles)
			}
			for err == nil && !over && (m.pendCount > 0 || m.pendSquash) && !m.halted {
				err = m.Step()
			}
			copy(regs[:32], m.Regs[:])
			cycles = st.Cycles
			pc = m.PC
			if err != nil {
				br.failErr = err
				break loop
			}
			if over {
				goto overLimit
			}
			if m.halted {
				break loop
			}
			// Consume a trailing load interlock left by a slot, exactly as
			// the reference engine's next Step would.
			if m.lastLoadReg != RZero {
				if !m.pendSquash && uint(pc) < uint(len(ins)) &&
					ins[pc].readMask()&(1<<m.lastLoadReg) != 0 {
					ld := &ins[m.lastLoad]
					cycles++
					st.stall(ld.Cat, ld.Sub, ld.RTCheck, 1)
				}
				m.lastLoadReg = RZero
			}
			if br.cancelErr != nil {
				break loop
			}
			b = nil
			continue loop
		}
		o = &t.taken
		goto transfer

	condBranch:
		// A conditional terminator whose direction is resolved in taken:
		// by the terminator itself, or by the superblock edge that
		// side-exited here (the delay slots have not run yet and may
		// clobber the branch operands, so it is never re-evaluated).
		o, pendT = &t.fall, -1
		if taken {
			o, pendT = &t.taken, int(t.target)
		}

	transfer:
		// Every transfer with delay slots completes here: the limit check,
		// the slots (run through the step executor unless they are NOPs or
		// annulled), the outcome's static accounting and the successor.
		if cycles+o.checkCyc > limit {
			if limit, over, br.cancelErr = m.pollLimit(cycles + o.checkCyc); br.cancelErr != nil {
				// Canceled at a poll point: stop at the branch, before it
				// dispatches, leaving no pipeline state pending.
				pc = int(t.pc)
				break loop
			}
			if over {
				// Reconstruct the exact machine state at the limit check:
				// branch dispatched (and NOP slots consumed), delay slots
				// still pending otherwise.
				counts[t.pc]++
				cycles += o.checkCyc
				pc = int(t.pc) + 1
				switch {
				case t.slotsNop:
					if o.annul {
						squashed += 2
					} else {
						counts[t.pc+1]++
						counts[t.pc+2]++
					}
					pc += delaySlots
					if pendT >= 0 {
						pc = pendT
					}
				case pendT >= 0:
					m.pendTarget, m.pendCount = pendT, delaySlots
				case o.annul:
					m.pendTarget, m.pendCount, m.pendSquash = -1, delaySlots, true
				}
				goto overLimit
			}
		}
		if !o.annul && !t.slotsNop && execSteps(t.slots[:], r, mem, &m.HW, &br.x) >= 0 {
			goto slotFault
		}
		cycles += o.cyc
		if !taken {
			bc.fall++
			pc, ch = int(o.nextPC), &t.fnext
			goto chain
		}
		bc.taken++
		if t.kind != termJumpInd {
			pc, ch = int(o.nextPC), &t.tnext
			goto chain
		}
		// The indirect target's cache is promote-once: a polymorphic site
		// (a return) keeps its first target and misses to the PC-keyed
		// table, rather than churning allocations on every retarget.
		pc = pendT
		if ce := t.icache.Load(); ce != nil && int(ce.pc) == pc {
			b = ce.b
			br.chainHits++
		} else {
			if b = br.lookup(p, pc); b == nil {
				break loop
			}
			if ce == nil {
				t.icache.Store(&icacheEnt{pc: int32(pc), b: b})
			}
		}
		// Slot-2 load interlock against the computed target's first
		// instruction, the one stall the translator cannot resolve
		// statically (o.s2wmask is zero for NOP slots).
		if o.s2wmask&b.leadReads != 0 {
			cycles++
			st.stall(t.slot2.Cat, t.slot2.Sub, t.slot2.RTCheck, 1)
		}
		continue loop

	chain:
		// The successor at pc through chain pointer ch (a terminator's
		// tnext or fnext), filled on first use.
		if b = ch.Load(); b != nil {
			br.chainHits++
			continue loop
		}
		if b = br.lookup(p, pc); b == nil {
			break loop
		}
		ch.Store(b)
		continue loop

	sideExit:
		// A superblock edge resolved against the formed direction at
		// element br.x.sbj: record the exit site (the completed prefix
		// expands from it at flush), charge the exiting element's body —
		// it ran in full, elided checks skipped — and resolve its
		// terminator on the ordinary path. A conditional edge
		// already resolved the branch (br.x.taken; the delay slots have
		// not run and may clobber its operands, so it is not evaluated
		// again); an indirect-jump edge resolved nothing the terminator
		// cannot recompute from the registers.
		m.sideExit(br.sb, br.x.sbj)
		b = br.sb.elems[br.x.sbj].b
		if int(b.id) >= len(bctr) {
			m.growBctr(b.id)
			bctr = m.bctr
		}
		bc = &bctr[b.id]
		bc.body++
		cycles += br.sb.elems[br.x.sbj].cycBefore + b.bodyCyc
		m.Native.ElidedChecks += uint64(br.sb.elems[br.x.sbj].elided)
		t = &b.term
		if t.kind == termCond {
			taken = br.x.taken
			goto condBranch
		}
		goto terminator

	streamAbort:
		// A stream step faulted, failed a check or trapped: map it to its
		// element. The completed elements before it are recorded by exit
		// site, and the fault is handled as one in that element's body or
		// delay slots.
		m.Native.SBSideExits++
		{
			sb, idx := br.sb, br.sbIdx
			j := int32(0)
			for int(j)+1 < len(sb.elems) && sb.elems[j+1].stepLo <= idx {
				j++
			}
			e := &sb.elems[j]
			m.markSBExit(sb, j)
			b = e.b
			bc = m.growBctr(b.id)
			bctr = m.bctr
			cycles += e.cycBefore
			if idx >= e.slotLo && idx < e.stepHi {
				// A delay slot faulted after the hot branch: body and
				// direction accounting happen on the slot-fault path.
				bc.body++
				cycles += b.bodyCyc
				t = &b.term
				pendT = -1
				switch {
				case t.kind == termJumpInd:
					pendT = int(e.jrTgt)
				case t.kind == termJump || (t.kind == termCond && e.hotTaken):
					pendT = int(t.target)
				}
				goto slotFault
			}
		}
		goto recharge

	abort:
		// A body step faulted, failed a tag or granule check, or trapped
		// (br.x says which, at source pc br.x.fpc): back out the block's
		// static body accounting and re-charge the executed prefix
		// instruction by instruction, exactly as the reference engine
		// charges it, then fault or enter the software handler.
		bc.body--
		cycles -= b.bodyCyc
	recharge:
		cycles = m.accountPrefix(int(b.start), br.x.fpc, cycles)
		switch br.x.why {
		case abFault:
			pc = br.x.fpc
			br.failf, br.failargs = br.x.failf, br.x.failargs
			break loop
		case abCheck:
			if m.HW.CheckFailHandler < 0 {
				pc = br.x.fpc
				br.failf, br.failargs = "checked access tag mismatch: item %#x, want tag %d", []any{br.x.trapA, uint8(br.x.trapB)}
				break loop
			}
			r[RT0] = br.x.trapA
			r[RT1] = br.x.trapB
			pc = m.HW.CheckFailHandler
		case abMemtag:
			if m.HW.MemtagFailHandler < 0 {
				pc = br.x.fpc
				br.failf, br.failargs = "memtag granule check failed: item %#x, addr %#x", []any{br.x.trapA, br.x.trapB}
				break loop
			}
			r[RT0] = br.x.trapA
			r[RT1] = br.x.trapB
			pc = m.HW.MemtagFailHandler
		default: // abTrap
			if m.HW.TrapHandler < 0 {
				pc = br.x.fpc
				br.failf, br.failargs = "unhandled arithmetic trap (%v %#x %#x)", []any{Op(br.x.trapOp), br.x.trapA, br.x.trapB}
				break loop
			}
			mem[TrapOpAddr>>2] = uint32(br.x.trapOp)
			mem[TrapAAddr>>2] = br.x.trapA
			mem[TrapBAddr>>2] = br.x.trapB
			mem[TrapRdAddr>>2] = uint32(br.x.trapRd)
			mem[TrapPCAddr>>2] = uint32(br.x.fpc + 1)
			pc = m.HW.TrapHandler
		}
		st.Traps++
	trapEntry:
		// Entering a trap handler, or returning from one (SysTrapReturn):
		// charge the transition and test the limit, which a cancellation
		// stops at since no pipeline state is pending.
		cycles += trapCycles
		if cycles > limit {
			if limit, over, br.cancelErr = m.pollLimit(cycles); over {
				goto overLimit
			} else if br.cancelErr != nil {
				break loop
			}
		}
		b = nil
		continue loop

	overLimit:
		br.failf, br.failargs = "cycle limit %d exceeded", []any{m.MaxCycles}
		break loop

	slotFault:
		// A delay slot faulted: reproduce the reference engine's exact
		// state — the branch and every executed slot counted and charged,
		// the pending-branch pipeline restored. The outcome's static
		// accounting has not been applied on this path.
		{
			t := &b.term
			s1, s2 := t.slot1, t.slot2
			counts[t.pc]++
			counts[t.pc+1]++
			cycles += 1 + s1.Op.Cycles()
			if br.x.fpc == int(t.pc)+1 {
				pc = int(t.pc) + 1
				if pendT >= 0 {
					m.pendTarget, m.pendCount = pendT, delaySlots
				}
			} else {
				counts[t.pc+2]++
				// The slot-1 load's interlock against slot 2 is part of
				// the static outcome, which is not applied on this path;
				// charge it live.
				if s1.stallsBefore(s2) {
					cycles++
					st.stall(s1.Cat, s1.Sub, s1.RTCheck, 1)
				}
				cycles += s2.Op.Cycles()
				pc = int(t.pc) + 2
				if pendT >= 0 {
					m.pendTarget, m.pendCount = pendT, delaySlots-1
				}
			}
			br.failf, br.failargs = br.x.failf, br.x.failargs
			break loop
		}
	}

flush:
	copy(m.Regs[:], regs[:32])
	m.PC = pc

	if native {
		if br.np != nil {
			m.expandSBCtrs()
		}
		m.expandBlockCtrs(counts, &squashed,
			&m.Native.BlockRuns, &m.Native.Steps, &m.Native.FusedSteps)
		m.Native.ChainHits += br.chainHits
		m.Native.SlowRuns += br.slowRuns
	} else {
		m.expandBlockCtrs(counts, &squashed,
			&m.Trans.BlockRuns, &m.Trans.Steps, &m.Trans.FusedSteps)
		m.Trans.ChainHits += br.chainHits
		m.Trans.Translated += br.translated
	}
	st.Instrs = m.expandCounts(counts, st.Instrs, squashed)
	st.Cycles = cycles

	if br.failErr != nil {
		return br.failErr
	}
	if br.failf != "" {
		return m.fault(br.failf, br.failargs...)
	}
	if br.cancelErr != nil && !m.halted {
		return &Canceled{Cycle: st.Cycles, Err: br.cancelErr}
	}
	if st.ErrorCode != 0 {
		return &RuntimeError{Code: st.ErrorCode, Item: st.ErrorItem}
	}
	return nil
}

// accountPrefix re-charges instructions [start, j] one at a time after a
// block body bailed out mid-flight: execution counts, per-instruction
// cycles, and the load interlock between adjacent prefix instructions
// (never a stall from the bailing instruction itself — the reference
// engine charges a load's stall only after the load succeeds). base is the cycle
// count before the block was entered; the new total is returned.
func (m *Machine) accountPrefix(start, j int, base uint64) uint64 {
	ins := m.Prog.Instrs
	st := &m.Stats
	for i := start; i <= j; i++ {
		in := &ins[i]
		m.execCounts[i]++
		base += in.Op.Cycles()
		if i < j && in.stallsBefore(&ins[i+1]) {
			base++
			st.stall(in.Cat, in.Sub, in.RTCheck, 1)
		}
	}
	return base
}

// expandBlockCtrs expands the per-block counters into per-instruction
// counts plus stall/squash statistics, using each block's static
// accounting, and credits an engine's block-run totals through the three
// pointers (the translated and native engines keep separate totals over
// the same counters). Every nonzero counter belongs to a block that was in
// the dense list when it executed, so the list loaded here covers them all.
func (m *Machine) expandBlockCtrs(counts []uint64, squashed *uint64, blockRuns, steps, fusedSteps *uint64) {
	lp := m.Prog.blist.Load()
	if lp == nil {
		return
	}
	blist := *lp
	st := &m.Stats
	bctr := m.bctr
	for id := range bctr {
		c := &bctr[id]
		e, tk, fl := c.body, c.taken, c.fall
		if e == 0 && tk == 0 && fl == 0 {
			continue
		}
		*c = blockCtr{}
		blk := blist[id]
		if e != 0 {
			for i := blk.start; i < blk.start+blk.bodyLen; i++ {
				counts[i] += e
			}
			for _, rec := range blk.bodyStalls {
				st.stall(rec.cat, rec.sub, rec.rtCheck, e)
			}
			*blockRuns += e
			*steps += e * uint64(len(blk.steps))
			*fusedSteps += e * blk.fusedN
		}
		if tk != 0 || fl != 0 {
			t := &blk.term
			counts[t.pc] += tk + fl
			if tk != 0 {
				counts[t.pc+1] += tk
				counts[t.pc+2] += tk
				for _, rec := range t.taken.stalls {
					st.stall(rec.cat, rec.sub, rec.rtCheck, tk)
				}
			}
			if fl != 0 {
				if t.fall.annul {
					*squashed += 2 * fl
				} else {
					counts[t.pc+1] += fl
					counts[t.pc+2] += fl
					for _, rec := range t.fall.stalls {
						st.stall(rec.cat, rec.sub, rec.rtCheck, fl)
					}
				}
			}
		}
	}
}

// expandCounts folds the per-instruction execution counts and the squash
// total into the cycle/op statistics, and returns instrs grown by the
// expanded executions.
func (m *Machine) expandCounts(counts []uint64, instrs, squashed uint64) uint64 {
	st := &m.Stats
	ins := m.Prog.Instrs
	for i, c := range counts {
		if c == 0 {
			continue
		}
		counts[i] = 0
		in := &ins[i]
		cyc := c * in.Op.Cycles()
		instrs += c
		st.ByCat[in.Cat] += cyc
		st.ByOp[in.Op] += c
		if in.Cat == CatTagCheck || in.Cat == CatTagExtract {
			st.BySub[in.Sub] += cyc
		}
		if in.RTCheck {
			st.ByRTSub[in.Sub] += cyc
		}
	}
	st.ByCat[CatSquash] += squashed
	st.Squashed += squashed
	return instrs + squashed
}
