package mipsx

// The native (closure-threaded) engine's execution loop. Block compilation
// lives in nclosure.go, superblock formation in superblock.go, and the
// shared step switch in nexec.go.
//
// RunNative executes compiled blocks: the hot path checks for a superblock
// anchored at the current block and runs its flattened stream — one counter
// increment and one precomputed cycle addition charge the whole multi-block
// path — and otherwise runs the block's closure chain and resolves the
// terminator exactly as the translated engine does, sharing its chain
// pointers, its per-block counters, and its flush expansion. Every rare
// event (side exits, faults, check failures, arithmetic traps, cycle
// limits) spills back into the translated engine's accounting so all three
// engines stay bit-identical in Stats, registers, memory, output and
// faults.
//
// MaxCycles and Ctx cancellation share the translated engine's folded
// limit test (cycleLimit/pollLimit), including the superblock entry
// guard, so a canceled run stops where no pipeline state is pending.
//
// Fallbacks mirror the translated engine's: an attached Observer or a
// machine stopped mid-pipeline delegates to the reference engine; a program
// already natively compiled for a different hardware config delegates to
// the translated engine rather than recompiling.

import (
	"strconv"
	"sync/atomic"
)

// RunNative executes until HALT, a fault, a Lisp runtime error, or
// MaxCycles, using the native compilation shared across all machines
// running the same Program under the same hardware config.
func (m *Machine) RunNative() error {
	if m.Obs != nil || m.pendCount != 0 || m.pendSquash || m.lastLoadReg != RZero {
		m.Native.Fallbacks++
		return m.RunReference()
	}
	p := m.Prog
	p.initTranslation()
	np := p.nativeFor(&m.HW)
	if np == nil {
		m.Native.Fallbacks++
		return m.RunTranslated()
	}
	sp := &np.spec
	dec := p.dec
	mem := m.Mem
	stats := &m.Stats

	// Working register file, as in the translated engine: 32 architectural
	// registers plus the scratch slot for remapped zero destinations.
	regs := &m.nregs
	copy(regs[:32], m.Regs[:])
	r := regs

	halted := m.halted
	pc := m.PC
	cycles := stats.Cycles
	instrs := stats.Instrs
	// The folded MaxCycles/cancellation threshold, as in RunTranslated.
	limit := m.cycleLimit(cycles)
	var over bool
	var cancelErr error

	if len(m.execCounts) < len(dec) {
		m.execCounts = make([]uint64, len(dec))
	}
	counts := m.execCounts[:len(dec)]

	pendTarget, pendCount, pendSquash := -1, 0, false
	var squashed uint64
	var failf string
	var failargs []any
	var failErr error
	var b *tblock
	var bn *nblock
	var bc *blockCtr
	var o *outcome
	var condTaken bool
	// condResolved marks a superblock side exit: the branch has already
	// been evaluated in the stream, so the terminator must not re-evaluate
	// it (the delay slots have not run yet and may clobber its operands).
	var condResolved bool
	var itgt, pendT int
	st := &m.nst
	*st = nstate{}

	if halted {
		goto flush
	}

loop:
	for {
		if b == nil {
			b, _ = p.blockAt(pc)
			if b == nil {
				failf = "pc out of range"
				break loop
			}
		}
		bn = b.nat.Load()
		if bn == nil {
			bn = p.nblockSlow(b, np)
			m.Native.Compiled++
		}

		// Superblock fast path: enter only when even the most expensive
		// path through the stream cannot cross the cycle limit, so the
		// stream itself needs no limit checks; near the limit (or a
		// cancellation poll point) the per-block path below faults or
		// polls exactly where the translated engine would.
		if sb := bn.sb.Load(); sb != nil && cycles+sb.maxCyc <= limit {
			st.exit = nexNone
			idx := execSteps(sb.steps, r, mem, sp, st)
			if idx < 0 {
				m.markSBExit(sb, int32(len(sb.elems)))
				cycles += sb.fullCyc
				m.Native.SBRuns++
				if tb := sb.termB; tb != nil {
					// Terminal element: its body has run and been charged
					// (the full-run counter credits it at flush); resolve
					// its unpredicted terminator ordinarily.
					b = tb
					bc = m.growBctr(b.id)
					condResolved = false
					goto terminator
				}
				nb := sb.next.Load()
				if nb == nil {
					pc = int(sb.nextPC)
					nb, _ = p.blockAt(pc)
					if nb == nil {
						failf = "pc out of range"
						break loop
					}
					sb.next.Store(nb)
				}
				b = nb
				continue loop
			}

			// The stream aborted at step idx: record the exit site (the
			// completed prefix expands from it at flush) and resume
			// through the ordinary machinery.
			m.Native.SBSideExits++
			if st.exit == nexSide {
				j := st.sbj
				m.markSBExit(sb, j)
				m.maybeReform(sb, j)
				e := &sb.elems[j]
				b = e.b
				bc = m.growBctr(b.id)
				bc.body++
				cycles += e.cycBefore + b.bodyCyc
				// The exiting element's body ran in full, elided checks
				// skipped; runs counted at expansion only cover the
				// elements before the exit site.
				m.Native.ElidedChecks += uint64(e.elided)
				// A conditional edge already resolved the branch; an
				// indirect-jump edge resolved nothing the terminator
				// cannot recompute from the registers.
				condTaken, condResolved = st.taken, b.term.kind == termCond
				goto terminator
			}
			{
				j := int32(0)
				for int(j)+1 < len(sb.elems) && sb.elems[j+1].stepLo <= int32(idx) {
					j++
				}
				e := &sb.elems[j]
				if int32(idx) < e.slotLo {
					// The dataflow pass fuses body steps across termFall
					// element boundaries, so a fused step indexed in
					// element j can fault in its second half's pc, which
					// belongs to a later element. The faulting pc decides:
					// every element the pc skips past was fully executed
					// (spanning only crosses fall-through boundaries,
					// whose terminators cost no cycles and cover no
					// instructions). Slots never fuse across elements, so
					// the slot path below is exempt.
					for int(j)+1 < len(sb.elems) && !e.b.coversPC(st.fpc) {
						j++
						e = &sb.elems[j]
					}
				}
				m.markSBExit(sb, j)
				b = e.b
				bc = m.growBctr(b.id)
				cycles += e.cycBefore
				if int32(idx) >= e.slotLo && int32(idx) < e.stepHi {
					// A delay slot faulted after the hot branch: body and
					// direction accounting happen on the slot-fault path.
					bc.body++
					cycles += b.bodyCyc
					t := &b.term
					pendT = -1
					switch {
					case t.kind == termJumpInd:
						pendT = int(e.jrTgt)
					case t.kind == termJump || (t.kind == termCond && e.hotTaken):
						pendT = int(t.target)
					}
					goto slotFault
				}
				goto bodyAbort
			}
		}

		// Per-block path: charge the body statically, run the closure
		// chain (or the shared switch directly when nothing in the body
		// needed specializing), then resolve the terminator.
		if int(b.id) >= len(m.bctr) {
			m.growBctr(b.id)
		}
		bc = &m.bctr[b.id]
		bc.body++
		m.Native.SlowRuns++
		if bc.body >= sbHotThreshold && bn.sb.Load() == nil {
			if a := bn.sbTried.Load(); sbRetryAt(a, bc.body) &&
				bn.sbTried.CompareAndSwap(a, a+1) {
				p.tmu.Lock()
				if bn.sb.Load() == nil {
					if sb := p.formSuperblock(m, b, np); sb != nil {
						bn.sb.Store(sb)
						m.Native.SuperBlocks++
					}
				}
				p.tmu.Unlock()
			}
		}
		cycles += b.bodyCyc
		st.exit = nexNone
		if bn.chain != nil {
			bn.chain(r, mem, st)
		} else {
			execSteps(b.steps, r, mem, sp, st)
		}
		if st.exit != nexNone {
			// Back out the static accounting; bodyAbort re-charges the
			// executed prefix instruction by instruction.
			bc.body--
			cycles -= b.bodyCyc
			goto bodyAbort
		}
		condResolved = false
		goto terminator

	bodyAbort:
		// A body step faulted, failed its tag check, or trapped: re-charge
		// the executed prefix exactly as the reference engine charges it, then
		// fault or enter the software handler.
		cycles = m.accountPrefix(int(b.start), int(st.fpc), cycles)
		switch st.exit {
		case nexCheck:
			if m.HW.CheckFailHandler < 0 {
				pc = int(st.fpc)
				failf, failargs = "checked access tag mismatch: item %#x, want tag %d", []any{st.trapA, st.trapTag}
				break loop
			}
			r[RT0] = st.trapA
			r[RT1] = uint32(st.trapTag)
			cycles += sp.trapCycles
			stats.Traps++
			pc = m.HW.CheckFailHandler
		case nexTrap:
			if m.HW.TrapHandler < 0 {
				pc = int(st.fpc)
				failf, failargs = "unhandled arithmetic trap (%v %#x %#x)", []any{Op(st.trapOp), st.trapA, st.trapB}
				break loop
			}
			mem[TrapOpAddr>>2] = uint32(st.trapOp)
			mem[TrapAAddr>>2] = st.trapA
			mem[TrapBAddr>>2] = st.trapB
			mem[TrapRdAddr>>2] = uint32(st.trapRd)
			mem[TrapPCAddr>>2] = uint32(int(st.fpc) + 1)
			cycles += sp.trapCycles
			stats.Traps++
			pc = m.HW.TrapHandler
		case nexMemtag:
			if m.HW.MemtagFailHandler < 0 {
				pc = int(st.fpc)
				failf, failargs = "memtag granule check failed: item %#x, addr %#x", []any{st.trapA, st.trapB}
				break loop
			}
			r[RT0] = st.trapA
			r[RT1] = st.trapB
			cycles += sp.trapCycles
			stats.Traps++
			pc = m.HW.MemtagFailHandler
		default: // nexFault
			pc = int(st.fpc)
			failf, failargs = st.failf, st.failargs
			break loop
		}
		if cycles > limit {
			if limit, over, cancelErr = m.pollLimit(cycles); over {
				failf, failargs = "cycle limit %d exceeded", []any{m.MaxCycles}
				break loop
			} else if cancelErr != nil {
				break loop
			}
		}
		b = nil
		continue loop

	slotFault:
		// A delay slot faulted: reproduce the reference engine's exact state —
		// the branch and every executed slot counted and charged, the
		// pending-branch pipeline restored. The outcome's static
		// accounting has not been applied on this path.
		{
			t := &b.term
			s1, s2 := t.slot1, t.slot2
			counts[t.pc]++
			counts[t.pc+1]++
			cycles += 1 + uint64(s1.cycles)
			if int(st.fpc) == int(t.pc)+1 {
				pc = int(t.pc) + 1
				if pendT >= 0 {
					pendTarget, pendCount = pendT, delaySlots
				}
			} else {
				counts[t.pc+2]++
				if s1.op.IsLoad() && s2.readMask&s1.wmask != 0 {
					cycles++
					stats.Stalls++
					stats.ByCat[s1.cat]++
					if s1.rtCheck {
						stats.ByRTSub[s1.sub]++
					}
				}
				cycles += uint64(s2.cycles)
				pc = int(t.pc) + 2
				if pendT >= 0 {
					pendTarget, pendCount = pendT, delaySlots-1
				}
			}
			failf, failargs = st.failf, st.failargs
			break loop
		}

	terminator:
		{
			t := &b.term
			switch t.kind {
			case termFall:
				pc = int(t.fall.nextPC)
				nb := t.fnext.Load()
				if nb == nil {
					nb, _ = p.blockAt(pc)
					if nb == nil {
						failf = "pc out of range"
						break loop
					}
					t.fnext.Store(nb)
				} else {
					m.Native.ChainHits++
				}
				b = nb

			case termHalt:
				counts[t.pc]++
				cycles++
				halted = true
				pc = int(t.pc)
				break loop

			case termSys:
				counts[t.pc]++
				cycles++
				switch t.imm {
				case SysHalt:
					halted = true
					pc = int(t.pc)
					break loop
				case SysError:
					stats.ErrorCode = int32(r[RRet])
					stats.ErrorItem = r[3]
					halted = true
					pc = int(t.pc)
					break loop
				case SysPutChar:
					m.Output.WriteByte(byte(r[RRet]))
				case SysPutInt:
					m.Output.WriteString(strconv.FormatInt(int64(int32(r[RRet])), 10))
				case SysGCNotify:
					stats.GCs++
					stats.GCWords += uint64(r[RRet])
				case SysTrapReturn:
					rd := mem[TrapRdAddr>>2]
					if rd >= 32 {
						pc = int(t.pc)
						failf, failargs = "bad trap destination register %d", []any{rd}
						break loop
					}
					if rd != RZero {
						r[rd] = mem[TrapResultAddr>>2]
					}
					cycles += sp.trapCycles
					pc = int(mem[TrapPCAddr>>2])
					if cycles > limit {
						if limit, over, cancelErr = m.pollLimit(cycles); over {
							failf, failargs = "cycle limit %d exceeded", []any{m.MaxCycles}
							break loop
						} else if cancelErr != nil {
							break loop
						}
					}
					b = nil
					continue loop
				default:
					pc = int(t.pc)
					failf, failargs = "bad syscall %d", []any{t.imm}
					break loop
				}
				pc = int(t.pc) + 1
				nb := t.fnext.Load()
				if nb == nil {
					nb, _ = p.blockAt(pc)
					if nb == nil {
						failf = "pc out of range"
						break loop
					}
					t.fnext.Store(nb)
				} else {
					m.Native.ChainHits++
				}
				b = nb

			case termCond:
				if !condResolved {
					switch t.op {
					case BEQ:
						condTaken = r[t.rs1] == r[t.rs2]
					case BNE:
						condTaken = r[t.rs1] != r[t.rs2]
					case BLT:
						condTaken = int32(r[t.rs1]) < int32(r[t.rs2])
					case BGE:
						condTaken = int32(r[t.rs1]) >= int32(r[t.rs2])
					case BLE:
						condTaken = int32(r[t.rs1]) <= int32(r[t.rs2])
					case BGT:
						condTaken = int32(r[t.rs1]) > int32(r[t.rs2])
					case BEQI:
						condTaken = int32(r[t.rs1]) == t.imm
					case BNEI:
						condTaken = int32(r[t.rs1]) != t.imm
					case BLTI:
						condTaken = int32(r[t.rs1]) < t.imm
					case BGEI:
						condTaken = int32(r[t.rs1]) >= t.imm
					case BTEQ:
						condTaken = uint8((r[t.rs1]>>sp.tagShift)&sp.tagMask) == t.tag
					case BTNE:
						condTaken = uint8((r[t.rs1]>>sp.tagShift)&sp.tagMask) != t.tag
					}
				}
				condResolved = false
				o = &t.fall
				if condTaken {
					o = &t.taken
				}
				if cycles+o.checkCyc > limit {
					if limit, over, cancelErr = m.pollLimit(cycles + o.checkCyc); cancelErr != nil {
						// Canceled at a poll point: stop at the branch, before
						// it dispatches, leaving no pipeline state pending.
						pc = int(t.pc)
						break loop
					}
					if over {
						// Reconstruct the exact machine state at the limit
						// check: branch dispatched (and NOP slots consumed),
						// delay slots still pending otherwise.
						counts[t.pc]++
						cycles += o.checkCyc
						if t.slotsNop {
							if condTaken {
								counts[t.pc+1]++
								counts[t.pc+2]++
								pc = int(o.nextPC)
							} else {
								if o.annul {
									squashed += 2
								} else {
									counts[t.pc+1]++
									counts[t.pc+2]++
								}
								pc = int(t.pc) + 3
							}
						} else {
							pc = int(t.pc) + 1
							if condTaken {
								pendTarget, pendCount = int(t.target), delaySlots
							} else if o.annul {
								pendTarget, pendCount, pendSquash = -1, delaySlots, true
							}
						}
						failf, failargs = "cycle limit %d exceeded", []any{m.MaxCycles}
						break loop
					}
				}
				if o.annul || t.slotsNop {
					cycles += o.cyc
					var ch *atomic.Pointer[tblock]
					if condTaken {
						bc.taken++
						ch = &t.tnext
					} else {
						bc.fall++
						ch = &t.fnext
					}
					pc = int(o.nextPC)
					nb := ch.Load()
					if nb == nil {
						nb, _ = p.blockAt(pc)
						if nb == nil {
							failf = "pc out of range"
							break loop
						}
						ch.Store(nb)
					} else {
						m.Native.ChainHits++
					}
					b = nb
					continue loop
				}
				pendT = -1
				if condTaken {
					pendT = int(t.target)
				}
				st.exit = nexNone
				execSteps(t.slots[:], r, mem, sp, st)
				if st.exit != nexNone {
					goto slotFault
				}
				cycles += o.cyc
				{
					var ch *atomic.Pointer[tblock]
					if condTaken {
						bc.taken++
						ch = &t.tnext
					} else {
						bc.fall++
						ch = &t.fnext
					}
					pc = int(o.nextPC)
					nb := ch.Load()
					if nb == nil {
						nb, _ = p.blockAt(pc)
						if nb == nil {
							failf = "pc out of range"
							break loop
						}
						ch.Store(nb)
					} else {
						m.Native.ChainHits++
					}
					b = nb
				}

			case termJump:
				if t.link {
					r[RRA] = uint32(int(t.pc)+1+delaySlots) << 2
				}
				o = &t.taken
				if cycles+o.checkCyc > limit {
					if limit, over, cancelErr = m.pollLimit(cycles + o.checkCyc); cancelErr != nil {
						// Canceled at a poll point: stop at the branch, before
						// it dispatches, leaving no pipeline state pending.
						pc = int(t.pc)
						break loop
					}
					if over {
						counts[t.pc]++
						cycles += o.checkCyc
						if t.slotsNop {
							counts[t.pc+1]++
							counts[t.pc+2]++
							pc = int(o.nextPC)
						} else {
							pc = int(t.pc) + 1
							pendTarget, pendCount = int(t.target), delaySlots
						}
						failf, failargs = "cycle limit %d exceeded", []any{m.MaxCycles}
						break loop
					}
				}
				if !t.slotsNop {
					pendT = int(t.target)
					st.exit = nexNone
					execSteps(t.slots[:], r, mem, sp, st)
					if st.exit != nexNone {
						goto slotFault
					}
				}
				cycles += o.cyc
				bc.taken++
				pc = int(o.nextPC)
				nb := t.tnext.Load()
				if nb == nil {
					nb, _ = p.blockAt(pc)
					if nb == nil {
						failf = "pc out of range"
						break loop
					}
					t.tnext.Store(nb)
				} else {
					m.Native.ChainHits++
				}
				b = nb

			case termJumpInd:
				v := r[t.rs1]
				if v&3 != 0 {
					counts[t.pc]++
					cycles++
					pc = int(t.pc)
					if t.op == JALR {
						failf, failargs = "jalr to misaligned code address %#x", []any{v}
					} else {
						failf, failargs = "jr to misaligned code address %#x", []any{v}
					}
					break loop
				}
				itgt = int(v >> 2)
				if t.link {
					r[RRA] = uint32(int(t.pc)+1+delaySlots) << 2
				}
				o = &t.taken
				if cycles+o.checkCyc > limit {
					if limit, over, cancelErr = m.pollLimit(cycles + o.checkCyc); cancelErr != nil {
						// Canceled at a poll point: stop at the branch, before
						// it dispatches, leaving no pipeline state pending.
						pc = int(t.pc)
						break loop
					}
					if over {
						counts[t.pc]++
						cycles += o.checkCyc
						if t.slotsNop {
							counts[t.pc+1]++
							counts[t.pc+2]++
							pc = itgt
						} else {
							pc = int(t.pc) + 1
							pendTarget, pendCount = itgt, delaySlots
						}
						failf, failargs = "cycle limit %d exceeded", []any{m.MaxCycles}
						break loop
					}
				}
				if !t.slotsNop {
					pendT = itgt
					st.exit = nexNone
					execSteps(t.slots[:], r, mem, sp, st)
					if st.exit != nexNone {
						goto slotFault
					}
					// Slot-2 load interlock against the computed target, the
					// one stall the translator cannot resolve statically.
					if o.s2wmask != 0 && uint(itgt) < uint(len(dec)) &&
						dec[itgt].readMask&o.s2wmask != 0 {
						cycles++
						stats.Stalls++
						stats.ByCat[t.slot2.cat]++
						if t.slot2.rtCheck {
							stats.ByRTSub[t.slot2.sub]++
						}
					}
				}
				cycles += o.cyc
				bc.taken++
				pc = itgt
				if ce := t.icache.Load(); ce != nil && int(ce.pc) == itgt {
					b = ce.b
					m.Native.ChainHits++
				} else {
					nb, _ := p.blockAt(itgt)
					if nb == nil {
						failf = "pc out of range"
						break loop
					}
					if ce == nil {
						t.icache.Store(&icacheEnt{pc: int32(itgt), b: nb})
					}
					b = nb
				}

			case termInterp:
				// Delegate the transfer and its delay slots to the reference
				// stepper, exactly as the translated engine does.
				copy(m.Regs[:], regs[:32])
				m.PC = int(t.pc)
				m.halted = halted
				m.pendTarget, m.pendCount, m.pendSquash = pendTarget, pendCount, pendSquash
				stats.Cycles, stats.Instrs = cycles, instrs
				err := m.Step()
				if err == nil && stats.Cycles > limit {
					if limit, over, cancelErr = m.pollLimit(stats.Cycles); over {
						failf, failargs = "cycle limit %d exceeded", []any{m.MaxCycles}
					}
				}
				if err == nil && failf == "" {
					for (m.pendCount > 0 || m.pendSquash) && !m.halted {
						if err = m.Step(); err != nil {
							break
						}
					}
				}
				copy(regs[:32], m.Regs[:])
				cycles, instrs = stats.Cycles, stats.Instrs
				pc = m.PC
				halted = m.halted
				pendTarget, pendCount, pendSquash = m.pendTarget, m.pendCount, m.pendSquash
				if err != nil {
					failErr = err
					break loop
				}
				if failf != "" || halted {
					break loop
				}
				if m.lastLoadReg != RZero {
					if !pendSquash && uint(pc) < uint(len(dec)) &&
						dec[pc].readMask&(1<<m.lastLoadReg) != 0 {
						ld := &dec[m.lastLoad]
						cycles++
						stats.Stalls++
						stats.ByCat[ld.cat]++
						if ld.rtCheck {
							stats.ByRTSub[ld.sub]++
						}
					}
					m.lastLoadReg = RZero
				}
				if cancelErr != nil {
					break loop
				}
				b = nil
			}
		}
	}

flush:
	copy(m.Regs[:], regs[:32])
	m.halted = halted
	m.PC = pc
	m.pendTarget, m.pendCount, m.pendSquash = pendTarget, pendCount, pendSquash

	m.expandSBCtrs()
	m.expandBlockCtrs(counts, &squashed,
		&m.Native.BlockRuns, &m.Native.Steps, &m.Native.FusedSteps)
	instrs = m.expandCounts(counts, instrs, squashed)
	stats.Cycles, stats.Instrs = cycles, instrs

	if failErr != nil {
		return failErr
	}
	if failf != "" {
		return m.fault(failf, failargs...)
	}
	if cancelErr != nil && !halted {
		return &Canceled{Cycle: stats.Cycles, Err: cancelErr}
	}
	if stats.ErrorCode != 0 {
		return &RuntimeError{Code: stats.ErrorCode, Item: stats.ErrorItem}
	}
	return nil
}
