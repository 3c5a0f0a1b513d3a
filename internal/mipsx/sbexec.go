package mipsx

// The superblock stream executor.
//
// execSteps runs a formed superblock's flattened stream (superblock.go)
// against the block loop's working register file and memory. Its switch
// covers every kind a stream can hold: the block kinds, the edge
// pseudo-steps, and the check-elided *NC accesses the dataflow pass
// produces. A step that faults, fails a tag or granule check, or takes an
// arithmetic trap records what happened in a stepExit and execSteps
// returns that step's index; a cold edge does the same with why == abSide. A completed run returns -1. The block loop (runBlocks)
// maps an early exit to the element holding the step and finishes it on
// its ordinary body-abort, slot-fault or terminator paths.
//
// Streams run here rather than through the block loop's own switch for
// speed alone: as a small function of its own the step loop keeps its
// state in registers, while inlined into the block loop it inherits the
// outer loop's register pressure and reloads spilled values on every
// step (DESIGN.md §12 has the measurement). Block bodies and delay slots
// average a few steps, too short to pay for a call, so they stay on the
// block loop's inline switch; streams average tens of steps.

import "math"

// execSteps runs a superblock stream until completion (-1) or an early
// exit (the index of the stopping step, with x describing why). hw is the
// machine's config, which equals the one the stream was formed for.
func execSteps(steps []tstep, r *[256]uint32, mem []uint32, hw *HWConfig, x *stepExit) int {
	si := 0
dispatch:
	for si < len(steps) {
		s := &steps[si]
		si++
		switch s.kind {
		case uint8(NOP):
		case uint8(MOV):
			r[s.rd] = r[s.rs1]
		case uint8(LI):
			r[s.rd] = uint32(s.imm)
		case uint8(ADD):
			r[s.rd] = uint32(int32(r[s.rs1]) + int32(r[s.rs2]))
		case uint8(ADDI):
			r[s.rd] = uint32(int32(r[s.rs1]) + s.imm)
		case uint8(SUB):
			r[s.rd] = uint32(int32(r[s.rs1]) - int32(r[s.rs2]))
		case uint8(AND):
			r[s.rd] = r[s.rs1] & r[s.rs2]
		case uint8(ANDI):
			r[s.rd] = r[s.rs1] & uint32(s.imm)
		case uint8(OR):
			r[s.rd] = r[s.rs1] | r[s.rs2]
		case uint8(ORI):
			r[s.rd] = r[s.rs1] | uint32(s.imm)
		case uint8(XOR):
			r[s.rd] = r[s.rs1] ^ r[s.rs2]
		case uint8(XORI):
			r[s.rd] = r[s.rs1] ^ uint32(s.imm)
		case uint8(SLL):
			r[s.rd] = r[s.rs1] << (r[s.rs2] & 31)
		case uint8(SLLI):
			r[s.rd] = r[s.rs1] << (uint32(s.imm) & 31)
		case uint8(SRL):
			r[s.rd] = r[s.rs1] >> (r[s.rs2] & 31)
		case uint8(SRLI):
			r[s.rd] = r[s.rs1] >> (uint32(s.imm) & 31)
		case uint8(SRA):
			r[s.rd] = uint32(int32(r[s.rs1]) >> (r[s.rs2] & 31))
		case uint8(SRAI):
			r[s.rd] = uint32(int32(r[s.rs1]) >> (uint32(s.imm) & 31))
		case uint8(MUL):
			r[s.rd] = uint32(int32(r[s.rs1]) * int32(r[s.rs2]))
		case uint8(FADD):
			r[s.rd] = math.Float32bits(math.Float32frombits(r[s.rs1]) + math.Float32frombits(r[s.rs2]))
		case uint8(FSUB):
			r[s.rd] = math.Float32bits(math.Float32frombits(r[s.rs1]) - math.Float32frombits(r[s.rs2]))
		case uint8(FMUL):
			r[s.rd] = math.Float32bits(math.Float32frombits(r[s.rs1]) * math.Float32frombits(r[s.rs2]))
		case uint8(FDIV):
			r[s.rd] = math.Float32bits(math.Float32frombits(r[s.rs1]) / math.Float32frombits(r[s.rs2]))
		case uint8(FLT):
			if math.Float32frombits(r[s.rs1]) < math.Float32frombits(r[s.rs2]) {
				r[s.rd] = 1
			} else {
				r[s.rd] = 0
			}
		case uint8(FEQ):
			if math.Float32frombits(r[s.rs1]) == math.Float32frombits(r[s.rs2]) {
				r[s.rd] = 1
			} else {
				r[s.rd] = 0
			}
		case uint8(ITOF):
			r[s.rd] = math.Float32bits(float32(int32(r[s.rs1])))
		case uint8(FTOI):
			r[s.rd] = uint32(int32(math.Float32frombits(r[s.rs1])))
		case uint8(DIV):
			if r[s.rs2] == 0 {
				x.fault(s.off, "division by zero")
				return si - 1
			}
			r[s.rd] = uint32(int32(r[s.rs1]) / int32(r[s.rs2]))
		case uint8(REM):
			if r[s.rs2] == 0 {
				x.fault(s.off, "division by zero")
				return si - 1
			}
			r[s.rd] = uint32(int32(r[s.rs1]) % int32(r[s.rs2]))

		case uint8(LD):
			addr := uint32(int32(r[s.rs1]) + s.imm)
			if addr&3 != 0 {
				x.fault(s.off, "misaligned load at %#x", addr)
				return si - 1
			}
			if int(addr>>2) >= len(mem) {
				x.fault(s.off, "load out of range at %#x", addr)
				return si - 1
			}
			r[s.rd] = mem[addr>>2]
		case uint8(ST):
			addr := uint32(int32(r[s.rs1]) + s.imm)
			if addr&3 != 0 {
				x.fault(s.off, "misaligned store at %#x", addr)
				return si - 1
			}
			if int(addr>>2) >= len(mem) {
				x.fault(s.off, "store out of range at %#x", addr)
				return si - 1
			}
			mem[addr>>2] = r[s.rs2]
		case uint8(LDT):
			addr := uint32(int32(r[s.rs1])+s.imm) & hw.MemAddrMask &^ 3
			var v uint32
			if int(addr>>2) < len(mem) {
				v = mem[addr>>2]
			}
			r[s.rd] = v
		case uint8(STT):
			addr := uint32(int32(r[s.rs1])+s.imm) & hw.MemAddrMask &^ 3
			if int(addr>>2) >= len(mem) {
				x.fault(s.off, "store out of range at %#x", addr)
				return si - 1
			}
			mem[addr>>2] = r[s.rs2]
		case uint8(LDC), uint8(STC):
			v := r[s.rs1]
			if uint8((v>>hw.TagShift)&hw.TagMask) != s.tag {
				x.trap(abCheck, s, v, uint32(s.tag))
				return si - 1
			}
			addr := uint32(int32(v)+s.imm) & hw.MemAddrMask
			if addr&3 != 0 {
				if s.kind == uint8(LDC) {
					x.fault(s.off, "misaligned load at %#x", addr)
				} else {
					x.fault(s.off, "misaligned store at %#x", addr)
				}
				return si - 1
			}
			if int(addr>>2) >= len(mem) {
				if s.kind == uint8(LDC) {
					x.fault(s.off, "load out of range at %#x", addr)
				} else {
					x.fault(s.off, "store out of range at %#x", addr)
				}
				return si - 1
			}
			if s.kind == uint8(LDC) {
				r[s.rd] = mem[addr>>2]
			} else {
				mem[addr>>2] = r[s.rs2]
			}

		case uint8(LDM), uint8(STM):
			item := r[s.rs1]
			addr := uint32(int32(item)+s.imm) & hw.MemAddrMask &^ 3
			if addr < hw.MemtagLimit {
				ca := mem[(hw.MemtagBase+(addr>>hw.MemtagShift)<<2)>>2]
				viol := ca == 0
				if !viol {
					cb := s.tag
					if cb == RZero {
						cb = s.rs1
					}
					ba := r[cb] & hw.MemAddrMask &^ 3
					if ba>>hw.MemtagShift != addr>>hw.MemtagShift && ba < hw.MemtagLimit &&
						mem[(hw.MemtagBase+(ba>>hw.MemtagShift)<<2)>>2] != ca {
						viol = true
					}
				}
				if viol {
					x.trap(abMemtag, s, item, addr)
					return si - 1
				}
			}
			if int(addr>>2) >= len(mem) {
				if s.kind == uint8(LDM) {
					x.fault(s.off, "load out of range at %#x", addr)
				} else {
					x.fault(s.off, "store out of range at %#x", addr)
				}
				return si - 1
			}
			if s.kind == uint8(LDM) {
				r[s.rd] = mem[addr>>2]
			} else {
				mem[addr>>2] = r[s.rs2]
			}

		case uint8(ADDTC), uint8(SUBTC):
			if hw.IsIntItem == nil {
				x.fault(s.off, "%s without integer-test hardware", Op(s.kind))
				return si - 1
			}
			a, bv := r[s.rs1], r[s.rs2]
			var s64 int64
			if s.kind == uint8(ADDTC) {
				s64 = int64(int32(a)) + int64(int32(bv))
			} else {
				s64 = int64(int32(a)) - int64(int32(bv))
			}
			res := uint32(s64)
			if !hw.IsIntItem(a) || !hw.IsIntItem(bv) ||
				s64 != int64(int32(res)) || !hw.IsIntItem(res) {
				x.trap(abTrap, s, a, bv)
				return si - 1
			}
			r[s.rd] = res

		case kSrliAndi:
			r[s.rd] = r[s.rs1] >> (uint32(s.imm) & 31)
			r[s.rd2] = r[s.rs3] & uint32(s.imm2)
		case kSlliOri:
			r[s.rd] = r[s.rs1] << (uint32(s.imm) & 31)
			r[s.rd2] = r[s.rs3] | uint32(s.imm2)
		case kMovMov:
			r[s.rd] = r[s.rs1]
			r[s.rd2] = r[s.rs3]
		case kMov3:
			r[s.rd] = r[s.rs1]
			r[s.rd2] = r[s.rs3]
			r[s.rs2] = r[s.tag]
		case kMov4:
			r[s.rd] = r[s.rs1]
			r[s.rd2] = r[s.rs3]
			r[s.rs2] = r[s.tag]
			r[uint8(s.imm)] = r[uint8(s.imm>>8)]
		case kAndiLd, kAddiLd:
			if s.kind == kAndiLd {
				r[s.rd] = r[s.rs1] & uint32(s.imm)
			} else {
				r[s.rd] = uint32(int32(r[s.rs1]) + s.imm)
			}
			addr := uint32(int32(r[s.rs3]) + s.imm2)
			if addr&3 != 0 {
				x.fault(s.off+1, "misaligned load at %#x", addr)
				return si - 1
			}
			if int(addr>>2) >= len(mem) {
				x.fault(s.off+1, "load out of range at %#x", addr)
				return si - 1
			}
			r[s.rd2] = mem[addr>>2]
		case kLdLd:
			a1 := uint32(int32(r[s.rs1]) + s.imm)
			if a1&3 != 0 || int(a1>>2) >= len(mem) {
				x.memFault(s.off, a1, true)
				return si - 1
			}
			r[s.rd] = mem[a1>>2]
			a2 := uint32(int32(r[s.rs3]) + s.imm2)
			if a2&3 != 0 || int(a2>>2) >= len(mem) {
				x.memFault(s.off+1, a2, true)
				return si - 1
			}
			r[s.rd2] = mem[a2>>2]
		case kStSt:
			a1 := uint32(int32(r[s.rs1]) + s.imm)
			if a1&3 != 0 || int(a1>>2) >= len(mem) {
				x.memFault(s.off, a1, false)
				return si - 1
			}
			mem[a1>>2] = r[s.rs2]
			a2 := uint32(int32(r[s.rs3]) + s.imm2)
			if a2&3 != 0 || int(a2>>2) >= len(mem) {
				x.memFault(s.off+1, a2, false)
				return si - 1
			}
			mem[a2>>2] = r[s.tag]
		case kMovLd:
			r[s.rd] = r[s.rs1]
			a2 := uint32(int32(r[s.rs3]) + s.imm2)
			if a2&3 != 0 || int(a2>>2) >= len(mem) {
				x.memFault(s.off+1, a2, true)
				return si - 1
			}
			r[s.rd2] = mem[a2>>2]
		case kLdMov:
			a1 := uint32(int32(r[s.rs1]) + s.imm)
			if a1&3 != 0 || int(a1>>2) >= len(mem) {
				x.memFault(s.off, a1, true)
				return si - 1
			}
			r[s.rd] = mem[a1>>2]
			r[s.rd2] = r[s.rs3]
		case kLdSt:
			a1 := uint32(int32(r[s.rs1]) + s.imm)
			if a1&3 != 0 || int(a1>>2) >= len(mem) {
				x.memFault(s.off, a1, true)
				return si - 1
			}
			r[s.rd] = mem[a1>>2]
			a2 := uint32(int32(r[s.rs3]) + s.imm2)
			if a2&3 != 0 || int(a2>>2) >= len(mem) {
				x.memFault(s.off+1, a2, false)
				return si - 1
			}
			mem[a2>>2] = r[s.tag]
		case kStLd:
			a1 := uint32(int32(r[s.rs1]) + s.imm)
			if a1&3 != 0 || int(a1>>2) >= len(mem) {
				x.memFault(s.off, a1, false)
				return si - 1
			}
			mem[a1>>2] = r[s.rs2]
			a2 := uint32(int32(r[s.rs3]) + s.imm2)
			if a2&3 != 0 || int(a2>>2) >= len(mem) {
				x.memFault(s.off+1, a2, true)
				return si - 1
			}
			r[s.rd2] = mem[a2>>2]
		case kStMov:
			a1 := uint32(int32(r[s.rs1]) + s.imm)
			if a1&3 != 0 || int(a1>>2) >= len(mem) {
				x.memFault(s.off, a1, false)
				return si - 1
			}
			mem[a1>>2] = r[s.rs2]
			r[s.rd2] = r[s.rs3]
		case kMovSt:
			r[s.rd] = r[s.rs1]
			a2 := uint32(int32(r[s.rs3]) + s.imm2)
			if a2&3 != 0 || int(a2>>2) >= len(mem) {
				x.memFault(s.off+1, a2, false)
				return si - 1
			}
			mem[a2>>2] = r[s.tag]
		case kAddiSt:
			r[s.rd] = uint32(int32(r[s.rs1]) + s.imm)
			a2 := uint32(int32(r[s.rs3]) + s.imm2)
			if a2&3 != 0 || int(a2>>2) >= len(mem) {
				x.memFault(s.off+1, a2, false)
				return si - 1
			}
			mem[a2>>2] = r[s.tag]
		case kLdSrli:
			a1 := uint32(int32(r[s.rs1]) + s.imm)
			if a1&3 != 0 || int(a1>>2) >= len(mem) {
				x.memFault(s.off, a1, true)
				return si - 1
			}
			r[s.rd] = mem[a1>>2]
			r[s.rd2] = r[s.rs3] >> (uint32(s.imm2) & 31)
		case kMovSrli:
			r[s.rd] = r[s.rs1]
			r[s.rd2] = r[s.rs3] >> (uint32(s.imm2) & 31)
		case kLdAddi:
			a1 := uint32(int32(r[s.rs1]) + s.imm)
			if a1&3 != 0 || int(a1>>2) >= len(mem) {
				x.memFault(s.off, a1, true)
				return si - 1
			}
			r[s.rd] = mem[a1>>2]
			r[s.rd2] = uint32(int32(r[s.rs3]) + s.imm2)
		case kStLi:
			a1 := uint32(int32(r[s.rs1]) + s.imm)
			if a1&3 != 0 || int(a1>>2) >= len(mem) {
				x.memFault(s.off, a1, false)
				return si - 1
			}
			mem[a1>>2] = r[s.rs2]
			r[s.rd2] = uint32(s.imm2)
		case kLiOr:
			r[s.rd] = uint32(s.imm)
			r[s.rd2] = r[s.rs3] | r[s.tag]
		case kOrAddi:
			r[s.rd] = r[s.rs1] | r[s.rs2]
			r[s.rd2] = uint32(int32(r[s.rs3]) + s.imm2)
		case kSlliSrai:
			r[s.rd] = r[s.rs1] << (uint32(s.imm) & 31)
			r[s.rd2] = uint32(int32(r[s.rs3]) >> (uint32(s.imm2) & 31))

		case kLd3:
			a := uint32(int32(r[s.rs1]) + s.imm)
			w := int(a >> 2)
			if a&3 != 0 || w+2 >= len(mem) {
				if !memRunSlow(s, r, mem, x) {
					return si - 1
				}
				continue dispatch
			}
			v := uint32(s.imm2)
			r[uint8(v)] = mem[w]
			r[uint8(v>>8)] = mem[w+1]
			r[uint8(v>>16)] = mem[w+2]
		case kLd4:
			a := uint32(int32(r[s.rs1]) + s.imm)
			w := int(a >> 2)
			if a&3 != 0 || w+3 >= len(mem) {
				if !memRunSlow(s, r, mem, x) {
					return si - 1
				}
				continue dispatch
			}
			v := uint32(s.imm2)
			r[uint8(v)] = mem[w]
			r[uint8(v>>8)] = mem[w+1]
			r[uint8(v>>16)] = mem[w+2]
			r[uint8(v>>24)] = mem[w+3]
		case kSt3:
			a := uint32(int32(r[s.rs1]) + s.imm)
			w := int(a >> 2)
			if a&3 != 0 || w+2 >= len(mem) {
				if !memRunSlow(s, r, mem, x) {
					return si - 1
				}
				continue dispatch
			}
			v := uint32(s.imm2)
			mem[w] = r[uint8(v)]
			mem[w+1] = r[uint8(v>>8)]
			mem[w+2] = r[uint8(v>>16)]
		case kSt4:
			a := uint32(int32(r[s.rs1]) + s.imm)
			w := int(a >> 2)
			if a&3 != 0 || w+3 >= len(mem) {
				if !memRunSlow(s, r, mem, x) {
					return si - 1
				}
				continue dispatch
			}
			v := uint32(s.imm2)
			mem[w] = r[uint8(v)]
			mem[w+1] = r[uint8(v>>8)]
			mem[w+2] = r[uint8(v>>16)]
			mem[w+3] = r[uint8(v>>24)]

		case kLdcNC, kStcNC:
			// LDC/STC minus the tag check an earlier identical check
			// proved redundant; address masking and fault semantics are
			// bit-identical to the checked kinds.
			addr := uint32(int32(r[s.rs1])+s.imm) & hw.MemAddrMask
			if addr&3 != 0 {
				if s.kind == kLdcNC {
					x.fault(s.off, "misaligned load at %#x", addr)
				} else {
					x.fault(s.off, "misaligned store at %#x", addr)
				}
				return si - 1
			}
			if int(addr>>2) >= len(mem) {
				if s.kind == kLdcNC {
					x.fault(s.off, "load out of range at %#x", addr)
				} else {
					x.fault(s.off, "store out of range at %#x", addr)
				}
				return si - 1
			}
			if s.kind == kLdcNC {
				r[s.rd] = mem[addr>>2]
			} else {
				mem[addr>>2] = r[s.rs2]
			}

		case kLdmNC, kStmNC:
			// LDM/STM minus the granule check; never produced across a
			// store (granule colors live in memory).
			addr := uint32(int32(r[s.rs1])+s.imm) & hw.MemAddrMask &^ 3
			if int(addr>>2) >= len(mem) {
				if s.kind == kLdmNC {
					x.fault(s.off, "load out of range at %#x", addr)
				} else {
					x.fault(s.off, "store out of range at %#x", addr)
				}
				return si - 1
			}
			if s.kind == kLdmNC {
				r[s.rd] = mem[addr>>2]
			} else {
				mem[addr>>2] = r[s.rs2]
			}

		case kEdgeJr:
			if r[s.rs1] != uint32(s.imm) {
				x.side(s.rd2, false)
				return si - 1
			}

		case kEdgeJrA:
			if r[s.rs1] != uint32(s.imm) {
				x.side(s.rd2, false)
				return si - 1
			}
			r[s.rd] = uint32(int32(r[s.rs2]) + s.imm2)

		case kEdgeJrL:
			if r[s.rs1] != uint32(s.imm) {
				x.side(s.rd2, false)
				return si - 1
			}
			r[RRA] = uint32(s.imm2)

		// Per-opcode edge kinds: the branch evaluated directly, no inner
		// opcode switch. A mismatch against the formed direction (rs3)
		// exits the stream.
		case kEdgeOp0 + uint8(BEQ-BEQ):
			if taken := r[s.rs1] == r[s.rs2]; taken != (s.rs3 != 0) {
				x.side(s.rd2, taken)
				return si - 1
			}
		case kEdgeOp0 + uint8(BNE-BEQ):
			if taken := r[s.rs1] != r[s.rs2]; taken != (s.rs3 != 0) {
				x.side(s.rd2, taken)
				return si - 1
			}
		case kEdgeOp0 + uint8(BLT-BEQ):
			if taken := int32(r[s.rs1]) < int32(r[s.rs2]); taken != (s.rs3 != 0) {
				x.side(s.rd2, taken)
				return si - 1
			}
		case kEdgeOp0 + uint8(BGE-BEQ):
			if taken := int32(r[s.rs1]) >= int32(r[s.rs2]); taken != (s.rs3 != 0) {
				x.side(s.rd2, taken)
				return si - 1
			}
		case kEdgeOp0 + uint8(BLE-BEQ):
			if taken := int32(r[s.rs1]) <= int32(r[s.rs2]); taken != (s.rs3 != 0) {
				x.side(s.rd2, taken)
				return si - 1
			}
		case kEdgeOp0 + uint8(BGT-BEQ):
			if taken := int32(r[s.rs1]) > int32(r[s.rs2]); taken != (s.rs3 != 0) {
				x.side(s.rd2, taken)
				return si - 1
			}
		case kEdgeOp0 + uint8(BEQI-BEQ):
			if taken := int32(r[s.rs1]) == s.imm; taken != (s.rs3 != 0) {
				x.side(s.rd2, taken)
				return si - 1
			}
		case kEdgeOp0 + uint8(BNEI-BEQ):
			if taken := int32(r[s.rs1]) != s.imm; taken != (s.rs3 != 0) {
				x.side(s.rd2, taken)
				return si - 1
			}
		case kEdgeOp0 + uint8(BLTI-BEQ):
			if taken := int32(r[s.rs1]) < s.imm; taken != (s.rs3 != 0) {
				x.side(s.rd2, taken)
				return si - 1
			}
		case kEdgeOp0 + uint8(BGEI-BEQ):
			if taken := int32(r[s.rs1]) >= s.imm; taken != (s.rs3 != 0) {
				x.side(s.rd2, taken)
				return si - 1
			}
		case kEdgeOp0 + uint8(BTEQ-BEQ):
			if taken := uint8((r[s.rs1]>>hw.TagShift)&hw.TagMask) == s.tag; taken != (s.rs3 != 0) {
				x.side(s.rd2, taken)
				return si - 1
			}
		case kEdgeOp0 + uint8(BTNE-BEQ):
			if taken := uint8((r[s.rs1]>>hw.TagShift)&hw.TagMask) != s.tag; taken != (s.rs3 != 0) {
				x.side(s.rd2, taken)
				return si - 1
			}

		default:
			x.fault(s.off, "bad opcode %v", Op(s.kind))
			return si - 1
		}
	}
	return -1
}

// memRunSlow re-runs a save/restore run element by element after its
// combined fast-path check missed: either an element genuinely faults (the
// right one, after its predecessors took effect) or the whole run completes
// because the fast check was merely conservative about wrapped addresses.
// Returns false when the run faulted (x is filled in).
func memRunSlow(s *tstep, r *[256]uint32, mem []uint32, x *stepExit) bool {
	elems := 3
	if s.kind == kLd4 || s.kind == kSt4 {
		elems = 4
	}
	isLoad := s.kind == kLd3 || s.kind == kLd4
	v := uint32(s.imm2)
	for k := 0; k < elems; k++ {
		addr := uint32(int32(r[s.rs1]) + s.imm + int32(4*k))
		if addr&3 != 0 || int(addr>>2) >= len(mem) {
			x.memFault(s.off+int32(k), addr, isLoad)
			return false
		}
		if isLoad {
			r[uint8(v>>(8*k))] = mem[addr>>2]
		} else {
			mem[addr>>2] = r[uint8(v>>(8*k))]
		}
	}
	return true
}
