package mipsx

// The step executor.
//
// execSteps runs a sequence of translated steps against the block loop's
// working register file and memory: a block body, a transfer's two
// precompiled delay slots, or a formed superblock's flattened stream
// (superblock.go). Its switch covers every kind any of them can hold: the
// single instructions, the block translator's fused superinstructions, the
// edge pseudo-steps, and the check-elided *NC accesses the dataflow pass
// produces. A step that faults, fails a tag or granule check, or takes an
// arithmetic trap records what happened in a stepExit and execSteps
// returns that step's index; a cold edge does the same with why ==
// abSide. A completed run returns -1. The block loop (runBlocks) finishes
// an early exit on its body-abort, slot-fault, stream-abort or side-exit
// paths.
//
// Together with the reference stepper (Step, sim.go) this is the only
// code that executes instructions: an ISA change edits both, and
// TestOpGrid checks that they agree. Block bodies average under two
// steps, so the call per body or slot pair is a real cost to the block
// loop; DESIGN.md §12 weighs it against keeping a second copy of this
// switch inline in the loop.

import "math"

// execSteps runs steps until completion (-1) or an early exit (the index
// of the stopping step, with x describing why). hw is the machine's
// config; a stream's steps were formed for that same config.
func execSteps(steps []tstep, r *[256]uint32, mem []uint32, hw *HWConfig, x *stepExit) int {
	si := 0
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
				return x.fault(si-1, s.off, "division by zero")
			}
			r[s.rd] = uint32(int32(r[s.rs1]) / int32(r[s.rs2]))
		case uint8(REM):
			if r[s.rs2] == 0 {
				return x.fault(si-1, s.off, "division by zero")
			}
			r[s.rd] = uint32(int32(r[s.rs1]) % int32(r[s.rs2]))

		case uint8(LD):
			addr := uint32(int32(r[s.rs1]) + s.imm)
			if addr&3 != 0 || int(addr>>2) >= len(mem) {
				return x.memFault(si-1, s.off, addr, true)
			}
			r[s.rd] = mem[addr>>2]
		case uint8(ST):
			addr := uint32(int32(r[s.rs1]) + s.imm)
			if addr&3 != 0 || int(addr>>2) >= len(mem) {
				return x.memFault(si-1, s.off, addr, false)
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
				return x.memFault(si-1, s.off, addr, false)
			}
			mem[addr>>2] = r[s.rs2]
		case uint8(LDC), uint8(STC):
			v := r[s.rs1]
			if uint8((v>>hw.TagShift)&hw.TagMask) != s.tag {
				return x.trap(si-1, abCheck, s, v, uint32(s.tag))
			}
			addr := uint32(int32(v)+s.imm) & hw.MemAddrMask
			if addr&3 != 0 || int(addr>>2) >= len(mem) {
				return x.memFault(si-1, s.off, addr, s.kind == uint8(LDC))
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
					return x.trap(si-1, abMemtag, s, item, addr)
				}
			}
			if int(addr>>2) >= len(mem) {
				return x.memFault(si-1, s.off, addr, s.kind == uint8(LDM))
			}
			if s.kind == uint8(LDM) {
				r[s.rd] = mem[addr>>2]
			} else {
				mem[addr>>2] = r[s.rs2]
			}

		case uint8(ADDTC), uint8(SUBTC):
			if hw.IsIntItem == nil {
				return x.opFault(si-1, s, "%s without integer-test hardware")
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
				return x.trap(si-1, abTrap, s, a, bv)
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
			if addr&3 != 0 || int(addr>>2) >= len(mem) {
				return x.memFault(si-1, s.off+1, addr, true)
			}
			r[s.rd2] = mem[addr>>2]
		case kLdLd:
			a1 := uint32(int32(r[s.rs1]) + s.imm)
			if a1&3 != 0 || int(a1>>2) >= len(mem) {
				return x.memFault(si-1, s.off, a1, true)
			}
			r[s.rd] = mem[a1>>2]
			a2 := uint32(int32(r[s.rs3]) + s.imm2)
			if a2&3 != 0 || int(a2>>2) >= len(mem) {
				return x.memFault(si-1, s.off+1, a2, true)
			}
			r[s.rd2] = mem[a2>>2]
		case kStSt:
			a1 := uint32(int32(r[s.rs1]) + s.imm)
			if a1&3 != 0 || int(a1>>2) >= len(mem) {
				return x.memFault(si-1, s.off, a1, false)
			}
			mem[a1>>2] = r[s.rs2]
			a2 := uint32(int32(r[s.rs3]) + s.imm2)
			if a2&3 != 0 || int(a2>>2) >= len(mem) {
				return x.memFault(si-1, s.off+1, a2, false)
			}
			mem[a2>>2] = r[s.tag]
		case kMovLd:
			r[s.rd] = r[s.rs1]
			a2 := uint32(int32(r[s.rs3]) + s.imm2)
			if a2&3 != 0 || int(a2>>2) >= len(mem) {
				return x.memFault(si-1, s.off+1, a2, true)
			}
			r[s.rd2] = mem[a2>>2]
		case kLdMov:
			a1 := uint32(int32(r[s.rs1]) + s.imm)
			if a1&3 != 0 || int(a1>>2) >= len(mem) {
				return x.memFault(si-1, s.off, a1, true)
			}
			r[s.rd] = mem[a1>>2]
			r[s.rd2] = r[s.rs3]
		case kLdSt:
			a1 := uint32(int32(r[s.rs1]) + s.imm)
			if a1&3 != 0 || int(a1>>2) >= len(mem) {
				return x.memFault(si-1, s.off, a1, true)
			}
			r[s.rd] = mem[a1>>2]
			a2 := uint32(int32(r[s.rs3]) + s.imm2)
			if a2&3 != 0 || int(a2>>2) >= len(mem) {
				return x.memFault(si-1, s.off+1, a2, false)
			}
			mem[a2>>2] = r[s.tag]
		case kStLd:
			a1 := uint32(int32(r[s.rs1]) + s.imm)
			if a1&3 != 0 || int(a1>>2) >= len(mem) {
				return x.memFault(si-1, s.off, a1, false)
			}
			mem[a1>>2] = r[s.rs2]
			a2 := uint32(int32(r[s.rs3]) + s.imm2)
			if a2&3 != 0 || int(a2>>2) >= len(mem) {
				return x.memFault(si-1, s.off+1, a2, true)
			}
			r[s.rd2] = mem[a2>>2]
		case kStMov:
			a1 := uint32(int32(r[s.rs1]) + s.imm)
			if a1&3 != 0 || int(a1>>2) >= len(mem) {
				return x.memFault(si-1, s.off, a1, false)
			}
			mem[a1>>2] = r[s.rs2]
			r[s.rd2] = r[s.rs3]
		case kMovSt:
			r[s.rd] = r[s.rs1]
			a2 := uint32(int32(r[s.rs3]) + s.imm2)
			if a2&3 != 0 || int(a2>>2) >= len(mem) {
				return x.memFault(si-1, s.off+1, a2, false)
			}
			mem[a2>>2] = r[s.tag]
		case kAddiSt:
			r[s.rd] = uint32(int32(r[s.rs1]) + s.imm)
			a2 := uint32(int32(r[s.rs3]) + s.imm2)
			if a2&3 != 0 || int(a2>>2) >= len(mem) {
				return x.memFault(si-1, s.off+1, a2, false)
			}
			mem[a2>>2] = r[s.tag]
		case kLdSrli:
			a1 := uint32(int32(r[s.rs1]) + s.imm)
			if a1&3 != 0 || int(a1>>2) >= len(mem) {
				return x.memFault(si-1, s.off, a1, true)
			}
			r[s.rd] = mem[a1>>2]
			r[s.rd2] = r[s.rs3] >> (uint32(s.imm2) & 31)
		case kMovSrli:
			r[s.rd] = r[s.rs1]
			r[s.rd2] = r[s.rs3] >> (uint32(s.imm2) & 31)
		case kLdAddi:
			a1 := uint32(int32(r[s.rs1]) + s.imm)
			if a1&3 != 0 || int(a1>>2) >= len(mem) {
				return x.memFault(si-1, s.off, a1, true)
			}
			r[s.rd] = mem[a1>>2]
			r[s.rd2] = uint32(int32(r[s.rs3]) + s.imm2)
		case kStLi:
			a1 := uint32(int32(r[s.rs1]) + s.imm)
			if a1&3 != 0 || int(a1>>2) >= len(mem) {
				return x.memFault(si-1, s.off, a1, false)
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
				goto runByElement
			}
			v := uint32(s.imm2)
			r[uint8(v)] = mem[w]
			r[uint8(v>>8)] = mem[w+1]
			r[uint8(v>>16)] = mem[w+2]
		case kLd4:
			a := uint32(int32(r[s.rs1]) + s.imm)
			w := int(a >> 2)
			if a&3 != 0 || w+3 >= len(mem) {
				goto runByElement
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
				goto runByElement
			}
			v := uint32(s.imm2)
			mem[w] = r[uint8(v)]
			mem[w+1] = r[uint8(v>>8)]
			mem[w+2] = r[uint8(v>>16)]
		case kSt4:
			a := uint32(int32(r[s.rs1]) + s.imm)
			w := int(a >> 2)
			if a&3 != 0 || w+3 >= len(mem) {
				goto runByElement
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
			if addr&3 != 0 || int(addr>>2) >= len(mem) {
				return x.memFault(si-1, s.off, addr, s.kind == kLdcNC)
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
				return x.memFault(si-1, s.off, addr, s.kind == kLdmNC)
			}
			if s.kind == kLdmNC {
				r[s.rd] = mem[addr>>2]
			} else {
				mem[addr>>2] = r[s.rs2]
			}

		case kEdgeJr:
			if r[s.rs1] != uint32(s.imm) {
				return x.side(si-1, s.rd2, false)
			}

		case kEdgeJrA:
			if r[s.rs1] != uint32(s.imm) {
				return x.side(si-1, s.rd2, false)
			}
			r[s.rd] = uint32(int32(r[s.rs2]) + s.imm2)

		case kEdgeJrL:
			if r[s.rs1] != uint32(s.imm) {
				return x.side(si-1, s.rd2, false)
			}
			r[RRA] = uint32(s.imm2)

		// Per-opcode edge kinds: the branch evaluated directly, no inner
		// opcode switch. A mismatch against the formed direction (rs3)
		// exits the stream.
		case kEdgeOp0 + uint8(BEQ-BEQ):
			if taken := r[s.rs1] == r[s.rs2]; taken != (s.rs3 != 0) {
				return x.side(si-1, s.rd2, taken)
			}
		case kEdgeOp0 + uint8(BNE-BEQ):
			if taken := r[s.rs1] != r[s.rs2]; taken != (s.rs3 != 0) {
				return x.side(si-1, s.rd2, taken)
			}
		case kEdgeOp0 + uint8(BLT-BEQ):
			if taken := int32(r[s.rs1]) < int32(r[s.rs2]); taken != (s.rs3 != 0) {
				return x.side(si-1, s.rd2, taken)
			}
		case kEdgeOp0 + uint8(BGE-BEQ):
			if taken := int32(r[s.rs1]) >= int32(r[s.rs2]); taken != (s.rs3 != 0) {
				return x.side(si-1, s.rd2, taken)
			}
		case kEdgeOp0 + uint8(BLE-BEQ):
			if taken := int32(r[s.rs1]) <= int32(r[s.rs2]); taken != (s.rs3 != 0) {
				return x.side(si-1, s.rd2, taken)
			}
		case kEdgeOp0 + uint8(BGT-BEQ):
			if taken := int32(r[s.rs1]) > int32(r[s.rs2]); taken != (s.rs3 != 0) {
				return x.side(si-1, s.rd2, taken)
			}
		case kEdgeOp0 + uint8(BEQI-BEQ):
			if taken := int32(r[s.rs1]) == s.imm; taken != (s.rs3 != 0) {
				return x.side(si-1, s.rd2, taken)
			}
		case kEdgeOp0 + uint8(BNEI-BEQ):
			if taken := int32(r[s.rs1]) != s.imm; taken != (s.rs3 != 0) {
				return x.side(si-1, s.rd2, taken)
			}
		case kEdgeOp0 + uint8(BLTI-BEQ):
			if taken := int32(r[s.rs1]) < s.imm; taken != (s.rs3 != 0) {
				return x.side(si-1, s.rd2, taken)
			}
		case kEdgeOp0 + uint8(BGEI-BEQ):
			if taken := int32(r[s.rs1]) >= s.imm; taken != (s.rs3 != 0) {
				return x.side(si-1, s.rd2, taken)
			}
		case kEdgeOp0 + uint8(BTEQ-BEQ):
			if taken := uint8((r[s.rs1]>>hw.TagShift)&hw.TagMask) == s.tag; taken != (s.rs3 != 0) {
				return x.side(si-1, s.rd2, taken)
			}
		case kEdgeOp0 + uint8(BTNE-BEQ):
			if taken := uint8((r[s.rs1]>>hw.TagShift)&hw.TagMask) != s.tag; taken != (s.rs3 != 0) {
				return x.side(si-1, s.rd2, taken)
			}

		default:
			return x.opFault(si-1, s, "bad opcode %v")
		}
		continue

	runByElement:
		// A save/restore run missed its fast-path check: re-run its
		// elements exactly as the unfused stream executes them — a fresh
		// address per element — so the right element faults with the right
		// message after its predecessors took effect, or the whole run
		// completes when the fast check was merely conservative (wrapped
		// addresses).
		{
			elems := 3
			if s.kind == kLd4 || s.kind == kSt4 {
				elems = 4
			}
			isLoad := s.kind == kLd3 || s.kind == kLd4
			v := uint32(s.imm2)
			for k := 0; k < elems; k++ {
				addr := uint32(int32(r[s.rs1]) + s.imm + int32(4*k))
				if addr&3 != 0 || int(addr>>2) >= len(mem) {
					return x.memFault(si-1, s.off+int32(k), addr, isLoad)
				}
				if isLoad {
					r[uint8(v>>(8*k))] = mem[addr>>2]
				} else {
					mem[addr>>2] = r[uint8(v>>(8*k))]
				}
			}
		}
	}
	return -1
}
