package mipsx

// Shared step executor for the native (closure-threaded) engine.
//
// execSteps runs a slice of dispatch steps — a block body, a terminator's
// delay slots, or a superblock's flattened stream — against the working
// register file and memory. It is the same switch the translated engine
// dispatches through, recast with an explicit exit protocol (nstate)
// instead of gotos so closures and the native runner can share it: a step
// that faults, fails a tag check, or takes an arithmetic trap records what
// happened in the nstate and execSteps returns that step's index; a side
// exit from a superblock edge does the same. A completed run returns -1.
//
// Configuration (tag geometry, address masking, the integer-item test)
// comes in through an nspec pointer captured once at native-compile time,
// never from the Machine, so a program's native code is pinned to the
// hardware config it was compiled for (see nativeFor in nclosure.go).

import "math"

// nspec is the hardware configuration a program's native code was
// specialized against: every value the emitted closures and superblock
// streams would otherwise read from Machine.HW per executed instruction.
type nspec struct {
	tagShift         uint32
	tagMask          uint32
	memAddrMask      uint32
	isIntItem        func(uint32) bool
	trapHandler      int
	checkFailHandler int
	trapCycles       uint64

	// Memory-tagging geometry (LDM/STM). memtagLimit zero disables checks.
	memtagBase        uint32
	memtagShift       uint32
	memtagLimit       uint32
	memtagFailHandler int
}

// nstate exit codes.
const (
	nexNone   uint8 = iota // still running / completed
	nexFault               // simulator fault: fpc, failf, failargs set
	nexCheck               // LDC/STC tag mismatch: fpc, trapA (item), trapTag set
	nexTrap                // ADDTC/SUBTC trap: fpc, trapOp, trapRd, trapA, trapB set
	nexSide                // superblock edge went cold: sbj, taken set
	nexMemtag              // LDM/STM granule mismatch: fpc, trapA (item), trapB (addr) set
)

// nstate carries the exit condition out of a closure chain or a superblock
// stream back to the native runner. The zero value means "completed".
type nstate struct {
	exit  uint8
	taken bool  // nexSide: the branch direction actually taken
	sbj   int32 // nexSide: index of the superblock element whose edge went cold
	fpc   int32 // source pc of the offending instruction (nexFault/nexCheck/nexTrap)

	failf    string
	failargs []any

	// Trap mailbox for nexCheck/nexTrap.
	trapOp  uint8  // ADDTC or SUBTC
	trapTag uint8  // LDC/STC: the tag the access wanted
	trapRd  uint8  // ADDTC/SUBTC: pre-remap destination register
	trapA   uint32 // LDC/STC: the item; ADDTC/SUBTC: operand a; LDM/STM: the item
	trapB   uint32 // ADDTC/SUBTC: operand b; LDM/STM: the checked address
}

// faultAt records a simulator fault. The args slice is the only allocation
// on the native engine's fault path, and only happens when a run actually
// faults.
func (st *nstate) faultAt(pc int32, f string, args ...any) {
	st.exit = nexFault
	st.fpc = pc
	st.failf = f
	st.failargs = args
}

// nfn is one node of a compiled closure chain: it executes against the
// working register file and memory, and reports aborts through st.
type nfn func(r *[256]uint32, mem []uint32, st *nstate)

// kEdge is the superblock edge pseudo-step: evaluate a conditional branch
// and bail out of the stream (nexSide) when it resolves against the
// direction the superblock was formed for. Field conventions: rd holds the
// branch Op, rs1/rs2/tag/imm its operands, rd2 the superblock element
// index, rs3 is nonzero when the hot direction is taken.
const kEdge uint8 = 96

// kEdgeJr is the superblock edge pseudo-step for an indirect jump: bail
// out of the stream (nexSide) when the jump register does not hold the
// code address the superblock was formed for. Field conventions: rs1
// holds the jump's register, imm the matched code address (target pc<<2,
// aligned by construction, so a misaligned register value exits the
// stream and faults on the ordinary path), rd2 the superblock element
// index.
const kEdgeJr uint8 = 97

// kEdgeJrL is kEdgeJr fused with a jalr's return-address write (imm2),
// performed only once the guard has passed — a side exit leaves the link
// register untouched for the ordinary terminator to write.
const kEdgeJrL uint8 = 98

// kEdgeJrA is kEdgeJr fused with its sole surviving delay-slot
// instruction when that instruction is an ADDI (rd ← rs2 + imm2, the
// shape a return's stack-pointer adjustment takes). The ADDI executes
// only once the guard has passed, exactly as the separate slot step would
// have — a side exit re-runs the whole block on the ordinary path.
const kEdgeJrA uint8 = 95

// kEdgeOp0 starts the per-opcode edge kinds: kEdgeOp0 + (op - BEQ)
// evaluates that branch directly, skipping kEdge's inner opcode switch on
// the hottest dispatch in a superblock stream. Same field conventions as
// kEdge.
const kEdgeOp0 uint8 = 99

// kEdgeSrliBnei fuses the software tag-check idiom's tag extract into its
// compare edge: rd ← rs1 >> imm (a body write of the edge's own element,
// performed unconditionally, exactly as the separate srli step would),
// then the bnei edge tests the extracted value against imm2. rd2/rs3 as
// in kEdge.
const kEdgeSrliBnei uint8 = 111

// kEdgeBneiAnd fuses a bnei edge with the *next* element's leading and
// (the untag that follows a passed software tag check): the guard runs
// first — rs1/imm/rd2/rs3 as in kEdge — and only when it passes is
// rd ← tag & rs2 performed, so a side exit leaves the next element's
// state untouched for the per-block path.
const kEdgeBneiAnd uint8 = 112

// edgeKind picks the edge pseudo-step kind for a conditional branch.
func edgeKind(op Op) uint8 {
	if op >= BEQ && op <= BTNE {
		return kEdgeOp0 + uint8(op-BEQ)
	}
	return kEdge
}

// execSteps executes steps until completion (-1) or an abort (the index of
// the stopping step, with st describing why).
func execSteps(steps []tstep, r *[256]uint32, mem []uint32, sp *nspec, st *nstate) int {
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
				st.faultAt(s.off, "division by zero")
				return si - 1
			}
			r[s.rd] = uint32(int32(r[s.rs1]) / int32(r[s.rs2]))
		case uint8(REM):
			if r[s.rs2] == 0 {
				st.faultAt(s.off, "division by zero")
				return si - 1
			}
			r[s.rd] = uint32(int32(r[s.rs1]) % int32(r[s.rs2]))

		case uint8(LD):
			addr := uint32(int32(r[s.rs1]) + s.imm)
			if addr&3 != 0 {
				st.faultAt(s.off, "misaligned load at %#x", addr)
				return si - 1
			}
			if int(addr>>2) >= len(mem) {
				st.faultAt(s.off, "load out of range at %#x", addr)
				return si - 1
			}
			r[s.rd] = mem[addr>>2]
		case uint8(ST):
			addr := uint32(int32(r[s.rs1]) + s.imm)
			if addr&3 != 0 {
				st.faultAt(s.off, "misaligned store at %#x", addr)
				return si - 1
			}
			if int(addr>>2) >= len(mem) {
				st.faultAt(s.off, "store out of range at %#x", addr)
				return si - 1
			}
			mem[addr>>2] = r[s.rs2]
		case uint8(LDT):
			addr := uint32(int32(r[s.rs1])+s.imm) & sp.memAddrMask &^ 3
			var v uint32
			if int(addr>>2) < len(mem) {
				v = mem[addr>>2]
			}
			r[s.rd] = v
		case uint8(STT):
			addr := uint32(int32(r[s.rs1])+s.imm) & sp.memAddrMask &^ 3
			if int(addr>>2) >= len(mem) {
				st.faultAt(s.off, "store out of range at %#x", addr)
				return si - 1
			}
			mem[addr>>2] = r[s.rs2]
		case uint8(LDC), uint8(STC):
			v := r[s.rs1]
			if uint8((v>>sp.tagShift)&sp.tagMask) != s.tag {
				st.exit = nexCheck
				st.fpc = s.off
				st.trapA = v
				st.trapTag = s.tag
				return si - 1
			}
			addr := uint32(int32(v)+s.imm) & sp.memAddrMask
			if addr&3 != 0 {
				if s.kind == uint8(LDC) {
					st.faultAt(s.off, "misaligned load at %#x", addr)
				} else {
					st.faultAt(s.off, "misaligned store at %#x", addr)
				}
				return si - 1
			}
			if int(addr>>2) >= len(mem) {
				if s.kind == uint8(LDC) {
					st.faultAt(s.off, "load out of range at %#x", addr)
				} else {
					st.faultAt(s.off, "store out of range at %#x", addr)
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
			addr := uint32(int32(item)+s.imm) & sp.memAddrMask &^ 3
			if addr < sp.memtagLimit {
				ca := mem[(sp.memtagBase+(addr>>sp.memtagShift)<<2)>>2]
				viol := ca == 0
				if !viol {
					cb := s.tag
					if cb == RZero {
						cb = s.rs1
					}
					ba := r[cb] & sp.memAddrMask &^ 3
					if ba>>sp.memtagShift != addr>>sp.memtagShift && ba < sp.memtagLimit &&
						mem[(sp.memtagBase+(ba>>sp.memtagShift)<<2)>>2] != ca {
						viol = true
					}
				}
				if viol {
					st.exit = nexMemtag
					st.fpc = s.off
					st.trapA = item
					st.trapB = addr
					return si - 1
				}
			}
			if int(addr>>2) >= len(mem) {
				if s.kind == uint8(LDM) {
					st.faultAt(s.off, "load out of range at %#x", addr)
				} else {
					st.faultAt(s.off, "store out of range at %#x", addr)
				}
				return si - 1
			}
			if s.kind == uint8(LDM) {
				r[s.rd] = mem[addr>>2]
			} else {
				mem[addr>>2] = r[s.rs2]
			}

		case uint8(ADDTC), uint8(SUBTC):
			if sp.isIntItem == nil {
				st.faultAt(s.off, "%s without integer-test hardware", Op(s.kind))
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
			if !sp.isIntItem(a) || !sp.isIntItem(bv) ||
				s64 != int64(int32(res)) || !sp.isIntItem(res) {
				st.exit = nexTrap
				st.fpc = s.off
				st.trapOp = s.kind
				st.trapRd = s.tag
				st.trapA = a
				st.trapB = bv
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
				st.faultAt(s.off+1, "misaligned load at %#x", addr)
				return si - 1
			}
			if int(addr>>2) >= len(mem) {
				st.faultAt(s.off+1, "load out of range at %#x", addr)
				return si - 1
			}
			r[s.rd2] = mem[addr>>2]
		case kLdLd:
			a1 := uint32(int32(r[s.rs1]) + s.imm)
			if a1&3 != 0 || int(a1>>2) >= len(mem) {
				st.memFault(s.off, a1, true)
				return si - 1
			}
			r[s.rd] = mem[a1>>2]
			a2 := uint32(int32(r[s.rs3]) + s.imm2)
			if a2&3 != 0 || int(a2>>2) >= len(mem) {
				st.memFault(s.off+1, a2, true)
				return si - 1
			}
			r[s.rd2] = mem[a2>>2]
		case kStSt:
			a1 := uint32(int32(r[s.rs1]) + s.imm)
			if a1&3 != 0 || int(a1>>2) >= len(mem) {
				st.memFault(s.off, a1, false)
				return si - 1
			}
			mem[a1>>2] = r[s.rs2]
			a2 := uint32(int32(r[s.rs3]) + s.imm2)
			if a2&3 != 0 || int(a2>>2) >= len(mem) {
				st.memFault(s.off+1, a2, false)
				return si - 1
			}
			mem[a2>>2] = r[s.tag]
		case kMovLd:
			r[s.rd] = r[s.rs1]
			a2 := uint32(int32(r[s.rs3]) + s.imm2)
			if a2&3 != 0 || int(a2>>2) >= len(mem) {
				st.memFault(s.off+1, a2, true)
				return si - 1
			}
			r[s.rd2] = mem[a2>>2]
		case kLdMov:
			a1 := uint32(int32(r[s.rs1]) + s.imm)
			if a1&3 != 0 || int(a1>>2) >= len(mem) {
				st.memFault(s.off, a1, true)
				return si - 1
			}
			r[s.rd] = mem[a1>>2]
			r[s.rd2] = r[s.rs3]
		case kLdSt:
			a1 := uint32(int32(r[s.rs1]) + s.imm)
			if a1&3 != 0 || int(a1>>2) >= len(mem) {
				st.memFault(s.off, a1, true)
				return si - 1
			}
			r[s.rd] = mem[a1>>2]
			a2 := uint32(int32(r[s.rs3]) + s.imm2)
			if a2&3 != 0 || int(a2>>2) >= len(mem) {
				st.memFault(s.off+1, a2, false)
				return si - 1
			}
			mem[a2>>2] = r[s.tag]
		case kStLd:
			a1 := uint32(int32(r[s.rs1]) + s.imm)
			if a1&3 != 0 || int(a1>>2) >= len(mem) {
				st.memFault(s.off, a1, false)
				return si - 1
			}
			mem[a1>>2] = r[s.rs2]
			a2 := uint32(int32(r[s.rs3]) + s.imm2)
			if a2&3 != 0 || int(a2>>2) >= len(mem) {
				st.memFault(s.off+1, a2, true)
				return si - 1
			}
			r[s.rd2] = mem[a2>>2]
		case kStMov:
			a1 := uint32(int32(r[s.rs1]) + s.imm)
			if a1&3 != 0 || int(a1>>2) >= len(mem) {
				st.memFault(s.off, a1, false)
				return si - 1
			}
			mem[a1>>2] = r[s.rs2]
			r[s.rd2] = r[s.rs3]
		case kMovSt:
			r[s.rd] = r[s.rs1]
			a2 := uint32(int32(r[s.rs3]) + s.imm2)
			if a2&3 != 0 || int(a2>>2) >= len(mem) {
				st.memFault(s.off+1, a2, false)
				return si - 1
			}
			mem[a2>>2] = r[s.tag]
		case kAddiSt:
			r[s.rd] = uint32(int32(r[s.rs1]) + s.imm)
			a2 := uint32(int32(r[s.rs3]) + s.imm2)
			if a2&3 != 0 || int(a2>>2) >= len(mem) {
				st.memFault(s.off+1, a2, false)
				return si - 1
			}
			mem[a2>>2] = r[s.tag]
		case kLdSrli:
			a1 := uint32(int32(r[s.rs1]) + s.imm)
			if a1&3 != 0 || int(a1>>2) >= len(mem) {
				st.memFault(s.off, a1, true)
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
				st.memFault(s.off, a1, true)
				return si - 1
			}
			r[s.rd] = mem[a1>>2]
			r[s.rd2] = uint32(int32(r[s.rs3]) + s.imm2)
		case kStLi:
			a1 := uint32(int32(r[s.rs1]) + s.imm)
			if a1&3 != 0 || int(a1>>2) >= len(mem) {
				st.memFault(s.off, a1, false)
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
				if !memRunSlowExec(s, r, mem, st) {
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
				if !memRunSlowExec(s, r, mem, st) {
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
				if !memRunSlowExec(s, r, mem, st) {
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
				if !memRunSlowExec(s, r, mem, st) {
					return si - 1
				}
				continue dispatch
			}
			v := uint32(s.imm2)
			mem[w] = r[uint8(v)]
			mem[w+1] = r[uint8(v>>8)]
			mem[w+2] = r[uint8(v>>16)]
			mem[w+3] = r[uint8(v>>24)]

		case kAndLd:
			r[s.rd] = r[s.rs1] & r[s.rs2]
			addr := uint32(int32(r[s.rs3]) + s.imm2)
			if addr&3 != 0 || int(addr>>2) >= len(mem) {
				st.memFault(s.off+1, addr, true)
				return si - 1
			}
			r[s.rd2] = mem[addr>>2]

		case kLdcNC, kStcNC:
			// LDC/STC minus the tag check an earlier identical check
			// proved redundant; address masking and fault semantics are
			// bit-identical to the checked kinds.
			addr := uint32(int32(r[s.rs1])+s.imm) & sp.memAddrMask
			if addr&3 != 0 {
				if s.kind == kLdcNC {
					st.faultAt(s.off, "misaligned load at %#x", addr)
				} else {
					st.faultAt(s.off, "misaligned store at %#x", addr)
				}
				return si - 1
			}
			if int(addr>>2) >= len(mem) {
				if s.kind == kLdcNC {
					st.faultAt(s.off, "load out of range at %#x", addr)
				} else {
					st.faultAt(s.off, "store out of range at %#x", addr)
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
			addr := uint32(int32(r[s.rs1])+s.imm) & sp.memAddrMask &^ 3
			if int(addr>>2) >= len(mem) {
				if s.kind == kLdmNC {
					st.faultAt(s.off, "load out of range at %#x", addr)
				} else {
					st.faultAt(s.off, "store out of range at %#x", addr)
				}
				return si - 1
			}
			if s.kind == kLdmNC {
				r[s.rd] = mem[addr>>2]
			} else {
				mem[addr>>2] = r[s.rs2]
			}

		case kEdge:
			var taken bool
			switch Op(s.rd) {
			case BEQ:
				taken = r[s.rs1] == r[s.rs2]
			case BNE:
				taken = r[s.rs1] != r[s.rs2]
			case BLT:
				taken = int32(r[s.rs1]) < int32(r[s.rs2])
			case BGE:
				taken = int32(r[s.rs1]) >= int32(r[s.rs2])
			case BLE:
				taken = int32(r[s.rs1]) <= int32(r[s.rs2])
			case BGT:
				taken = int32(r[s.rs1]) > int32(r[s.rs2])
			case BEQI:
				taken = int32(r[s.rs1]) == s.imm
			case BNEI:
				taken = int32(r[s.rs1]) != s.imm
			case BLTI:
				taken = int32(r[s.rs1]) < s.imm
			case BGEI:
				taken = int32(r[s.rs1]) >= s.imm
			case BTEQ:
				taken = uint8((r[s.rs1]>>sp.tagShift)&sp.tagMask) == s.tag
			case BTNE:
				taken = uint8((r[s.rs1]>>sp.tagShift)&sp.tagMask) != s.tag
			}
			if taken != (s.rs3 != 0) {
				st.exit = nexSide
				st.taken = taken
				st.sbj = int32(s.rd2)
				return si - 1
			}

		case kEdgeJr:
			if r[s.rs1] != uint32(s.imm) {
				st.exit = nexSide
				st.sbj = int32(s.rd2)
				return si - 1
			}

		case kEdgeJrA:
			if r[s.rs1] != uint32(s.imm) {
				st.exit = nexSide
				st.sbj = int32(s.rd2)
				return si - 1
			}
			r[s.rd] = uint32(int32(r[s.rs2]) + s.imm2)

		case kEdgeJrL:
			if r[s.rs1] != uint32(s.imm) {
				st.exit = nexSide
				st.sbj = int32(s.rd2)
				return si - 1
			}
			r[RRA] = uint32(s.imm2)

		// Per-opcode edge kinds: the branch evaluated directly, no inner
		// opcode switch. A mismatch against the formed direction (rs3)
		// exits the stream.
		case kEdgeOp0 + uint8(BEQ-BEQ):
			if taken := r[s.rs1] == r[s.rs2]; taken != (s.rs3 != 0) {
				st.exit, st.taken, st.sbj = nexSide, taken, int32(s.rd2)
				return si - 1
			}
		case kEdgeOp0 + uint8(BNE-BEQ):
			if taken := r[s.rs1] != r[s.rs2]; taken != (s.rs3 != 0) {
				st.exit, st.taken, st.sbj = nexSide, taken, int32(s.rd2)
				return si - 1
			}
		case kEdgeOp0 + uint8(BLT-BEQ):
			if taken := int32(r[s.rs1]) < int32(r[s.rs2]); taken != (s.rs3 != 0) {
				st.exit, st.taken, st.sbj = nexSide, taken, int32(s.rd2)
				return si - 1
			}
		case kEdgeOp0 + uint8(BGE-BEQ):
			if taken := int32(r[s.rs1]) >= int32(r[s.rs2]); taken != (s.rs3 != 0) {
				st.exit, st.taken, st.sbj = nexSide, taken, int32(s.rd2)
				return si - 1
			}
		case kEdgeOp0 + uint8(BLE-BEQ):
			if taken := int32(r[s.rs1]) <= int32(r[s.rs2]); taken != (s.rs3 != 0) {
				st.exit, st.taken, st.sbj = nexSide, taken, int32(s.rd2)
				return si - 1
			}
		case kEdgeOp0 + uint8(BGT-BEQ):
			if taken := int32(r[s.rs1]) > int32(r[s.rs2]); taken != (s.rs3 != 0) {
				st.exit, st.taken, st.sbj = nexSide, taken, int32(s.rd2)
				return si - 1
			}
		case kEdgeOp0 + uint8(BEQI-BEQ):
			if taken := int32(r[s.rs1]) == s.imm; taken != (s.rs3 != 0) {
				st.exit, st.taken, st.sbj = nexSide, taken, int32(s.rd2)
				return si - 1
			}
		case kEdgeOp0 + uint8(BNEI-BEQ):
			if taken := int32(r[s.rs1]) != s.imm; taken != (s.rs3 != 0) {
				st.exit, st.taken, st.sbj = nexSide, taken, int32(s.rd2)
				return si - 1
			}
		case kEdgeOp0 + uint8(BLTI-BEQ):
			if taken := int32(r[s.rs1]) < s.imm; taken != (s.rs3 != 0) {
				st.exit, st.taken, st.sbj = nexSide, taken, int32(s.rd2)
				return si - 1
			}
		case kEdgeOp0 + uint8(BGEI-BEQ):
			if taken := int32(r[s.rs1]) >= s.imm; taken != (s.rs3 != 0) {
				st.exit, st.taken, st.sbj = nexSide, taken, int32(s.rd2)
				return si - 1
			}
		case kEdgeOp0 + uint8(BTEQ-BEQ):
			if taken := uint8((r[s.rs1]>>sp.tagShift)&sp.tagMask) == s.tag; taken != (s.rs3 != 0) {
				st.exit, st.taken, st.sbj = nexSide, taken, int32(s.rd2)
				return si - 1
			}
		case kEdgeOp0 + uint8(BTNE-BEQ):
			if taken := uint8((r[s.rs1]>>sp.tagShift)&sp.tagMask) != s.tag; taken != (s.rs3 != 0) {
				st.exit, st.taken, st.sbj = nexSide, taken, int32(s.rd2)
				return si - 1
			}

		case kEdgeSrliBnei:
			v := r[s.rs1] >> (uint32(s.imm) & 31)
			r[s.rd] = v
			if taken := int32(v) != s.imm2; taken != (s.rs3 != 0) {
				st.exit, st.taken, st.sbj = nexSide, taken, int32(s.rd2)
				return si - 1
			}

		case kEdgeBneiAnd:
			if taken := int32(r[s.rs1]) != s.imm; taken != (s.rs3 != 0) {
				st.exit, st.taken, st.sbj = nexSide, taken, int32(s.rd2)
				return si - 1
			}
			r[s.rd] = r[s.tag] & r[s.rs2]

		default:
			st.faultAt(s.off, "bad opcode %v", Op(s.kind))
			return si - 1
		}
	}
	return -1
}

// memFault records the misaligned/out-of-range fault for one memory access
// of a fused pair, matching the reference engine's messages exactly.
func (st *nstate) memFault(pc int32, addr uint32, isLoad bool) {
	switch {
	case isLoad && addr&3 != 0:
		st.faultAt(pc, "misaligned load at %#x", addr)
	case isLoad:
		st.faultAt(pc, "load out of range at %#x", addr)
	case addr&3 != 0:
		st.faultAt(pc, "misaligned store at %#x", addr)
	default:
		st.faultAt(pc, "store out of range at %#x", addr)
	}
}

// memRunSlowExec re-runs a save/restore run element by element after its
// combined fast-path check missed: either an element genuinely faults (the
// right one, after its predecessors took effect) or the whole run completes
// because the fast check was merely conservative about wrapped addresses.
// Returns false when the run faulted (st is filled in).
func memRunSlowExec(s *tstep, r *[256]uint32, mem []uint32, st *nstate) bool {
	elems := 3
	if s.kind == kLd4 || s.kind == kSt4 {
		elems = 4
	}
	isLoad := s.kind == kLd3 || s.kind == kLd4
	v := uint32(s.imm2)
	for k := 0; k < elems; k++ {
		addr := uint32(int32(r[s.rs1]) + s.imm + int32(4*k))
		if addr&3 != 0 || int(addr>>2) >= len(mem) {
			st.memFault(s.off+int32(k), addr, isLoad)
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
