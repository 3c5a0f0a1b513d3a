package mipsx

import (
	"testing"
)

// refInstr is one instruction of the reference (pre-scheduling) program.
type refInstr struct {
	in    Instr
	label int // >= 0: this is a label marker
}

// refEval executes the straight-line semantics the scheduler must preserve:
// branches act immediately, no delay slots, no interlocks.
func refEval(prog []refInstr, regs *[32]uint32, mem []uint32) {
	labelAt := map[int]int{}
	for i, r := range prog {
		if r.label >= 0 {
			labelAt[r.label] = i
		}
	}
	steps := 0
	for pc := 0; pc < len(prog); pc++ {
		if steps++; steps > 10000 {
			panic("reference evaluator ran away")
		}
		r := prog[pc]
		if r.label >= 0 {
			continue
		}
		in := r.in
		sx := func(i uint8) int32 { return int32(regs[i]) }
		set := func(v uint32) {
			if in.Rd != 0 {
				regs[in.Rd] = v
			}
		}
		switch in.Op {
		case LI:
			set(uint32(in.Imm))
		case MOV:
			set(regs[in.Rs1])
		case ADD:
			set(uint32(sx(in.Rs1) + sx(in.Rs2)))
		case ADDI:
			set(uint32(sx(in.Rs1) + in.Imm))
		case SUB:
			set(uint32(sx(in.Rs1) - sx(in.Rs2)))
		case AND:
			set(regs[in.Rs1] & regs[in.Rs2])
		case OR:
			set(regs[in.Rs1] | regs[in.Rs2])
		case XOR:
			set(regs[in.Rs1] ^ regs[in.Rs2])
		case SLLI:
			set(regs[in.Rs1] << (uint32(in.Imm) & 31))
		case SRLI:
			set(regs[in.Rs1] >> (uint32(in.Imm) & 31))
		case LD:
			set(mem[(uint32(sx(in.Rs1)+in.Imm))>>2])
		case ST:
			mem[(uint32(sx(in.Rs1)+in.Imm))>>2] = regs[in.Rs2]
		case BEQ, BNE, BLT, BGE:
			var taken bool
			switch in.Op {
			case BEQ:
				taken = regs[in.Rs1] == regs[in.Rs2]
			case BNE:
				taken = regs[in.Rs1] != regs[in.Rs2]
			case BLT:
				taken = sx(in.Rs1) < sx(in.Rs2)
			case BGE:
				taken = sx(in.Rs1) >= sx(in.Rs2)
			}
			if taken {
				pc = labelAt[int(in.Target)] // loop increment moves past the label
			}
		}
	}
}

// TestSchedulerPreservesSemantics generates random programs mixing ALU
// operations, loads, stores and forward branches; the scheduled, delayed-
// branch execution on the simulator must leave exactly the register and
// memory state of the un-scheduled reference semantics.
func TestSchedulerPreservesSemantics(t *testing.T) {
	const memWords = 4096
	base := uint32(0x1000)
	for seed := int64(1); seed <= 300; seed++ {
		s := seed
		rnd := func(m int64) int64 {
			s = s*6364136223846793005 + 1442695040888963407
			v := (s >> 33) % m
			if v < 0 {
				v += m
			}
			return v
		}

		a := NewAsm()
		main := a.NewLabel("main")
		a.Bind(main)
		var ref []refInstr
		emit := func(in Instr) {
			ref = append(ref, refInstr{in: in, label: -1})
			a.Raw(in)
		}
		// Working registers r10..r15; r20 holds the scratch base.
		reg := func() uint8 { return uint8(10 + rnd(6)) }
		emit(Instr{Op: LI, Rd: 20, Imm: int32(base)})
		ref[len(ref)-1] = refInstr{in: Instr{Op: LI, Rd: 20, Imm: int32(base)}, label: -1}
		for i, r := range []uint8{10, 11, 12, 13, 14, 15} {
			emit(Instr{Op: LI, Rd: r, Imm: int32(seed*31 + int64(i)*17)})
		}

		nBlocks := 3 + int(rnd(4))
		labels := make([]Label, nBlocks)
		for i := range labels {
			labels[i] = a.NewLabel("")
		}
		for b := 0; b < nBlocks; b++ {
			nOps := 2 + int(rnd(8))
			for k := 0; k < nOps; k++ {
				switch rnd(10) {
				case 0:
					emit(Instr{Op: LI, Rd: reg(), Imm: int32(rnd(1000) - 500)})
				case 1:
					emit(Instr{Op: MOV, Rd: reg(), Rs1: reg()})
				case 2:
					emit(Instr{Op: ADD, Rd: reg(), Rs1: reg(), Rs2: reg()})
				case 3:
					emit(Instr{Op: SUB, Rd: reg(), Rs1: reg(), Rs2: reg()})
				case 4:
					emit(Instr{Op: AND, Rd: reg(), Rs1: reg(), Rs2: reg()})
				case 5:
					emit(Instr{Op: OR, Rd: reg(), Rs1: reg(), Rs2: reg()})
				case 6:
					emit(Instr{Op: XOR, Rd: reg(), Rs1: reg(), Rs2: reg()})
				case 7:
					emit(Instr{Op: SLLI, Rd: reg(), Rs1: reg(), Imm: int32(rnd(8))})
				case 8:
					emit(Instr{Op: ST, Rs1: 20, Rs2: reg(), Imm: int32(4 * rnd(16))})
				case 9:
					emit(Instr{Op: LD, Rd: reg(), Rs1: 20, Imm: int32(4 * rnd(16))})
				}
			}
			// Forward branch to a later block (or fall through).
			if b+1 < nBlocks && rnd(2) == 0 {
				target := labels[b+1+int(rnd(int64(nBlocks-b-1)))]
				ops := []Op{BEQ, BNE, BLT, BGE}
				in := Instr{Op: ops[rnd(4)], Rs1: reg(), Rs2: reg(), Target: int32(target)}
				ref = append(ref, refInstr{in: in, label: -1})
				a.Raw(in)
			}
			ref = append(ref, refInstr{label: int(labels[b])})
			a.Bind(labels[b])
		}
		a.Halt()

		p, err := a.Finish("main")
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		m := NewMachine(p, memWords, HWConfig{TrapHandler: -1, CheckFailHandler: -1})
		m.MaxCycles = 100000
		if err := m.Run(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}

		var wantRegs [32]uint32
		wantMem := make([]uint32, memWords)
		refEval(ref, &wantRegs, wantMem)

		for r := 10; r <= 15; r++ {
			if m.Regs[r] != wantRegs[r] {
				t.Fatalf("seed %d: r%d = %#x, reference %#x", seed, r, m.Regs[r], wantRegs[r])
			}
		}
		for w := base / 4; w < base/4+16; w++ {
			if m.Mem[w] != wantMem[w] {
				t.Fatalf("seed %d: mem[%#x] = %#x, reference %#x", seed, w*4, m.Mem[w], wantMem[w])
			}
		}
	}
}
