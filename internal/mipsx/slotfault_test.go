package mipsx

import (
	"strings"
	"testing"
)

// Delay-slot faults and delegated transfers, the block loop's rarest
// exits. Each program is laid out by hand (no scheduler), so the faulting
// instruction sits in exactly the slot the case names, and every engine
// must match the reference: error (with its pc and cycle), statistics,
// registers, memory and the pending-branch pipeline the fault leaves.

// slotPlain is the config of every case: no tag hardware, faulting
// handlers.
var slotPlain = HWConfig{TrapHandler: -1, CheckFailHandler: -1, MemtagFailHandler: -1}

// runSlotCase runs p on all three engines and asserts they agree
// (runEngines), then returns a reference run, its error and a native run
// for the case's own checks.
func runSlotCase(t *testing.T, p *Program) (ref *Machine, rerr error, native *Machine) {
	t.Helper()
	runEngines(t, p, 1024, slotPlain)
	ref = NewMachine(p, 1024, slotPlain)
	ref.MaxCycles = 1_000_000
	rerr = ref.RunReference()
	native = NewMachine(p, 1024, slotPlain)
	native.MaxCycles = 1_000_000
	_ = native.RunNative() // runEngines compared its outcome
	return ref, rerr, native
}

// termKindAt returns the kind of the terminator of the block starting at
// pc.
func termKindAt(t *testing.T, p *Program, pc int) uint8 {
	t.Helper()
	p.initTranslation()
	b, _ := p.translateAt(pc)
	if b == nil {
		t.Fatalf("no block at %d", pc)
	}
	return b.term.kind
}

// TestSlotFaultPerBlock faults in a delay slot on the per-block path:
// each transfer kind with inline slots, the fault in slot 1 or slot 2,
// taken and not taken, and a slot-1 load whose interlock against slot 2
// is charged before slot 2 faults.
func TestSlotFaultPerBlock(t *testing.T) {
	misaligned := Instr{Op: LD, Rd: 13, Rs1: 10} // r10 = 0x101
	divZero := Instr{Op: DIV, Rd: 13, Rs1: 11, Rs2: 0}
	addi := Instr{Op: ADDI, Rd: 12, Rs1: 11, Imm: 1}
	nop := Instr{Op: NOP}
	cases := map[string]struct {
		branch       Instr
		slot1, slot2 Instr
		wantPC       int
		wantErr      string
	}{
		"beq-taken/slot2-ld":  {Instr{Op: BEQ, Target: 8}, addi, misaligned, 5, "misaligned load"},
		"beq-taken/slot1-div": {Instr{Op: BEQ, Target: 8}, divZero, addi, 4, "division by zero"},
		"bne-fall/slot1-ld":   {Instr{Op: BNE, Target: 8}, misaligned, nop, 4, "misaligned load"},
		"bnei-fall/slot2-div": {Instr{Op: BNEI, Rs1: 11, Imm: 5, Target: 8}, nop, divZero, 5, "division by zero"},
		"jmp/slot2-rem":       {Instr{Op: JMP, Target: 8}, nop, Instr{Op: REM, Rd: 13, Rs1: 11}, 5, "division by zero"},
		"jr/slot1-st":         {Instr{Op: JR, Rs1: 14}, Instr{Op: ST, Rs1: 10, Rs2: 11}, nop, 4, "misaligned store"},
		"jalr/slot2-ld-range": {Instr{Op: JALR, Rs1: 14}, addi, Instr{Op: LD, Rd: 13, Rs1: 0, Imm: 4096}, 5, "load out of range"},
		// The slot-1 load's interlock against slot 2 is charged on the
		// fault path, before slot 2 faults.
		"jal/slot1-load-stall/slot2-div": {Instr{Op: JAL, Target: 8},
			Instr{Op: LD, Rd: 15, Imm: 0x100}, Instr{Op: DIV, Rd: 13, Rs1: 15}, 5, "division by zero"},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			p := hand(0,
				Instr{Op: LI, Rd: 10, Imm: 0x101},  // 0
				Instr{Op: LI, Rd: 11, Imm: 5},      // 1
				Instr{Op: LI, Rd: 14, Imm: 8 << 2}, // 2: the indirect target, 8
				tc.branch,                          // 3
				tc.slot1,                           // 4
				tc.slot2,                           // 5
				Instr{Op: HALT},                    // 6
				Instr{Op: HALT},                    // 7
				Instr{Op: HALT},                    // 8
			)
			if termKindAt(t, p, 0) == termInterp {
				t.Fatal("the transfer was delegated to the reference stepper, want its slots run inline")
			}
			ref, rerr, _ := runSlotCase(t, p)
			if rerr == nil || !strings.Contains(rerr.Error(), tc.wantErr) || ref.PC != tc.wantPC {
				t.Errorf("reference stopped at pc %d with %v, want %q at pc %d", ref.PC, rerr, tc.wantErr, tc.wantPC)
			}
		})
	}
}

// TestSlotFaultInStream faults in a delay slot of a hot loop's branch
// while the loop runs in a superblock stream on the native engine: the
// branch goes the formed (taken) way, so the stream's edge passes and the
// fault comes from the slot steps the stream carries. The same program
// faulting on its fourth pass, before any stream forms, takes the
// per-block slot-fault path on every engine.
func TestSlotFaultInStream(t *testing.T) {
	for _, tc := range []struct {
		name       string
		log2Pass   int32 // the fault comes on pass 1<<log2Pass - 1
		slot       Instr
		wantErr    string
		wantStream bool
	}{
		{"per-block/ld", 2, Instr{Op: LD, Rd: 15, Rs1: 14}, "misaligned load", false},
		{"stream/ld", 10, Instr{Op: LD, Rd: 15, Rs1: 14}, "misaligned load", true},
		{"stream/div", 10, Instr{Op: DIV, Rd: 15, Rs1: 13, Rs2: 17}, "division by zero", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Pass k (r13 = k on entry): r16 = ((k+1) >> log2Pass) & 1 is 1
			// only from pass 1<<log2Pass - 1 on, where the slot's address
			// r14 = 0x100 + r16 turns misaligned and its divisor
			// r17 = 1 - r16 turns zero. The loop would run 1<<16 passes.
			p := hand(0,
				Instr{Op: LI, Rd: 10, Imm: 0x100},                  // 0
				Instr{Op: LI, Rd: 13, Imm: 0},                      // 1
				Instr{Op: LI, Rd: 18, Imm: 1},                      // 2
				Instr{Op: ADDI, Rd: 16, Rs1: 13, Imm: 1},           // 3: loop
				Instr{Op: SRLI, Rd: 16, Rs1: 16, Imm: tc.log2Pass}, // 4
				Instr{Op: ANDI, Rd: 16, Rs1: 16, Imm: 1},           // 5
				Instr{Op: ADD, Rd: 14, Rs1: 10, Rs2: 16},           // 6
				Instr{Op: SUB, Rd: 17, Rs1: 18, Rs2: 16},           // 7
				Instr{Op: ADDI, Rd: 13, Rs1: 13, Imm: 1},           // 8
				Instr{Op: BLTI, Rs1: 13, Imm: 1 << 16, Target: 3},  // 9
				tc.slot,         // 10: slot 1
				Instr{Op: NOP},  // 11: slot 2
				Instr{Op: HALT}, // 12
			)
			ref, rerr, native := runSlotCase(t, p)
			if rerr == nil || !strings.Contains(rerr.Error(), tc.wantErr) || ref.PC != 10 ||
				ref.Regs[13] != uint32(1)<<tc.log2Pass {
				t.Fatalf("reference stopped at pc %d after %d passes with %v, want %q in the slot",
					ref.PC, ref.Regs[13], rerr, tc.wantErr)
			}
			if ran := native.Native.SBRuns > 0 && native.Native.SBSideExits == 1; ran != tc.wantStream {
				t.Errorf("native ran %d streams with %d exits, want the fault inside a stream: %v",
					native.Native.SBRuns, native.Native.SBSideExits, tc.wantStream)
			}
		})
	}
}

// TestTermInterp covers transfers whose delay slots the block loop
// delegates to the reference stepper (termInterp): a branch or a jump in
// a delay slot, which faults; a checked load in a slot, which runs and
// leaves a load interlock against the target for the loop to charge; an
// ADDTC in a slot, which faults without integer-test hardware; and a
// transfer too close to the end of the program to have two slots.
func TestTermInterp(t *testing.T) {
	cases := map[string]struct {
		instrs  []Instr
		wantErr string // "" for a run that halts
	}{
		"branch-in-slot": {[]Instr{
			{Op: LI, Rd: 10, Imm: 1},
			{Op: BEQ, Target: 5},
			{Op: BNE, Rs1: 10, Target: 6}, // slot 1: a branch
			{Op: NOP},
			{Op: HALT},
			{Op: HALT},
			{Op: HALT},
		}, "branch in delay slot"},
		"jump-in-slot": {[]Instr{
			{Op: LI, Rd: 10, Imm: 1},
			{Op: JMP, Target: 5},
			{Op: NOP},
			{Op: JR, Rs1: 10}, // slot 2: a jump
			{Op: HALT},
			{Op: HALT},
		}, "jump in delay slot"},
		"ldc-slot-interlock": {[]Instr{
			{Op: LI, Rd: 10, Imm: 0x100},
			{Op: LI, Rd: 11, Imm: 42},
			{Op: ST, Rs1: 10, Rs2: 11},
			{Op: JMP, Target: 7},
			{Op: NOP},
			{Op: LDC, Rd: 12, Rs1: 10}, // slot 2: a checked load, tag 0
			{Op: HALT},
			{Op: ADD, Rd: 13, Rs1: 12, Rs2: 12}, // 7: reads the slot's load
			{Op: HALT},
		}, ""},
		"addtc-slot-no-hardware": {[]Instr{
			{Op: LI, Rd: 10, Imm: 4},
			{Op: BEQ, Target: 5},
			{Op: ADDTC, Rd: 12, Rs1: 10, Rs2: 10}, // slot 1: faults without IsIntItem
			{Op: NOP},
			{Op: HALT},
			{Op: HALT},
		}, "without integer-test hardware"},
		"slots-past-the-end": {[]Instr{
			{Op: LI, Rd: 10, Imm: 1},
			{Op: JMP, Target: 0},
			{Op: ADDI, Rd: 11, Rs1: 11, Imm: 1},
		}, "pc out of range"},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			p := hand(0, tc.instrs...)
			if k := termKindAt(t, p, 0); k != termInterp {
				t.Fatalf("terminator kind %d, want termInterp", k)
			}
			_, rerr, _ := runSlotCase(t, p)
			if tc.wantErr == "" && rerr != nil || tc.wantErr != "" && (rerr == nil || !strings.Contains(rerr.Error(), tc.wantErr)) {
				t.Errorf("reference ended with %v, want %q", rerr, tc.wantErr)
			}
		})
	}
}
