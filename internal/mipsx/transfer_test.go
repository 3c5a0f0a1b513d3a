package mipsx

import (
	"context"
	"errors"
	"strings"
	"testing"
)

// The block loop's one transfer path: every terminator kind resolves its
// outcome, direction and pending target and then shares the limit check,
// the delay slots, the static accounting and the successor lookup. These
// tests cross the cycle limit at every point of a program holding every
// terminator shape, and drive the loop's rarest exits on all three
// engines.

// layout lays out a program by hand, with named positions: no scheduler
// runs, so every instruction sits exactly where it is emitted.
type layout struct {
	ins    []Instr
	labels map[string]int
	fix    map[int]string // instruction index -> label its Target names
	addr   map[int]string // instruction index -> label whose code address its Imm holds
}

func newLayout() *layout {
	return &layout{labels: map[string]int{}, fix: map[int]string{}, addr: map[int]string{}}
}

func (l *layout) label(name string) { l.labels[name] = len(l.ins) }

func (l *layout) emit(ins ...Instr) { l.ins = append(l.ins, ins...) }

// to emits a transfer to label name.
func (l *layout) to(in Instr, name string) {
	l.fix[len(l.ins)] = name
	l.emit(in)
}

// li loads label name's code address (pc<<2) into rd.
func (l *layout) li(rd uint8, name string) {
	l.addr[len(l.ins)] = name
	l.emit(Instr{Op: LI, Rd: rd})
}

func (l *layout) program(t *testing.T) *Program {
	t.Helper()
	resolve := func(name string) int32 {
		pc, ok := l.labels[name]
		if !ok {
			t.Fatalf("label %q never placed", name)
		}
		return int32(pc)
	}
	for i, name := range l.fix {
		l.ins[i].Target = resolve(name)
	}
	for i, name := range l.addr {
		l.ins[i].Imm = resolve(name) << 2
	}
	return hand(0, l.ins...)
}

// everyTerminator lays out a loop that runs every terminator shape the
// block loop resolves, each iteration: a conditional branch taken, falling
// through and annulled, with NOP slots and with real ones (a slot-1 load
// that stalls slot 2, a slot-2 load that stalls the successor); JMP, JAL,
// JR and JALR with NOP slots and with real ones (a JR slot-2 load that
// stalls the return point); an arithmetic trap and its SysTrapReturn; an
// output syscall; and a transfer delegated to the reference stepper.
// Forty iterations form superblock streams, so native crosses the limit
// both between streams and at their entry guard.
func everyTerminator(t *testing.T) (*Program, HWConfig) {
	t.Helper()
	nop := Instr{Op: NOP}
	l := newLayout()
	l.emit(
		Instr{Op: LI, Rd: 11, Imm: 0x100},                // data address, tag 0
		Instr{Op: LI, Rd: 15, Imm: int32(1<<27 | 0x100)}, // a non-integer item
		Instr{Op: LI, Rd: 16, Imm: 1},
	)
	l.label("loop")
	l.emit(Instr{Op: ADDI, Rd: 10, Rs1: 10, Imm: 1})
	l.to(Instr{Op: BEQ}, "c1") // taken, NOP slots
	l.emit(nop, nop)
	l.label("never")
	l.emit(Instr{Op: HALT})
	l.label("c1")
	l.to(Instr{Op: BNE}, "never") // falls through, NOP slots
	l.emit(nop, nop)
	l.to(Instr{Op: BEQI, Rs1: 10, Imm: -1, Squash: true}, "never") // annulled, NOP slots
	l.emit(nop, nop)
	l.to(Instr{Op: BEQI, Rs1: 10, Imm: -1, Squash: true}, "never") // annulled, real slots
	l.emit(Instr{Op: ADDI, Rd: 12, Rs1: 12, Imm: 1}, Instr{Op: ADDI, Rd: 12, Rs1: 12, Imm: 2})
	l.to(Instr{Op: BEQ}, "c2") // taken, real slots: the slot-1 load stalls slot 2
	l.emit(Instr{Op: LD, Rd: 13, Rs1: 11}, Instr{Op: ADD, Rd: 12, Rs1: 12, Rs2: 13})
	l.emit(Instr{Op: HALT})
	l.label("c2")
	l.to(Instr{Op: BNE}, "never") // falls through, real slots: the slot-2 load stalls the successor
	l.emit(Instr{Op: ADDI, Rd: 12, Rs1: 12, Imm: 3}, Instr{Op: LD, Rd: 13, Rs1: 11, Imm: 4})
	l.emit(Instr{Op: ADD, Rd: 12, Rs1: 12, Rs2: 13})
	l.to(Instr{Op: JMP}, "j1") // NOP slots
	l.emit(nop, nop)
	l.label("j1")
	l.to(Instr{Op: JAL}, "sub") // real slots
	l.emit(Instr{Op: ADDI, Rd: 12, Rs1: 12, Imm: 5}, Instr{Op: XORI, Rd: 12, Rs1: 12, Imm: 7})
	l.emit(Instr{Op: ADD, Rd: 12, Rs1: 12, Rs2: 22}) // the return point reads the JR's slot-2 load
	l.to(Instr{Op: JMP}, "j2")                       // real slots
	l.emit(Instr{Op: ADDI, Rd: 12, Rs1: 12, Imm: 1}, Instr{Op: ST, Rd: 0, Rs1: 11, Rs2: 12, Imm: 8})
	l.emit(Instr{Op: HALT})
	l.label("j2")
	l.li(14, "leaf")
	l.emit(Instr{Op: JALR, Rs1: 14}, nop, nop)         // NOP slots
	l.emit(Instr{Op: ADDTC, Rd: 17, Rs1: 15, Rs2: 16}) // traps; the handler returns past it
	l.emit(Instr{Op: LI, Rd: RRet, Imm: 'a'}, Instr{Op: SYS, Imm: SysPutChar})
	l.to(Instr{Op: BEQ}, "c3") // delegated: a checked load in slot 1
	l.emit(Instr{Op: LDC, Rd: 18, Rs1: 11}, nop)
	l.emit(Instr{Op: HALT})
	l.label("c3")
	l.to(Instr{Op: BLTI, Rs1: 10, Imm: 40}, "loop") // taken until the last pass, real slots
	l.emit(Instr{Op: ADDI, Rd: 19, Rs1: 19, Imm: 1}, Instr{Op: ADD, Rd: 20, Rs1: 20, Rs2: 12})
	l.emit(Instr{Op: HALT})

	l.label("sub") // JR with real slots, the slot-2 load read at the return point
	l.emit(Instr{Op: ADDI, Rd: 21, Rs1: 21, Imm: 1})
	l.emit(Instr{Op: JR, Rs1: RRA}, Instr{Op: ADDI, Rd: 21, Rs1: 21, Imm: 2}, Instr{Op: LD, Rd: 22, Rs1: 11})
	l.label("leaf") // JR with NOP slots
	l.emit(Instr{Op: ADDI, Rd: 23, Rs1: 23, Imm: 1})
	l.emit(Instr{Op: JR, Rs1: RRA}, nop, nop)
	l.label("handler")
	l.emit(Instr{Op: LI, Rd: RT0, Imm: 7}, Instr{Op: ST, Rs1: 0, Rs2: RT0, Imm: TrapResultAddr})
	l.emit(Instr{Op: SYS, Imm: SysTrapReturn})

	p := l.program(t)
	hw := HWConfig{TagShift: 27, TagMask: 31, IsIntItem: isInt27, TrapCycles: 3,
		TrapHandler: l.labels["handler"], CheckFailHandler: -1, MemtagFailHandler: -1}
	return p, hw
}

// TestCycleLimitSweep crosses MaxCycles at every cycle of a program that
// runs every terminator shape. At each limit the translated and native
// engines must stop in the same state: fault, statistics, registers, pc
// and pending branch. Finishing that run on the reference engine must then
// reach the uninterrupted run's final state, so the state the transfer
// path reconstructs at the limit is exactly the reference engine's.
func TestCycleLimitSweep(t *testing.T) {
	p, hw := everyTerminator(t)
	const memWords = 1024
	full := NewMachine(p, memWords, hw)
	if err := full.RunReference(); err != nil {
		t.Fatalf("uninterrupted run: %v", err)
	}
	want := stateOf(full, nil)
	if full.Stats.Traps == 0 || full.Stats.Squashed == 0 || full.Stats.Stalls == 0 {
		t.Fatalf("program misses a shape: %+v", full.Stats)
	}
	var faults, streams uint64
	for limit := uint64(1); limit <= full.Stats.Cycles; limit++ {
		var got [2]machineState
		for i, e := range []Engine{EngineTranslated, EngineNative} {
			m := NewMachine(p, memWords, hw)
			m.MaxCycles = limit
			err := m.RunEngine(e)
			got[i] = stateOf(m, err)
			if e == EngineNative {
				streams += m.Native.SBRuns
				if err != nil {
					faults++
				}
				// Finish on the reference engine, without a limit (both
				// engines must stop alike, so resuming one suffices).
				m.MaxCycles = 0
				if err := m.RunReference(); err != nil {
					t.Fatalf("limit %d: resumed run: %v", limit, err)
				}
				if fin := stateOf(m, nil); fin != want {
					t.Fatalf("limit %d: resumed run ends in\n%+v\nwant\n%+v", limit, fin, want)
				}
			}
		}
		if got[0] != got[1] {
			t.Fatalf("limit %d: engines stop in different states:\ntranslated %+v\nnative     %+v",
				limit, got[0], got[1])
		}
	}
	if faults == 0 || streams == 0 {
		t.Errorf("sweep made %d cycle-limit faults and %d stream runs; want both", faults, streams)
	}
}

// TestTransferRareExits drives the block loop's rarest exits on all three
// engines: a misaligned indirect target, a successor outside the program
// after a chain or indirect-cache miss, and a cycle-limit crossing at a
// trap entry and at SysTrapReturn.
func TestTransferRareExits(t *testing.T) {
	nop := Instr{Op: NOP}
	plain := HWConfig{TrapHandler: -1, CheckFailHandler: -1, MemtagFailHandler: -1}
	cases := map[string]struct {
		ins     []Instr
		wantErr string
	}{
		"jr-misaligned": {[]Instr{
			{Op: LI, Rd: 14, Imm: 0x22},
			{Op: JR, Rs1: 14}, nop, nop,
			{Op: HALT},
		}, "jr to misaligned code address 0x22"},
		"jalr-misaligned": {[]Instr{
			{Op: LI, Rd: 14, Imm: 0x21},
			{Op: JALR, Rs1: 14}, {Op: ADDI, Rd: 12, Rs1: 12, Imm: 1}, nop,
			{Op: HALT},
		}, "jalr to misaligned code address 0x21"},
		"jmp-past-the-end": {[]Instr{
			{Op: JMP, Target: 100}, {Op: ADDI, Rd: 12, Rs1: 12, Imm: 1}, nop,
			{Op: HALT},
		}, "pc out of range"},
		"branch-past-the-end-nop-slots": {[]Instr{
			{Op: BEQ, Target: 100}, nop, nop,
			{Op: HALT},
		}, "pc out of range"},
		"jr-past-the-end": {[]Instr{
			{Op: LI, Rd: 14, Imm: 100 << 2},
			{Op: JR, Rs1: 14}, {Op: ADDI, Rd: 12, Rs1: 12, Imm: 1}, nop,
			{Op: HALT},
		}, "pc out of range"},
		"fall-off-the-end": {[]Instr{
			{Op: BNE, Target: 0}, nop, nop,
			{Op: ADDI, Rd: 12, Rs1: 12, Imm: 1},
		}, "pc out of range"},
		"delegated-into-the-void": {[]Instr{
			{Op: JMP, Target: 100}, {Op: LDC, Rd: 12, Rs1: 0}, nop,
			{Op: HALT},
		}, "pc out of range"},
		"sys-halt": {[]Instr{
			{Op: LI, Rd: 12, Imm: 3},
			{Op: SYS, Imm: SysHalt},
			{Op: LI, Rd: 12, Imm: 4},
		}, ""},
		"bad-syscall": {[]Instr{
			{Op: SYS, Imm: 99},
			{Op: HALT},
		}, "bad syscall 99"},
		"trap-return-bad-register": {[]Instr{
			{Op: LI, Rd: 12, Imm: 40},
			{Op: ST, Rs1: 0, Rs2: 12, Imm: TrapRdAddr},
			{Op: SYS, Imm: SysTrapReturn},
			{Op: HALT},
		}, "bad trap destination register 40"},
		"delegated-halt-in-slot": {[]Instr{
			{Op: BEQ, Target: 4}, {Op: HALT}, nop,
			{Op: HALT},
			{Op: HALT},
		}, ""},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			_, err := compareEngines(t, hand(0, tc.ins...), 1024, plain, 1_000_000)
			if tc.wantErr == "" {
				if err != nil {
					t.Errorf("reference ended with %v, want a halt", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("reference ended with %v, want %q", err, tc.wantErr)
			}
		})
	}

	// A trap and its return, the limit set one cycle short of the cycle
	// count right after each: all three engines fault there, at the
	// handler's first instruction and at the return point.
	trapProg := func() (*Program, HWConfig) {
		p := hand(0,
			Instr{Op: LI, Rd: 15, Imm: int32(1<<27 | 0x100)}, // 0
			Instr{Op: LI, Rd: 16, Imm: 1},                    // 1
			Instr{Op: ADDTC, Rd: 17, Rs1: 15, Rs2: 16},       // 2: traps
			Instr{Op: ADDI, Rd: 12, Rs1: 17, Imm: 1},         // 3: the return point
			Instr{Op: HALT},                                  // 4
			Instr{Op: LI, Rd: RT0, Imm: 7},                   // 5: the handler
			Instr{Op: ST, Rs1: 0, Rs2: RT0, Imm: TrapResultAddr},
			Instr{Op: SYS, Imm: SysTrapReturn}, // 7
		)
		return p, HWConfig{TagShift: 27, TagMask: 31, IsIntItem: isInt27, TrapCycles: 5,
			TrapHandler: 5, CheckFailHandler: -1, MemtagFailHandler: -1}
	}
	p, hw := trapProg()
	m := NewMachine(p, 1024, hw)
	var afterTrap, afterReturn uint64
	for !m.Halted() {
		pc := m.PC
		if err := m.Step(); err != nil {
			t.Fatal(err)
		}
		switch pc {
		case 2:
			afterTrap = m.Stats.Cycles
		case 7:
			afterReturn = m.Stats.Cycles
		}
	}
	for name, tc := range map[string]struct {
		limit  uint64
		wantPC int
	}{
		"limit-at-trap-entry":  {afterTrap - 1, 5},
		"limit-at-trap-return": {afterReturn - 1, 3},
	} {
		t.Run(name, func(t *testing.T) {
			p, hw := trapProg()
			_, err := compareEngines(t, p, 1024, hw, tc.limit)
			f, ok := err.(*Fault)
			if !ok || !strings.Contains(f.Reason, "cycle limit") || f.PC != tc.wantPC {
				t.Errorf("reference ended with %v, want a cycle-limit fault at pc %d", err, tc.wantPC)
			}
		})
	}
}

// TestTransferEntryExits starts the block loop where its first lookup or
// first test decides the run: an entry outside the program, and a machine
// that has already halted.
func TestTransferEntryExits(t *testing.T) {
	plain := HWConfig{TrapHandler: -1, CheckFailHandler: -1, MemtagFailHandler: -1}
	p := hand(0, Instr{Op: LI, Rd: 12, Imm: 1}, Instr{Op: HALT})
	p.Entry = 5
	if _, err := compareEngines(t, p, 1024, plain, 1_000_000); err == nil || !strings.Contains(err.Error(), "pc out of range") {
		t.Errorf("entry past the end: reference ended with %v", err)
	}

	p = hand(0, Instr{Op: LI, Rd: 12, Imm: 1}, Instr{Op: HALT})
	for _, e := range []Engine{EngineTranslated, EngineNative} {
		m := NewMachine(p, 1024, plain)
		if err := m.RunEngine(e); err != nil {
			t.Fatal(err)
		}
		before := stateOf(m, nil)
		if err := m.RunEngine(e); err != nil || stateOf(m, nil) != before {
			t.Errorf("%v: rerunning a halted machine changed it (err %v)", e, err)
		}
	}
}

// TestCancelAtTrapAndDelegatedTransfer cancels runs at the two stops the
// transfer path does not make itself: a trap entry, and a delegated
// transfer, which stops only once its delay slots have drained. The
// context is canceled before the run, so the first poll point stops it;
// the translated and native engines must stop in the same state, with no
// pipeline state pending.
func TestCancelAtTrapAndDelegatedTransfer(t *testing.T) {
	hw := HWConfig{TagShift: 27, TagMask: 31, IsIntItem: isInt27, TrapCycles: 5,
		TrapHandler: 4, CheckFailHandler: -1, MemtagFailHandler: -1}
	cases := map[string]*Program{
		"trap-entry": hand(0,
			Instr{Op: LI, Rd: 15, Imm: int32(1<<27 | 0x100)},
			Instr{Op: ADDTC, Rd: 17, Rs1: 15, Rs2: 15}, // traps to 4
			Instr{Op: HALT},
			Instr{Op: HALT},
			Instr{Op: HALT}),
		"delegated-transfer": hand(0,
			Instr{Op: LI, Rd: 11, Imm: 0x100},
			Instr{Op: BEQ, Target: 5},
			Instr{Op: LDC, Rd: 12, Rs1: 11}, // slot 1: a checked load
			Instr{Op: ADDI, Rd: 13, Rs1: 12, Imm: 1},
			Instr{Op: HALT},
			Instr{Op: HALT}),
	}
	for name, p := range cases {
		t.Run(name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			var got [2]machineState
			for i, e := range []Engine{EngineTranslated, EngineNative} {
				m := NewMachine(p, 1024, hw)
				m.Ctx = ctx
				err := m.RunEngine(e)
				checkNoFallback(t, m)
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("%v: err = %v, want a cancellation", e, err)
				}
				if m.pendCount != 0 || m.pendSquash || m.Halted() {
					t.Errorf("%v stopped mid-pipeline or halted: %+v", e, stateOf(m, err))
				}
				got[i] = stateOf(m, err)
			}
			if got[0] != got[1] {
				t.Errorf("engines stop in different states:\ntranslated %+v\nnative     %+v", got[0], got[1])
			}
		})
	}
}

// TestSlotFaultInStreamBehindJr faults in the delay slot of an indirect
// jump inside a superblock stream: the stream's JR element resolves its
// pending target from the target the stream was formed with. The
// subroutine's slot loads through a pointer that walks off the end of
// memory long after the loop's stream formed.
func TestSlotFaultInStreamBehindJr(t *testing.T) {
	nop := Instr{Op: NOP}
	l := newLayout()
	l.label("loop")
	l.emit(Instr{Op: ADDI, Rd: 10, Rs1: 10, Imm: 1})
	l.to(Instr{Op: JAL}, "sub")
	l.emit(nop, nop)
	l.emit(Instr{Op: ADDI, Rd: 11, Rs1: 11, Imm: 64})
	l.to(Instr{Op: BLTI, Rs1: 10, Imm: 1000}, "loop")
	l.emit(nop, nop)
	l.emit(Instr{Op: HALT})
	l.label("sub")
	l.emit(Instr{Op: ADDI, Rd: 12, Rs1: 12, Imm: 1})
	l.emit(Instr{Op: JR, Rs1: RRA}, Instr{Op: LD, Rd: 13, Rs1: 11}, Instr{Op: ADD, Rd: 14, Rs1: 14, Rs2: 12})
	p := l.program(t)
	hw := HWConfig{TrapHandler: -1, CheckFailHandler: -1, MemtagFailHandler: -1}
	if _, err := compareEngines(t, p, 1024, hw, 1_000_000); err == nil || !strings.Contains(err.Error(), "load out of range") {
		t.Fatalf("reference ended with %v, want a slot-1 load out of range", err)
	}
	m := NewMachine(p, 1024, hw)
	_ = m.RunNative()
	if m.Native.SBRuns == 0 || m.Native.SBSideExits == 0 {
		t.Errorf("the fault did not leave a stream: %+v", m.Native)
	}
}
