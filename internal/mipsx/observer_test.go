package mipsx

import (
	"testing"
)

type eventLog struct{ events []Event }

func (l *eventLog) Event(e Event) { l.events = append(l.events, e) }

type noopObs struct{}

func (noopObs) Event(Event) {}

// buildObserverProg assembles a program that produces every observable
// event kind: taken branches, a call and return, an unconditional jump,
// output syscalls, a GC notification, an arithmetic trap with a handler
// that trap-returns, and a halt.
func buildObserverProg(t *testing.T) (*Program, HWConfig) {
	t.Helper()
	a := NewAsm()
	main := a.NewLabel("main")
	loop := a.NewLabel("loop")
	skip := a.NewLabel("skip")
	fdouble := a.NewLabel("fn:double")
	handler := a.NewLabel("sys:trap")
	a.Bind(main)
	a.Li(10, 0)
	a.Li(13, 0)
	a.Bind(loop)
	a.Addi(10, 10, 2)
	a.Addi(13, 13, 1)
	a.Blti(13, 8, loop)
	a.Jal(fdouble)
	a.Jmp(skip)
	a.Addi(10, 10, 100) // dead code jumped over
	a.Bind(skip)
	a.Mov(RRet, 10)
	a.Sys(SysPutInt)
	a.Li(RRet, 7)
	a.Sys(SysGCNotify)
	a.Li(20, int32(uint32(1)<<27|5)) // tagged non-integer item
	a.Addtc(21, 20, 20)              // traps into the handler
	a.Mov(RRet, 21)
	a.Sys(SysPutInt)
	a.Halt()
	a.Bind(fdouble)
	a.Add(10, 10, 10)
	a.Jr(31)
	a.Bind(handler)
	a.Li(22, 42)
	a.Li(23, TrapResultAddr)
	a.St(22, 23, 0)
	a.Sys(SysTrapReturn)
	p, err := a.Finish("main")
	if err != nil {
		t.Fatal(err)
	}
	hw := HWConfig{TagShift: 27, TagMask: 31, IsIntItem: isInt27,
		TrapHandler: p.Labels["sys:trap"], CheckFailHandler: -1}
	return p, hw
}

// TestNoopObserverLeavesRunIdentical is the differential guarantee behind
// the observer hook: attaching an observer must not change a single
// architectural or statistical bit of a run. The bare Run executes on the
// translated engine; the observed one falls back to the reference engine.
func TestNoopObserverLeavesRunIdentical(t *testing.T) {
	p, hw := buildObserverProg(t)

	bare := NewMachine(p, 1024, hw)
	bare.MaxCycles = 1_000_000
	if err := bare.Run(); err != nil {
		t.Fatal(err)
	}

	observed := NewMachine(p, 1024, hw)
	observed.MaxCycles = 1_000_000
	observed.Obs = noopObs{}
	if err := observed.Run(); err != nil {
		t.Fatal(err)
	}

	if bare.Stats != observed.Stats {
		t.Errorf("stats diverge:\nbare:     %+v\nobserved: %+v", bare.Stats, observed.Stats)
	}
	if bare.Regs != observed.Regs {
		t.Errorf("registers diverge:\nbare:     %v\nobserved: %v", bare.Regs, observed.Regs)
	}
	if bare.PC != observed.PC {
		t.Errorf("final PC diverges: bare %d, observed %d", bare.PC, observed.PC)
	}
	if bare.Output.String() != observed.Output.String() {
		t.Errorf("output diverges: bare %q, observed %q", bare.Output.String(), observed.Output.String())
	}
	for i := range bare.Mem {
		if bare.Mem[i] != observed.Mem[i] {
			t.Errorf("memory diverges at word %d: bare %#x, observed %#x", i, bare.Mem[i], observed.Mem[i])
			break
		}
	}
	if got := bare.Output.String(); got != "3242" {
		t.Errorf("program output %q, want \"3242\"", got)
	}
}

func TestEventStreamContents(t *testing.T) {
	p, hw := buildObserverProg(t)
	var log eventLog
	m := NewMachine(p, 1024, hw)
	m.MaxCycles = 1_000_000
	m.Obs = &log
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}

	counts := make(map[EventKind]int)
	var last uint64
	for _, e := range log.events {
		counts[e.Kind]++
		if e.Cycle < last {
			t.Errorf("cycle stamps not monotonic: %d after %d", e.Cycle, last)
		}
		last = e.Cycle
	}
	for kind, wantMin := range map[EventKind]int{
		EvBranch:  7, // seven taken back-edges
		EvCall:    1,
		EvReturn:  1,
		EvJump:    1,
		EvSyscall: 2,
		EvGC:      1,
		EvTrap:    1,
		EvTrapRet: 1,
		EvHalt:    1,
	} {
		if counts[kind] < wantMin {
			t.Errorf("%v events: got %d, want >= %d", kind, counts[kind], wantMin)
		}
	}
	if m.Stats.GCs != 1 || m.Stats.GCWords != 7 {
		t.Errorf("GC stats = %d/%d, want 1/7", m.Stats.GCs, m.Stats.GCWords)
	}
	if m.Stats.Traps != 1 {
		t.Errorf("Traps = %d, want 1", m.Stats.Traps)
	}
}

func TestEventKindString(t *testing.T) {
	for kind, want := range map[EventKind]string{
		EvInstr:   "instr",
		EvBranch:  "branch",
		EvTrapRet: "trapret",
		EvHalt:    "halt",
	} {
		if got := kind.String(); got != want {
			t.Errorf("EventKind(%d).String() = %q, want %q", kind, got, want)
		}
	}
	if got := EventKind(200).String(); got == "" {
		t.Error("out-of-range EventKind should still render")
	}
}

func TestErrorCodeName(t *testing.T) {
	for code, want := range map[int32]string{
		ErrNotPair:      "not-a-pair",
		ErrUser:         "user-error",
		ErrHeapOverflow: "heap-overflow",
		ErrWrongTypeHW:  "wrong-type",
		99:              "error-99",
	} {
		if got := ErrorCodeName(code); got != want {
			t.Errorf("ErrorCodeName(%d) = %q, want %q", code, got, want)
		}
	}
}
