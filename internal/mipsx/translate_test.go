package mipsx

import "testing"

// hand is a hand-laid-out program in already-scheduled (delayed-branch)
// form, bypassing the assembler's scheduler so tests can pin exact slot
// layouts the scheduler would never emit.
func hand(entry int, instrs ...Instr) *Program {
	return &Program{Instrs: instrs, Entry: entry}
}

// TestTranslatedDelaySlotLeader pins the overlapping-block case: an
// instruction that is both the delay slot of a branch (executed inline by
// the branch's terminator) and a branch target in its own right (the
// leader of a translated block). The branch at 5 jumps into its own first
// delay slot, and the loop branch at 8 keeps re-entering it; blocks
// [0..5], [6..8] overlap on instructions 6 and 7.
func TestTranslatedDelaySlotLeader(t *testing.T) {
	p := hand(0,
		Instr{Op: LI, Rd: 10, Imm: 0},               // 0
		Instr{Op: LI, Rd: 11, Imm: 0},               // 1
		Instr{Op: NOP},                              // 2
		Instr{Op: NOP},                              // 3
		Instr{Op: NOP},                              // 4
		Instr{Op: BLTI, Rs1: 10, Imm: 8, Target: 6}, // 5: branch into its own slot 1
		Instr{Op: ADDI, Rd: 10, Rs1: 10, Imm: 1},    // 6: slot 1 of 5 and 8, and a block leader
		Instr{Op: ADD, Rd: 11, Rs1: 11, Rs2: 10},    // 7: slot 2
		Instr{Op: BLTI, Rs1: 10, Imm: 8, Target: 6}, // 8: loop back into the shared slot
		Instr{Op: ADDI, Rd: 11, Rs1: 11, Imm: 100},  // 9: slot 1 of 8
		Instr{Op: NOP},                              // 10: slot 2 of 8
		Instr{Op: HALT},                             // 11
	)
	m := runEngines(t, p, 256, HWConfig{TrapHandler: -1, CheckFailHandler: -1})
	if m.Regs[10] != 8 {
		t.Errorf("loop counter = %d, want 8", m.Regs[10])
	}
	if m.Trans.Fallbacks != 0 {
		t.Errorf("translated engine fell back to the reference engine")
	}
	if m.Trans.BlockRuns == 0 || m.Trans.ChainHits == 0 {
		t.Errorf("expected block executions and chain hits, got %+v", m.Trans)
	}
}

// TestTranslatedSuperinstructions drives every fused idiom (SRLI+ANDI,
// SLLI+ORI, MOV+MOV, ANDI+LD, ADDI+LD) through a loop hot enough that the
// pairs execute repeatedly, and asserts three-way equivalence plus that
// fusion actually happened.
func TestTranslatedSuperinstructions(t *testing.T) {
	a := NewAsm()
	main := a.NewLabel("main")
	loop := a.NewLabel("loop")
	a.Bind(main)
	a.Li(10, 0x100)
	a.Li(11, int32(uint32(5)<<27|0x140))
	a.St(11, 10, 0)
	a.Li(13, 0)
	a.Bind(loop)
	a.Srli(14, 11, 27) // SRLI+ANDI: tag extract
	a.Andi(14, 14, 31)
	a.Slli(15, 14, 27) // SLLI+ORI: tag insert
	a.Ori(15, 15, 0x40)
	a.Mov(16, 14) // MOV+MOV shuffle
	a.Mov(17, 15)
	a.Andi(18, 11, 0x7ffffff) // ANDI+LD: low-tag strip into load address
	a.Ld(19, 10, 0)
	a.Addi(20, 10, 4) // ADDI+LD: address arithmetic into load
	a.Ld(21, 10, 0)
	a.Addi(13, 13, 1)
	a.Blti(13, 200, loop)
	a.Halt()
	p, err := a.Finish("main")
	if err != nil {
		t.Fatal(err)
	}
	tm := runEngines(t, p, 4096, HWConfig{TagShift: 27, TagMask: 31, TrapHandler: -1, CheckFailHandler: -1})
	if tm.Trans.FusedSteps == 0 {
		t.Errorf("no fused superinstructions executed: %+v", tm.Trans)
	}
	if tm.Trans.FusedSteps > tm.Trans.Steps {
		t.Errorf("fused share inconsistent: %+v", tm.Trans)
	}
}

// TestTranslatedFallback asserts the translated engine transparently
// delegates to the reference engine when an Observer is attached and when
// the machine stopped mid-pipeline after a single Step.
func TestTranslatedFallback(t *testing.T) { testReferenceFallback(t, EngineTranslated) }

// TestNativeFallback is TestTranslatedFallback for the native engine, which
// delegates to the reference engine directly, not through translated.
func TestNativeFallback(t *testing.T) { testReferenceFallback(t, EngineNative) }

// testReferenceFallback asserts that engine e hands an observed machine and
// a machine stopped mid-pipeline to the reference engine: exactly one
// fallback is counted, on e, no block runs, and the run is the reference
// engine's — an observed run delivers its per-instruction events, and
// Stats, registers and output equal a RunReference run's.
func testReferenceFallback(t *testing.T, e Engine) {
	// Both block engines' counters are read: a native fallback must not
	// pass through the translated engine either.
	fallbacks := func(m *Machine) (asked, other uint64) {
		if e == EngineNative {
			return m.Native.Fallbacks, m.Trans.Fallbacks
		}
		return m.Trans.Fallbacks, m.Native.Fallbacks
	}
	same := func(what string, m, ref *Machine) {
		t.Helper()
		if asked, other := fallbacks(m); asked != 1 || other != 0 {
			t.Errorf("%s: fallbacks = %d on %v, %d on the other block engine; want 1, 0", what, asked, e, other)
		}
		if n := m.Trans.BlockRuns + m.Native.BlockRuns; n != 0 {
			t.Errorf("%s: %d block runs, want 0 (the reference engine runs no blocks)", what, n)
		}
		if m.Stats != ref.Stats || m.Regs != ref.Regs || m.Output.String() != ref.Output.String() {
			t.Errorf("%s: run diverges from reference:\n%v: %+v\nref: %+v", what, e, m.Stats, ref.Stats)
		}
	}

	// An attached Observer: the events are the reference engine's,
	// EvInstr included.
	p, hw := buildObserverProg(t)
	var log, refLog eventLog
	m := NewMachine(p, 1024, hw)
	m.MaxCycles = 1_000_000
	m.Obs = &log
	if err := m.RunEngine(e); err != nil {
		t.Fatal(err)
	}
	ref := NewMachine(p, 1024, hw)
	ref.MaxCycles = 1_000_000
	ref.Obs = &refLog
	if err := ref.RunReference(); err != nil {
		t.Fatal(err)
	}
	same("observer attached", m, ref)
	instrs := 0
	for _, ev := range log.events {
		if ev.Kind == EvInstr {
			instrs++
		}
	}
	if instrs == 0 {
		t.Error("observer attached: no EvInstr events, so the reference engine did not run")
	}
	if len(log.events) != len(refLog.events) {
		t.Fatalf("observer attached: %d events, reference %d", len(log.events), len(refLog.events))
	}
	for i := range refLog.events {
		if log.events[i] != refLog.events[i] {
			t.Fatalf("observer attached: event %d diverges:\n%v: %+v\nref: %+v", i, e, log.events[i], refLog.events[i])
		}
	}

	// A machine stopped mid-pipeline (after stepping a jump, with delay
	// slots pending) must also fall back rather than model resumed state.
	b := NewAsm()
	bmain := b.NewLabel("main")
	fn := b.NewLabel("fn")
	b.Bind(bmain)
	b.Jal(fn)
	b.Halt()
	b.Bind(fn)
	b.Li(10, 7)
	b.Jr(RRA)
	p2, err := b.Finish("main")
	if err != nil {
		t.Fatal(err)
	}
	hw2 := HWConfig{TrapHandler: -1, CheckFailHandler: -1}
	m2 := NewMachine(p2, 64, hw2)
	if err := m2.Step(); err != nil { // steps the JAL, leaving slots pending
		t.Fatal(err)
	}
	if err := m2.RunEngine(e); err != nil {
		t.Fatal(err)
	}
	ref2 := NewMachine(p2, 64, hw2)
	if err := ref2.RunReference(); err != nil {
		t.Fatal(err)
	}
	same("pending delay slots", m2, ref2)
	if m2.Regs[10] != 7 {
		t.Errorf("r10 = %d, want 7", m2.Regs[10])
	}
}

// TestTranslatedSharedCache runs the same program on many machines
// concurrently and asserts they share one block cache: results stay
// bit-identical and translation happens roughly once per block, not once
// per machine.
func TestTranslatedSharedCache(t *testing.T) {
	a := NewAsm()
	main := a.NewLabel("main")
	loop := a.NewLabel("loop")
	a.Bind(main)
	a.Li(10, 0)
	a.Li(11, 0)
	a.Bind(loop)
	a.Add(11, 11, 10)
	a.Addi(10, 10, 1)
	a.Blti(10, 1000, loop)
	a.Halt()
	p, err := a.Finish("main")
	if err != nil {
		t.Fatal(err)
	}

	const workers = 8
	done := make(chan *Machine, workers)
	for w := 0; w < workers; w++ {
		go func() {
			m := NewMachine(p, 64, HWConfig{TrapHandler: -1, CheckFailHandler: -1})
			m.MaxCycles = 1_000_000
			if err := m.RunTranslated(); err != nil {
				t.Error(err)
			}
			done <- m
		}()
	}
	var first *Machine
	var translated uint64
	for w := 0; w < workers; w++ {
		m := <-done
		translated += m.Trans.Translated
		if first == nil {
			first = m
			continue
		}
		if m.Stats != first.Stats || m.Regs != first.Regs {
			t.Errorf("machines diverge:\n%+v\n%+v", m.Stats, first.Stats)
		}
	}
	if translated > uint64(len(p.Instrs)) {
		t.Errorf("translated %d blocks across %d workers — cache not shared", translated, workers)
	}
}

// TestTranslatedZeroAllocSteadyState verifies the steady-state property:
// once a program's blocks are translated, whole runs allocate nothing.
func TestTranslatedZeroAllocSteadyState(t *testing.T) {
	a := NewAsm()
	main := a.NewLabel("main")
	loop := a.NewLabel("loop")
	a.Bind(main)
	a.Li(10, 0x100)
	a.Li(11, 3)
	a.St(11, 10, 0)
	a.Li(12, 0)
	a.Li(13, 0)
	a.Bind(loop)
	a.Ld(14, 10, 0)
	a.Add(12, 12, 14)
	a.Addi(13, 13, 1)
	a.Blti(13, 100_000, loop)
	a.Halt()
	p, err := a.Finish("main")
	if err != nil {
		t.Fatal(err)
	}
	// Warm the shared caches (predecode + translation).
	warm := NewMachine(p, 1024, HWConfig{TrapHandler: -1, CheckFailHandler: -1})
	warm.MaxCycles = 10_000_000
	if err := warm.RunTranslated(); err != nil {
		t.Fatal(err)
	}

	const runs = 5
	machines := make([]*Machine, runs+1)
	for i := range machines {
		// Pre-size the per-pc counter slices outside the measured region,
		// mirroring what TestEngineZeroAlloc gets from a warm program: a
		// throwaway run sizes them, and a fresh machine inherits them (they
		// are flushed back to zero on every exit).
		sizer := NewMachine(p, 1024, HWConfig{TrapHandler: -1, CheckFailHandler: -1})
		sizer.MaxCycles = 10_000_000
		if err := sizer.RunTranslated(); err != nil {
			t.Fatal(err)
		}
		machines[i] = NewMachine(p, 1024, HWConfig{TrapHandler: -1, CheckFailHandler: -1})
		machines[i].MaxCycles = 10_000_000
		machines[i].bctr = sizer.bctr
	}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		m := machines[next]
		next++
		if err := m.RunTranslated(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("translated loop allocated %.1f times per run, want 0", allocs)
	}
}
