package mipsx

import "testing"

// formingProgram assembles a program that forms and re-forms superblock
// streams: loops sequential loops, each iterated iters times. A loop's
// body holds a decisive branch (taken 7 times in 8) and a branch whose
// direction flips after 100 iterations, so the stream formed early from
// the loop head goes stale, side-exits on every later iteration and is
// re-formed; the blocks the side exits run form streams of their own.
func formingProgram(t testing.TB, loops int, iters int32) *Program {
	t.Helper()
	a := NewAsm()
	main := a.NewLabel("main")
	a.Bind(main)
	a.Li(11, 0)
	a.Li(13, 0)
	a.Li(14, 0)
	for k := 0; k < loops; k++ {
		loop := a.NewLabel("loop")
		skip := a.NewLabel("skip")
		same := a.NewLabel("same")
		a.Li(10, 0)
		a.Bind(loop)
		a.Addi(11, 11, int32(k+1))
		a.Andi(12, 10, 7)
		a.Bnei(12, 0, skip)
		a.Addi(13, 13, 1)
		a.Bind(skip)
		a.Blti(10, 100, same)
		a.Addi(14, 14, 1)
		a.Bind(same)
		a.Addi(10, 10, 1)
		a.Blti(10, iters, loop)
	}
	a.Halt()
	p, err := a.Finish("main")
	if err != nil {
		t.Fatal(err)
	}
	return p
}

var formingHW = HWConfig{TrapHandler: -1, CheckFailHandler: -1}

// TestFormationAllocsPerSuperblock pins that superblock formation
// allocates only what a stream keeps: its sblock, steps and elems, the
// published list header and the list's amortized growth. The walk, the
// flat unit stream and the dataflow analysis run in the machine's reused
// scratch. Each measured run is a fresh machine on a fresh program whose
// blocks a translated run has already translated, so everything the
// native run allocates beyond the streams is one-time: the native state,
// the scratch and the exit counters, each grown geometrically.
func TestFormationAllocsPerSuperblock(t *testing.T) {
	const runs = 3
	machines := make([]*Machine, runs+1) // AllocsPerRun adds a warm-up run
	for i := range machines {
		p := formingProgram(t, 24, 1500)
		w := NewMachine(p, 64, formingHW)
		w.MaxCycles = 10_000_000
		if err := w.RunTranslated(); err != nil {
			t.Fatal(err)
		}
		machines[i] = NewMachine(p, 64, formingHW)
		machines[i].MaxCycles = 10_000_000
	}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		m := machines[next]
		next++
		if err := m.RunNative(); err != nil {
			t.Fatal(err)
		}
	})
	m := machines[len(machines)-1]
	sbs := m.Native.SuperBlocks
	if sbs < 48 || m.Native.SBRuns == 0 {
		t.Fatalf("fixture formed %d superblocks, ran %d streams: want many of both", sbs, m.Native.SBRuns)
	}
	for _, o := range machines[:len(machines)-1] {
		if o.Native != m.Native || o.Stats != m.Stats {
			t.Fatalf("identical runs diverge:\n%+v\n%+v", o.Native, m.Native)
		}
	}
	// Four retained objects per stream, plus list growth and the one-time
	// costs spread over the streams.
	const perSB = 5.0
	t.Logf("%d superblocks, %.0f allocations: %.2f per superblock", sbs, allocs, allocs/float64(sbs))
	if got := allocs / float64(sbs); got > perSB {
		t.Errorf("%.0f allocations for %d superblocks: %.2f per superblock, want <= %.0f",
			allocs, sbs, got, perSB)
	}
}

// TestNativeSharedCache is the native twin of TestTranslatedSharedCache:
// many machines run one program natively at once, forming and re-forming
// superblocks in the shared cache, each with its own formation scratch.
// Results must stay bit-identical to a solo run, and each stream must be
// formed about once per head, not once per machine.
func TestNativeSharedCache(t *testing.T) {
	const loops, iters = 8, 1500
	solo := NewMachine(formingProgram(t, loops, iters), 64, formingHW)
	solo.MaxCycles = 10_000_000
	if err := solo.RunNative(); err != nil {
		t.Fatal(err)
	}
	if solo.Native.SuperBlocks < 2*loops {
		t.Fatalf("solo run formed %d superblocks, want at least %d", solo.Native.SuperBlocks, 2*loops)
	}

	p := formingProgram(t, loops, iters)
	const workers = 8
	done := make(chan *Machine, workers)
	for w := 0; w < workers; w++ {
		go func() {
			m := NewMachine(p, 64, formingHW)
			m.MaxCycles = 10_000_000
			if err := m.RunNative(); err != nil {
				t.Error(err)
			}
			done <- m
		}()
	}
	var formed, sbRuns uint64
	for w := 0; w < workers; w++ {
		m := <-done
		formed += m.Native.SuperBlocks
		sbRuns += m.Native.SBRuns
		if m.Stats != solo.Stats || m.Regs != solo.Regs {
			t.Errorf("machine diverges from the solo run:\n%+v\n%+v", m.Stats, solo.Stats)
		}
	}
	if lp := p.nat.Load().sbs.Load(); lp == nil || uint64(len(*lp)) != formed {
		t.Errorf("machines counted %d formations, the program holds a different number", formed)
	}
	t.Logf("solo run formed %d superblocks; %d machines formed %d", solo.Native.SuperBlocks, workers, formed)
	if formed > 2*solo.Native.SuperBlocks {
		t.Errorf("formed %d superblocks across %d machines, solo run formed %d: cache not shared",
			formed, workers, solo.Native.SuperBlocks)
	}
	if sbRuns == 0 {
		t.Error("no machine ran a superblock stream")
	}
}
