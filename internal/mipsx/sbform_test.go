package mipsx

import (
	"fmt"
	"testing"
)

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

// loopProgram assembles one counted loop of iters passes whose body is
// one block (it branches to itself) or two (a never-taken exit branch
// splits it), and returns the program with the loop head's pc.
func loopProgram(t testing.TB, blocks int, iters int32) (*Program, int) {
	t.Helper()
	a := NewAsm()
	main := a.NewLabel("main")
	loop := a.NewLabel("loop")
	out := a.NewLabel("out")
	a.Bind(main)
	a.Li(12, 0)
	a.Li(13, 0)
	a.Li(14, 0)
	a.Bind(loop)
	a.Addi(13, 13, 1)
	if blocks == 2 {
		a.Bnei(12, 0, out)
	}
	a.Addi(14, 14, 3)
	a.Blti(13, iters, loop)
	a.Bind(out)
	a.Halt()
	p, err := a.Finish("main")
	if err != nil {
		t.Fatal(err)
	}
	return p, p.Labels["loop"]
}

// TestLoopStreams pins the loop policy of superblock formation: a loop
// forms exactly one stream, anchored at its head and covering one pass,
// which runs pass after pass. A one-block loop gets its stream too, though
// a single block is otherwise too short to form one. On the warm program a
// second machine runs that stream and forms nothing, and no block is ever
// retried: a formation that kept failing, or a loop block that formed a
// rotated copy of the stream, would show as a second attempt.
func TestLoopStreams(t *testing.T) {
	for _, blocks := range []int{1, 2} {
		t.Run(fmt.Sprintf("%d-block", blocks), func(t *testing.T) {
			const iters = 5000
			p, head := loopProgram(t, blocks, iters)
			for run, formed := range []uint64{1, 0} {
				m := NewMachine(p, 64, formingHW)
				m.MaxCycles = 10_000_000
				if err := m.RunNative(); err != nil {
					t.Fatal(err)
				}
				if m.Regs[13] != iters || m.Regs[14] != 3*iters {
					t.Fatalf("run %d: loop ran %d passes, want %d", run, m.Regs[13], iters)
				}
				if m.Native.SuperBlocks != formed || m.Native.SBRuns == 0 {
					t.Errorf("run %d formed %d streams and ran %d, want %d formed and some run",
						run, m.Native.SuperBlocks, m.Native.SBRuns, formed)
				}
			}
			var sbs []*sblock
			if lp := p.nat.Load().sbs.Load(); lp != nil {
				sbs = *lp
			}
			if len(sbs) != 1 {
				t.Fatalf("program holds %d streams, want 1", len(sbs))
			}
			// The anchor is the loop block that crossed the threshold first,
			// not necessarily the head: the pass the program falls into runs
			// the head inside the block before it.
			sb := sbs[0]
			covers := false // some element is the loop head's block
			for _, e := range sb.elems {
				covers = covers || int(e.b.start) == head
			}
			if len(sb.elems) != blocks || sb.nextPC != sb.elems[0].b.start || !covers {
				t.Errorf("stream of %d elements from pc %d continuing at %d, want %d elements, one at pc %d, and back to the anchor",
					len(sb.elems), sb.elems[0].b.start, sb.nextPC, blocks, head)
			}
			seen := map[*tblock]bool{}
			var tries int32
			for i := range p.tblocks {
				if b := p.tblocks[i].Load(); b != nil && !seen[b] {
					seen[b] = true
					tries += b.sbTried.Load()
				}
			}
			if tries != 1 {
				t.Errorf("%d formation attempts, want 1", tries)
			}
		})
	}
}
