package mipsx

import (
	"context"
	"errors"
	"testing"
	"time"
)

// spinProgram assembles an infinite counting loop: the only way out is
// cancellation (or a cycle limit).
func spinProgram(t *testing.T) *Program {
	t.Helper()
	a := NewAsm()
	a.Work()
	main := a.NewLabel("main")
	a.Bind(main)
	a.Addi(5, 5, 1)
	a.Jmp(main)
	p, err := a.Finish("main")
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	return p
}

// spinCallProgram is an endless loop through every terminator kind the
// block engines test the cycle limit at: a conditional branch, a call
// (JAL) and an indirect return (JR), with live delay-slot work.
func spinCallProgram(t *testing.T) *Program {
	t.Helper()
	a := NewAsm()
	a.Work()
	main := a.NewLabel("main")
	inc := a.NewLabel("inc")
	a.Bind(main)
	a.Addi(5, 5, 1)
	a.Jal(inc)
	a.Bnei(5, -1, main)
	a.Halt()
	a.Bind(inc)
	a.Addi(6, 6, 3)
	a.Xor(7, 7, 6)
	a.Jr(RRA)
	p, err := a.Finish("main")
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	return p
}

var allEngines = []Engine{EngineReference, EngineTranslated, EngineNative}

// checkNoFallback asserts that a translated or native run executed on the
// engine it asked for.
func checkNoFallback(t *testing.T, m *Machine) {
	t.Helper()
	if m.Trans.Fallbacks != 0 || m.Native.Fallbacks != 0 {
		t.Errorf("fell back to another engine: Trans.Fallbacks = %d, Native.Fallbacks = %d",
			m.Trans.Fallbacks, m.Native.Fallbacks)
	}
}

// runAsync runs m on engine e and returns its error, failing the test
// if the run is still going after 10s.
func runAsync(t *testing.T, m *Machine, e Engine) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- m.RunEngine(e) }()
	select {
	case err := <-done:
		return err
	case <-time.After(10 * time.Second):
		t.Fatal("cancellation did not stop the run")
		return nil
	}
}

func TestRunCanceledMidFlight(t *testing.T) {
	progs := []struct {
		name string
		prog func(*testing.T) *Program
	}{{"jmp", spinProgram}, {"call", spinCallProgram}}
	for _, e := range allEngines {
		t.Run(e.String(), func(t *testing.T) {
			for _, pr := range progs {
				t.Run(pr.name, func(t *testing.T) {
					m := NewMachine(pr.prog(t), 64, HWConfig{})
					ctx, cancel := context.WithCancel(context.Background())
					m.Ctx = ctx
					go func() {
						time.Sleep(10 * time.Millisecond)
						cancel()
					}()
					err := runAsync(t, m, e)
					var c *Canceled
					if !errors.As(err, &c) {
						t.Fatalf("run returned %v, want *Canceled", err)
					}
					if !errors.Is(err, context.Canceled) {
						t.Errorf("error %v does not unwrap to context.Canceled", err)
					}
					if c.Cycle == 0 || c.Cycle != m.Stats.Cycles {
						t.Errorf("Canceled.Cycle = %d, Stats.Cycles = %d", c.Cycle, m.Stats.Cycles)
					}
					checkNoFallback(t, m)
				})
			}
		})
	}
}

func TestRunDeadlineExceeded(t *testing.T) {
	for _, e := range allEngines {
		t.Run(e.String(), func(t *testing.T) {
			m := NewMachine(spinCallProgram(t), 64, HWConfig{})
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
			defer cancel()
			m.Ctx = ctx
			err := runAsync(t, m, e)
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("run returned %v, want context.DeadlineExceeded", err)
			}
			var c *Canceled
			if errors.As(err, &c) && c.Cycle != m.Stats.Cycles {
				t.Errorf("Canceled.Cycle = %d, Stats.Cycles = %d", c.Cycle, m.Stats.Cycles)
			}
			checkNoFallback(t, m)
		})
	}
}

// A pre-canceled context must stop the run on the first control transfer,
// and a nil context must leave MaxCycles as the only limit.
func TestRunPreCanceledAndNilCtx(t *testing.T) {
	for _, e := range allEngines {
		t.Run(e.String(), func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			m := NewMachine(spinProgram(t), 64, HWConfig{})
			m.Ctx = ctx
			err := m.RunEngine(e)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("pre-canceled run returned %v", err)
			}
			var c *Canceled
			if errors.As(err, &c) && c.Cycle != m.Stats.Cycles {
				t.Errorf("Canceled.Cycle = %d, Stats.Cycles = %d", c.Cycle, m.Stats.Cycles)
			}
			if m.Stats.Cycles >= cancelCheckCycles {
				t.Errorf("pre-canceled run simulated %d cycles before stopping", m.Stats.Cycles)
			}
			checkNoFallback(t, m)

			m = NewMachine(spinProgram(t), 64, HWConfig{})
			m.MaxCycles = 200_000 // past a cancellation poll boundary
			err = m.RunEngine(e)
			var f *Fault
			if !errors.As(err, &f) {
				t.Fatalf("nil-ctx run returned %v, want cycle-limit fault", err)
			}
			checkNoFallback(t, m)
		})
	}
}

// A live context that never fires must not move a cycle-limit fault: the
// limit and the poll points share one threshold in the block engines, so
// this pins that crossing a poll point only polls.
func TestCycleLimitUnderLiveCtx(t *testing.T) {
	for _, e := range allEngines {
		t.Run(e.String(), func(t *testing.T) {
			for _, limit := range []uint64{1, cancelCheckCycles, cancelCheckCycles + 7, 300_001} {
				run := func(ctx context.Context) (*Machine, *Fault) {
					m := NewMachine(spinCallProgram(t), 64, HWConfig{})
					m.MaxCycles = limit
					m.Ctx = ctx
					err := m.RunEngine(e)
					var f *Fault
					if !errors.As(err, &f) {
						t.Fatalf("limit %d: run returned %v, want cycle-limit fault", limit, err)
					}
					checkNoFallback(t, m)
					return m, f
				}
				ctx, cancel := context.WithCancel(context.Background())
				live, lf := run(ctx)
				cancel()
				bare, bf := run(nil)
				if *lf != *bf {
					t.Errorf("limit %d: fault with live ctx %+v, without %+v", limit, *lf, *bf)
				}
				if live.Stats != bare.Stats || live.Regs != bare.Regs ||
					live.pendTarget != bare.pendTarget || live.pendCount != bare.pendCount {
					t.Errorf("limit %d: machine state differs with a live ctx", limit)
				}
			}
		})
	}
}
