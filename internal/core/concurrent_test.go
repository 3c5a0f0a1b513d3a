package core

import (
	"context"
	"errors"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/mipsx"
	"repro/internal/programs"
	"repro/internal/tags"
)

// TestConcurrentRunSingleFlight hammers one (program, config) pair from
// many goroutines plus a Prewarm of the same pair: exactly one simulation
// may execute, so the metrics registry must count one run — cached replays
// are not double-counted.
func TestConcurrentRunSingleFlight(t *testing.T) {
	r := NewRunner()
	p := programs.MustByName("comp")
	cfg := Baseline(false)

	const callers = 8
	results := make([]*Result, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := r.Run(p, cfg)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = res
		}(i)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := r.Prewarm([]*programs.Program{p}, []Config{cfg}); err != nil {
			t.Error(err)
		}
	}()
	wg.Wait()

	for i := 1; i < callers; i++ {
		if results[i] != results[0] {
			t.Fatalf("caller %d got a different *Result — cache not shared", i)
		}
	}
	snap := r.Metrics.Snapshot()
	if got := snap.Counters["runs_total"]; got != 1 {
		t.Errorf("runs_total = %d, want 1 (single-flight must record one run)", got)
	}
	if got := snap.Counters["run_cache_misses_total"]; got != 1 {
		t.Errorf("run_cache_misses_total = %d, want 1", got)
	}
	if hits := snap.Counters["run_cache_hits_total"]; hits < callers-1 {
		t.Errorf("run_cache_hits_total = %d, want >= %d", hits, callers-1)
	}
}

// Parallel Run and Prewarm across several distinct pairs: each unique pair
// simulates exactly once.
func TestParallelPrewarmAndRunDistinctPairs(t *testing.T) {
	r := NewRunner()
	ps := []*programs.Program{programs.MustByName("comp"), programs.MustByName("trav")}
	cfgs := []Config{Baseline(false), Baseline(true), {Scheme: tags.Low3}}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := r.Prewarm(ps, cfgs); err != nil {
			t.Error(err)
		}
	}()
	for _, p := range ps {
		for _, cfg := range cfgs {
			wg.Add(1)
			go func(p *programs.Program, cfg Config) {
				defer wg.Done()
				if _, err := r.Run(p, cfg); err != nil {
					t.Error(err)
				}
			}(p, cfg)
		}
	}
	wg.Wait()

	want := uint64(len(ps) * len(cfgs))
	if got := r.Metrics.Snapshot().Counters["runs_total"]; got != want {
		t.Errorf("runs_total = %d, want %d (each unique pair exactly once)", got, want)
	}
	if got := r.CacheLen(); got != int(want) {
		t.Errorf("CacheLen = %d, want %d", got, want)
	}
}

func TestRunCtxCanceledNotCached(t *testing.T) {
	r := NewRunner()
	p := programs.MustByName("comp")
	cfg := Baseline(false)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := r.RunCtx(ctx, p, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunCtx on canceled ctx returned %v", err)
	}
	if got := r.CacheLen(); got != 0 {
		t.Fatalf("canceled run was cached (CacheLen = %d)", got)
	}
	if got := r.Metrics.Snapshot().Counters["runs_canceled_total"]; got != 1 {
		t.Errorf("runs_canceled_total = %d, want 1", got)
	}

	// The runner must recover: a later call with a live context succeeds.
	if _, err := r.Run(p, cfg); err != nil {
		t.Fatalf("run after cancellation: %v", err)
	}
}

// A deadline must stop a long simulation mid-run, far sooner than the run
// would complete.
func TestRunCtxDeadlineStopsMidRun(t *testing.T) {
	r := NewRunner()
	p := programs.MustByName("boyer") // ~10^8 cycles, hundreds of ms
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := r.RunCtx(ctx, p, Baseline(true))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("RunCtx returned %v, want deadline exceeded", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("cancellation took %v — simulation did not stop mid-run", d)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	r := NewRunner()
	r.CacheCap = 2
	p := programs.MustByName("comp")
	cfgs := []Config{Baseline(false), Baseline(true), {Scheme: tags.Low3}}
	for _, cfg := range cfgs {
		if _, err := r.Run(p, cfg); err != nil {
			t.Fatal(err)
		}
	}
	if got := r.CacheLen(); got != 2 {
		t.Fatalf("CacheLen = %d, want 2", got)
	}
	snap := r.Metrics.Snapshot()
	if got := snap.Counters["run_cache_evictions_total"]; got != 1 {
		t.Errorf("run_cache_evictions_total = %d, want 1", got)
	}
	// The evicted entry (the oldest, cfgs[0]) re-simulates; the newest is
	// still a hit.
	if _, err := r.Run(p, cfgs[2]); err != nil {
		t.Fatal(err)
	}
	if got := r.Metrics.Snapshot().Counters["run_cache_hits_total"]; got != 1 {
		t.Errorf("hit counter after MRU re-run = %d, want 1", got)
	}
	if _, err := r.Run(p, cfgs[0]); err != nil {
		t.Fatal(err)
	}
	if got := r.Metrics.Snapshot().Counters["runs_total"]; got != 4 {
		t.Errorf("runs_total = %d, want 4 (evicted pair re-simulated)", got)
	}
}

// TestLeasedMachinesMatchSerial runs one image from several goroutines
// that each lease a machine, run it, compare it with a serial run, poison
// every other machine's memory (standing in for a program that stores
// anywhere) and release it, so later leases may map pages that other
// goroutines dirtied and released. Every run must match the serial run bit
// for bit, memory included. The race detector does not instrument leased
// (off-heap) memory, so the test compares values rather than relying on it.
func TestLeasedMachinesMatchSerial(t *testing.T) {
	img := buildEquivImage(t, programs.MustByName("comp"), Baseline(true))
	serial := img.NewMachine()
	if err := serial.Run(); err != nil {
		t.Fatal(err)
	}

	const workers, runs = 4, 6
	var (
		wg     sync.WaitGroup
		engine = [...]mipsx.Engine{mipsx.EngineNative, mipsx.EngineTranslated}
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < runs; i++ {
				m := img.LeaseMachine()
				e := engine[(w+i)%len(engine)]
				if err := m.RunEngine(e); err != nil {
					t.Errorf("worker %d run %d (%s): %v", w, i, e, err)
					m.Release()
					return
				}
				if m.Stats != serial.Stats || m.Regs != serial.Regs || m.PC != serial.PC ||
					m.Output.String() != serial.Output.String() || !slices.Equal(m.Mem, serial.Mem) {
					t.Errorf("worker %d run %d (%s): differs from the serial run", w, i, e)
				}
				if i%2 == 1 {
					for j := range m.Mem {
						m.Mem[j] = ^uint32(j)
					}
				}
				m.Release()
			}
		}(w)
	}
	wg.Wait()
}
