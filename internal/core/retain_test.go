package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/mipsx"
	"repro/internal/programs"
)

// maxRetainedPerKey bounds the heap one cached result keeps: its
// statistics, unit table, output, phases and introspection snapshot. The
// compiled image that produced it (~390 KB for a natively-run service
// program) must not be among them.
const maxRetainedPerKey = 32 << 10

// TestRunnerRetainsNoImage sends distinct nonced inline programs through
// one Runner, the way tagsimd serves inline sources, ending in results, a
// Lisp runtime error and a deadline-canceled run. It charges the retained
// heap growth to the keys, and checks that the failed keys left no entry.
func TestRunnerRetainsNoImage(t *testing.T) {
	r := NewRunner()
	cfg := Baseline(true)
	n := 0
	inline := func(src string) *programs.Program {
		n++
		return &programs.Program{
			Name:   fmt.Sprintf("inline-retain-%d", n),
			Source: fmt.Sprintf(";; nonce %d\n%s", n, src),
		}
	}
	names := []string{"comp", "trav", "rat", "opt", "brow"}
	// Warm the compiled runtime, the metric series and the Go heap.
	for _, name := range names {
		if _, err := r.Run(inline(programs.MustByName(name).Source), cfg); err != nil {
			t.Fatal(err)
		}
	}

	before := retainedHeap()
	keys := 0
	for i := 0; i < 4; i++ {
		for _, name := range names {
			bp := programs.MustByName(name)
			p := inline(bp.Source)
			p.Expected = bp.Expected
			res, err := r.RunEngineCtx(context.Background(), p, cfg, mipsx.EngineNative)
			if err != nil {
				t.Fatal(err)
			}
			if res.image.Engine.Blocks == 0 {
				t.Fatalf("%s: empty introspection snapshot %+v", p.Name, res.image)
			}
			keys++
		}
	}
	failing := inline("(car 5)")
	var re *mipsx.RuntimeError
	if _, err := r.Run(failing, cfg); !errors.As(err, &re) {
		t.Fatalf("(car 5): error %v, want a Lisp runtime error", err)
	}
	keys++
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	canceled := inline("(while t 1)")
	if _, err := r.RunCtx(ctx, canceled, cfg); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("(while t 1): error %v, want the deadline", err)
	}
	keys++
	per := (retainedHeap() - before) / int64(keys)
	t.Logf("retained %d B per key over %d keys", per, keys)
	if per > maxRetainedPerKey {
		t.Errorf("each key retains %d KB, want at most %d KB: the runner keeps images", per>>10, maxRetainedPerKey>>10)
	}

	for _, p := range []*programs.Program{failing, canceled} {
		key := p.Name + "/" + cfg.Key()
		r.mu.Lock()
		_, cached := r.entries[key]
		_, inflight := r.inflight[key]
		r.mu.Unlock()
		if cached || inflight {
			t.Errorf("%s left an entry behind (cached %v, in flight %v)", key, cached, inflight)
		}
	}
	if got, want := r.CacheLen(), len(names)+keys-2; got != want {
		t.Errorf("cache holds %d results, want %d", got, want)
	}
}

// retainedHeap returns the live heap after a full collection.
func retainedHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}
