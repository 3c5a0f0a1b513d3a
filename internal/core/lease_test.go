package core

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"

	"repro/internal/mipsx"
	"repro/internal/programs"
)

// TestUncachedRunsReleaseLeases sends uncached inline runs through every
// exit of runUncached (a result, a runtime error, the cycle limit and a
// canceled context) and fails if the process's virtual size grows by what
// leaked leases would add. Each leased machine maps megabytes, so 50
// leaked runs of any one exit add hundreds of megabytes, far more than the
// runtime's own growth over the same runs. Skipped where /proc is absent.
func TestUncachedRunsReleaseLeases(t *testing.T) {
	if _, err := vmSizeKB(); err != nil {
		t.Skipf("no virtual size to read: %v", err)
	}
	r := NewRunner()
	r.MaxCycles = 50_000
	cfg := Baseline(true)
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	exits := []struct {
		name, src string
		ctx       context.Context
		check     func(error) bool
	}{
		{"result", "(+ 1 2)", context.Background(), func(err error) bool { return err == nil }},
		{"runtime error", "(car 5)", context.Background(), func(err error) bool {
			var re *mipsx.RuntimeError
			return errors.As(err, &re)
		}},
		{"cycle limit", "(while t 1)", context.Background(), func(err error) bool {
			var f *mipsx.Fault
			return errors.As(err, &f) && strings.Contains(f.Reason, "cycle")
		}},
		{"canceled", "(+ 1 2)", canceled, func(err error) bool { return errors.Is(err, context.Canceled) }},
	}
	n := 0
	round := func(runs int) {
		for i := 0; i < runs; i++ {
			for _, e := range exits {
				n++ // a fresh name per run: every run misses the result cache
				p := &programs.Program{Name: fmt.Sprintf("lease-%d", n), Source: e.src}
				if _, err := r.RunCtx(e.ctx, p, cfg); !e.check(err) {
					t.Fatalf("%s: unexpected result (error %v)", e.name, err)
				}
			}
		}
	}
	round(5) // warm the runtime cache and the Go heap first
	before, _ := vmSizeKB()
	const runs = 50
	round(runs)
	after, _ := vmSizeKB()

	machineKB := len(buildEquivImage(t, &programs.Program{Source: exits[0].src}, cfg).NewMachine().Mem) * 4 / 1024
	grown := after - before
	t.Logf("virtual size %d → %d kB (+%d kB) over %d runs of %d kB machines", before, after, grown, runs*len(exits), machineKB)
	if limit := runs / 5 * machineKB; grown > limit {
		t.Errorf("virtual size grew by %d kB over %d runs per exit, past %d kB (a fifth of one exit's leases): a lease leaked", grown, runs, limit)
	}
}

// vmSizeKB reads the process's virtual size from /proc/self/status.
func vmSizeKB() (int, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmSize:"); ok {
			return strconv.Atoi(strings.TrimSuffix(strings.TrimSpace(v), " kB"))
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("no VmSize line")
}
