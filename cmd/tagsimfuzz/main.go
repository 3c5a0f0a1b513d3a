// Command tagsimfuzz drives the differential fuzzing harness from the shell:
// it generates seeded random Lisp programs and checks each one through the
// interpreter-vs-compiled-code oracle across the tag-scheme × hardware
// spectrum, writing a JSON artifact per failure. Artifacts are reproducible
// by construction — the seed regenerates the program byte-for-byte — and
// -minimize closes the loop by re-verifying and shrinking a saved artifact.
//
// Usage:
//
//	tagsimfuzz -seeds 500                        # seeds 1..500, full spectrum
//	tagsimfuzz -duration 30s -out artifacts/     # fuzz for 30s, save failures
//	tagsimfuzz -config high6+check -invariants   # one config + invariant checks
//	tagsimfuzz -memtag -seeds 200                # memory-safety torture campaign
//	tagsimfuzz -addr http://localhost:8372       # also replay against tagsimd
//	tagsimfuzz -minimize artifacts/fail-*.json   # reproduce + shrink a failure
//
// With -memtag the generator plants memory-safety violations (use-after-
// free, out-of-granule forging, reads past the allocation frontier) and the
// oracle inverts: every program must raise a memtag fault, identically on
// all three engines, under the memory-tagging spectrum. A program that runs
// to completion is the failure.
//
// Exit status: 0 when the campaign found nothing (or -minimize reproduced and
// shrank its failure), 1 when failures were found (or the artifact's failure
// no longer reproduces), 2 on usage or artifact-verification errors.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/difftest"
)

type options struct {
	seeds     uint64
	start     uint64
	duration  time.Duration
	config    string
	memtag    bool
	invariant bool
	out       string
	addr      string
	minimize  string
	budget    int
}

func main() {
	var o options
	flag.Uint64Var(&o.seeds, "seeds", 200, "number of seeds to check (ignored when -duration > 0)")
	flag.Uint64Var(&o.start, "seed-start", 1, "first seed")
	flag.DurationVar(&o.duration, "duration", 0, "fuzz until this much time has elapsed instead of a fixed seed count")
	flag.StringVar(&o.config, "config", "", "check only this config spec (default: rotate the full spectrum)")
	flag.BoolVar(&o.memtag, "memtag", false, "torture mode: generate memory-unsafe programs that must raise a memtag fault")
	flag.BoolVar(&o.invariant, "invariants", false, "also check hardware-monotonicity and cache-replay invariants per seed")
	flag.StringVar(&o.out, "out", "", "directory to write JSON failure artifacts into")
	flag.StringVar(&o.addr, "addr", "", "also replay each program against a live tagsimd at this base URL")
	flag.StringVar(&o.minimize, "minimize", "", "load a failure artifact, verify it reproduces, and shrink it")
	flag.IntVar(&o.budget, "shrink-budget", 300, "max oracle executions the shrinker may spend per failure")
	flag.Parse()

	if o.minimize != "" {
		os.Exit(minimizeArtifact(o))
	}
	os.Exit(fuzz(o))
}

// fuzz runs the seeded campaign and returns the process exit code.
func fuzz(o options) int {
	spectrum := difftest.Spectrum()
	if o.memtag {
		spectrum = difftest.MemtagSpectrum()
	}
	if o.config != "" {
		cfg, err := core.ParseConfig(o.config)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tagsimfuzz: bad config %q: %v\n", o.config, err)
			return 2
		}
		if o.memtag && !cfg.HW.Normalized().Memtag {
			fmt.Fprintf(os.Stderr, "tagsimfuzz: -memtag needs a config with memtag or memtaghw, got %q\n", o.config)
			return 2
		}
		spectrum = []core.Config{cfg}
	}
	deadline := time.Now().Add(o.duration)
	last := o.start + o.seeds - 1

	failures := 0
	checked := 0
	for seed := o.start; ; seed++ {
		if o.duration > 0 {
			if time.Now().After(deadline) {
				break
			}
		} else if seed > last {
			break
		}
		cfg := spectrum[int(seed)%len(spectrum)]
		var src string
		if o.memtag {
			src, _ = difftest.GenerateTorture(difftest.NewSeeded(seed), int(cfg.HW.MemtagGranuleBytes()))
		} else {
			src = difftest.Generate(difftest.NewSeeded(seed))
		}
		checked++
		if fail := check(o.memtag, src, cfg); fail != nil {
			failures++
			report(o, seed, src, cfg, fail)
			continue
		}
		if o.invariant {
			if fail := difftest.CheckMonotone(src, cfg.Scheme, difftest.Options{}); fail != nil {
				failures++
				report(o, seed, src, cfg, fail)
				continue
			}
			if fail := difftest.CheckCacheReplay(src, cfg, difftest.Options{}); fail != nil {
				failures++
				report(o, seed, src, cfg, fail)
				continue
			}
		}
		if o.addr != "" {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			fail := difftest.RemoteCheck(ctx, http.DefaultClient, o.addr, src, cfg)
			cancel()
			if fail != nil {
				failures++
				report(o, seed, src, cfg, fail)
			}
		}
	}
	fmt.Printf("tagsimfuzz: %d programs checked, %d failures\n", checked, failures)
	if failures > 0 {
		return 1
	}
	return 0
}

// check routes one program through the oracle matching the campaign mode.
func check(memtag bool, src string, cfg core.Config) *difftest.Failure {
	if memtag {
		return difftest.CheckMemtagTorture(src, cfg, difftest.Options{})
	}
	return difftest.Check(src, cfg, difftest.Options{})
}

// report prints one failure, shrinks it, and writes the artifact if -out is
// set.
func report(o options, seed uint64, src string, cfg core.Config, fail *difftest.Failure) {
	fmt.Fprintf(os.Stderr, "seed %d: %v\nprogram:\n%s\n", seed, fail, src)
	a := difftest.NewArtifact(seed, src, fail)
	if o.memtag {
		a = difftest.NewTortureArtifact(seed, src, fail)
	}
	a.Minimized = shrinkMode(o.memtag, src, cfg, fail, o.budget)
	if a.Minimized != src {
		fmt.Fprintf(os.Stderr, "minimized:\n%s\n", a.Minimized)
	}
	if o.out != "" {
		path, err := a.Write(o.out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tagsimfuzz: write artifact: %v\n", err)
			return
		}
		fmt.Fprintf(os.Stderr, "artifact: %s\n", path)
	}
}

// shrinkMode reduces src while it still fails the same way under cfg.
func shrinkMode(memtag bool, src string, cfg core.Config, fail *difftest.Failure, budget int) string {
	return difftest.Minimize(src, func(s string) bool {
		g := check(memtag, s, cfg)
		return g != nil && g.Kind == fail.Kind
	}, budget)
}

// minimizeArtifact reloads a saved failure, proves the seed still regenerates
// the recorded program byte-for-byte, re-runs the oracle, and shrinks.
func minimizeArtifact(o options) int {
	a, err := difftest.LoadArtifact(o.minimize)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tagsimfuzz:", err)
		return 2
	}
	if err := a.Verify(); err != nil {
		fmt.Fprintln(os.Stderr, "tagsimfuzz: artifact verification failed:", err)
		return 2
	}
	cfg, err := core.ParseConfig(a.Config)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tagsimfuzz: artifact config %q: %v\n", a.Config, err)
		return 2
	}
	torture := a.Mode == "torture"
	fail := check(torture, a.Source, cfg)
	if fail == nil {
		fmt.Printf("artifact verified, but the failure no longer reproduces (fixed?)\n")
		return 1
	}
	if fail.Kind != a.Kind {
		fmt.Printf("reproduced with kind %q (artifact recorded %q)\n", fail.Kind, a.Kind)
	}
	min := shrinkMode(torture, a.Source, cfg, fail, o.budget)
	fmt.Printf("reproduced: %v\nminimized reproducer:\n%s\n", fail, min)
	return 0
}
