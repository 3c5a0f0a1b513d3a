package difftest

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/programs"
)

var pinMemtag = flag.Bool("pin-memtag", false, "rewrite the pinned torture reproducers in testdata/memtag")

// tortureOptions: torture programs are a handful of allocations plus one
// bad access, so a small cycle budget keeps the three-engine sweep cheap.
var tortureOptions = Options{MaxCycles: 5_000_000, Steps: 100_000}

// TestMemtagSpectrumCoverage pins the safety sweep's shape: both check
// variants for every scheme plus the non-default geometries, no
// duplicates, and every point actually tagging.
func TestMemtagSpectrumCoverage(t *testing.T) {
	spec := MemtagSpectrum()
	if want := 4*2 + 4; len(spec) != want {
		t.Fatalf("MemtagSpectrum has %d configs, want %d", len(spec), want)
	}
	seen := map[string]bool{}
	for _, cfg := range spec {
		if seen[cfg.Key()] {
			t.Fatalf("duplicate config %s", cfg)
		}
		seen[cfg.Key()] = true
		if hw := cfg.HW.Normalized(); !hw.Memtag {
			t.Fatalf("config %s does not enable memory tagging", cfg)
		}
		if cfg.HW.MemtagMaxColor() < 3 {
			t.Fatalf("config %s has fewer than 3 colors; out-of-granule kind undetectable", cfg)
		}
	}
}

// TestGenerateTortureDeterministic: seed plus granule geometry fully
// determine the torture program, which is what lets a failure artifact
// regenerate its source from (seed, config) alone.
func TestGenerateTortureDeterministic(t *testing.T) {
	kinds := map[string]bool{}
	for seed := uint64(1); seed <= 50; seed++ {
		for _, gb := range []int{8, 16, 32, 64} {
			a, ka := GenerateTorture(NewSeeded(seed), gb)
			b, kb := GenerateTorture(NewSeeded(seed), gb)
			if a != b || ka != kb {
				t.Fatalf("seed %d gb %d generated two different programs:\n%s\n---\n%s", seed, gb, a, b)
			}
			kinds[ka] = true
		}
	}
	for _, k := range TortureKinds {
		if !kinds[k] {
			t.Fatalf("seeds 1..50 never generated torture kind %q", k)
		}
	}
}

// TestMemtagTortureAlwaysFires is the exhaustive always-fire direction of
// the safety oracle: every torture kind, under every configuration in the
// memtag spectrum, must raise a memtag fault — and bit-identically so on
// all three engines. A single silent completion here means the granule
// discipline has a hole (a check site not emitted, a granule not colored,
// a poison not written).
func TestMemtagTortureAlwaysFires(t *testing.T) {
	for _, kind := range TortureKinds {
		kind := kind
		t.Run(kind, func(t *testing.T) {
			for _, cfg := range MemtagSpectrum() {
				gb := int(cfg.HW.MemtagGranuleBytes())
				for seed := uint64(1); seed <= 5; seed++ {
					src := GenerateTortureKind(NewSeeded(seed), gb, kind)
					f := CheckMemtagTorture(src, cfg, tortureOptions)
					if f == nil {
						continue
					}
					min := Minimize(src, func(s string) bool {
						g := CheckMemtagTorture(s, cfg, tortureOptions)
						return g != nil && g.Kind == f.Kind
					}, 200)
					t.Fatalf("seed %d under %s: %v\nprogram:\n%s\nminimized:\n%s", seed, cfg, f, src, min)
				}
			}
		})
	}
}

// TestMemtagTortureSweep drives the mixed-kind seeded generator across a
// wider seed range, rotating through the spectrum the way the main
// differential sweep rotates through Spectrum().
func TestMemtagTortureSweep(t *testing.T) {
	spec := MemtagSpectrum()
	seeds := uint64(60)
	if testing.Short() {
		seeds = 12
	}
	for seed := uint64(1); seed <= seeds; seed++ {
		cfg := spec[int(seed)%len(spec)]
		src, kind := GenerateTorture(NewSeeded(seed), int(cfg.HW.MemtagGranuleBytes()))
		if f := CheckMemtagTorture(src, cfg, tortureOptions); f != nil {
			t.Errorf("seed %d (%s) under %s: %v\nprogram:\n%s", seed, kind, cfg, f, src)
		}
	}
}

// TestMemtagCleanNeverFires is the never-fire direction: all ten benchmark
// programs run to their expected values under every memtag configuration.
// In short mode only the two smallest programs run; the full matrix is the
// `make memtag-smoke` CI job.
func TestMemtagCleanNeverFires(t *testing.T) {
	progs := programs.All()
	if testing.Short() {
		progs = progs[:2]
	}
	opt := Options{MaxCycles: 2_000_000_000}
	for _, p := range progs {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			for _, cfg := range MemtagSpectrum() {
				if f := CheckMemtagClean(p, cfg, opt); f != nil {
					t.Errorf("%v", f)
				}
			}
		})
	}
}

// TestMemtagReproducers pins the torture corpus: one JSON artifact per
// (kind, geometry) corner, each of which must verify (seed regenerates
// source byte-for-byte) and must still raise a memtag fault today.
// Refresh deliberately with:
//
//	go test ./internal/difftest -run TestMemtagReproducers -pin-memtag
func TestMemtagReproducers(t *testing.T) {
	dir := filepath.Join("testdata", "memtag")
	if *pinMemtag {
		if err := os.RemoveAll(dir); err != nil {
			t.Fatal(err)
		}
		spec := MemtagSpectrum()
		for i, kind := range TortureKinds {
			// A software-check and a hardware-check point per kind, plus the
			// non-default geometries, spread deterministically over the kinds.
			for _, cfg := range []int{2 * i, 2*i + 1, 8 + i} {
				c := spec[cfg]
				// Walk seeds until the full generator (which draws the kind
				// from the stream, exactly as Verify regenerates) produces
				// this kind.
				seed := uint64(10*i + cfg + 1)
				var src string
				for {
					var k string
					src, k = GenerateTorture(NewSeeded(seed), int(c.HW.MemtagGranuleBytes()))
					if k == kind {
						break
					}
					seed++
				}
				a := NewTortureArtifact(seed, src, &Failure{
					Kind: "memtag-reproducer", Config: c.String(),
					Detail: fmt.Sprintf("pinned %s torture program; must always fault", kind),
				})
				if _, err := a.Write(dir); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatalf("no pinned reproducers in %s (run with -pin-memtag to create)", dir)
	}
	for _, path := range paths {
		a, err := LoadArtifact(path)
		if err != nil {
			t.Fatal(err)
		}
		// Mode-aware verification: regenerating from the seed proves the
		// artifact is reproducible without trusting its recorded source.
		if err := a.Verify(); err != nil {
			t.Errorf("%s: %v", filepath.Base(path), err)
			continue
		}
		cfg, err := core.ParseConfig(a.Config)
		if err != nil {
			t.Errorf("%s: %v", filepath.Base(path), err)
			continue
		}
		if f := CheckMemtagTorture(a.Source, cfg, tortureOptions); f != nil {
			t.Errorf("%s: %v\nprogram:\n%s", filepath.Base(path), f, a.Source)
		}
	}
}

// TestTortureArtifactRoundTrip: torture-mode artifacts write → load →
// verify, and regeneration uses the granule geometry from the config.
func TestTortureArtifactRoundTrip(t *testing.T) {
	cfg := MemtagSpectrum()[8] // high5+memtag+mtg4: non-default granule
	seed := uint64(3)
	src, _ := GenerateTorture(NewSeeded(seed), int(cfg.HW.MemtagGranuleBytes()))
	a := NewTortureArtifact(seed, src, &Failure{Kind: "memtag-miss", Config: cfg.String(), Detail: "test"})
	dir := t.TempDir()
	path, err := a.Write(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, err := LoadArtifact(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := got.Verify(); err != nil {
		t.Fatalf("round-tripped torture artifact fails verification: %v", err)
	}
	if got.Mode != "torture" || got.Seed != seed || got.Source != src {
		t.Fatalf("artifact fields corrupted: %+v", got)
	}
	// A tampered source must fail verification (the seed no longer
	// regenerates it).
	got.Source += " "
	if err := got.Verify(); err == nil {
		t.Fatal("tampered torture artifact passed verification")
	}
}
