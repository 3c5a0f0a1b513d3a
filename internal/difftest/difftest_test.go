package difftest

import (
	"maps"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/tags"
)

// TestGenerateDeterministic: a seed fully determines the generated program,
// which is what makes failure artifacts reproducible from the seed alone.
func TestGenerateDeterministic(t *testing.T) {
	for seed := uint64(1); seed <= 50; seed++ {
		a := Generate(NewSeeded(seed))
		b := Generate(NewSeeded(seed))
		if a != b {
			t.Fatalf("seed %d generated two different programs:\n%s\n---\n%s", seed, a, b)
		}
		if len(a) == 0 {
			t.Fatalf("seed %d generated an empty program", seed)
		}
	}
}

// TestSpectrumCoverage pins the sweep to the full implementation spectrum:
// every scheme, the unchecked and checked software points, and every
// Table 2 hardware row.
func TestSpectrumCoverage(t *testing.T) {
	spec := Spectrum()
	want := 4 * (2 + len(core.Table2Rows))
	if len(spec) != want {
		t.Fatalf("Spectrum has %d configs, want %d", len(spec), want)
	}
	seen := map[string]bool{}
	for _, cfg := range spec {
		if seen[cfg.Key()] {
			t.Fatalf("duplicate config %s", cfg)
		}
		seen[cfg.Key()] = true
	}
}

// TestGeneratedProgramsTerminate runs the interpreter on every program
// TestDifferentialSweep and TestDataflowInvariant generate: each must
// finish within the oracle's default step budget, since a program that
// loops forever compares nothing on any engine.
func TestGeneratedProgramsTerminate(t *testing.T) {
	spec := Spectrum()
	configs := map[uint64]core.Config{}
	for seed := uint64(1); seed <= 240; seed++ {
		configs[seed] = spec[int(seed)%len(spec)]
	}
	for i, cfg := range spec {
		configs[uint64(1000+i)] = cfg
	}
	steps := Options{}.withDefaults().Steps
	for seed, cfg := range configs {
		src := Generate(NewSeeded(seed))
		if r := runOracle(src, steps, tags.New(cfg.Scheme).FixnumBits()); r.diverged {
			t.Errorf("seed %d: the interpreter ran out of steps:\n%s", seed, src)
		}
	}
}

// TestDifferentialSweep is the deterministic tier-1 campaign: 240 generated
// programs, each checked under one spectrum point (rotating so every config
// is exercised six times), plus monotonicity and cache-replay subsets.
// It pins the seeds Check compares less than everything for, and why: 17
// of the 24 that land on an unchecked config (every tenth seed does) error
// or box floats, so the engines are compared with each other but the
// interpreter's verdict does not apply. Every program terminates
// (TestGeneratedProgramsTerminate), so none is censored for looping.
func TestDifferentialSweep(t *testing.T) {
	spec := Spectrum()
	opt := Options{}
	const seeds = 240
	want := map[uint64]string{}
	for _, seed := range []uint64{20, 30, 40, 50, 60, 70, 90, 110, 120, 150, 170, 180, 200, 210, 220, 230, 240} {
		want[seed] = censorUnchecked
	}
	censored := map[uint64]string{}
	for seed := uint64(1); seed <= seeds; seed++ {
		src := Generate(NewSeeded(seed))
		cfg := spec[int(seed)%len(spec)]
		f, why := check(src, cfg, opt)
		if why != "" {
			censored[seed] = why
		}
		if f != nil {
			t.Errorf("seed %d: %v\nprogram:\n%s", seed, f, src)
			if testing.Short() || t.Failed() {
				min := Minimize(src, func(s string) bool {
					g := Check(s, cfg, opt)
					return g != nil && g.Kind == f.Kind
				}, 200)
				t.Fatalf("seed %d minimized reproducer under %s:\n%s", seed, cfg, min)
			}
		}
	}
	if !maps.Equal(censored, want) {
		t.Errorf("censored seeds %v, want %v", censored, want)
	}
}

// TestMonotoneHardware: adding tag hardware never increases total cycles,
// on a rotating subset of seeds across all four schemes.
func TestMonotoneHardware(t *testing.T) {
	schemes := []tags.Kind{tags.High5, tags.High6, tags.Low3, tags.Low2}
	for seed := uint64(3); seed <= 120; seed += 17 {
		src := Generate(NewSeeded(seed))
		scheme := schemes[int(seed)%len(schemes)]
		if f := CheckMonotone(src, scheme, Options{}); f != nil {
			t.Fatalf("seed %d: %v\nprogram:\n%s", seed, f, src)
		}
	}
}

// TestCacheReplay: cached results are bit-identical to fresh simulations.
func TestCacheReplay(t *testing.T) {
	spec := Spectrum()
	for seed := uint64(5); seed <= 100; seed += 31 {
		src := Generate(NewSeeded(seed))
		cfg := spec[int(seed*7)%len(spec)]
		if f := CheckCacheReplay(src, cfg, Options{}); f != nil {
			t.Fatalf("seed %d: %v\nprogram:\n%s", seed, f, src)
		}
	}
}

// TestMinimizeShrinks: the shrinker produces a smaller program that still
// satisfies the predicate, and terminates at a local minimum.
func TestMinimizeShrinks(t *testing.T) {
	// Minimize against a syntactic predicate (keeps any program that still
	// contains a princ call) — independent of the oracle, so this test
	// exercises the shrinker mechanics alone.
	keep := func(s string) bool { return strings.Contains(s, "princ") }
	var src string
	for seed := uint64(1); seed <= 100; seed++ {
		if s := Generate(NewSeeded(seed)); keep(s) {
			src = s
			break
		}
	}
	if src == "" {
		t.Fatal("no seed in 1..100 generated a princ call")
	}
	min := Minimize(src, keep, 500)
	if !keep(min) {
		t.Fatalf("minimized program lost the property:\n%s", min)
	}
	if len(min) > len(src) {
		t.Fatalf("minimized program grew: %d > %d bytes", len(min), len(src))
	}
}

// TestArtifactRoundTrip: write → load → verify, byte-for-byte.
func TestArtifactRoundTrip(t *testing.T) {
	seed := uint64(7)
	src := Generate(NewSeeded(seed))
	a := NewArtifact(seed, src, &Failure{Kind: "value", Config: "high5+check", Detail: "test"})
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
		t.Fatalf("round-tripped artifact fails verification: %v", err)
	}
	if got.Source != src || got.Seed != seed || got.Kind != "value" {
		t.Fatalf("artifact fields corrupted: %+v", got)
	}
	// A tampered source must fail verification.
	got.Source += " "
	if err := got.Verify(); err == nil {
		t.Fatal("tampered artifact passed verification")
	}
}
