package difftest

import "testing"

// The superblock dataflow pass (tag-check elision and fusion of the
// surviving steps) must be architecturally invisible: a native run must
// be bit-identical to the reference engine in results AND in the full
// expanded statistics, since elided checks are re-charged at exit sites
// (cycles, CatCheck attribution). Check and CheckMemtagTorture compare
// every engine with the reference word for word, memory included. The
// memory-tagging half is the soundness fence for the optimizer:
// granule-check facts are invalidated by any store, and a torture
// program's planted violation must fault identically on every engine.

// TestDataflowInvariant drives the invariant across the full 40-config
// implementation spectrum: every scheme×hardware point gets a distinct
// generated program. Every seed's engines must be compared; seeds 1020
// and 1030 run unchecked configs and error or box floats, so only the
// interpreter's verdict is skipped.
func TestDataflowInvariant(t *testing.T) {
	want := map[uint64]string{1020: censorUnchecked, 1030: censorUnchecked}
	for i, cfg := range Spectrum() {
		seed := uint64(1000 + i)
		src := Generate(NewSeeded(seed))
		f, why := check(src, cfg, Options{})
		if why != want[seed] {
			t.Errorf("config %s, seed %d: censored %q, want %q", cfg, seed, why, want[seed])
		}
		if f != nil {
			t.Fatalf("config %s: %v\nprogram:\n%s", cfg, f, src)
		}
	}
}

// TestDataflowInvariantMemtag runs the same invariant over the 12-config
// memory-tagging spectrum with torture programs, which actually reach
// the granule-check fault paths: if the optimizer ever elided a granule
// check across a store, the planted violation would complete silently
// on the native engine while the reference engine faults. (A torture run
// that does not fault fails CheckMemtagTorture, so it censors nothing.)
func TestDataflowInvariantMemtag(t *testing.T) {
	for i, cfg := range MemtagSpectrum() {
		src, kind := GenerateTorture(NewSeeded(uint64(100+i)), int(cfg.HW.MemtagGranuleBytes()))
		if f := CheckMemtagTorture(src, cfg, tortureOptions); f != nil {
			t.Fatalf("config %s (torture %s): %v\nprogram:\n%s", cfg, kind, f, src)
		}
		// A clean generated program too, so stores that invalidate granule
		// facts on the non-faulting path are exercised under every geometry.
		// Its engines must be compared; a run that errs or boxes floats
		// under an unchecked config skips only the interpreter's verdict
		// (nine of the twelve seeds here).
		seed := uint64(2000 + i)
		src = Generate(NewSeeded(seed))
		f, why := check(src, cfg, Options{})
		if why != "" && why != censorUnchecked {
			t.Errorf("config %s, seed %d: censored: %s", cfg, seed, why)
		}
		if f != nil {
			t.Fatalf("config %s: %v\nprogram:\n%s", cfg, f, src)
		}
	}
}
