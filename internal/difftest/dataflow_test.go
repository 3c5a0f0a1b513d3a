package difftest

import "testing"

// TestDataflowInvariant drives the superblock-dataflow metamorphic
// invariant across the full 40-config implementation spectrum: every
// scheme×hardware point gets a distinct generated program, and the
// native engine must match the reference engine bit-for-bit — results
// and expanded statistics — with elision on, off, and refusion off.
func TestDataflowInvariant(t *testing.T) {
	spec := Spectrum()
	for i, cfg := range spec {
		src := Generate(NewSeeded(uint64(1000 + i)))
		if f := CheckDataflow(src, cfg, Options{}); f != nil {
			t.Fatalf("config %s: %v\nprogram:\n%s", cfg, f, src)
		}
	}
}

// TestDataflowInvariantMemtag runs the same invariant over the 12-config
// memory-tagging spectrum with torture programs, which actually reach
// the granule-check fault paths: if the optimizer ever elided a granule
// check across a store, the planted violation would complete silently
// under the default setting while the noelide run faults, and the
// bit-identity here would break.
func TestDataflowInvariantMemtag(t *testing.T) {
	for i, cfg := range MemtagSpectrum() {
		src, kind := GenerateTorture(NewSeeded(uint64(100+i)), int(cfg.HW.MemtagGranuleBytes()))
		if f := CheckDataflow(src, cfg, tortureOptions); f != nil {
			t.Fatalf("config %s (torture %s): %v\nprogram:\n%s", cfg, kind, f, src)
		}
		// A clean generated program too, so stores that invalidate granule
		// facts on the non-faulting path are exercised under every geometry.
		src = Generate(NewSeeded(uint64(2000 + i)))
		if f := CheckDataflow(src, cfg, Options{}); f != nil {
			t.Fatalf("config %s: %v\nprogram:\n%s", cfg, f, src)
		}
	}
}
