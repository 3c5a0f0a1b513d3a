package difftest

import (
	"testing"

	"repro/internal/core"
	"repro/internal/mipsx"
	"repro/internal/tags"
)

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
// generated program. Every seed must be compared except seed 1033, whose
// program never terminates (the interpreter exhausts any step budget and
// the reference engine reaches the cycle limit), so no engine result
// exists to compare.
func TestDataflowInvariant(t *testing.T) {
	const nonterminating = 33
	for i, cfg := range Spectrum() {
		src := Generate(NewSeeded(uint64(1000 + i)))
		if why := censored(src, cfg, Options{}); (why != "") != (i == nonterminating) {
			t.Errorf("config %s, seed %d: censored %q", cfg, 1000+i, why)
		}
		if f := Check(src, cfg, Options{}); f != nil {
			t.Fatalf("config %s: %v\nprogram:\n%s", cfg, f, src)
		}
	}
}

// TestDataflowInvariantMemtag runs the same invariant over the 12-config
// memory-tagging spectrum with torture programs, which actually reach
// the granule-check fault paths: if the optimizer ever elided a granule
// check across a store, the planted violation would complete silently
// on the native engine while the reference engine faults.
func TestDataflowInvariantMemtag(t *testing.T) {
	for i, cfg := range MemtagSpectrum() {
		src, kind := GenerateTorture(NewSeeded(uint64(100+i)), int(cfg.HW.MemtagGranuleBytes()))
		if f := CheckMemtagTorture(src, cfg, tortureOptions); f != nil {
			t.Fatalf("config %s (torture %s): %v\nprogram:\n%s", cfg, kind, f, src)
		}
		// A clean generated program too, so stores that invalidate granule
		// facts on the non-faulting path are exercised under every geometry.
		src = Generate(NewSeeded(uint64(2000 + i)))
		if why := censored(src, cfg, Options{}); why != "" {
			t.Errorf("config %s, seed %d: censored: %s", cfg, 2000+i, why)
		}
		if f := Check(src, cfg, Options{}); f != nil {
			t.Fatalf("config %s: %v\nprogram:\n%s", cfg, f, src)
		}
	}
}

// censored reports why Check would censor src under cfg instead of
// comparing the engines ("" when it compares them): the interpreter does
// not terminate, the compiler rejects the program, or an engine reaches
// the cycle limit. (CheckMemtagTorture censors nothing: a torture run that
// does not fault fails it.)
func censored(src string, cfg core.Config, opt Options) string {
	opt = opt.withDefaults()
	if runOracle(src, opt.Steps, tags.New(cfg.Scheme).FixnumBits()).diverged {
		return "the interpreter did not terminate"
	}
	img, err := buildImage(src, cfg, opt)
	if err != nil {
		return err.Error()
	}
	for _, e := range []mipsx.Engine{mipsx.EngineReference, mipsx.EngineTranslated, mipsx.EngineNative} {
		if runEngine(img, opt.MaxCycles, e).limited {
			return e.String() + " reached the cycle limit"
		}
	}
	return ""
}
