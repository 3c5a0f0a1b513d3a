package difftest

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/mipsx"
)

// The superblock-dataflow metamorphic invariant: the native engine's
// dataflow passes — tag-check elision and cross-element refusion — must
// be architecturally invisible.
// Turning any of them off changes only host-side dispatch, so a native
// run under every SBOpt setting must be bit-identical to the reference
// engine in results AND in the full expanded statistics: elided checks
// are re-charged at exit sites (cycles, CatCheck attribution), and this
// check is what pins that expansion to reference-exact. It is also the
// memory-tagging soundness fence for the optimizer: granule-check facts
// are invalidated by any store, and a torture program run through this
// check must raise its memtag fault identically with elision on and off.

// sbVariants are the optimizer settings the invariant sweeps. The
// default setting (everything on) is included so the invariant subsumes
// plain native-vs-reference equivalence on its programs.
var sbVariants = []struct {
	name string
	opt  mipsx.SBOpt
}{
	{"default", mipsx.SBOpt{}},
	{"noelide", mipsx.SBOpt{NoElide: true}},
	{"noelide+norefuse", mipsx.SBOpt{NoElide: true, NoRefuse: true}},
}

// CheckDataflow builds a fresh image per SBOpt variant (superblock
// formation caches live in the Program, so a shared image would let the
// first variant's streams serve the rest), runs the native engine under
// each, and compares every run bit-for-bit against one reference-engine
// run: statistics, registers, PC, output bytes, and final memory. The
// global SBOpt knob is restored on return.
func CheckDataflow(src string, cfg core.Config, opt Options) *Failure {
	opt = opt.withDefaults()
	prev := mipsx.CurSBOpt()
	defer mipsx.SetSBOpt(prev)

	mipsx.SetSBOpt(mipsx.SBOpt{})
	img, err := buildImage(src, cfg, opt)
	if err != nil {
		return &Failure{Kind: "build", Config: cfg.String(),
			Detail: fmt.Sprintf("compiler rejected the program: %v", err)}
	}
	ref := runEngine(img, opt.MaxCycles, mipsx.EngineReference)
	if ref.limited {
		return nil // censored: the engines check the limit at different grains
	}

	for _, v := range sbVariants {
		mipsx.SetSBOpt(v.opt)
		vimg, err := buildImage(src, cfg, opt)
		if err != nil {
			return &Failure{Kind: "build", Config: cfg.String(),
				Detail: fmt.Sprintf("rebuild under sbopt=%s failed: %v", v.name, err)}
		}
		native := runEngine(vimg, opt.MaxCycles, mipsx.EngineNative)
		if native.limited {
			return &Failure{Kind: "engine", Config: cfg.String(),
				Detail: fmt.Sprintf("native(%s) hit the cycle limit, reference terminated", v.name)}
		}
		if f := compareEngines("native("+v.name+")", &native, &ref, cfg); f != nil {
			return f
		}
		if err := native.m.Stats.CheckInvariants(); err != nil {
			return &Failure{Kind: "invariant", Config: cfg.String(),
				Detail: fmt.Sprintf("native(%s): %v", v.name, err)}
		}
	}
	return nil
}
