package difftest

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/mipsx"
	"repro/internal/programs"
	"repro/internal/rt"
	"repro/internal/sexpr"
	"repro/internal/tags"
)

// This file is the memory-safety analogue of the differential harness: a
// seeded generator of torture programs that are memory-unsafe by
// construction (use-after-free, out-of-granule forging, reads past the
// allocation frontier), and a two-sided oracle over the memory-tagging
// configurations. The always-fire side demands that every torture program
// raises a memtag fault — identically on all three engines; the never-fire
// side demands that the ten benchmark programs run to their expected
// values with zero faults. A tagging design that misses torture programs
// is unsound; one that fires on clean programs is unusable. Both
// directions are asserted in CI (`make memtag-smoke`).

// MemtagSpectrum returns the memory-tagging configurations the safety
// oracle sweeps: every scheme under the software-check and
// hardware-check variants at default geometry, plus non-default granule
// sizes and color widths on the baseline scheme. All points keep at
// least two live colors (the out-of-granule kind is undetectable with a
// 1-bit color field, where every allocated granule is color 1).
func MemtagSpectrum() []core.Config {
	var out []core.Config
	for _, k := range []tags.Kind{tags.High5, tags.High6, tags.Low3, tags.Low2} {
		out = append(out,
			core.Config{Scheme: k, HW: tags.HW{Memtag: true}},
			core.Config{Scheme: k, HW: tags.HW{Memtag: true, MemtagHW: true}})
	}
	out = append(out,
		core.Config{Scheme: tags.High5, HW: tags.HW{Memtag: true, MemtagGranule: 4}},
		core.Config{Scheme: tags.High5, HW: tags.HW{Memtag: true, MemtagHW: true, MemtagGranule: 4}},
		core.Config{Scheme: tags.High5, HW: tags.HW{Memtag: true, MemtagBits: 2}},
		core.Config{Scheme: tags.High5, HW: tags.HW{Memtag: true, MemtagHW: true, MemtagGranule: 5, MemtagBits: 2}})
	return out
}

// TortureKinds are the planted-violation shapes the generator produces.
var TortureKinds = []string{"uaf", "offgranule", "pastextent"}

// GenerateTorture builds one memory-unsafe program from r's decision
// stream. granuleBytes must match the configuration under test: the
// out-of-granule kind forges a pointer whose access crosses exactly one
// granule boundary, which is a different byte offset under different
// geometries. The seed fully determines the program (given granuleBytes),
// so torture failures are reproducible from (seed, config) alone.
func GenerateTorture(r *Rand, granuleBytes int) (src, kind string) {
	kind = TortureKinds[r.Intn(len(TortureKinds))]
	return GenerateTortureKind(r, granuleBytes, kind), kind
}

// GenerateTortureKind builds one torture program of a fixed kind. Every
// program allocates a victim pair p among random filler allocations and
// then performs exactly one access that must violate the granule
// discipline:
//
//   - uaf: p's raw address is captured, a collection evacuates and
//     poisons the semispace, and the stale address is dereferenced;
//   - offgranule: a pointer is forged at the top of p's granule, so the
//     cdr access lands in the neighboring allocation's granule and the
//     colors disagree;
//   - pastextent: an address far past the allocation frontier, where no
//     granule was ever colored, is dereferenced.
func GenerateTortureKind(r *Rand, granuleBytes int, kind string) string {
	var b strings.Builder
	b.WriteString("(let* (")
	for i, n := 0, r.Intn(4); i < n; i++ {
		fmt.Fprintf(&b, "(f%d (cons %d %d)) ", i, r.Intn(100), r.Intn(100))
	}
	fmt.Fprintf(&b, "(p (cons %d %d))", r.Intn(100), r.Intn(100))
	access := pick(r, []string{"car", "cdr"})
	switch kind {
	case "uaf":
		b.WriteString(" (a (%untag p)))\n")
		if r.Intn(2) == 0 {
			// Live data forces the collector to copy (and recolor) work.
			fmt.Fprintf(&b, "  (princ (+ (car p) %d))\n", r.Intn(50))
		}
		b.WriteString("  (%gc)\n")
		fmt.Fprintf(&b, "  (%s (%%mkptr pair a)))\n", access)
	case "offgranule":
		// q is the allocation in the granule right after p's; the forged
		// base sits at the top of p's granule, so base and accessed
		// granule colors differ. Only cdr crosses the boundary.
		fmt.Fprintf(&b, " (q (cons %d %d)))\n", r.Intn(100), r.Intn(100))
		fmt.Fprintf(&b, "  (cdr (%%mkptr pair (%%+ (%%untag p) (%%i %d)))))\n", granuleBytes-4)
	case "pastextent":
		off := 2048 + 4*r.Intn(2048)
		fmt.Fprintf(&b, ")\n  (%s (%%mkptr pair (%%+ (%%untag p) (%%i %d)))))\n", access, off)
	default:
		panic("unknown torture kind " + kind)
	}
	return b.String()
}

// CheckMemtagTorture is the always-fire direction: src (a torture
// program) must raise a memtag fault under cfg, bit-identically on all
// three engines. Any engine finishing the run, failing differently, or
// disagreeing with the reference engine is a Failure.
func CheckMemtagTorture(src string, cfg core.Config, opt Options) *Failure {
	opt = opt.withDefaults()
	img, err := buildImage(src, cfg, opt)
	if err != nil {
		return &Failure{Kind: "build", Config: cfg.String(),
			Detail: fmt.Sprintf("torture program rejected: %v", err)}
	}
	ref := runEngine(img, opt.MaxCycles, mipsx.EngineReference)
	trans := runEngine(img, opt.MaxCycles, mipsx.EngineTranslated)
	native := runEngine(img, opt.MaxCycles, mipsx.EngineNative)
	if f := compareEngines("translated", &trans, &ref, cfg); f != nil {
		return f
	}
	if f := compareEngines("native", &native, &ref, cfg); f != nil {
		return f
	}
	for _, r := range []*machineRun{&ref, &trans, &native} {
		if err := r.m.Stats.CheckInvariants(); err != nil {
			return &Failure{Kind: "invariant", Config: cfg.String(), Detail: err.Error()}
		}
	}
	if ref.errc != mipsx.ErrMemtagFault {
		return &Failure{Kind: "memtag-miss", Config: cfg.String(),
			Detail: fmt.Sprintf("torture program was not caught: err=%v value=%s", ref.err, ref.value)}
	}
	return nil
}

// CheckMemtagClean is the never-fire direction: benchmark program p must
// run to its expected value under cfg — a memtag fault on a well-behaved
// program is a false positive in the coloring discipline (allocator,
// collector recoloring, or check emission).
func CheckMemtagClean(p *programs.Program, cfg core.Config, opt Options) *Failure {
	opt = opt.withDefaults()
	// Granule padding rounds every allocation up to the granule size, so a
	// heap sized for the untagged 8-byte-pair layout is scaled
	// proportionally — otherwise plain heap exhaustion under coarse
	// granules would masquerade as a safety-oracle failure.
	heap := p.HeapWords
	if heap == 0 {
		heap = 512 << 10 // rt.Build's default semispace size
	}
	if gb := int(cfg.HW.MemtagGranuleBytes()); cfg.HW.Normalized().Memtag && gb > 8 {
		heap = heap * gb / 8
	}
	img, err := rt.Build(p.Source, rt.BuildOptions{
		Scheme: cfg.Scheme, HW: cfg.HW, Checking: cfg.Checking,
		HeapWords: heap,
	})
	if err != nil {
		return &Failure{Kind: "build", Config: cfg.String(),
			Detail: fmt.Sprintf("%s: %v", p.Name, err)}
	}
	m := img.NewMachine()
	m.MaxCycles = opt.MaxCycles
	if err := m.Run(); err != nil {
		return &Failure{Kind: "memtag-fire", Config: cfg.String(),
			Detail: fmt.Sprintf("%s: clean program failed: %v", p.Name, err)}
	}
	value := sexpr.String(img.DecodeItem(m.Mem, m.Regs[mipsx.RRet]))
	if p.Expected != "" && value != p.Expected {
		return &Failure{Kind: "value", Config: cfg.String(),
			Detail: fmt.Sprintf("%s: value %s, want %s", p.Name, value, p.Expected)}
	}
	return nil
}
