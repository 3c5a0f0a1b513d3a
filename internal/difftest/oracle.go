package difftest

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/mipsx"
	"repro/internal/programs"
	"repro/internal/rt"
	"repro/internal/sexpr"
	"repro/internal/tags"
)

// Options bounds one differential check.
type Options struct {
	// MaxCycles bounds each machine run (default 50M).
	MaxCycles uint64
	// Steps bounds the interpreter (default 500K evaluation steps). The
	// default ratio to MaxCycles is deliberately extreme: a program the
	// interpreter finishes within its budget must be far inside the
	// machine's cycle budget, so hitting the cycle limit anyway is
	// reported as a divergence rather than censored.
	Steps int
	// HeapWords sizes each semispace (default 64K words — generated
	// programs allocate little, and small heaps keep the word-by-word
	// memory comparison between engines cheap).
	HeapWords int
}

func (o Options) withDefaults() Options {
	if o.MaxCycles == 0 {
		o.MaxCycles = 50_000_000
	}
	if o.Steps == 0 {
		o.Steps = 500_000
	}
	if o.HeapWords == 0 {
		o.HeapWords = 1 << 16
	}
	return o
}

// Failure is one divergence found by the oracle. Kind partitions failures
// for the shrinker, which only accepts reductions that preserve the kind
// and config of the original failure.
type Failure struct {
	Kind   string // oracle | build | error | value | output | engine | invariant | monotone | cache
	Config string
	Detail string
}

func (f *Failure) Error() string {
	return fmt.Sprintf("difftest %s failure under %s: %s", f.Kind, f.Config, f.Detail)
}

// Spectrum returns the configurations the harness sweeps: for each tag
// scheme, the unchecked and checked software-only points plus every Table 2
// hardware row under checking — the full implementation spectrum of the
// paper (4 schemes × 10 points = 40 configurations).
func Spectrum() []core.Config {
	var out []core.Config
	for _, k := range []tags.Kind{tags.High5, tags.High6, tags.Low3, tags.Low2} {
		out = append(out,
			core.Config{Scheme: k, Checking: false},
			core.Config{Scheme: k, Checking: true})
		for _, row := range core.Table2Rows {
			out = append(out, core.Config{Scheme: k, HW: row.HW, Checking: true})
		}
	}
	return out
}

// oracleRun is the interpreter's verdict on a program.
type oracleRun struct {
	value    string // rendered final value, "" on error
	output   string
	errc     int  // Lisp error code, 0 if none
	floats   bool // evaluation boxed a float somewhere
	diverged bool // the step budget ran out — the program (probably) loops
	err      error
}

func runOracle(src string, steps, fixnumBits int) oracleRun {
	ip := interp.New()
	ip.Steps = steps
	ip.FixnumBits = fixnumBits
	v, err := ip.Run(src)
	r := oracleRun{output: ip.Out.String(), floats: ip.Floats, err: err}
	if err != nil {
		if le, ok := err.(*interp.Err); ok {
			r.errc = le.Code
		}
		r.diverged = strings.Contains(err.Error(), "step budget")
		return r
	}
	r.value = interp.String(v)
	return r
}

func buildImage(src string, cfg core.Config, opt Options) (*rt.Image, error) {
	return rt.Build(src, rt.BuildOptions{
		Scheme: cfg.Scheme, HW: cfg.HW, Checking: cfg.Checking,
		HeapWords: opt.HeapWords,
	})
}

// machineRun is one engine's outcome.
type machineRun struct {
	m       *mipsx.Machine
	value   string
	errc    int32
	limited bool // the run was cut off by the cycle limit
	err     error
}

func runEngine(img *rt.Image, maxCycles uint64, engine mipsx.Engine) machineRun {
	m := img.NewMachine()
	m.MaxCycles = maxCycles
	err := m.RunEngine(engine)
	r := machineRun{m: m, err: err}
	if re, ok := err.(*mipsx.RuntimeError); ok {
		r.errc = re.Code
	}
	if err != nil {
		r.limited = strings.Contains(err.Error(), "cycle limit")
	}
	if err == nil {
		r.value = sexpr.String(img.DecodeItem(m.Mem, m.Regs[mipsx.RRet]))
	}
	return r
}

// Check runs src through the interpreter and through compiled code on all
// three simulator engines under cfg, and returns the first divergence
// found, or nil. The properties asserted:
//
//   - the translated and native engines agree with the reference engine
//     on every architectural outcome: statistics, registers, PC, output
//     bytes, and final memory;
//   - all three satisfy the Stats accounting invariants;
//   - the machine result equals the interpreter's: same rendered value and
//     same printed output, or the same Lisp error code when checking is
//     compiled in. Under Checking=false the compiled fast paths assume
//     fixnum operands, so a run that errors or touches floats is undefined
//     behavior there: the engines still have to agree with each other, but
//     the interpreter's verdict is not compared.
func Check(src string, cfg core.Config, opt Options) *Failure {
	f, _ := check(src, cfg, opt)
	return f
}

// Why check compared less than Check's full list of properties.
const (
	censorNonterminating = "the interpreter did not terminate"
	censorStaticLimit    = "past the compiler's static limits"
	censorCycleLimit     = "an unchecked run that errs or boxes floats reached the cycle limit"
	censorUnchecked      = "an unchecked run that errs or boxes floats: engines compared, interpreter verdict not"
)

// check is Check that also says why it returned nil without comparing
// everything: "" when it compared every property, one of the censor*
// reasons otherwise. Only censorUnchecked still compares the engines.
func check(src string, cfg core.Config, opt Options) (*Failure, string) {
	opt = opt.withDefaults()
	want := runOracle(src, opt.Steps, tags.New(cfg.Scheme).FixnumBits())
	if want.diverged {
		// The program (very probably) loops forever. Nothing after a
		// censored run is comparable — even the two engines check the
		// cycle limit at different granularities.
		return nil, censorNonterminating
	}
	if want.err != nil && want.errc == 0 {
		// Not a Lisp-level error: unreadable or unsupported program. The
		// generator never produces these; arbitrary fuzz inputs are
		// rejected here.
		return &Failure{Kind: "oracle", Config: cfg.String(),
			Detail: fmt.Sprintf("interpreter rejected the program: %v", want.err)}, ""
	}

	img, err := buildImage(src, cfg, opt)
	if err != nil {
		// The compiler's static limits are narrower than the
		// interpreter's semantics in two known ways; programs past them
		// are out of scope, not divergences.
		if strings.Contains(err.Error(), "out of fixnum range") ||
			strings.Contains(err.Error(), "too many parameters") {
			return nil, censorStaticLimit
		}
		return &Failure{Kind: "build", Config: cfg.String(),
			Detail: fmt.Sprintf("interpreter accepted but compiler rejected: %v", err)}, ""
	}

	ref := runEngine(img, opt.MaxCycles, mipsx.EngineReference)
	trans := runEngine(img, opt.MaxCycles, mipsx.EngineTranslated)
	native := runEngine(img, opt.MaxCycles, mipsx.EngineNative)
	if ref.limited || trans.limited || native.limited {
		// The oracle terminated within its budget, so a machine run that
		// exhausts 50M cycles is an interp/machine divergence only if the
		// interpreter's verdict applies at all under this configuration.
		// (Any engine hitting the limit censors the whole comparison: the
		// engines enforce the limit at different granularities.)
		if !cfg.Checking && (want.errc != 0 || want.floats) {
			return nil, censorCycleLimit
		}
		return &Failure{Kind: "error", Config: cfg.String(),
			Detail: fmt.Sprintf("interpreter terminated, machine exceeded the cycle limit: %v", trans.err)}, ""
	}
	if f := compareEngines("translated", &trans, &ref, cfg); f != nil {
		return f, ""
	}
	if f := compareEngines("native", &native, &ref, cfg); f != nil {
		return f, ""
	}
	for _, r := range []*machineRun{&ref, &trans, &native} {
		if err := r.m.Stats.CheckInvariants(); err != nil {
			return &Failure{Kind: "invariant", Config: cfg.String(), Detail: err.Error()}, ""
		}
	}

	if !cfg.Checking && (want.errc != 0 || want.floats) {
		return nil, censorUnchecked // undefined behavior without checking; engines still had to agree
	}
	if want.errc != 0 {
		if trans.errc != int32(want.errc) {
			return &Failure{Kind: "error", Config: cfg.String(),
				Detail: fmt.Sprintf("interpreter error %d (%s), machine %v",
					want.errc, mipsx.ErrorCodeName(int32(want.errc)), trans.err)}, ""
		}
		return nil, ""
	}
	if trans.err != nil {
		return &Failure{Kind: "error", Config: cfg.String(),
			Detail: fmt.Sprintf("interpreter succeeded, machine failed: %v", trans.err)}, ""
	}
	if trans.m.Output.String() != want.output {
		return &Failure{Kind: "output", Config: cfg.String(),
			Detail: fmt.Sprintf("machine printed %q, interpreter %q",
				trans.m.Output.String(), want.output)}, ""
	}
	// The image decoder truncates beyond depth 64 ("..."); generated
	// programs stay far below it, but arbitrary fuzz inputs may not, and a
	// truncated rendering cannot be compared.
	if trans.value != want.value && !strings.Contains(trans.value, "...") {
		return &Failure{Kind: "value", Config: cfg.String(),
			Detail: fmt.Sprintf("machine value %s, interpreter %s", trans.value, want.value)}, ""
	}
	return nil, ""
}

// compareEngines asserts bit-identical architectural outcomes between one
// engine (named for diagnostics) and the reference engine.
func compareEngines(name string, got, ref *machineRun, cfg core.Config) *Failure {
	fail := func(format string, args ...any) *Failure {
		return &Failure{Kind: "engine", Config: cfg.String(),
			Detail: fmt.Sprintf(format, args...)}
	}
	if (got.err == nil) != (ref.err == nil) ||
		(got.err != nil && got.err.Error() != ref.err.Error()) {
		return fail("%s error %v, reference error %v", name, got.err, ref.err)
	}
	if got.m.Stats != ref.m.Stats {
		return fail("stats diverge: %s %+v, reference %+v", name, got.m.Stats, ref.m.Stats)
	}
	if got.m.Regs != ref.m.Regs {
		return fail("registers diverge: %s %v, reference %v", name, got.m.Regs, ref.m.Regs)
	}
	if got.m.PC != ref.m.PC {
		return fail("PC diverges: %s %d, reference %d", name, got.m.PC, ref.m.PC)
	}
	if got.m.Output.String() != ref.m.Output.String() {
		return fail("output diverges: %s %q, reference %q",
			name, got.m.Output.String(), ref.m.Output.String())
	}
	for i := range got.m.Mem {
		if got.m.Mem[i] != ref.m.Mem[i] {
			return fail("memory diverges at word %#x: %s %#x, reference %#x",
				i*4, name, got.m.Mem[i], ref.m.Mem[i])
		}
	}
	return nil
}

// CheckMonotone asserts the paper's core metamorphic property: adding tag
// hardware to a checked configuration never increases total cycles. It runs
// src under scheme+checking with no hardware, then under every Table 2 row.
// A program that raises a Lisp error still runs a deterministic instruction
// stream up to the error, so erroring runs are compared too; a run cut off
// by the cycle limit censors the whole comparison.
func CheckMonotone(src string, scheme tags.Kind, opt Options) *Failure {
	opt = opt.withDefaults()
	base := core.Config{Scheme: scheme, Checking: true}
	baseRun, f := checkedRun(src, base, opt)
	if f != nil || baseRun == nil {
		return f
	}
	for _, row := range core.Table2Rows {
		cfg := core.Config{Scheme: scheme, HW: row.HW, Checking: true}
		hwRun, f := checkedRun(src, cfg, opt)
		if f != nil {
			return f
		}
		if hwRun == nil {
			continue
		}
		if hwRun.m.Stats.Traps > 0 {
			// Trap-based hardware pays a fixed entry/return penalty per
			// trap; on programs whose dynamic mix leans on the trapped
			// slow paths (floats, mostly) that penalty can exceed the
			// saved test cycles, so the monotone claim only holds for
			// trap-free runs.
			continue
		}
		if hwRun.m.Stats.Cycles > baseRun.m.Stats.Cycles {
			return &Failure{Kind: "monotone", Config: cfg.String(),
				Detail: fmt.Sprintf("row %s (%s): %d cycles > software-only %d",
					row.ID, row.Label, hwRun.m.Stats.Cycles, baseRun.m.Stats.Cycles)}
		}
	}
	return nil
}

// checkedRun builds and runs src under cfg on the translated engine (the
// production default). A nil run with a nil failure means the result is
// censored (cycle limit).
func checkedRun(src string, cfg core.Config, opt Options) (*machineRun, *Failure) {
	img, err := buildImage(src, cfg, opt)
	if err != nil {
		return nil, &Failure{Kind: "build", Config: cfg.String(), Detail: err.Error()}
	}
	r := runEngine(img, opt.MaxCycles, mipsx.EngineTranslated)
	if r.limited {
		return nil, nil
	}
	if r.err != nil && r.errc == 0 {
		return nil, &Failure{Kind: "error", Config: cfg.String(),
			Detail: fmt.Sprintf("run failed: %v", r.err)}
	}
	return &r, nil
}

// CheckCacheReplay asserts that a cache-served result is bit-identical to a
// fresh simulation: one runner runs the program twice (miss, then hit) and
// an independent runner recomputes it; all three results must agree on
// statistics, value and output, and the hit must not have re-run.
func CheckCacheReplay(src string, cfg core.Config, opt Options) *Failure {
	opt = opt.withDefaults()
	p := &programs.Program{Name: "difftest-gen", Source: src, HeapWords: opt.HeapWords}
	fail := func(format string, args ...any) *Failure {
		return &Failure{Kind: "cache", Config: cfg.String(),
			Detail: fmt.Sprintf(format, args...)}
	}

	warm := core.NewRunner()
	warm.MaxCycles = opt.MaxCycles
	first, err := warm.Run(p, cfg)
	if err != nil {
		// Nothing was cached, so there is nothing to replay. Whether the
		// failure itself is legitimate is Check's question, not ours —
		// under Checking=false a float-touching program may well fault.
		return nil
	}
	replay, err := warm.Run(p, cfg)
	if err != nil {
		return fail("replay run failed: %v", err)
	}
	if hits := warm.Metrics.Snapshot().Counters["run_cache_hits_total"]; hits != 1 {
		return fail("second run recorded %d cache hits, want 1", hits)
	}

	independent := core.NewRunner()
	independent.MaxCycles = opt.MaxCycles
	recomputed, err := independent.Run(p, cfg)
	if err != nil {
		return fail("independent run failed: %v", err)
	}
	for _, pair := range []struct {
		name string
		got  *core.Result
	}{{"cache replay", replay}, {"independent recompute", recomputed}} {
		if pair.got.Stats != first.Stats {
			return fail("%s stats diverge: %+v vs %+v", pair.name, pair.got.Stats, first.Stats)
		}
		if pair.got.Value != first.Value {
			return fail("%s value %s, want %s", pair.name, pair.got.Value, first.Value)
		}
		if pair.got.Output != first.Output {
			return fail("%s output %q, want %q", pair.name, pair.got.Output, first.Output)
		}
	}
	return nil
}
