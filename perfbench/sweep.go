package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/mipsx"
	"repro/internal/programs"
	"repro/internal/rt"
	"repro/internal/sexpr"
)

// sweepConfigs and sweepEngines span the cold-sweep cells with every
// program. The configs cover the high-tag, low-tag and memory-tagging
// dispatch paths; the two engines are the CLI's fast ones.
var (
	sweepConfigs = []string{"high5+check", "low3+check", "high5+check+memtag"}
	sweepEngines = []mipsx.Engine{mipsx.EngineNative, mipsx.EngineTranslated}
)

// sweepPassSeconds is the nominal time of one pass over all cells; a run
// does max(1, seconds/sweepPassSeconds) passes.
const sweepPassSeconds = 5

// maxCycles bounds every simulated run, as core.Runner does.
const maxCycles = 2_000_000_000

type cell struct {
	prog   *programs.Program
	config string
	cfg    core.Config
	engine mipsx.Engine
}

func (c cell) kind() string { return c.prog.Name + "/" + c.config + "/" + c.engine.String() }

// engineAcc accumulates what one engine did over the timed phase.
type engineAcc struct {
	runs, fallbacks, instrs uint64
	opNS, runNS             int64
	transNS, nativeNS       int64
	trans                   mipsx.TransStats
	native                  mipsx.NativeStats
}

type sweep struct {
	cells   []cell // the timed operations, in order: passes over every cell
	perPass int
	// sim is the simulated (cycles, instructions) first seen per
	// (program, config); every later run, on either engine, must match.
	sim      map[string][2]uint64
	acc      map[mipsx.Engine]*engineAcc
	machNS   int64
	machB    float64
	machines int
}

func newSweep(o options) (session, error) {
	var base []cell
	for _, p := range programs.All() {
		for _, name := range sweepConfigs {
			cfg, err := core.ParseConfig(name)
			if err != nil {
				return nil, err
			}
			for _, e := range sweepEngines {
				base = append(base, cell{prog: p, config: name, cfg: cfg, engine: e})
			}
		}
	}
	rng := rand.New(rand.NewSource(o.seed))
	s := &sweep{perPass: len(base), sim: map[string][2]uint64{}, acc: map[mipsx.Engine]*engineAcc{}}
	for pass := 0; pass < max(1, o.seconds/sweepPassSeconds); pass++ {
		for _, i := range rng.Perm(len(base)) {
			s.cells = append(s.cells, base[i])
		}
	}
	for _, e := range sweepEngines {
		s.acc[e] = &engineAcc{}
	}
	return s, nil
}

func (s *sweep) run(tr *tracer) []opRecord {
	return paced(len(s.cells), func(i int) opRecord {
		rec := s.op(int32(i), s.cells[i], tr)
		rec.round = i / s.perPass
		return rec
	})
}

// op is one full cold run of a cell: build, machine, run, decode, check.
func (s *sweep) op(i int32, c cell, tr *tracer) opRecord {
	rec := opRecord{kind: c.kind()}
	start := time.Now()
	root := tr.begin("cold-run", -1, i)
	b := tr.begin("rt.Build", root, i)
	opts := rt.BuildOptions{Scheme: c.cfg.Scheme, HW: c.cfg.HW, Checking: c.cfg.Checking, HeapWords: c.prog.HeapWords}
	if tr != nil {
		opts.Phase = func(name string, d time.Duration) {
			tr.add(buildPhaseSpan[name], b, i, time.Now().Add(-d), d)
		}
	}
	img, err := rt.Build(c.prog.Source, opts)
	tr.end(b)
	if err != nil {
		rec.dur, rec.err = time.Since(start), fmt.Errorf("build: %w", err)
		return rec
	}

	nm := tr.begin("rt.Image.NewMachine", root, i)
	var alloc0 float64
	if tr != nil {
		alloc0 = readRuntime().allocBytes
	}
	machStart := time.Now()
	m := img.NewMachine()
	machDur := time.Since(machStart)
	if tr != nil {
		s.machB += readRuntime().allocBytes - alloc0
	}
	tr.end(nm)
	m.MaxCycles = maxCycles

	re := tr.begin("mipsx.Machine.RunEngine", root, i)
	runStart := time.Now()
	runErr := m.RunEngine(c.engine)
	runDur := time.Since(runStart)
	tr.end(re)
	// The image is fresh, so its JIT counters are this run's alone.
	jt, jn := img.Prog.JITTimes()
	if jt > 0 {
		tr.add("mipsx.translate", re, i, runStart, jt)
	}
	if jn > 0 {
		tr.add("mipsx.native_compile", re, i, runStart, jn)
	}
	if tr != nil {
		tr.count(re, map[string]uint64{
			"cycles": m.Stats.Cycles, "instrs": m.Stats.Instrs,
			"trans_steps": m.Trans.Steps, "trans_fused_steps": m.Trans.FusedSteps,
			"trans_block_runs": m.Trans.BlockRuns, "trans_chain_hits": m.Trans.ChainHits,
			"native_steps": m.Native.Steps, "native_sb_runs": m.Native.SBRuns,
			"native_sb_side_exits": m.Native.SBSideExits, "native_elided_checks": m.Native.ElidedChecks,
			"fallbacks": m.Trans.Fallbacks + m.Native.Fallbacks,
		})
	}

	d := tr.begin("rt.Image.DecodeItem", root, i)
	value := sexpr.String(img.DecodeItem(m.Mem, m.Regs[mipsx.RRet]))
	tr.end(d)
	rec.dur = time.Since(start)
	tr.end(root)

	a := s.acc[c.engine]
	a.runs++
	a.instrs += m.Stats.Instrs
	a.opNS += rec.dur.Nanoseconds()
	a.runNS += runDur.Nanoseconds()
	a.transNS += jt.Nanoseconds()
	a.nativeNS += jn.Nanoseconds()
	a.trans.Accumulate(&m.Trans)
	a.native.Accumulate(&m.Native)
	if m.Trans.Fallbacks+m.Native.Fallbacks > 0 {
		a.fallbacks++
	}
	s.machNS += machDur.Nanoseconds()
	s.machines++

	key := c.prog.Name + "/" + c.config
	got := [2]uint64{m.Stats.Cycles, m.Stats.Instrs}
	switch want, seen := s.sim[key]; {
	case runErr != nil:
		rec.err = fmt.Errorf("run: %w", runErr)
	case m.Stats.ErrorCode != 0:
		rec.err = fmt.Errorf("runtime error %s", mipsx.ErrorCodeName(m.Stats.ErrorCode))
	case value != c.prog.Expected:
		rec.err = fmt.Errorf("result %s, want %s", value, c.prog.Expected)
	case seen && got != want:
		rec.err = fmt.Errorf("simulated (cycles, instrs) %v, earlier run of %s gave %v", got, key, want)
	case !seen:
		s.sim[key] = got
	}
	return rec
}

// buildPhaseSpan names the rt.BuildOptions.Phase callbacks after the layer
// that does the work.
var buildPhaseSpan = map[string]string{"parse": "sexpr.parse", "compile": "lispc.compile"}

func (s *sweep) layers(tr *tracer, _ float64, m map[string]float64) error {
	sum := tr.summary()
	m["sexpr.parse_ms"] = sum["sexpr.parse"].meanMS()
	m["lispc.compile_ms"] = sum["lispc.compile"].meanMS()
	m["rt.build_ms"] = sum["rt.Build"].meanMS()
	m["rt.new_machine_ms"] = ratio(float64(s.machNS)/1e6, float64(s.machines))
	m["rt.new_machine_mb"] = ratio(s.machB/1e6, float64(s.machines))

	var all engineAcc
	for _, a := range s.acc {
		all.runs += a.runs
		all.fallbacks += a.fallbacks
		all.instrs += a.instrs
		all.runNS += a.runNS
		all.transNS += a.transNS
		all.nativeNS += a.nativeNS
	}
	execRate := func(a *engineAcc) float64 {
		return ratio(float64(a.instrs)/1e6, float64(a.runNS-a.transNS-a.nativeNS)/1e9)
	}
	nat, trn := s.acc[mipsx.EngineNative], s.acc[mipsx.EngineTranslated]
	m["mipsx.translate_ms"] = ratio(float64(all.transNS)/1e6, float64(all.runs))
	m["mipsx.native_compile_ms"] = ratio(float64(all.nativeNS)/1e6, float64(all.runs))
	m["mipsx.exec_minstr_per_s"] = execRate(&all)
	m["mipsx.native.exec_minstr_per_s"] = execRate(nat)
	m["mipsx.translated.exec_minstr_per_s"] = execRate(trn)
	m["native_minstr_per_s"] = ratio(float64(nat.instrs)/1e6, float64(nat.opNS)/1e9)
	m["translated_minstr_per_s"] = ratio(float64(trn.instrs)/1e6, float64(trn.opNS)/1e9)
	m["mipsx.native.steps_per_kinstr"] = ratio(float64(nat.native.Steps), float64(nat.instrs)/1e3)
	m["mipsx.native.sb_exit_frac"] = ratio(float64(nat.native.SBSideExits), float64(nat.native.SBRuns+nat.native.SBSideExits))
	m["mipsx.native.elided_checks_per_kinstr"] = ratio(float64(nat.native.ElidedChecks), float64(nat.instrs)/1e3)
	m["mipsx.translated.fused_frac"] = ratio(float64(trn.trans.FusedSteps), float64(trn.trans.Steps))
	m["mipsx.translated.chain_hit_frac"] = ratio(float64(trn.trans.ChainHits), float64(trn.trans.BlockRuns))
	m["mipsx.fallback_frac"] = ratio(float64(all.fallbacks), float64(all.runs))
	m["mipsx.sim_minstr"] = float64(all.instrs) / 1e6
	return nil
}

func (s *sweep) clients() int { return 1 }

func (s *sweep) close() error { return nil }
