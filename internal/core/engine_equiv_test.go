package core

import (
	"context"
	"errors"
	"slices"
	"sync"
	"testing"

	"repro/internal/mipsx"
	"repro/internal/programs"
	"repro/internal/rt"
	"repro/internal/sexpr"
	"repro/internal/tags"
)

// TestEngineEquivalence is the differential harness for the optimized
// execution engines: every program under the baseline configurations and
// every Table 2 hardware row runs on the translated engine, the native
// engine (translated plus superblocks), and the single-step reference path, and
// everything observable — statistics, registers, memory, output, and the
// decoded result — must be identical across all three. An engine is
// only a valid optimization if it does not change a single reproduced
// number.
func TestEngineEquivalence(t *testing.T) {
	configs := []Config{Baseline(true), Baseline(false)}
	for _, row := range Table2Rows {
		configs = append(configs, Config{Scheme: tags.High5, HW: row.HW, Checking: true})
	}
	// Memory tagging exercises new instruction paths (software check
	// sequences, LDM/STM, the coloring allocator and recoloring collector),
	// so both variants must hold the same bit-identity bar.
	configs = append(configs,
		Config{Scheme: tags.High5, HW: tags.HW{Memtag: true}},
		Config{Scheme: tags.High5, HW: tags.HW{Memtag: true, MemtagHW: true}},
		Config{Scheme: tags.Low3, HW: tags.HW{Memtag: true}, Checking: true},
		Config{Scheme: tags.Low3, HW: tags.HW{Memtag: true, MemtagHW: true, MemtagGranule: 4, MemtagBits: 2}})
	if testing.Short() {
		configs = []Config{Baseline(true),
			{Scheme: tags.High5, HW: Table2Rows[6].HW, Checking: true},
			{Scheme: tags.High5, HW: tags.HW{Memtag: true}},
			{Scheme: tags.High5, HW: tags.HW{Memtag: true, MemtagHW: true}}}
	}

	for _, p := range programs.All() {
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			for _, cfg := range configs {
				t.Run(cfg.String(), func(t *testing.T) {
					t.Parallel()
					equivalenceCell(t, p, cfg)
				})
			}
		})
	}
}

// equivalenceCell runs one (program, config) cell of
// TestEngineEquivalence.
func equivalenceCell(t *testing.T, p *programs.Program, cfg Config) {
	cell := sharedCell(t, p, cfg)
	img := cell.img

	ref := img.NewMachine()
	ref.MaxCycles = 2_000_000_000
	if err := ref.RunReference(); err != nil {
		t.Fatalf("%s: reference run: %v", cfg, err)
	}
	refValue := sexpr.String(img.DecodeItem(ref.Mem, ref.Regs[mipsx.RRet]))
	if p.Expected != "" && refValue != p.Expected {
		t.Errorf("%s: result %s, want %s", cfg, refValue, p.Expected)
	}

	for _, engine := range []mipsx.Engine{mipsx.EngineTranslated, mipsx.EngineNative} {
		m := img.NewMachine()
		m.MaxCycles = 2_000_000_000
		if err := m.RunEngine(engine); err != nil {
			t.Fatalf("%s: %s run: %v", cfg, engine, err)
		}
		cell.noteBare(engine, m)

		if m.Stats != ref.Stats {
			t.Errorf("%s: stats diverge:\n%s: %+v\nref: %+v", cfg, engine, m.Stats, ref.Stats)
		}
		if m.Regs != ref.Regs {
			t.Errorf("%s: registers diverge:\n%s: %v\nref: %v", cfg, engine, m.Regs, ref.Regs)
		}
		if m.PC != ref.PC {
			t.Errorf("%s: final PC diverges: %s %d, ref %d", cfg, engine, m.PC, ref.PC)
		}
		if got, want := m.Output.String(), ref.Output.String(); got != want {
			t.Errorf("%s: output diverges:\n%s: %q\nref: %q", cfg, engine, got, want)
		}
		for i := range m.Mem {
			if m.Mem[i] != ref.Mem[i] {
				t.Errorf("%s: memory diverges at word %d (addr %#x): %s %#x, ref %#x",
					cfg, i, 4*i, engine, m.Mem[i], ref.Mem[i])
				break
			}
		}
		value := sexpr.String(img.DecodeItem(m.Mem, m.Regs[mipsx.RRet]))
		if value != refValue {
			t.Errorf("%s: decoded value diverges: %s %s, ref %s", cfg, engine, value, refValue)
		}
		if engine == mipsx.EngineTranslated && m.Trans.Fallbacks != 0 {
			t.Errorf("%s: translated engine fell back to the reference engine", cfg)
		}
		// Bit-identity alone would pass if the native engine never
		// entered a superblock, so its runs must show streams.
		if engine == mipsx.EngineNative && (m.Native.Fallbacks != 0 || m.Native.SBRuns == 0) {
			t.Errorf("%s: native engine ran %d superblock streams with %d fallbacks, want streams and no fallback",
				cfg, m.Native.SBRuns, m.Native.Fallbacks)
		}
	}
}

// liveCtxConfigs are TestEngineLiveCtxIdentical's configurations.
var liveCtxConfigs = []string{"high5+check", "low3+check", "high5+check+memtag"}

// equivCell is one (program, config) cell that both engine differential
// tests run: its image, built once, and each block engine's bare run (no
// context, a 2e9-cycle limit), which TestEngineEquivalence makes and
// TestEngineLiveCtxIdentical compares its live-context run against.
type equivCell struct {
	img  *rt.Image
	bare map[mipsx.Engine]*bareRun // nil for a cell only one test runs
}

// bareRun is what TestEngineLiveCtxIdentical reads of a bare run.
type bareRun struct {
	stats    mipsx.Stats
	regs     [32]uint32
	pc       int
	output   string
	fellBack bool
}

// equivMu guards equivCells and every cell's bare runs.
var (
	equivMu    sync.Mutex
	equivCells = map[string]*equivCell{}
)

// sharedCell returns p's cell under cfg. Only cells both tests run are
// kept, so the package's tests do not retain every image they build.
func sharedCell(t *testing.T, p *programs.Program, cfg Config) *equivCell {
	t.Helper()
	if !slices.ContainsFunc(liveCtxConfigs, func(s string) bool {
		c, err := ParseConfig(s)
		return err == nil && c.Key() == cfg.Key()
	}) {
		return &equivCell{img: buildEquivImage(t, p, cfg)}
	}
	key := p.Name + "/" + cfg.Key()
	equivMu.Lock()
	defer equivMu.Unlock()
	if c := equivCells[key]; c != nil {
		return c
	}
	c := &equivCell{img: buildEquivImage(t, p, cfg), bare: map[mipsx.Engine]*bareRun{}}
	equivCells[key] = c
	return c
}

// noteBare records m, a finished bare run of engine, for a shared cell.
func (c *equivCell) noteBare(engine mipsx.Engine, m *mipsx.Machine) {
	equivMu.Lock()
	defer equivMu.Unlock()
	if c.bare != nil && c.bare[engine] == nil {
		c.bare[engine] = &bareRun{
			stats: m.Stats, regs: m.Regs, pc: m.PC, output: m.Output.String(),
			fellBack: m.Trans.Fallbacks != 0 || m.Native.Fallbacks != 0,
		}
	}
}

// bareOf returns engine's recorded bare run, or nil.
func (c *equivCell) bareOf(engine mipsx.Engine) *bareRun {
	equivMu.Lock()
	defer equivMu.Unlock()
	return c.bare[engine]
}

// buildEquivImage builds p under cfg for the engine differential tests.
// Granule padding rounds every allocation up to the memtag granule, so
// heaps tuned for the untagged 8-byte-pair layout scale proportionally
// under coarse granules.
func buildEquivImage(t *testing.T, p *programs.Program, cfg Config) *rt.Image {
	t.Helper()
	heap := p.HeapWords
	if gb := int(cfg.HW.MemtagGranuleBytes()); heap > 0 && cfg.HW.Normalized().Memtag && gb > 8 {
		heap = heap * gb / 8
	}
	img, err := rt.Build(p.Source, rt.BuildOptions{
		Scheme:    cfg.Scheme,
		HW:        cfg.HW,
		Checking:  cfg.Checking,
		HeapWords: heap,
	})
	if err != nil {
		t.Fatalf("%s: build: %v", cfg, err)
	}
	return img
}

// TestEngineLiveCtxIdentical pins that the translated and native engines
// run a cancelable machine on themselves and that polling costs nothing
// observable: with a Ctx that never fires, every program's Stats,
// registers, PC and output are bit-identical to the run without one, and
// a cycle-limit fault halfway through lands at the same PC and cycle.
// That fault is also identical between translated and native. The
// reference engine is left out of the fault comparison: it enforces
// MaxCycles after every step, the block engines only at control transfers
// and trap entries, so its cycle-limit fault lands earlier.
func TestEngineLiveCtxIdentical(t *testing.T) {
	var configs []Config
	for _, s := range liveCtxConfigs {
		cfg, err := ParseConfig(s)
		if err != nil {
			t.Fatal(err)
		}
		configs = append(configs, cfg)
	}
	if testing.Short() {
		configs = configs[:1]
	}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel) // after the parallel subtests, unlike a defer
	for _, p := range programs.All() {
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			for _, cfg := range configs {
				t.Run(cfg.String(), func(t *testing.T) {
					t.Parallel()
					liveCtxCell(t, ctx, p, cfg)
				})
			}
		})
	}
}

// liveCtxCell runs one (program, config) cell of
// TestEngineLiveCtxIdentical under the never-firing ctx.
func liveCtxCell(t *testing.T, ctx context.Context, p *programs.Program, cfg Config) {
	cell := sharedCell(t, p, cfg)
	var transFault *mipsx.Fault
	var transStats mipsx.Stats
	for _, engine := range []mipsx.Engine{mipsx.EngineTranslated, mipsx.EngineNative} {
		run := func(ctx context.Context, maxCycles uint64) (*mipsx.Machine, error) {
			m := cell.img.NewMachine()
			m.MaxCycles = maxCycles
			m.Ctx = ctx
			err := m.RunEngine(engine)
			if m.Trans.Fallbacks != 0 || m.Native.Fallbacks != 0 {
				t.Errorf("%s/%s: fell back to another engine (ctx %v)", cfg, engine, ctx != nil)
			}
			return m, err
		}
		bare := cell.bareOf(engine)
		if bare == nil {
			m, err := run(nil, 2_000_000_000)
			if err != nil {
				t.Fatalf("%s/%s: run: %v", cfg, engine, err)
			}
			bare = &bareRun{stats: m.Stats, regs: m.Regs, pc: m.PC, output: m.Output.String()}
		} else if bare.fellBack {
			t.Errorf("%s/%s: fell back to another engine (ctx false)", cfg, engine)
		}
		live, err := run(ctx, 2_000_000_000)
		if err != nil {
			t.Fatalf("%s/%s: run with live ctx: %v", cfg, engine, err)
		}
		if live.Stats != bare.stats || live.Regs != bare.regs || live.PC != bare.pc ||
			live.Output.String() != bare.output {
			t.Errorf("%s/%s: live ctx changed the run:\nctx: %+v\nnil: %+v", cfg, engine, live.Stats, bare.stats)
		}

		limit := bare.stats.Cycles / 2
		bm, bareErr := run(nil, limit)
		lm, liveErr := run(ctx, limit)
		var bf, lf *mipsx.Fault
		if !errors.As(bareErr, &bf) || !errors.As(liveErr, &lf) {
			t.Fatalf("%s/%s: limit %d: errors %v / %v, want cycle-limit faults", cfg, engine, limit, bareErr, liveErr)
		}
		if *bf != *lf || bm.Stats != lm.Stats {
			t.Errorf("%s/%s: limit fault with live ctx %+v, without %+v", cfg, engine, *lf, *bf)
		}
		if engine == mipsx.EngineTranslated {
			transFault, transStats = bf, bm.Stats
		} else if *bf != *transFault || bm.Stats != transStats {
			t.Errorf("%s: limit %d: native fault %+v, translated %+v", cfg, limit, *bf, *transFault)
		}
	}
}
