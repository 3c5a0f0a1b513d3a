package core

import (
	"context"
	"errors"
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
// closure-threaded engine, and the single-step reference path, and
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
		p := p
		t.Run(p.Name, func(t *testing.T) {
			for _, cfg := range configs {
				img := buildEquivImage(t, p, cfg)

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
					if engine == mipsx.EngineNative && m.Native.Fallbacks != 0 {
						t.Errorf("%s: native engine fell back to another engine", cfg)
					}
				}
			}
		})
	}
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
	for _, s := range []string{"high5+check", "low3+check", "high5+check+memtag"} {
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
	defer cancel()
	for _, p := range programs.All() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			for _, cfg := range configs {
				img := buildEquivImage(t, p, cfg)
				var transFault *mipsx.Fault
				var transStats mipsx.Stats
				for _, engine := range []mipsx.Engine{mipsx.EngineTranslated, mipsx.EngineNative} {
					run := func(ctx context.Context, maxCycles uint64) (*mipsx.Machine, error) {
						m := img.NewMachine()
						m.MaxCycles = maxCycles
						m.Ctx = ctx
						err := m.RunEngine(engine)
						if m.Trans.Fallbacks != 0 || m.Native.Fallbacks != 0 {
							t.Errorf("%s/%s: fell back to another engine (ctx %v)", cfg, engine, ctx != nil)
						}
						return m, err
					}
					bare, err := run(nil, 2_000_000_000)
					if err != nil {
						t.Fatalf("%s/%s: run: %v", cfg, engine, err)
					}
					live, err := run(ctx, 2_000_000_000)
					if err != nil {
						t.Fatalf("%s/%s: run with live ctx: %v", cfg, engine, err)
					}
					if live.Stats != bare.Stats || live.Regs != bare.Regs || live.PC != bare.PC ||
						live.Output.String() != bare.Output.String() {
						t.Errorf("%s/%s: live ctx changed the run:\nctx: %+v\nnil: %+v", cfg, engine, live.Stats, bare.Stats)
					}

					limit := bare.Stats.Cycles / 2
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
		})
	}
}
