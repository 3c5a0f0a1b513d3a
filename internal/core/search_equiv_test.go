package core

import (
	"testing"

	"repro/internal/mipsx"
	"repro/internal/programs"
	"repro/internal/rt"
	"repro/internal/sexpr"
	"repro/internal/tags"
)

// TestSearchedSchemeEngineEquivalence runs materialized (registered)
// searched schemes through all three engines and demands bit-identical
// statistics, registers, memory and results — the same bar the hand-built
// schemes clear in TestEngineEquivalence. The specs are chosen to
// exercise the table-driven paths the builtins do not: a low scheme with
// a shared tag (header-checked vectors) plus a permuted alignment
// pattern, and a 4-bit high scheme.
func TestSearchedSchemeEngineEquivalence(t *testing.T) {
	specs := []string{
		"xl3:1.2.2.6.5.0.7", // vector shares symbol's tag; float at odd words
		"xh4:1.2.3.4.5.6.7", // narrowest high placement
	}
	progs := []string{"comp", "trav", "dedgc"}
	if testing.Short() {
		progs = []string{"comp"}
	}

	for _, spec := range specs {
		kind, err := tags.RegisterName(spec)
		if err != nil {
			t.Fatalf("register %s: %v", spec, err)
		}
		for _, name := range progs {
			p, ok := programs.ByName(name)
			if !ok {
				t.Fatalf("no program %q", name)
			}
			cfg := Config{Scheme: kind, Checking: true}
			img, err := rt.Build(p.Source, rt.BuildOptions{
				Scheme:    kind,
				Checking:  true,
				HeapWords: p.HeapWords,
			})
			if err != nil {
				t.Fatalf("%s/%s: build: %v", spec, name, err)
			}

			ref := img.NewMachine()
			ref.MaxCycles = 2_000_000_000
			if err := ref.RunReference(); err != nil {
				t.Fatalf("%s/%s: reference run: %v", spec, name, err)
			}
			refValue := sexpr.String(img.DecodeItem(ref.Mem, ref.Regs[mipsx.RRet]))
			if p.Expected != "" && refValue != p.Expected {
				t.Errorf("%s/%s: result %s, want %s", spec, name, refValue, p.Expected)
			}

			for _, engine := range []mipsx.Engine{mipsx.EngineTranslated, mipsx.EngineNative} {
				m := img.NewMachine()
				m.MaxCycles = 2_000_000_000
				if err := m.RunEngine(engine); err != nil {
					t.Fatalf("%s/%s: %s run: %v", spec, name, engine, err)
				}
				if m.Stats != ref.Stats {
					t.Errorf("%s/%s: stats diverge on %s:\n%+v\nref: %+v", cfg, name, engine, m.Stats, ref.Stats)
				}
				if m.Regs != ref.Regs {
					t.Errorf("%s/%s: registers diverge on %s", cfg, name, engine)
				}
				for i := range m.Mem {
					if m.Mem[i] != ref.Mem[i] {
						t.Errorf("%s/%s: memory diverges at word %d on %s", cfg, name, i, engine)
						break
					}
				}
				if value := sexpr.String(img.DecodeItem(m.Mem, m.Regs[mipsx.RRet])); value != refValue {
					t.Errorf("%s/%s: decoded value %s on %s, ref %s", cfg, name, value, engine, refValue)
				}
			}
		}
	}
}
