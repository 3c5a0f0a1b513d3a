package core

import (
	"context"
	"testing"

	"repro/internal/mipsx"
	"repro/internal/obs"
	"repro/internal/programs"
)

// TestRunPhases pins the per-run phase timeline: an uncached run records
// build phases (parse, compile), machine construction, execute, the JIT
// phases carved out of execute, and the stats flush; the matching
// run_phase_seconds histograms land in the registry; and a cache hit
// replays the original phases without re-recording.
func TestRunPhases(t *testing.T) {
	r := NewRunner()
	p := programs.MustByName("comp")
	cfg, err := ParseConfig("high5")
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.RunEngineCtx(context.Background(), p, cfg, mipsx.EngineTranslated)
	if err != nil {
		t.Fatal(err)
	}

	phases := map[string]obs.Span{}
	for _, s := range res.Phases {
		phases[s.Phase] = s
	}
	for _, want := range []string{
		obs.PhaseParse, obs.PhaseCompile, obs.PhaseNewMachine, obs.PhaseExecute,
		obs.PhaseTranslate, obs.PhaseStatsFlush,
	} {
		s, ok := phases[want]
		if !ok {
			t.Errorf("missing phase %q in %v", want, res.Phases)
			continue
		}
		if s.DurUS < 0 || s.StartUS < 0 {
			t.Errorf("phase %q has negative span %+v", want, s)
		}
	}
	// The JIT translate span is carved out of execute: same start, no
	// longer than the whole execute span.
	if ex, tr := phases[obs.PhaseExecute], phases[obs.PhaseTranslate]; tr.StartUS != ex.StartUS || tr.DurUS > ex.DurUS {
		t.Errorf("translate span %+v not nested in execute %+v", tr, ex)
	}
	// Machine construction sits between the build and execute spans.
	if co, nm, ex := phases[obs.PhaseCompile], phases[obs.PhaseNewMachine], phases[obs.PhaseExecute]; nm.StartUS < co.StartUS+co.DurUS || ex.StartUS < nm.StartUS+nm.DurUS {
		t.Errorf("new-machine span %+v not between compile %+v and execute %+v", nm, co, ex)
	}
	// Compile follows parse on the shared origin.
	if pa, co := phases[obs.PhaseParse], phases[obs.PhaseCompile]; co.StartUS < pa.StartUS+pa.DurUS {
		t.Errorf("compile %+v begins before parse %+v ends", co, pa)
	}

	snap := r.Metrics.Snapshot()
	for _, key := range []string{
		obs.Labeled("run_phase_seconds", "engine", "translated", "phase", obs.PhaseExecute),
		obs.Labeled("run_phase_seconds", "engine", "translated", "phase", obs.PhaseParse),
		obs.Labeled("run_phase_seconds", "engine", "translated", "phase", obs.PhaseNewMachine),
		obs.Labeled("run_latency_seconds", "cache", "miss"),
	} {
		if h, ok := snap.Histograms[key]; !ok || h.Count == 0 {
			t.Errorf("registry missing histogram %q", key)
		}
	}

	// Cache hit: phases replay, hit latency recorded, no new miss.
	res2, err := r.RunEngineCtx(context.Background(), p, cfg, mipsx.EngineTranslated)
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Phases) != len(res.Phases) {
		t.Errorf("cached result phases %v, want original %v", res2.Phases, res.Phases)
	}
	snap = r.Metrics.Snapshot()
	if h, ok := snap.Histograms[obs.Labeled("run_latency_seconds", "cache", "hit")]; !ok || h.Count == 0 {
		t.Error("hit latency not recorded")
	}
	if h := snap.Histograms[obs.Labeled("run_latency_seconds", "cache", "miss")]; h.Count != 1 {
		t.Errorf("miss latency count %d, want 1", h.Count)
	}
}
