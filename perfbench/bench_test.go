package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// benchmarkFile is the part of BENCHMARK.json the harness must honour.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// exercised names, per workload, the per-layer metrics of the layers it
// drives, which must read above zero, and the ones whose value is known at
// this commit, so that a misspelt or renamed counter cannot read 0 unseen.
var exercised = map[string]struct {
	positive []string
	exact    map[string]float64
}{
	"cold-sweep": {
		positive: []string{"sexpr.parse_ms", "lispc.compile_ms", "rt.build_ms", "rt.new_machine_ms", "rt.new_machine_mb",
			"mipsx.translate_ms", "mipsx.native_compile_ms", "mipsx.exec_minstr_per_s",
			"mipsx.native.exec_minstr_per_s", "mipsx.translated.exec_minstr_per_s",
			"native_minstr_per_s", "translated_minstr_per_s", "mipsx.native.steps_per_kinstr",
			"mipsx.native.sb_exit_frac", "mipsx.native.elided_checks_per_kinstr",
			"mipsx.translated.fused_frac", "mipsx.translated.chain_hit_frac", "mipsx.sim_minstr",
			"go.alloc_mb_per_op", "go.rss_peak_mb"},
		exact: map[string]float64{"mipsx.fallback_frac": 0, "core.run_ms": 0, "server.overhead_ms": 0},
	},
	"service-cold": {
		positive: []string{"sexpr.parse_ms", "lispc.compile_ms", "rt.build_ms", "rt.new_machine_ms", "rt.new_machine_mb",
			"mipsx.exec_minstr_per_s", "mipsx.sim_minstr", "core.run_ms", "server.overhead_ms",
			"go.alloc_mb_per_op", "go.rss_peak_mb"},
		// Every inline request misses both caches and falls back to fused.
		exact: map[string]float64{"mipsx.fallback_frac": 1, "core.result_hit_frac": 0, "core.image_hit_frac": 0,
			"server.rejected_frac": 0},
	},
	"service-hot": {
		positive: []string{"core.run_ms", "server.overhead_ms", "go.alloc_mb_per_op", "go.rss_peak_mb"},
		// Every request is a result-cache hit: nothing is simulated.
		exact: map[string]float64{"core.result_hit_frac": 1, "mipsx.sim_minstr": 0, "server.rejected_frac": 0},
	},
}

// TestHarness builds the benchmark and runs every workload of
// BENCHMARK.json at its smallest size, untraced and then traced in the same
// directory. Each run must check out (no failed operation) and print, as
// its last line, exactly the metrics BENCHMARK.json names for that mode,
// each finite and with its declared unit; end-to-end metrics must be
// positive, and per-layer metrics must show the layers the workload
// exercises. The traced run must write its spans and its tracing overhead.
func TestHarness(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the benchmark and runs every workload")
	}
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bench benchmarkFile
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	exe := filepath.Join(t.TempDir(), "perfbench")
	if out, err := exec.Command("go", "build", "-o", exe, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}

	for _, w := range bench.Workloads {
		want, ok := exercised[w.Name]
		if !ok {
			t.Errorf("%s: no exercised layers listed", w.Name)
		}
		dir := t.TempDir()
		for _, mode := range []struct {
			trace string
			want  []metricSpec
		}{
			{"0", bench.EndToEnd},
			{"1", bench.PerLayer},
		} {
			t.Run(w.Name+"/trace="+mode.trace, func(t *testing.T) {
				cmd := exec.Command(exe, "--workload", w.Name, "--seed", "7", "--seconds", "1", "--trace", mode.trace)
				cmd.Dir = dir
				var stderr bytes.Buffer
				cmd.Stderr = &stderr
				out, err := cmd.Output()
				if err != nil {
					t.Fatalf("%v\n%s", err, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(string(out)), "\n")
				var res map[string]json.RawMessage
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line: %v", err)
				}
				if len(res) != 4 {
					t.Errorf("result keys %v, want correct, attempted, failed, metrics", keys(res))
				}
				var r result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
					t.Fatal(err)
				}
				if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
					t.Errorf("correct %v, attempted %d, failed %d; want every operation correct", r.Correct, r.Attempted, r.Failed)
				}
				if len(r.Metrics) != len(mode.want) {
					t.Errorf("%d metrics, want %d", len(r.Metrics), len(mode.want))
				}
				for _, m := range mode.want {
					got, ok := r.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("%s missing", m.Name)
					case got.Unit != m.Unit:
						t.Errorf("%s unit %q, want %q", m.Name, got.Unit, m.Unit)
					case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
						t.Errorf("%s = %v, want finite", m.Name, got.Value)
					case mode.trace == "0" && got.Value <= 0:
						t.Errorf("%s = %v, want positive", m.Name, got.Value)
					}
				}
				if mode.trace == "0" {
					return
				}
				for _, name := range want.positive {
					if v := r.Metrics[name].Value; !(v > 0) {
						t.Errorf("%s = %v, want > 0 on %s", name, v, w.Name)
					}
				}
				for name, v := range want.exact {
					if got := r.Metrics[name].Value; got != v {
						t.Errorf("%s = %v, want %v on %s", name, got, v, w.Name)
					}
				}
				data, err := os.ReadFile(filepath.Join(dir, ".bench_build", "traces", w.Name+"-seed7.json"))
				if err != nil {
					t.Fatalf("trace file: %v", err)
				}
				var doc struct {
					Spans    []span             `json:"spans"`
					Overhead map[string]float64 `json:"tracing_overhead"`
				}
				if err := json.Unmarshal(data, &doc); err != nil {
					t.Fatalf("trace file: %v", err)
				}
				if len(doc.Spans) == 0 || len(doc.Overhead) == 0 {
					t.Errorf("trace file has %d spans and overhead %v, want both", len(doc.Spans), doc.Overhead)
				}
			})
		}
	}
}

func keys(m map[string]json.RawMessage) []string {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	return ks
}
