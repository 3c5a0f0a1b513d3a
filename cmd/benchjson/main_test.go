package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

func TestParseBench(t *testing.T) {
	out := []byte(`goos: linux
goarch: amd64
BenchmarkPrograms/boyer-8         1   12345678 ns/op   9.87 Minstr/s   107955837 sim-cycles   120 B/op   3 allocs/op
BenchmarkPrograms/trav-8          1    2345678 ns/op  11.20 Minstr/s    22334455 sim-cycles     0 B/op   0 allocs/op
PASS
`)
	progs, err := parseBench(out, "BenchmarkPrograms/")
	if err != nil {
		t.Fatal(err)
	}
	if len(progs) != 2 {
		t.Fatalf("parsed %d programs, want 2", len(progs))
	}
	p := progs[0]
	if p.Name != "boyer" || p.Procs != 8 {
		t.Fatalf("name/procs: %+v", p)
	}
	if p.NsPerOp != 12345678 || p.MinstrS != 9.87 || p.SimCycles != 107955837 ||
		p.BPerOp != 120 || p.AllocsOp != 3 {
		t.Fatalf("metrics: %+v", p)
	}
	if _, err := parseBench([]byte("PASS\n"), "BenchmarkPrograms/"); err == nil {
		t.Fatal("empty benchmark output accepted")
	}
	// The prefix selects one engine's lines out of a BenchmarkEngine pass.
	engineOut := []byte(`BenchmarkEngine/translated/boyer-8  1  100 ns/op  20.00 Minstr/s
BenchmarkEngine/reference/boyer-8   1  150 ns/op  13.00 Minstr/s
PASS
`)
	tr, err := parseBench(engineOut, "BenchmarkEngine/translated/")
	if err != nil {
		t.Fatal(err)
	}
	if len(tr) != 1 || tr[0].Name != "boyer" || tr[0].MinstrS != 20 {
		t.Fatalf("translated lines: %+v", tr)
	}
}

// TestDocSchema pins the archived JSON field names: BENCH_*.json files are
// long-lived artifacts, so key renames are breaking changes.
func TestDocSchema(t *testing.T) {
	doc := Doc{Schema: "tagsim-bench/v1", Engines: []Engine{
		{Name: "fused", Programs: []Program{{Name: "boyer"}}},
	}, Cold: []Engine{{Name: "native", Programs: []Program{{Name: "boyer"}}}}}
	b, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"schema", "date", "go_version", "goos", "goarch", "gomaxprocs", "engines", "cold"} {
		if _, ok := m[key]; !ok {
			t.Fatalf("Doc JSON lost key %q: %s", key, b)
		}
	}
	eng := m["engines"].([]any)[0].(map[string]any)
	prog := eng["programs"].([]any)[0].(map[string]any)
	for _, key := range []string{"name", "procs", "ns_per_op", "minstr_per_s", "sim_cycles", "b_per_op", "allocs_per_op"} {
		if _, ok := prog[key]; !ok {
			t.Fatalf("Program JSON lost key %q: %s", key, b)
		}
	}
}

func TestGeomeanRatio(t *testing.T) {
	num := map[string]float64{"a": 4, "b": 9, "c": 1}
	den := map[string]float64{"a": 2, "b": 3, "c": 0} // c: no baseline, skipped
	var visited int
	got := geomeanRatio(num, den, func(string, float64, float64) { visited++ })
	if want := 2.449489742783178; got < want-1e-9 || got > want+1e-9 {
		t.Fatalf("geomean = %v, want sqrt(6) ≈ %v", got, want)
	}
	if visited != 2 {
		t.Fatalf("visited %d programs, want 2", visited)
	}
	if got := geomeanRatio(nil, den, nil); got != 0 {
		t.Fatalf("empty numerator: got %v, want 0", got)
	}
}

// TestSmokeFloors pins the smoke gate: each geomean fails below its own
// floor and only there, and the smoke output's two benchmarks parse into
// the engine maps the gate reads.
func TestSmokeFloors(t *testing.T) {
	for _, tc := range []struct {
		naTr, trRef, cold float64
		fails             string
	}{
		{1.8, 2.5, 1.4, ""},
		{1.5, 2.0, 1.0, ""},
		{1.8, 1.9, 1.4, "reference"},
		{1.4, 2.5, 1.4, "1.5x"},
		{1.8, 2.5, 0.99, "cold"},
	} {
		err := smokeFloors(tc.naTr, tc.trRef, tc.cold)
		if (err == nil) != (tc.fails == "") || err != nil && !strings.Contains(err.Error(), tc.fails) {
			t.Errorf("smokeFloors(%v, %v, %v) = %v, want failure %q", tc.naTr, tc.trRef, tc.cold, err, tc.fails)
		}
	}
	out := []byte(`BenchmarkEngine/native/boyer-2      5  100 ns/op  30.00 Minstr/s
BenchmarkEngine/translated/boyer-2  5  150 ns/op  20.00 Minstr/s
BenchmarkCold/native/boyer-2        5  200 ns/op  15.00 Minstr/s  1.5 form-ms/op
BenchmarkCold/translated/boyer-2    5  300 ns/op  10.00 Minstr/s  0 form-ms/op
PASS
`)
	cold, err := minstrFrom(out, "BenchmarkCold/", coldEngines)
	if err != nil {
		t.Fatal(err)
	}
	if cold["native"]["boyer"] != 15 || cold["translated"]["boyer"] != 10 {
		t.Errorf("cold lines: %v", cold)
	}
	if _, err := minstrFrom(out, "BenchmarkEngine/", engines); err == nil {
		t.Error("missing reference lines accepted")
	}
}

// TestAbsLine pins the absolute numbers printed next to the ratios: each
// engine's geometric-mean Minstr/s, warm and cold, with the cold half
// absent when the run has no cold row.
func TestAbsLine(t *testing.T) {
	warm := map[string]map[string]float64{
		"native":     {"boyer": 200, "trav": 50},
		"translated": {"boyer": 120, "trav": 30},
		"reference":  {"boyer": 40, "trav": 10, "comp": 0}, // comp: not measured, skipped
	}
	cold := map[string]map[string]float64{
		"native":     {"boyer": 90},
		"translated": {"boyer": 60},
	}
	want := "geomean Minstr/s, warm: native 100.0, translated 60.0, reference 20.0; cold: native 90.0, translated 60.0"
	if got := absLine(warm, cold); got != want {
		t.Errorf("absLine = %q\nwant      %q", got, want)
	}
	want = "geomean Minstr/s, warm: native 100.0, translated 60.0, reference 20.0"
	if got := absLine(warm, nil); got != want {
		t.Errorf("absLine without a cold row = %q\nwant %q", got, want)
	}
}

func TestLatestBenchFile(t *testing.T) {
	dir := t.TempDir()
	cwd, _ := os.Getwd()
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(cwd)
	if got := latestBenchFile(""); got != "" {
		t.Fatalf("no files: got %q", got)
	}
	for _, n := range []string{"BENCH_1.json", "BENCH_2.json", "BENCH_3.json"} {
		if err := os.WriteFile(n, []byte("{}"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if got := latestBenchFile("BENCH_3.json"); got != "BENCH_2.json" {
		t.Fatalf("latest excluding BENCH_3: got %q, want BENCH_2.json", got)
	}
	if got := latestBenchFile(""); got != "BENCH_3.json" {
		t.Fatalf("latest: got %q, want BENCH_3.json", got)
	}
}
