package main

import (
	"encoding/json"
	"os"
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
	}}
	b, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"schema", "date", "go_version", "goos", "goarch", "gomaxprocs", "engines"} {
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
