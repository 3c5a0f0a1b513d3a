package server

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/obs"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// TestMetricNamesGolden pins the set of exported metric family names. A
// deterministic scenario exercises every route and both cache outcomes,
// then the families in the registry snapshot are compared byte-for-byte
// against testdata/metric_names.golden. Renaming or dropping a metric is
// a contract change for dashboards and alerts — this test makes it an
// explicit diff. Regenerate with: go test ./internal/server -run
// TestMetricNamesGolden -update
func TestMetricNamesGolden(t *testing.T) {
	s, ts := testServer(t, Options{})

	// Miss, then hit, on /v1/run.
	for i := 0; i < 2; i++ {
		if resp, body := postJSON(t, ts.URL+"/v1/run", map[string]any{
			"program": "comp", "config": "high5", "engine": "native",
		}); resp.StatusCode != http.StatusOK {
			t.Fatalf("run status %d: %s", resp.StatusCode, body)
		}
	}
	// A memory-tagging run, so the memtag_* families are pinned too.
	if resp, body := postJSON(t, ts.URL+"/v1/run", map[string]any{
		"program": "comp", "config": "high5+memtag",
	}); resp.StatusCode != http.StatusOK {
		t.Fatalf("memtag-run status %d: %s", resp.StatusCode, body)
	}
	// A failing run (checked car of a fixnum) for the error counter.
	if resp, _ := postJSON(t, ts.URL+"/v1/run", map[string]any{
		"source": "(car 1)", "config": "high5+check",
	}); resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("error-run status %d, want 422", resp.StatusCode)
	}
	// A deadline-canceled run, then its successful retry: the cancel
	// counter, and a second miss (the canceled run cached nothing, so the
	// retry builds and runs afresh).
	if resp, _ := postJSON(t, ts.URL+"/v1/run", map[string]any{
		"program": "boyer", "config": "high5+check", "timeout_ms": 1,
	}); resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("canceled-run status %d, want 504", resp.StatusCode)
	}
	if resp, body := postJSON(t, ts.URL+"/v1/run", map[string]any{
		"program": "boyer", "config": "high5+check",
	}); resp.StatusCode != http.StatusOK {
		t.Fatalf("retry status %d: %s", resp.StatusCode, body)
	}
	// A sweep (one fresh cell, one cached).
	if resp, body := postJSON(t, ts.URL+"/v1/sweep", map[string]any{
		"programs": []string{"comp"}, "configs": []string{"high5", "low3"},
	}); resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep status %d: %s", resp.StatusCode, body)
	}
	// A bounded scheme search, so the search_* families are pinned too.
	if resp, body := postJSON(t, ts.URL+"/v1/search", map[string]any{
		"budget": 40, "top_k": 3, "programs": []string{"comp"}, "variants": []string{"check"},
	}); resp.StatusCode != http.StatusOK {
		t.Fatalf("search status %d: %s", resp.StatusCode, body)
	}
	// The read-only routes.
	for _, path := range []string{"/v1/programs", "/v1/configs", "/v1/introspect", "/healthz"} {
		if resp := getJSON(t, ts.URL+path, nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s status %d", path, resp.StatusCode)
		}
	}

	snap := s.Runner().Metrics.Snapshot()
	set := map[string]bool{}
	for key := range snap.Counters {
		set[obs.FamilyName(key)] = true
	}
	for key := range snap.Histograms {
		set[obs.FamilyName(key)] = true
	}
	var names []string
	for name := range set {
		names = append(names, name)
	}
	sort.Strings(names)
	got := strings.Join(names, "\n") + "\n"

	golden := filepath.Join("testdata", "metric_names.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if got != string(want) {
		t.Errorf("exported metric families changed (run with -update if intentional):\ngot:\n%swant:\n%s", got, want)
	}
}

// TestMetricSeriesBounded pins that clients cannot mint metric series:
// requests to distinct unknown paths, with made-up methods on a known
// path, with distinct inline sources, distinct searched scheme specs and
// distinct hardware combinations all land in series that already exist
// after the first request of each kind.
func TestMetricSeriesBounded(t *testing.T) {
	s, ts := testServer(t, Options{})
	// Searched schemes: the low 3-bit layout with its five heap-type tags
	// permuted (each a valid spec), and memory-tagging geometries other
	// than the default one.
	var specs, hws []string
	var permute func(prefix string, rest []string)
	permute = func(prefix string, rest []string) {
		if len(rest) == 0 {
			specs = append(specs, "xl3:"+prefix+"0.7")
		}
		for i, r := range rest {
			permute(prefix+r+".", append(append([]string(nil), rest[:i]...), rest[i+1:]...))
		}
	}
	permute("", []string{"1", "2", "3", "5", "6"})
	for g := 3; g <= 6; g++ {
		for w := 1; w <= 8; w++ {
			if g != 3 || w != 4 {
				hws = append(hws, fmt.Sprintf("high5+memtag+mtg%d+mtw%d", g, w))
			}
		}
	}
	series := func() int {
		snap := s.Runner().Metrics.Snapshot()
		return len(snap.Counters) + len(snap.Histograms)
	}
	round := func(i int) {
		t.Helper()
		if resp := getJSON(t, fmt.Sprintf("%s/no/such/path/%d", ts.URL, i), nil); resp.StatusCode != http.StatusNotFound {
			t.Fatalf("unknown path status %d, want 404", resp.StatusCode)
		}
		req, err := http.NewRequest(fmt.Sprintf("BREW%d", i), ts.URL+"/healthz", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("made-up method status %d, want 405", resp.StatusCode)
		}
		for _, config := range []string{"high5", specs[i], hws[i]} {
			if resp, body := postJSON(t, ts.URL+"/v1/run", map[string]any{
				"source": fmt.Sprintf("(+ %d 1)", i), "config": config,
			}); resp.StatusCode != http.StatusOK {
				t.Fatalf("inline run under %s: status %d: %s", config, resp.StatusCode, body)
			}
		}
	}

	round(0)
	before := series()
	for i := 1; i <= 20; i++ {
		round(i)
	}
	if after := series(); after != before {
		t.Errorf("20 rounds of distinct paths, methods, sources and configs grew the series %d → %d", before, after)
	}
	snap := s.Runner().Metrics.Snapshot()
	if got := snap.Counters["http_requests_total/other"]; got != 42 {
		t.Errorf("http_requests_total/other = %d, want 42", got)
	}
	if got := snap.Counters["http_requests_total/POST /v1/run"]; got != 63 {
		t.Errorf("http_requests_total/POST /v1/run = %d, want 63", got)
	}
	if got := snap.Counters["runs_total"]; got != 63 {
		t.Errorf("runs_total = %d, want 63 distinct inline runs", got)
	}
	for _, name := range []string{"cycles_total/inline/high5", "cycles_total/inline/other"} {
		if snap.Counters[name] == 0 {
			t.Errorf("no %s series", name)
		}
	}
}
