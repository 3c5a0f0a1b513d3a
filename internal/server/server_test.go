package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/mipsx"
	"repro/internal/obs"
	"repro/internal/programs"
)

// testServer starts the service on an ephemeral port.
func testServer(t *testing.T, o Options) (*Server, *httptest.Server) {
	t.Helper()
	s := New(o)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func getJSON(t *testing.T, url string, v any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp
}

func counters(t *testing.T, baseURL string) map[string]uint64 {
	t.Helper()
	var snap obs.Snapshot
	if resp := getJSON(t, baseURL+"/metrics", &snap); resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	return snap.Counters
}

// TestSweepEndToEnd is the acceptance test: a sweep of 2 programs × 3
// configs whose cycle counts match direct core.Runner results exactly,
// then the identical sweep again, served entirely from cache.
func TestSweepEndToEnd(t *testing.T) {
	_, ts := testServer(t, Options{})

	sweepPrograms := []string{"comp", "trav"}
	sweepConfigs := []string{"high5", "high5+check", "low3"}
	req := map[string]any{"programs": sweepPrograms, "configs": sweepConfigs}

	resp, body := postJSON(t, ts.URL+"/v1/sweep", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep status %d: %s", resp.StatusCode, body)
	}
	var sr SweepResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Schema != core.SchemaVersion {
		t.Errorf("schema %q, want %q", sr.Schema, core.SchemaVersion)
	}
	if sr.Jobs != 6 || len(sr.Results) != 6 || sr.Errors != 0 {
		t.Fatalf("jobs=%d results=%d errors=%d, want 6/6/0: %s", sr.Jobs, len(sr.Results), sr.Errors, body)
	}

	// Ground truth: the same sweep through a fresh Runner directly.
	direct := core.NewRunner()
	i := 0
	for _, name := range sweepPrograms {
		p := programs.MustByName(name)
		for _, spec := range sweepConfigs {
			cfg, err := core.ParseConfig(spec)
			if err != nil {
				t.Fatal(err)
			}
			want, err := direct.Run(p, cfg)
			if err != nil {
				t.Fatal(err)
			}
			got := sr.Results[i]
			if got.Program != name || got.Run == nil {
				t.Fatalf("result %d = %+v, want run of %s/%s", i, got, name, spec)
			}
			if got.Run.Cycles != want.Stats.Cycles || got.Run.Instrs != want.Stats.Instrs {
				t.Errorf("%s/%s: server %d cycles / %d instrs, direct %d / %d",
					name, spec, got.Run.Cycles, got.Run.Instrs, want.Stats.Cycles, want.Stats.Instrs)
			}
			if got.Run.Result != want.Value {
				t.Errorf("%s/%s: server result %q, direct %q", name, spec, got.Run.Result, want.Value)
			}
			i++
		}
	}

	before := counters(t, ts.URL)
	if before["run_cache_misses_total"] != 6 || before["runs_total"] != 6 {
		t.Errorf("after first sweep: misses=%d runs=%d, want 6/6",
			before["run_cache_misses_total"], before["runs_total"])
	}

	// The identical sweep again: all 6 served from cache.
	resp2, body2 := postJSON(t, ts.URL+"/v1/sweep", req)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second sweep status %d: %s", resp2.StatusCode, body2)
	}
	var sr2 SweepResponse
	if err := json.Unmarshal(body2, &sr2); err != nil {
		t.Fatal(err)
	}
	for i := range sr.Results {
		if sr2.Results[i].Run == nil || sr2.Results[i].Run.Cycles != sr.Results[i].Run.Cycles {
			t.Errorf("second sweep result %d diverges", i)
		}
	}
	after := counters(t, ts.URL)
	if hits := after["run_cache_hits_total"] - before["run_cache_hits_total"]; hits != 6 {
		t.Errorf("second sweep produced %d cache hits, want 6", hits)
	}
	if after["runs_total"] != before["runs_total"] {
		t.Errorf("second sweep re-simulated: runs_total %d → %d", before["runs_total"], after["runs_total"])
	}
}

func TestRunEndpoint(t *testing.T) {
	_, ts := testServer(t, Options{})

	resp, body := postJSON(t, ts.URL+"/v1/run", map[string]any{
		"program": "comp",
		"config":  map[string]any{"scheme": "high5", "checking": true, "hw": []string{"mem", "tbr"}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run status %d: %s", resp.StatusCode, body)
	}
	var rep core.RunReport
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Schema != core.SchemaVersion || rep.Program != "comp" || !rep.Checking {
		t.Errorf("unexpected report: %s", body)
	}
	cfg, _ := core.ParseConfig("high5+check+mem+tbr")
	want, err := core.NewRunner().Run(programs.MustByName("comp"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Cycles != want.Stats.Cycles {
		t.Errorf("cycles %d, want %d", rep.Cycles, want.Stats.Cycles)
	}

	// Unknown program and malformed config.
	if resp, _ := postJSON(t, ts.URL+"/v1/run", map[string]any{"program": "nope", "config": "high5"}); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown program: status %d, want 404", resp.StatusCode)
	}
	if resp, _ := postJSON(t, ts.URL+"/v1/run", map[string]any{"program": "comp", "config": "high5+bogus"}); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad config: status %d, want 400", resp.StatusCode)
	}

	// Engine selection: every engine returns the same numbers (trav is not
	// cached yet, so each engine name is exercised at least once before the
	// cache starts answering), and a bogus engine is a 400.
	for _, engine := range mipsx.EngineNames {
		resp, body := postJSON(t, ts.URL+"/v1/run", map[string]any{
			"program": "trav", "config": "high5", "engine": engine,
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("engine %s: status %d: %s", engine, resp.StatusCode, body)
		}
		var erep core.RunReport
		if err := json.Unmarshal(body, &erep); err != nil {
			t.Fatal(err)
		}
		if erep.Cycles == 0 || erep.Program != "trav" {
			t.Errorf("engine %s: unexpected report %s", engine, body)
		}
	}
	if resp, _ := postJSON(t, ts.URL+"/v1/run", map[string]any{"program": "comp", "config": "high5", "engine": "bogus"}); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad engine: status %d, want 400", resp.StatusCode)
	}

	// Per-engine run counters: the loop above only simulated under the first
	// engine (the rest hit the cache), so force an uncached native run and
	// check it is attributed to the native engine.
	if resp, body := postJSON(t, ts.URL+"/v1/run", map[string]any{"program": "trav", "config": "low3", "engine": "native"}); resp.StatusCode != http.StatusOK {
		t.Fatalf("native run status %d: %s", resp.StatusCode, body)
	}
	c := counters(t, ts.URL)
	if c["runs_engine_total/native"] != 1 {
		t.Errorf("runs_engine_total/native = %d, want 1", c["runs_engine_total/native"])
	}
	if c["runs_engine_total/"+mipsx.EngineNames[0]] == 0 {
		t.Errorf("runs_engine_total/%s = 0, want ≥1", mipsx.EngineNames[0])
	}
}

// TestRunExecutesOnRequestedEngine pins the service path: every request
// carries a deadline context into the simulator, and the translated and
// native engines must honour it themselves instead of delegating the run
// to the reference engine.
func TestRunExecutesOnRequestedEngine(t *testing.T) {
	_, ts := testServer(t, Options{})
	for _, tc := range []struct {
		engine, counter, blockRuns string
		body                       map[string]any
	}{
		{"translated", "runs_engine_total/translated", "engine_block_runs_total",
			map[string]any{"program": "comp", "config": "high5+check", "timeout_ms": 60_000}},
		{"native", "runs_engine_total/native", "native_block_runs_total",
			map[string]any{"program": "trav", "config": "low3+check", "engine": "native", "timeout_ms": 60_000}},
	} {
		before := counters(t, ts.URL)
		if resp, body := postJSON(t, ts.URL+"/v1/run", tc.body); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s run: status %d: %s", tc.engine, resp.StatusCode, body)
		}
		after := counters(t, ts.URL)
		for _, name := range []string{"engine_fallbacks_total", "native_fallbacks_total"} {
			if after[name] != before[name] {
				t.Errorf("%s run: %s grew %d → %d (the run fell back)", tc.engine, name, before[name], after[name])
			}
		}
		for _, name := range []string{tc.counter, tc.blockRuns} {
			if after[name] <= before[name] {
				t.Errorf("%s run: %s did not grow (%d → %d)", tc.engine, name, before[name], after[name])
			}
		}
	}
}

// TestOverloadReturns429 floods a 1-slot, 1-queue server: the burst must
// produce 429s with Retry-After while the admitted requests proceed.
func TestOverloadReturns429(t *testing.T) {
	runner := core.NewRunner()
	started := make(chan struct{}, 1)
	runner.Observe = func(p *programs.Program, cfg core.Config) mipsx.Observer {
		select {
		case started <- struct{}{}:
		default:
		}
		return nil
	}
	_, ts := testServer(t, Options{Runner: runner, MaxConcurrent: 1, MaxQueue: 1})

	// Occupy the single execution slot with an uncached long run.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		postJSON(t, ts.URL+"/v1/run", map[string]any{
			"program": "boyer", "config": "high5+check", "timeout_ms": 30000,
		})
	}()
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("first run never started")
	}

	// Burst: capacity is 1 running + 1 queued, so the rest must bounce.
	const burst = 6
	codes := make([]int, burst)
	headers := make([]string, burst)
	wg.Add(burst)
	for i := 0; i < burst; i++ {
		go func(i int) {
			defer wg.Done()
			resp, _ := postJSON(t, ts.URL+"/v1/run", map[string]any{
				"program": "boyer", "config": fmt.Sprintf("high5+check+%s", []string{"mem", "tbr", "atrap", "preshift", "pclist", "pcall"}[i]),
				"timeout_ms": 200,
			})
			codes[i] = resp.StatusCode
			headers[i] = resp.Header.Get("Retry-After")
		}(i)
	}
	wg.Wait()

	rejected := 0
	for i, c := range codes {
		if c == http.StatusTooManyRequests {
			rejected++
			if headers[i] == "" {
				t.Error("429 without Retry-After")
			}
		}
	}
	if rejected < burst-1 {
		t.Errorf("burst of %d against capacity 2: %d rejections (codes %v), want >= %d",
			burst, rejected, codes, burst-1)
	}
	if got := counters(t, ts.URL)["http_rejected_total"]; got < uint64(rejected) {
		t.Errorf("http_rejected_total = %d, want >= %d", got, rejected)
	}
}

// TestDeadlineStopsSimulationMidRun sends a request whose deadline is far
// shorter than the simulation: the server must answer 504 quickly, having
// stopped the default (translated) engine mid-run, and must not cache the
// partial result.
func TestDeadlineStopsSimulationMidRun(t *testing.T) {
	s, ts := testServer(t, Options{})
	start := time.Now()
	resp, body := postJSON(t, ts.URL+"/v1/run", map[string]any{
		"program": "boyer", "config": "high5+check", "timeout_ms": 50,
	})
	elapsed := time.Since(start)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d (%s), want 504", resp.StatusCode, body)
	}
	// boyer+check simulates for hundreds of ms; cancellation must cut
	// that short (wide margin for slow CI).
	if elapsed > 5*time.Second {
		t.Errorf("response took %v — simulation was not stopped mid-run", elapsed)
	}
	if got := counters(t, ts.URL)["runs_canceled_total"]; got != 1 {
		t.Errorf("runs_canceled_total = %d, want 1", got)
	}
	if got := s.Runner().CacheLen(); got != 0 {
		t.Errorf("canceled run was cached (%d entries)", got)
	}
}

func TestDiscoveryAndHealth(t *testing.T) {
	s, ts := testServer(t, Options{})

	var progs struct {
		Programs []programInfo `json:"programs"`
	}
	getJSON(t, ts.URL+"/v1/programs", &progs)
	if len(progs.Programs) != 10 {
		t.Errorf("programs = %d, want the paper's 10", len(progs.Programs))
	}

	var cfgs configsResponse
	getJSON(t, ts.URL+"/v1/configs", &cfgs)
	if len(cfgs.Schemes) != 4 || len(cfgs.HWFlags) != 11 {
		t.Errorf("configs: %d schemes, %d hw flags", len(cfgs.Schemes), len(cfgs.HWFlags))
	}
	if len(cfgs.Presets) != len(core.Table2Rows)+1 {
		t.Errorf("presets = %d, want %d", len(cfgs.Presets), len(core.Table2Rows)+1)
	}
	if !reflect.DeepEqual(cfgs.Engines, mipsx.EngineNames) {
		t.Errorf("engines = %v, want %v", cfgs.Engines, mipsx.EngineNames)
	}

	if resp := getJSON(t, ts.URL+"/healthz", nil); resp.StatusCode != http.StatusOK {
		t.Errorf("healthz status %d", resp.StatusCode)
	}
	s.Drain()
	if resp := getJSON(t, ts.URL+"/healthz", nil); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining healthz status %d, want 503", resp.StatusCode)
	}
	if resp, _ := postJSON(t, ts.URL+"/v1/run", map[string]any{"program": "comp", "config": "high5"}); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining run status %d, want 503", resp.StatusCode)
	}
}

func TestConfigSpecForms(t *testing.T) {
	var c ConfigSpec
	if err := json.Unmarshal([]byte(`"low3+check+mem"`), &c); err != nil {
		t.Fatal(err)
	}
	if !c.Checking || !c.HW.MemIgnoresTags {
		t.Errorf("string form parsed to %+v", c.Config)
	}
	var c2 ConfigSpec
	if err := json.Unmarshal([]byte(`{"scheme":"low3","checking":true,"hw":["mem"]}`), &c2); err != nil {
		t.Fatal(err)
	}
	if c2.Key() != c.Key() {
		t.Errorf("object form %q != string form %q", c2.Key(), c.Key())
	}
	if err := json.Unmarshal([]byte(`"durian5"`), &c); err == nil {
		t.Error("unknown scheme accepted")
	}
}

// TestInlineProgramName pins the content address of inline sources: it
// is stable for one source, distinct for sources one byte apart, and a
// full SHA-256 digest behind the inline- prefix.
func TestInlineProgramName(t *testing.T) {
	a := inlineProgram("(defun main () 1)").Name
	if again := inlineProgram("(defun main () 1)").Name; again != a {
		t.Errorf("same source named %s, then %s", a, again)
	}
	for _, other := range []string{"(defun main () 2)", "(defun main () 1) ", "(defun main () 1"} {
		if b := inlineProgram(other).Name; b == a {
			t.Errorf("sources %q and %q share the name %s", "(defun main () 1)", other, a)
		}
	}
	if !strings.HasPrefix(a, "inline-") || len(a) != len("inline-")+64 {
		t.Errorf("name %s, want inline- and 64 hex digits", a)
	}
}
