package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/mipsx"
	"repro/internal/programs"
	"repro/internal/rt"
)

// sseEvent is one parsed Server-Sent Event.
type sseEvent struct {
	event string
	data  []byte
}

// readSSE parses the next event off the stream; io.EOF at a clean event
// boundary ends the stream.
func readSSE(br *bufio.Reader) (sseEvent, error) {
	var ev sseEvent
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			return ev, err
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case line == "":
			if ev.event != "" || ev.data != nil {
				return ev, nil
			}
		case strings.HasPrefix(line, "event: "):
			ev.event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			ev.data = []byte(strings.TrimPrefix(line, "data: "))
		}
	}
}

// startStreamSweep POSTs a streaming sweep and returns the live response.
func startStreamSweep(t *testing.T, url string, body map[string]any) *http.Response {
	t.Helper()
	body["stream"] = true
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/sweep", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("stream sweep status %d: %s", resp.StatusCode, data)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type %q, want text/event-stream", ct)
	}
	return resp
}

// TestSweepStreaming is the streaming acceptance test: every cell arrives
// as its own "result" event before the terminal "summary", and the
// summary's totals match the per-unit events.
func TestSweepStreaming(t *testing.T) {
	_, ts := testServer(t, Options{})
	resp := startStreamSweep(t, ts.URL, map[string]any{
		"programs": []string{"comp", "trav"},
		"configs":  []string{"high5", "low3"},
	})
	defer resp.Body.Close()

	br := bufio.NewReader(resp.Body)
	var results []SweepResult
	var summary *SweepResponse
	for {
		ev, err := readSSE(br)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		switch ev.event {
		case "result":
			if summary != nil {
				t.Fatal("result event after summary")
			}
			var res SweepResult
			if err := json.Unmarshal(ev.data, &res); err != nil {
				t.Fatalf("bad result payload %s: %v", ev.data, err)
			}
			results = append(results, res)
		case "summary":
			var sr SweepResponse
			if err := json.Unmarshal(ev.data, &sr); err != nil {
				t.Fatalf("bad summary payload %s: %v", ev.data, err)
			}
			summary = &sr
		default:
			t.Fatalf("unexpected event %q", ev.event)
		}
	}
	if len(results) != 4 {
		t.Fatalf("got %d result events, want 4", len(results))
	}
	if summary == nil {
		t.Fatal("no summary event")
	}
	if summary.Jobs != 4 || summary.Errors != 0 || len(summary.Results) != 0 {
		t.Errorf("summary %+v, want jobs=4 errors=0 no inline results", summary)
	}
	seen := map[string]bool{}
	for _, res := range results {
		if res.Error != "" {
			t.Errorf("unit %s/%s failed: %s", res.Program, res.Config, res.Error)
		}
		if res.Run == nil || res.Run.Cycles == 0 {
			t.Errorf("unit %s/%s has no run report", res.Program, res.Config)
		}
		seen[res.Program+"/"+res.Config] = true
	}
	if len(seen) != 4 {
		t.Errorf("distinct units %d, want 4", len(seen))
	}
}

// TestDrainMidStream drains the server while a streaming sweep is mid
// flight: the already-admitted stream must run its remaining units to
// completion, deliver the terminal summary, and close cleanly, while new
// work is refused.
func TestDrainMidStream(t *testing.T) {
	s, ts := testServer(t, Options{MaxConcurrent: 1})
	resp := startStreamSweep(t, ts.URL, map[string]any{
		"programs": []string{"comp"},
		"configs":  []string{"high5", "high5+check", "low3", "low3+check"},
	})
	defer resp.Body.Close()

	br := bufio.NewReader(resp.Body)
	first, err := readSSE(br)
	if err != nil {
		t.Fatal(err)
	}
	if first.event != "result" {
		t.Fatalf("first event %q, want result", first.event)
	}

	// Mid-stream: drain and begin graceful shutdown, as the SIGTERM path
	// in tagsimd does. Shutdown blocks until the stream finishes, so it
	// runs alongside the reads below.
	s.Drain()
	shutdownDone := make(chan error, 1)
	go func() { shutdownDone <- ts.Config.Shutdown(context.Background()) }()

	// New work must bounce immediately while the stream continues.
	time.Sleep(10 * time.Millisecond)
	if !s.Draining() {
		t.Fatal("server not draining")
	}

	events := 1
	sawSummary := false
	for {
		ev, err := readSSE(br)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("stream broke after %d events: %v", events, err)
		}
		events++
		switch ev.event {
		case "result":
			var res SweepResult
			if err := json.Unmarshal(ev.data, &res); err != nil {
				t.Fatal(err)
			}
			if res.Error != "" {
				t.Errorf("in-flight unit %s/%s failed during drain: %s", res.Program, res.Config, res.Error)
			}
		case "summary":
			sawSummary = true
			var sr SweepResponse
			if err := json.Unmarshal(ev.data, &sr); err != nil {
				t.Fatal(err)
			}
			if sr.Jobs != 4 || sr.Errors != 0 {
				t.Errorf("summary %+v, want jobs=4 errors=0", sr)
			}
		}
	}
	if events != 5 || !sawSummary {
		t.Errorf("got %d events (summary=%v), want 4 results + summary", events, sawSummary)
	}
	select {
	case err := <-shutdownDone:
		if err != nil {
			t.Errorf("graceful shutdown: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("shutdown did not complete after stream ended")
	}
}

// TestMetricsContentNegotiation pins the /metrics dual representation:
// JSON by default, Prometheus text format under Accept: text/plain or
// ?format=prometheus, with the run-phase and per-route latency histogram
// series present.
func TestMetricsContentNegotiation(t *testing.T) {
	_, ts := testServer(t, Options{})
	if resp, body := postJSON(t, ts.URL+"/v1/run", map[string]any{
		"program": "comp", "config": "high5", "engine": "native",
	}); resp.StatusCode != http.StatusOK {
		t.Fatalf("run status %d: %s", resp.StatusCode, body)
	}

	// Default stays JSON.
	var snap struct {
		Counters map[string]uint64 `json:"counters"`
	}
	resp := getJSON(t, ts.URL+"/metrics", &snap)
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("default Content-Type %q, want application/json", ct)
	}
	if snap.Counters["runs_total"] == 0 {
		t.Error("JSON snapshot missing runs_total")
	}

	fetch := func(accept, query string) string {
		req, err := http.NewRequest("GET", ts.URL+"/metrics"+query, nil)
		if err != nil {
			t.Fatal(err)
		}
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		r, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Body.Close()
		if ct := r.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
			t.Errorf("prometheus Content-Type %q", ct)
		}
		b, err := io.ReadAll(r.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	for _, out := range []string{fetch("text/plain", ""), fetch("", "?format=prometheus")} {
		for _, want := range []string{
			"# TYPE runs_total counter",
			"run_phase_seconds_bucket{",
			`run_phase_seconds_bucket{engine="native",phase="execute",le="+Inf"}`,
			"http_request_seconds_bucket{",
			"run_latency_seconds_bucket{",
		} {
			if !strings.Contains(out, want) {
				t.Errorf("prometheus output missing %q", want)
			}
		}
		// Every non-comment line must be "series value".
		for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
			if strings.HasPrefix(line, "#") {
				continue
			}
			sp := strings.LastIndexByte(line, ' ')
			if sp < 0 {
				t.Fatalf("malformed exposition line %q", line)
			}
			if _, err := strconv.ParseFloat(line[sp+1:], 64); err != nil {
				t.Errorf("non-numeric sample in %q", line)
			}
		}
	}
}

// TestRequestID pins propagation and generation of X-Request-Id.
func TestRequestID(t *testing.T) {
	_, ts := testServer(t, Options{})

	resp := getJSON(t, ts.URL+"/healthz", nil)
	if id := resp.Header.Get("X-Request-Id"); len(id) != 16 {
		t.Errorf("generated request id %q, want 16 hex chars", id)
	}

	req, _ := http.NewRequest("GET", ts.URL+"/healthz", nil)
	req.Header.Set("X-Request-Id", "client-chosen-42")
	r, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if id := r.Header.Get("X-Request-Id"); id != "client-chosen-42" {
		t.Errorf("propagated request id %q, want client-chosen-42", id)
	}

	// IDs outside the safe alphabet are replaced, not echoed.
	req, _ = http.NewRequest("GET", ts.URL+"/healthz", nil)
	req.Header.Set("X-Request-Id", "evil|id")
	r, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if id := r.Header.Get("X-Request-Id"); strings.Contains(id, "|") || len(id) != 16 {
		t.Errorf("hostile request id echoed back as %q", id)
	}
}

// TestIntrospectEndpoint seeds the runner with background-context runs —
// the path tagsimd -prewarm takes — then checks /v1/introspect exposes
// per-result block formation, run counts and chain-hit numerators for rate
// computation. The runner keeps no image, so each entry is the snapshot
// taken when its run ended; block translation and superblock formation are
// deterministic, so it must equal a direct build and run of the same
// program, config and engine (the JIT times aside).
func TestIntrospectEndpoint(t *testing.T) {
	runner := core.NewRunner()
	p := programs.MustByName("comp")
	cfgT, _ := core.ParseConfig("high5")
	cfgN, _ := core.ParseConfig("low3")
	if _, err := runner.RunEngineCtx(context.Background(), p, cfgT, mipsx.EngineTranslated); err != nil {
		t.Fatal(err)
	}
	if _, err := runner.RunEngineCtx(context.Background(), p, cfgN, mipsx.EngineNative); err != nil {
		t.Fatal(err)
	}
	_, ts := testServer(t, Options{Runner: runner})

	var ir struct {
		Schema string                    `json:"schema"`
		Images []core.ImageIntrospection `json:"images"`
	}
	if resp := getJSON(t, ts.URL+"/v1/introspect", &ir); resp.StatusCode != http.StatusOK {
		t.Fatalf("introspect status %d", resp.StatusCode)
	}
	if ir.Schema != core.SchemaVersion {
		t.Errorf("schema %q, want %q", ir.Schema, core.SchemaVersion)
	}
	if len(ir.Images) != 2 {
		t.Fatalf("images %d, want 2", len(ir.Images))
	}
	byConfig := map[string]core.ImageIntrospection{}
	for _, img := range ir.Images {
		if img.Program != "comp" || img.Runs != 1 || img.Engine.Instrs == 0 {
			t.Errorf("image %+v: want program=comp runs=1 instrs>0", img)
		}
		byConfig[img.Config] = img
	}

	tr := byConfig["high5"]
	if tr.Engine.Blocks == 0 || tr.Engine.BodySteps == 0 {
		t.Errorf("no translated blocks in %+v", tr.Engine)
	}
	if tr.Trans.BlockRuns == 0 {
		t.Errorf("no accumulated block runs: %+v", tr.Trans)
	}
	if tr.Trans.ChainHits > tr.Trans.BlockRuns {
		t.Errorf("chain hits %d exceed block runs %d", tr.Trans.ChainHits, tr.Trans.BlockRuns)
	}
	if tr.Engine.TranslateUS <= 0 {
		t.Errorf("translate time %.1fus, want > 0", tr.Engine.TranslateUS)
	}

	na := byConfig["low3"]
	if na.Engine.SuperBlocks == 0 {
		t.Errorf("no superblocks in %+v", na.Engine)
	}
	if na.Native.BlockRuns == 0 {
		t.Errorf("no accumulated native block runs: %+v", na.Native)
	}
	if na.Engine.NativeCompileUS <= 0 {
		t.Errorf("native compile time %.1fus, want > 0", na.Engine.NativeCompileUS)
	}
	// The superblock dataflow pass's static results ride along: every
	// formed stream reports its pre-optimization unit count, and the
	// optimized stream can only be shorter. comp on low3 is long enough
	// that formation always kicks in and the pass always finds redundant
	// pure recomputations to drop.
	if na.Engine.SuperBlocks == 0 {
		t.Errorf("no superblocks in %+v", na.Engine)
	}
	if na.Engine.SBRawSteps == 0 || na.Engine.SBSteps == 0 {
		t.Errorf("no superblock dataflow totals in %+v", na.Engine)
	}
	if na.Engine.SBSteps > na.Engine.SBRawSteps {
		t.Errorf("optimized steps %d exceed raw units %d", na.Engine.SBSteps, na.Engine.SBRawSteps)
	}
	if na.Engine.SBDroppedSteps == 0 {
		t.Errorf("dataflow pass dropped no steps: %+v", na.Engine)
	}

	for _, c := range []struct {
		cfg    core.Config
		engine mipsx.Engine
	}{{cfgT, mipsx.EngineTranslated}, {cfgN, mipsx.EngineNative}} {
		img, err := rt.Build(p.Source, rt.BuildOptions{
			Scheme: c.cfg.Scheme, HW: c.cfg.HW, Checking: c.cfg.Checking, HeapWords: p.HeapWords,
		})
		if err != nil {
			t.Fatal(err)
		}
		m := img.NewMachine()
		m.MaxCycles = runner.MaxCycles
		if err := m.RunEngine(c.engine); err != nil {
			t.Fatal(err)
		}
		want := img.Prog.Introspect()
		got := byConfig[c.cfg.String()].Engine
		want.TranslateUS, want.NativeCompileUS = 0, 0
		got.TranslateUS, got.NativeCompileUS = 0, 0
		if got != want {
			t.Errorf("%s on %s: introspected %+v, direct build and run %+v", c.cfg, c.engine, got, want)
		}
	}
}

// TestRetryAfterComputed pins the overload hint: with no observed runs
// the floor (1s) applies; with a backlog and a known mean latency the
// hint scales and clamps to 30s.
func TestRetryAfterComputed(t *testing.T) {
	s := New(Options{MaxConcurrent: 2, MaxQueue: 2})
	if got := s.retryAfter(); got != 1 {
		t.Errorf("no-data retryAfter = %d, want 1", got)
	}
	// Backlog of 4, mean run 3s, 2 executors → ceil(4*3/2) = 6s.
	for i := 0; i < 4; i++ {
		s.admitted <- struct{}{}
	}
	s.noteRunLatency(3 * time.Second)
	if got := s.retryAfter(); got != 6 {
		t.Errorf("retryAfter = %d, want 6", got)
	}
	// Huge latency clamps to 30.
	s.noteRunLatency(1000 * time.Second)
	if got := s.retryAfter(); got != 30 {
		t.Errorf("clamped retryAfter = %d, want 30", got)
	}
}
