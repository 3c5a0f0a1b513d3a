package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/mipsx"
	"repro/internal/obs"
	"repro/internal/programs"
)

// ConfigSpec is a core.Config as it appears in request bodies: either the
// compact string form ("high5+check+mem+tbr") or the structured form
// {"scheme": "high5", "checking": true, "hw": ["mem", "tbr"]}.
type ConfigSpec struct {
	core.Config
}

func (c *ConfigSpec) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '"' {
		var s string
		if err := json.Unmarshal(b, &s); err != nil {
			return err
		}
		cfg, err := core.ParseConfig(s)
		if err != nil {
			return err
		}
		c.Config = cfg
		return nil
	}
	var obj struct {
		Scheme   string   `json:"scheme"`
		Checking bool     `json:"checking"`
		HW       []string `json:"hw"`
	}
	if err := json.Unmarshal(b, &obj); err != nil {
		return err
	}
	kind, err := core.ParseScheme(obj.Scheme)
	if err != nil {
		return err
	}
	hw, err := core.ParseHWList(obj.HW)
	if err != nil {
		return err
	}
	c.Config = core.Config{Scheme: kind, HW: hw, Checking: obj.Checking}
	return nil
}

func (c ConfigSpec) MarshalJSON() ([]byte, error) {
	return json.Marshal(c.Config.String())
}

// RunRequest asks for one program under one configuration. Exactly one of
// Program (a benchmark from the inventory) or Source (inline Lisp source,
// compiled and run as an anonymous program — the transport the differential
// fuzzer uses to replay generated programs against a live service) must be
// set.
type RunRequest struct {
	Program string     `json:"program,omitempty"`
	Source  string     `json:"source,omitempty"`
	Config  ConfigSpec `json:"config"`
	// TimeoutMS overrides the server's default per-request deadline,
	// clamped to the server's maximum.
	TimeoutMS int `json:"timeout_ms,omitempty"`
	// Engine selects the simulator engine for this request: "native"
	// (default), "translated" or "reference". All engines produce
	// bit-identical results, so the shared result cache serves every
	// engine — the choice only matters for the run that fills a cache
	// miss. GET /v1/configs lists the accepted spellings.
	Engine string `json:"engine,omitempty"`
}

// SweepRequest asks for the cross product programs × configs.
type SweepRequest struct {
	Programs  []string     `json:"programs"`
	Configs   []ConfigSpec `json:"configs"`
	TimeoutMS int          `json:"timeout_ms,omitempty"`
	// Engine selects the simulator engine for every job of the sweep; see
	// RunRequest.Engine.
	Engine string `json:"engine,omitempty"`
	// Stream switches the response to Server-Sent Events: one "result"
	// event per completed (program, config) cell, in completion order,
	// followed by a terminal "summary" event carrying the SweepResponse
	// without the Results array. Long sweeps become watchable instead of
	// a multi-minute silence.
	Stream bool `json:"stream,omitempty"`
}

// SweepResult is one cell of a sweep: a report or an error.
type SweepResult struct {
	Program string          `json:"program"`
	Config  string          `json:"config"`
	Run     *core.RunReport `json:"run,omitempty"`
	Error   string          `json:"error,omitempty"`
}

// SweepResponse is the body of POST /v1/sweep (and the payload of the
// terminal "summary" event in streaming mode, where Results is omitted —
// every cell has already been delivered as its own event).
type SweepResponse struct {
	Schema    string        `json:"schema"`
	Jobs      int           `json:"jobs"`
	Errors    int           `json:"errors"`
	ElapsedMS float64       `json:"elapsed_ms"`
	Results   []SweepResult `json:"results,omitempty"`
}

// errorBody is every non-2xx JSON payload.
type errorBody struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorBody{Error: fmt.Sprintf(format, args...)})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	writeBody(w, status, encodeJSON(v))
}

// encodeJSON renders v as a response body: two-space indent, trailing
// newline.
func encodeJSON(v any) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // response values always encode
	return buf.Bytes()
}

// writeBody sends an encoded JSON body.
func writeBody(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body) //nolint:errcheck // the client is gone if this fails
}

// decodeBody strictly decodes a JSON request body into v.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return false
	}
	return true
}

// requestCtx derives the simulation context for a request: the client's
// context (canceled when the connection drops) plus the effective
// deadline.
func (s *Server) requestCtx(r *http.Request, timeoutMS int) (context.Context, context.CancelFunc) {
	d := s.opts.DefaultTimeout
	if timeoutMS > 0 {
		d = time.Duration(timeoutMS) * time.Millisecond
	}
	if d > s.opts.MaxTimeout {
		d = s.opts.MaxTimeout
	}
	return context.WithTimeout(r.Context(), d)
}

// runStatus maps a simulation error to an HTTP status: cancellation and
// deadline become 504 (the simulation was stopped, not wrong), everything
// else — build failures, faults, Lisp runtime errors — is a 422 since the
// request was well-formed but the simulated machine rejected it.
func runStatus(err error) int {
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		return http.StatusGatewayTimeout
	}
	return http.StatusUnprocessableEntity
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	var req RunRequest
	if !decodeBody(w, r, &req) {
		return
	}
	engine, err := mipsx.ParseEngine(req.Engine)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	var p *programs.Program
	switch {
	case req.Source != "" && req.Program != "":
		writeError(w, http.StatusBadRequest, "program and source are mutually exclusive")
		return
	case req.Source != "":
		p = inlineProgram(req.Source)
	default:
		var ok bool
		p, ok = programs.ByName(req.Program)
		if !ok {
			writeError(w, http.StatusNotFound, "unknown program %q", req.Program)
			return
		}
	}
	release, ok := s.admit(w)
	if !ok {
		return
	}
	defer release()
	ctx, cancel := s.requestCtx(r, req.TimeoutMS)
	defer cancel()

	if err := s.acquire(ctx); err != nil {
		writeError(w, runStatus(err), "queued past deadline: %v", err)
		return
	}
	runStart := time.Now()
	res, err := s.runner.RunEngineCtx(ctx, p, req.Config.Config, engine)
	s.noteRunLatency(time.Since(runStart))
	s.releaseSlot()
	if err != nil {
		writeError(w, runStatus(err), "%v", err)
		return
	}
	// The report depends on the request only through the program, which
	// its name identifies, and the configuration's Key: the result cache
	// key. So it is encoded once per cached Result.
	writeBody(w, http.StatusOK, res.Body(func() []byte {
		return encodeJSON(core.NewRunReport(p, req.Config.Config, res))
	}))
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if len(req.Programs) == 0 || len(req.Configs) == 0 {
		writeError(w, http.StatusBadRequest, "sweep needs at least one program and one config")
		return
	}
	engine, err := mipsx.ParseEngine(req.Engine)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	var jobs []sweepJob
	for _, name := range req.Programs {
		p, ok := programs.ByName(name)
		if !ok {
			writeError(w, http.StatusNotFound, "unknown program %q", name)
			return
		}
		for _, cfg := range req.Configs {
			jobs = append(jobs, sweepJob{p, cfg.Config})
		}
	}
	if len(jobs) > s.opts.MaxSweepJobs {
		writeError(w, http.StatusRequestEntityTooLarge,
			"sweep of %d jobs exceeds the limit of %d", len(jobs), s.opts.MaxSweepJobs)
		return
	}
	release, ok := s.admit(w)
	if !ok {
		return
	}
	defer release()
	ctx, cancel := s.requestCtx(r, req.TimeoutMS)
	defer cancel()
	s.reg.Add("sweep_jobs_total", uint64(len(jobs)))

	if req.Stream {
		s.streamSweep(w, ctx, jobs, engine)
		return
	}

	start := time.Now()
	results := make([]SweepResult, len(jobs))
	s.runSweep(ctx, jobs, engine, func(i int, res SweepResult) {
		results[i] = res
	})

	resp := SweepResponse{
		Schema:    core.SchemaVersion,
		Jobs:      len(jobs),
		ElapsedMS: float64(time.Since(start).Microseconds()) / 1e3,
		Results:   results,
	}
	for _, res := range results {
		if res.Error != "" {
			resp.Errors++
		}
	}
	status := http.StatusOK
	if resp.Errors == len(results) {
		// Nothing succeeded; surface the first failure's class.
		if ctx.Err() != nil {
			status = http.StatusGatewayTimeout
		} else {
			status = http.StatusUnprocessableEntity
		}
	}
	writeJSON(w, status, resp)
}

type sweepJob struct {
	p   *programs.Program
	cfg core.Config
}

// runSweep fans the jobs out over a bounded pool: per-sweep parallelism
// is capped by MaxConcurrent workers, and each job additionally takes a
// global execution slot so concurrent sweeps cannot oversubscribe the
// host. done is called once per job from worker goroutines (concurrently,
// each index exactly once); runSweep returns when every job has finished.
func (s *Server) runSweep(ctx context.Context, jobs []sweepJob, engine mipsx.Engine, done func(i int, res SweepResult)) {
	var next atomic.Int64
	next.Store(-1)
	workers := s.opts.MaxConcurrent
	if workers > len(jobs) {
		workers = len(jobs)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				if i >= len(jobs) {
					return
				}
				j := jobs[i]
				out := SweepResult{Program: j.p.Name, Config: j.cfg.String()}
				if err := s.acquire(ctx); err != nil {
					out.Error = err.Error()
					done(i, out)
					continue
				}
				runStart := time.Now()
				res, err := s.runner.RunEngineCtx(ctx, j.p, j.cfg, engine)
				s.noteRunLatency(time.Since(runStart))
				s.releaseSlot()
				if err != nil {
					out.Error = err.Error()
				} else {
					out.Run = core.NewRunReport(j.p, j.cfg, res)
				}
				done(i, out)
			}
		}()
	}
	wg.Wait()
}

// streamSweep answers a sweep as Server-Sent Events: one "result" event
// per completed cell in completion order, then a terminal "summary"
// event. Events flush as they happen, so a client watches a long sweep
// progress instead of staring at a silent connection; a drain during the
// stream lets the in-flight cells finish and still delivers the summary,
// because admission was granted before streaming began.
func (s *Server) streamSweep(w http.ResponseWriter, ctx context.Context, jobs []sweepJob, engine mipsx.Engine) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusNotImplemented, "streaming unsupported by this connection")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	start := time.Now()
	ch := make(chan SweepResult)
	go func() {
		s.runSweep(ctx, jobs, engine, func(i int, res SweepResult) { ch <- res })
		close(ch)
	}()

	errs := 0
	for res := range ch {
		if res.Error != "" {
			errs++
		}
		writeEvent(w, "result", res)
		flusher.Flush()
	}
	writeEvent(w, "summary", SweepResponse{
		Schema:    core.SchemaVersion,
		Jobs:      len(jobs),
		Errors:    errs,
		ElapsedMS: float64(time.Since(start).Microseconds()) / 1e3,
	})
	flusher.Flush()
}

// writeEvent emits one SSE event with a JSON payload. json.Marshal of
// our response types cannot fail and never contains a newline, so each
// event is exactly "event:" + "data:" + blank line.
func writeEvent(w io.Writer, event string, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		b = []byte(`{"error":"encoding failure"}`)
	}
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, b)
}

// inlineProgram wraps ad-hoc source as an anonymous program. The name is
// content-addressed so the runner's result cache keys distinct sources
// distinctly and replays of the same source hit. The address is SHA-256:
// a non-cryptographic hash would let a client craft a colliding source
// and be served another client's cached result.
func inlineProgram(src string) *programs.Program {
	sum := sha256.Sum256([]byte(src))
	return &programs.Program{
		Name:        "inline-" + hex.EncodeToString(sum[:]),
		Description: "inline source",
		Source:      src,
	}
}

// programInfo is one entry of GET /v1/programs.
type programInfo struct {
	Name        string `json:"name"`
	Description string `json:"description"`
}

func (s *Server) handlePrograms(w http.ResponseWriter, r *http.Request) {
	var out []programInfo
	for _, p := range programs.All() {
		out = append(out, programInfo{Name: p.Name, Description: p.Description})
	}
	writeJSON(w, http.StatusOK, struct {
		Programs []programInfo `json:"programs"`
	}{out})
}

// configsResponse is the discovery document of GET /v1/configs. Engines
// lists the selector spellings RunRequest.Engine and SweepRequest.Engine
// accept.
type configsResponse struct {
	Schemes []string          `json:"schemes"`
	HWFlags []core.HWFlagInfo `json:"hw_flags"`
	Engines []string          `json:"engines"`
	Presets []configPreset    `json:"presets"`
}

type configPreset struct {
	ID    string   `json:"id"`
	Label string   `json:"label"`
	HW    []string `json:"hw"`
}

func (s *Server) handleConfigs(w http.ResponseWriter, r *http.Request) {
	resp := configsResponse{
		Schemes: core.SchemeNames,
		HWFlags: core.HWFlags,
		Engines: mipsx.EngineNames,
		Presets: []configPreset{{ID: "0", Label: "software only (baseline)", HW: []string{}}},
	}
	for _, row := range core.Table2Rows {
		resp.Presets = append(resp.Presets, configPreset{
			ID: row.ID, Label: row.Label, HW: core.HWFlagNames(row.HW),
		})
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	type health struct {
		Status   string `json:"status"`
		Inflight int64  `json:"inflight"`
		Cached   int    `json:"cached"`
	}
	h := health{Status: "ok", Inflight: s.inflight.Load(), Cached: s.runner.CacheLen()}
	if s.draining.Load() {
		h.Status = "draining"
		writeJSON(w, http.StatusServiceUnavailable, h)
		return
	}
	writeJSON(w, http.StatusOK, h)
}

// wantsPrometheus decides the /metrics representation: an explicit
// ?format= wins, then the Accept header (Prometheus scrapers send
// text/plain or an OpenMetrics type). The default stays JSON so existing
// clients are undisturbed.
func wantsPrometheus(r *http.Request) bool {
	switch r.URL.Query().Get("format") {
	case "prometheus", "text":
		return true
	case "json":
		return false
	}
	accept := r.Header.Get("Accept")
	return strings.Contains(accept, "text/plain") ||
		strings.Contains(accept, "openmetrics")
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := s.reg.Snapshot()
	if wantsPrometheus(r) {
		w.Header().Set("Content-Type", obs.PromContentType)
		w.WriteHeader(http.StatusOK)
		snap.WritePrometheus(w) //nolint:errcheck // client gone
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	snap.WriteJSON(w) //nolint:errcheck // client gone
}

// introspectResponse is the body of GET /v1/introspect: one entry per
// cached result, most recently used first, each the snapshot of the image
// that produced it.
type introspectResponse struct {
	Schema string                    `json:"schema"`
	Images []core.ImageIntrospection `json:"images"`
}

func (s *Server) handleIntrospect(w http.ResponseWriter, r *http.Request) {
	imgs := s.runner.IntrospectImages()
	writeJSON(w, http.StatusOK, introspectResponse{
		Schema: core.SchemaVersion,
		Images: imgs,
	})
}
