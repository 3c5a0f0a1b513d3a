// Package server exposes the simulation harness as an HTTP/JSON service:
// the paper's sweep — programs × tag-handling configurations, each an
// independent deterministic simulation — is exactly the embarrassingly
// parallel, cache-friendly workload a request/response engine wants.
//
//	POST /v1/run        one program × one configuration → tagsim/v1 RunReport
//	POST /v1/sweep      programs × configurations, fanned out over a bounded
//	                    pool; "stream": true switches the response to
//	                    Server-Sent Events, one event per completed cell
//	POST /v1/search     property-checked tag-scheme search: enumerate →
//	                    check → materialize → sweep → rank; "stream": true
//	                    delivers progress events then the final report
//	GET  /v1/programs   the benchmark inventory
//	GET  /v1/configs    schemes, hardware flags, and the Table 2 presets
//	GET  /v1/introspect per-cached-image engine internals (block counts,
//	                    fusion and superblock formation, chain/inline-cache
//	                    hit rates)
//	GET  /healthz       liveness (503 while draining)
//	GET  /metrics       the obs.Registry snapshot — JSON by default,
//	                    Prometheus text format via Accept: text/plain or
//	                    ?format=prometheus
//
// Production shape: admission control over a bounded queue (overload →
// 429 + a Retry-After computed from queue depth and observed run
// latency), per-request deadlines propagated through context into
// whichever simulator engine the request selected, an LRU result cache
// shared with Prewarm and keyed on Config.Key, request IDs propagated or
// minted per request, structured request logs, per-route latency
// histograms, and graceful drain for SIGTERM (in-flight requests —
// streaming sweeps included — run to completion).
package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"io"
	"log/slog"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// Options shapes a Server. The zero value picks sane defaults.
type Options struct {
	// Runner executes and caches simulations; nil creates one. Its
	// Metrics registry doubles as the /metrics source, so run, cache and
	// HTTP counters land in one snapshot.
	Runner *core.Runner
	// MaxConcurrent bounds simultaneously executing simulations across
	// all requests (default GOMAXPROCS).
	MaxConcurrent int
	// MaxQueue bounds requests admitted beyond the ones actively
	// simulating; past it the server answers 429 with Retry-After
	// (default 4×MaxConcurrent).
	MaxQueue int
	// DefaultTimeout is the per-request simulation deadline when the
	// request names none (default 60s); MaxTimeout caps what a request
	// may ask for (default 5m).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// CacheCap sets the runner's LRU capacity when the runner is created
	// here (default 4096 results).
	CacheCap int
	// MaxSweepJobs bounds programs × configs in one sweep (default 4096).
	MaxSweepJobs int
	// Log receives one structured line per request; nil discards.
	Log *slog.Logger
}

// Server is the simulation service. Create with New; it implements
// http.Handler.
type Server struct {
	opts     Options
	runner   *core.Runner
	reg      *obs.Registry
	log      *slog.Logger
	mux      *http.ServeMux
	sem      chan struct{} // execution slots: MaxConcurrent tokens
	admitted chan struct{} // admission slots: MaxConcurrent+MaxQueue tokens
	draining atomic.Bool
	inflight atomic.Int64

	// Observed simulation latency, feeding the Retry-After hint on 429:
	// cumulative nanoseconds and run count of completed RunEngineCtx calls.
	runLatNS    atomic.Int64
	runLatCount atomic.Int64
}

// New builds a Server from o.
func New(o Options) *Server {
	if o.MaxConcurrent <= 0 {
		o.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if o.MaxQueue <= 0 {
		o.MaxQueue = 4 * o.MaxConcurrent
	}
	if o.DefaultTimeout <= 0 {
		o.DefaultTimeout = 60 * time.Second
	}
	if o.MaxTimeout <= 0 {
		o.MaxTimeout = 5 * time.Minute
	}
	if o.CacheCap <= 0 {
		o.CacheCap = 4096
	}
	if o.MaxSweepJobs <= 0 {
		o.MaxSweepJobs = 4096
	}
	if o.Runner == nil {
		o.Runner = core.NewRunner()
		o.Runner.CacheCap = o.CacheCap
	}
	if o.Log == nil {
		o.Log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	s := &Server{
		opts:     o,
		runner:   o.Runner,
		reg:      o.Runner.Metrics,
		log:      o.Log,
		mux:      http.NewServeMux(),
		sem:      make(chan struct{}, o.MaxConcurrent),
		admitted: make(chan struct{}, o.MaxConcurrent+o.MaxQueue),
	}
	s.mux.HandleFunc("GET /v1/programs", s.handlePrograms)
	s.mux.HandleFunc("GET /v1/configs", s.handleConfigs)
	s.mux.HandleFunc("GET /v1/introspect", s.handleIntrospect)
	s.mux.HandleFunc("POST /v1/run", s.handleRun)
	s.mux.HandleFunc("POST /v1/sweep", s.handleSweep)
	s.mux.HandleFunc("POST /v1/search", s.handleSearch)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s
}

// Runner returns the runner backing the service (for prewarming).
func (s *Server) Runner() *core.Runner { return s.runner }

// Drain flips the server into draining mode: /healthz answers 503 so load
// balancers stop routing here, and new simulation requests are refused
// while requests already admitted finish. Call before http.Server.Shutdown.
func (s *Server) Drain() { s.draining.Store(true) }

// Draining reports whether Drain was called.
func (s *Server) Draining() bool { return s.draining.Load() }

// statusWriter captures the response code for the request log. It
// forwards Flush so handlers behind it (the streaming sweep) can still
// reach the connection's http.Flusher.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// ridKey carries the request ID through context.
type ridKey struct{}

// RequestID returns the request ID minted or propagated for ctx, or ""
// outside a request.
func RequestID(ctx context.Context) string {
	id, _ := ctx.Value(ridKey{}).(string)
	return id
}

// requestID propagates a sane client-supplied X-Request-Id or mints a
// fresh 16-hex-digit one.
func requestID(r *http.Request) string {
	id := r.Header.Get("X-Request-Id")
	if id != "" && len(id) <= 64 {
		ok := true
		for i := 0; i < len(id); i++ {
			c := id[i]
			if !('a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' ||
				c == '-' || c == '_' || c == '.') {
				ok = false
				break
			}
		}
		if ok {
			return id
		}
	}
	var b [8]byte
	rand.Read(b[:]) //nolint:errcheck // crypto/rand never fails on supported platforms
	return hex.EncodeToString(b[:])
}

// routeOf normalizes a request to a bounded label for per-route metrics.
// Unknown paths collapse into "other" so a scanner cannot mint unbounded
// label values.
func routeOf(r *http.Request) string {
	switch r.URL.Path {
	case "/v1/run", "/v1/sweep", "/v1/search", "/v1/programs", "/v1/configs",
		"/v1/introspect", "/healthz", "/metrics":
		return r.Method + " " + r.URL.Path
	}
	return "other"
}

// ServeHTTP dispatches with request-ID propagation, request logging and
// HTTP metrics around every handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	rid := requestID(r)
	w.Header().Set("X-Request-Id", rid)
	r = r.WithContext(context.WithValue(r.Context(), ridKey{}, rid))
	sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
	s.inflight.Add(1)
	s.mux.ServeHTTP(sw, r)
	s.inflight.Add(-1)

	dur := time.Since(start)
	route := routeOf(r)
	s.reg.Add("http_requests_total", 1)
	s.reg.Add("http_requests_total/"+r.Method+" "+r.URL.Path, 1)
	s.reg.Add("http_responses_total/"+strconv.Itoa(sw.status), 1)
	s.reg.Observe("http_request_us", float64(dur.Microseconds()))
	s.reg.ObserveBounds(obs.Labeled("http_request_seconds", "route", route),
		obs.LatencyBounds, dur.Seconds())
	s.log.Info("request",
		"method", r.Method,
		"path", r.URL.Path,
		"status", sw.status,
		"dur_ms", float64(dur.Microseconds())/1e3,
		"remote", r.RemoteAddr,
		"request_id", rid,
	)
}

// retryAfter estimates how long a refused client should back off: the
// current admission backlog divided by the service rate the observed mean
// run latency implies, clamped to [1, 30] seconds. Before any run has
// completed the floor applies.
func (s *Server) retryAfter() int {
	depth := len(s.admitted)
	n := s.runLatCount.Load()
	if n == 0 || depth == 0 {
		return 1
	}
	mean := float64(s.runLatNS.Load()) / float64(n) / 1e9
	est := math.Ceil(float64(depth) * mean / float64(s.opts.MaxConcurrent))
	if est < 1 {
		return 1
	}
	if est > 30 {
		return 30
	}
	return int(est)
}

// noteRunLatency folds one completed simulation call into the
// Retry-After estimate.
func (s *Server) noteRunLatency(d time.Duration) {
	s.runLatNS.Add(d.Nanoseconds())
	s.runLatCount.Add(1)
}

// admit takes an admission slot, or refuses the request. The returned
// release must be called when the request finishes. Admission counts
// queued plus running requests; the bound is what turns overload into a
// fast 429 instead of an unbounded goroutine pileup.
func (s *Server) admit(w http.ResponseWriter) (release func(), ok bool) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return nil, false
	}
	select {
	case s.admitted <- struct{}{}:
		return func() { <-s.admitted }, true
	default:
		s.reg.Add("http_rejected_total", 1)
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfter()))
		writeError(w, http.StatusTooManyRequests, "simulation queue full")
		return nil, false
	}
}

// acquire blocks for an execution slot or gives up when ctx dies. The
// time spent waiting — queueing behind other simulations — is recorded
// so the /metrics latency story separates queue wait from execution.
func (s *Server) acquire(ctx context.Context) error {
	wait := time.Now()
	defer func() {
		s.reg.ObserveBounds("http_queue_wait_seconds", obs.LatencyBounds,
			time.Since(wait).Seconds())
	}()
	select {
	case s.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (s *Server) releaseSlot() { <-s.sem }
