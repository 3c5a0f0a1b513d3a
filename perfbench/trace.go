package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into the program. Spans of one operation share Op;
// Parent is the span that made the call, or -1 for an operation's root.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Op     int32  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
	// Counts are the program's counters for the work under this span.
	Counts map[string]uint64 `json:"counts,omitempty"`
}

// tracer keeps the spans of a traced run in memory until the run ends. A
// nil *tracer records nothing, so untraced runs pay one nil check per call
// site and no clock reads.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	// counters is the growth of the server's /metrics counters over the
	// timed phase, for the service workloads.
	counters map[string]float64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id for end and for child spans.
func (t *tracer) begin(name string, parent, op int32) int32 {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: now})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// count attaches the program's counters to a span.
func (t *tracer) count(id int32, counts map[string]uint64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans[id].Counts = counts
	t.mu.Unlock()
}

// add records a finished span whose duration the program reported (a
// build phase, a JIT time delta).
func (t *tracer) add(name string, parent, op int32, start time.Time, d time.Duration) {
	if t == nil {
		return
	}
	s := start.Sub(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: int32(len(t.spans)), Parent: parent, Op: op, Name: name, Start: s, End: s + d.Nanoseconds()})
	t.mu.Unlock()
}

// spanStats is the account of every span of one name.
type spanStats struct {
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	// SelfMS is TotalMS minus the time covered by child spans: the layer's
	// own time.
	SelfMS float64 `json:"self_ms"`
}

func (s spanStats) meanMS() float64 { return ratio(s.TotalMS, float64(s.Count)) }

// summary aggregates spans by name.
func (t *tracer) summary() map[string]spanStats {
	childMS := make([]float64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			childMS[s.Parent] += float64(s.End-s.Start) / 1e6
		}
	}
	out := map[string]spanStats{}
	for i, s := range t.spans {
		st := out[s.Name]
		d := float64(s.End-s.Start) / 1e6
		st.Count++
		st.TotalMS += d
		st.SelfMS += d - childMS[i]
		out[s.Name] = st
	}
	return out
}

// untracedPath is where an untraced run leaves its end-to-end numbers, for
// traced runs of the same workload and size to compare with.
func untracedPath(o options) string {
	return filepath.Join(".bench_build", "untraced", fmt.Sprintf("%s-seconds%d.json", o.workload, o.seconds))
}

func saveUntraced(o options, e2e map[string]float64) error {
	data, err := json.Marshal(e2e)
	if err == nil {
		err = os.MkdirAll(filepath.Dir(untracedPath(o)), 0o755)
	}
	if err == nil {
		err = os.WriteFile(untracedPath(o), data, 0o644)
	}
	if err != nil {
		return fmt.Errorf("saving the untraced result: %w", err)
	}
	return nil
}

// overhead compares the traced run's end-to-end timings with the last
// untraced run of the same workload and size, as the fraction by which
// tracing made each worse; it is nil when there is no untraced run. Both
// are in reference time, so runs on a host in different speed states
// compare.
func overhead(o options, traced map[string]float64) map[string]float64 {
	data, err := os.ReadFile(untracedPath(o))
	if err != nil {
		return nil
	}
	var plain map[string]float64
	if json.Unmarshal(data, &plain) != nil || plain["ops_per_s"] == 0 {
		return nil
	}
	return map[string]float64{
		"op_p50_ms": traced["op_p50_ms"]/plain["op_p50_ms"] - 1,
		"op_p90_ms": traced["op_p90_ms"]/plain["op_p90_ms"] - 1,
		"ops_per_s": plain["ops_per_s"]/traced["ops_per_s"] - 1,
	}
}

// write saves the spans, their per-name summary, the end-to-end numbers
// measured under tracing and the tracing overhead under .bench_build/, and
// returns the file and the overhead.
func (t *tracer) write(o options, wall time.Duration, e2e map[string]float64) (string, map[string]float64, error) {
	dir := filepath.Join(".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", nil, fmt.Errorf("trace: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", o.workload, o.seed))
	over := overhead(o, e2e)
	doc := map[string]any{
		"env":               environment(o),
		"timed_wall_s":      wall.Seconds(),
		"end_to_end_traced": e2e,
		"spans_recorded":    len(t.spans),
		"tracing_overhead":  over,
		"summary":           t.summary(),
		"metrics_growth":    t.counters,
		"spans":             t.spans,
	}
	data, err := json.Marshal(doc)
	if err != nil {
		return "", nil, fmt.Errorf("trace: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", nil, fmt.Errorf("trace: %w", err)
	}
	return path, over, nil
}
