package obs

import (
	"encoding/json"
	"io"
	"sync"

	"repro/internal/mipsx"
)

// Registry aggregates execution statistics across runs into named
// counters and histograms. The sweep harness records every simulated run
// into one registry, so a whole table regeneration leaves behind a single
// machine-readable account of the work done. Safe for concurrent use.
type Registry struct {
	mu       sync.Mutex
	counters map[string]uint64
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]uint64),
		hists:    make(map[string]*Histogram),
	}
}

// Add increments counter name by v.
func (g *Registry) Add(name string, v uint64) {
	g.mu.Lock()
	g.counters[name] += v
	g.mu.Unlock()
}

// Observe records v into histogram name, creating it with decade buckets
// (1, 10, ..., 1e12) on first use.
func (g *Registry) Observe(name string, v float64) {
	g.ObserveBounds(name, nil, v)
}

// ObserveBounds records v into histogram name, creating it with the given
// bucket upper bounds on first use (nil selects the decade buckets).
// Bounds only matter at creation; later calls with different bounds feed
// the histogram as first declared.
func (g *Registry) ObserveBounds(name string, bounds []float64, v float64) {
	g.mu.Lock()
	h := g.hists[name]
	if h == nil {
		h = NewHistogram(bounds)
		g.hists[name] = h
	}
	h.Observe(v)
	g.mu.Unlock()
}

// RecordRun folds one completed run into the registry: global counters,
// per-(program, config) cycle counters, and distribution histograms.
func (g *Registry) RecordRun(program, config string, st *mipsx.Stats) {
	g.Add("runs_total", 1)
	g.Add("cycles_total", st.Cycles)
	g.Add("instrs_total", st.Instrs)
	g.Add("stalls_total", st.Stalls)
	g.Add("squashed_total", st.Squashed)
	g.Add("traps_total", st.Traps)
	g.Add("gcs_total", st.GCs)
	g.Add("gc_words_total", st.GCWords)
	g.Add("tag_cycles_total", st.TagCycles())
	g.Add("memtag_cycles_total", st.ByCat[mipsx.CatMemtag])
	g.Add("cycles_total/"+program+"/"+config, st.Cycles)
	g.Observe("run_cycles", float64(st.Cycles))
	g.Observe("run_instrs", float64(st.Instrs))
	g.Observe("run_tag_pct", mipsx.Pct(st.TagCycles(), st.Cycles))
	// Memory-tagging families only accumulate when the run actually spent
	// cycles in the granule-coloring runtime (any memtag config: coloring
	// is software work even when the checks themselves are hardware), so
	// the percentage histogram is not diluted by untagged runs.
	if st.ByCat[mipsx.CatMemtag] > 0 {
		g.Add("memtag_runs_total", 1)
		g.Observe("run_memtag_pct", st.CatPct(mipsx.CatMemtag))
	}
}

// RecordTrans folds one machine's translation-engine counters into the
// registry. Every field is zero when the run used another engine, so
// callers can record unconditionally; a Fallbacks increment marks a
// translated run that delegated to the reference engine (observer attached or
// machine stopped mid-pipeline) rather than a failure.
func (g *Registry) RecordTrans(tr *mipsx.TransStats) {
	g.Add("engine_blocks_translated_total", tr.Translated)
	g.Add("engine_block_runs_total", tr.BlockRuns)
	g.Add("engine_chain_hits_total", tr.ChainHits)
	g.Add("engine_fallbacks_total", tr.Fallbacks)
	g.Add("engine_steps_total", tr.Steps)
	g.Add("engine_fused_steps_total", tr.FusedSteps)
}

// RecordNative folds one machine's native-engine counters into the
// registry. As with RecordTrans, every field is zero when the run used
// another engine; a Fallbacks increment marks a native run that delegated
// to the reference engine (observer attached or machine stopped mid-pipeline)
// or to the translated engine (program compiled for a different hardware
// config).
func (g *Registry) RecordNative(ns *mipsx.NativeStats) {
	g.Add("native_blocks_compiled_total", ns.Compiled)
	g.Add("native_block_runs_total", ns.BlockRuns)
	g.Add("native_chain_hits_total", ns.ChainHits)
	g.Add("native_fallbacks_total", ns.Fallbacks)
	g.Add("native_superblocks_total", ns.SuperBlocks)
	g.Add("native_superblock_runs_total", ns.SBRuns)
	g.Add("native_superblock_side_exits_total", ns.SBSideExits)
	g.Add("native_steps_total", ns.Steps)
	g.Add("native_fused_steps_total", ns.FusedSteps)
	g.Add("native_elided_checks_total", ns.ElidedChecks)
}

// Snapshot is a point-in-time copy of a Registry, shaped for JSON.
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot copies the registry's current state.
func (g *Registry) Snapshot() *Snapshot {
	g.mu.Lock()
	defer g.mu.Unlock()
	s := &Snapshot{Counters: make(map[string]uint64, len(g.counters))}
	for k, v := range g.counters {
		s.Counters[k] = v
	}
	if len(g.hists) > 0 {
		s.Histograms = make(map[string]HistogramSnapshot, len(g.hists))
		for k, h := range g.hists {
			s.Histograms[k] = h.snapshot()
		}
	}
	return s
}

// WriteJSON writes the snapshot as indented JSON.
func (s *Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// Histogram counts observations into fixed buckets. Not safe for
// concurrent use on its own; Registry serializes access.
type Histogram struct {
	bounds []float64 // upper bounds, ascending; counts has one extra +Inf slot
	counts []uint64
	count  uint64
	sum    float64
	min    float64
	max    float64
}

// defaultBounds are decade buckets wide enough for cycle counts and
// narrow enough for percentages.
var defaultBounds = []float64{
	1, 10, 100, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12,
}

// LatencyBounds are bucket upper bounds for latency histograms in
// seconds: 125µs to 30s with roughly 1-2.5-5 spacing, fine enough that
// bucket-interpolated quantiles track sub-millisecond cache hits and
// multi-second sweeps in the same series.
var LatencyBounds = []float64{
	125e-6, 250e-6, 500e-6,
	1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 50e-3, 100e-3, 250e-3, 500e-3,
	1, 2.5, 5, 10, 30,
}

// NewHistogram builds a histogram over ascending upper bounds (nil
// selects the decade buckets).
func NewHistogram(bounds []float64) *Histogram {
	if bounds == nil {
		bounds = defaultBounds
	}
	return &Histogram{bounds: bounds, counts: make([]uint64, len(bounds)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i]++
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count }

// Quantile estimates the q-th quantile (0 < q ≤ 1) from the buckets by
// linear interpolation within the bucket holding the target rank, the
// same estimate Prometheus's histogram_quantile computes. The tracked
// min/max clamp the first and last buckets, so a series whose mass sits
// in one bucket still reports quantiles inside the observed range.
func (h *Histogram) Quantile(q float64) float64 {
	return quantile(q, h.bounds, h.counts, h.count, h.min, h.max)
}

func quantile(q float64, bounds []float64, counts []uint64, count uint64, min, max float64) float64 {
	if count == 0 || q <= 0 {
		return 0
	}
	if q >= 1 {
		return max
	}
	rank := q * float64(count)
	var cum uint64
	for i, c := range counts {
		if float64(cum+c) < rank {
			cum += c
			continue
		}
		lo := min
		if i > 0 {
			lo = bounds[i-1]
		}
		hi := max
		if i < len(bounds) && bounds[i] < hi {
			hi = bounds[i]
		}
		if lo > hi {
			lo = hi
		}
		if c == 0 {
			return hi
		}
		return lo + (hi-lo)*(rank-float64(cum))/float64(c)
	}
	return max
}

// HistogramSnapshot is the JSON shape of a histogram: parallel
// upper-bound/count arrays (the final bucket is unbounded), summary
// statistics, and bucket-estimated latency quantiles.
type HistogramSnapshot struct {
	Bounds []float64 `json:"bounds"`
	Counts []uint64  `json:"counts"`
	Count  uint64    `json:"count"`
	Sum    float64   `json:"sum"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	P50    float64   `json:"p50"`
	P90    float64   `json:"p90"`
	P99    float64   `json:"p99"`
}

// Quantile estimates the q-th quantile from the snapshot's buckets; see
// Histogram.Quantile.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	return quantile(q, s.Bounds, s.Counts, s.Count, s.Min, s.Max)
}

func (h *Histogram) snapshot() HistogramSnapshot {
	return HistogramSnapshot{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: append([]uint64(nil), h.counts...),
		Count:  h.count,
		Sum:    h.sum,
		Min:    h.min,
		Max:    h.max,
		P50:    h.Quantile(0.50),
		P90:    h.Quantile(0.90),
		P99:    h.Quantile(0.99),
	}
}
