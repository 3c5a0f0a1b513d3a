// Package core is the experiment harness: it runs the ten benchmark
// programs under tag-scheme / hardware / checking configurations and
// regenerates every table and figure of the paper's evaluation —
// Table 1 (cost of adding run-time checking), Figure 1 (time per tag
// operation), Figure 2 (instruction-frequency changes when masking is
// eliminated), Table 2 (cycles eliminated per degree of hardware support),
// Table 3 (program sizes) — plus the §4.2 tag-encoding ablation, the §3.1
// pre-shifted-tag ablation, the §6.2.2 dispatch-stress estimate and the §7
// SPUR comparison.
package core

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"repro/internal/lispc"
	"repro/internal/mipsx"
	"repro/internal/obs"
	"repro/internal/programs"
	"repro/internal/rt"
	"repro/internal/sexpr"
	"repro/internal/tags"
)

// Config selects one simulated machine configuration.
type Config struct {
	Scheme   tags.Kind
	HW       tags.HW
	Checking bool
}

// String identifies the configuration compactly, in a spelling ParseConfig
// accepts. Every flag that changes the machine is shown (memtag geometry
// at its defaults is elided, and "memtaghw" subsumes "memtag"), so two
// configurations render identically only when they are behaviorally the
// same machine; Config.Key() is still the cache identity because it also
// canonicalizes field combinations String never sees.
func (c Config) String() string {
	s := c.Scheme.String()
	if c.Checking {
		s += "+check"
	}
	hw := c.HW.Normalized()
	for _, f := range []struct {
		on   bool
		name string
	}{
		{hw.MemIgnoresTags, "mem"},
		{hw.TagBranch, "tbr"},
		{hw.ArithTrap, "atrap"},
		{hw.ParallelCheckList, "pclist"},
		{hw.ParallelCheckAll, "pcall"},
		{hw.PreshiftedPairTag, "preshift"},
		{hw.ShadowRegisters, "shadow"},
		{hw.Memtag && !hw.MemtagHW, "memtag"},
		{hw.MemtagHW, "memtaghw"},
		{hw.Memtag && hw.MemtagGranule != tags.DefaultMemtagGranule,
			fmt.Sprintf("mtg%d", hw.MemtagGranule)},
		{hw.Memtag && hw.MemtagBits != tags.DefaultMemtagBits,
			fmt.Sprintf("mtw%d", hw.MemtagBits)},
	} {
		if f.on {
			s += "+" + f.name
		}
	}
	return s
}

// Result is one program execution under one configuration.
type Result struct {
	Program string
	Config  Config
	Stats   mipsx.Stats
	Units   map[string]lispc.UnitStats
	Value   string
	Output  string
	// Engine is the engine that executed the run: the one requested, or
	// the reference engine when an attached Observer forced the fallback.
	// A cached replay reports the engine of the run that filled the cache.
	Engine mipsx.Engine
	// Phases is the timeline of the run that produced this result:
	// parse/compile, new-machine, execute, the JIT phases carved out of
	// execute, and stats-flush. Cached replays return the original run's
	// phases.
	Phases []obs.Span

	// image is the snapshot of the run's image that /v1/introspect
	// serves, taken when the run ended; the image itself is not kept.
	image ImageIntrospection

	bodyOnce sync.Once
	body     []byte
}

// Body returns the response body encode builds for res, calling encode on
// the first call only; later calls return the same shared slice, which
// must not be modified. The memo lives and is evicted with the Result, so
// it is keyed exactly like the result cache: encode must depend on the
// request only through the program, which its name identifies, and the
// configuration's Key.
func (res *Result) Body(encode func() []byte) []byte {
	res.bodyOnce.Do(func() { res.body = encode() })
	return res.body
}

// Runner executes and memoizes benchmark runs. Safe for concurrent use:
// results are cached in an LRU keyed by (program name, Config.Key), and
// concurrent requests for the same key are single-flighted so one
// simulation serves every waiter and the metrics registry records each
// unique run exactly once. Only results are cached: a run's compiled
// image lives as long as the run, since nothing simulates a key again
// while its result is cached, so a kept image would never be reused.
type Runner struct {
	mu       sync.Mutex
	entries  map[string]*list.Element // key → element whose Value is *cacheEntry
	lru      *list.List               // front = most recently used
	inflight map[string]*flight
	// runtimes holds the compiled sys + lib units per key (runtimeFor).
	runtimes map[rt.RuntimeKey]*rt.Runtime
	// Engine selects the simulator engine for uncached runs. The zero
	// value is mipsx.EngineNative, the default engine; every engine
	// produces bit-identical results, so switching engines never
	// invalidates cached results.
	Engine mipsx.Engine
	// MaxCycles bounds each run (default 2e9).
	MaxCycles uint64
	// Workers bounds Prewarm concurrency; zero or negative means one
	// worker per available CPU (runtime.GOMAXPROCS).
	Workers int
	// CacheCap bounds the number of cached results; the least recently
	// used entry is evicted beyond it. Zero means unbounded, which is
	// right for table sweeps (a sweep revisits every pair) and wrong for
	// a long-lived service (set it from the server's cache size).
	CacheCap int
	// Metrics aggregates the statistics of every uncached run plus the
	// cache counters (run_cache_hits_total, run_cache_misses_total,
	// run_cache_evictions_total, runs_canceled_total). Always non-nil on
	// a NewRunner; snapshot it after a sweep for a machine-readable
	// account of the simulation work done.
	Metrics *obs.Registry
	// Observe, when non-nil, supplies an observer to attach to each
	// uncached run's machine. Cached results bypass it, so only set it on
	// runners whose cache discipline matches the tracing intent.
	Observe func(p *programs.Program, cfg Config) mipsx.Observer
}

// cacheEntry is one LRU slot.
type cacheEntry struct {
	key string
	res *Result
}

// flight is one in-progress uncached run; waiters block on done.
type flight struct {
	done chan struct{}
	res  *Result
	err  error
}

// NewRunner returns an empty runner.
func NewRunner() *Runner {
	return &Runner{
		entries:   make(map[string]*list.Element),
		lru:       list.New(),
		inflight:  make(map[string]*flight),
		runtimes:  make(map[rt.RuntimeKey]*rt.Runtime),
		MaxCycles: 2_000_000_000,
		Metrics:   obs.NewRegistry(),
	}
}

// CacheLen returns the number of cached results.
func (r *Runner) CacheLen() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lru.Len()
}

// cacheGet returns the cached result for key, marking it most recently
// used. Caller holds r.mu.
func (r *Runner) cacheGet(key string) (*Result, bool) {
	e, ok := r.entries[key]
	if !ok {
		return nil, false
	}
	r.lru.MoveToFront(e)
	return e.Value.(*cacheEntry).res, true
}

// cacheAdd inserts a result, evicting the least recently used entry past
// CacheCap. Caller holds r.mu.
func (r *Runner) cacheAdd(key string, res *Result) {
	if e, ok := r.entries[key]; ok {
		r.lru.MoveToFront(e)
		e.Value.(*cacheEntry).res = res
		return
	}
	r.entries[key] = r.lru.PushFront(&cacheEntry{key: key, res: res})
	for r.CacheCap > 0 && r.lru.Len() > r.CacheCap {
		oldest := r.lru.Back()
		r.lru.Remove(oldest)
		delete(r.entries, oldest.Value.(*cacheEntry).key)
		r.Metrics.Add("run_cache_evictions_total", 1)
	}
}

// Run executes program p under cfg (memoized).
func (r *Runner) Run(p *programs.Program, cfg Config) (*Result, error) {
	return r.RunCtx(context.Background(), p, cfg)
}

// RunCtx is Run with cancellation: the context's cancellation or deadline
// is polled by the simulator engine mid-run, so a canceled request stops
// burning cycles within ~64K simulated cycles. A run canceled by the
// context of the request that started it is not cached, and concurrent
// waiters on the same key retry (their own context may still be live); a
// deterministic failure (build error, fault, runtime error) is returned
// to every waiter.
func (r *Runner) RunCtx(ctx context.Context, p *programs.Program, cfg Config) (*Result, error) {
	return r.RunEngineCtx(ctx, p, cfg, r.Engine)
}

// RunEngineCtx is RunCtx with an explicit engine override for this
// request. All engines produce bit-identical results, so the override
// does not partition the cache: a cached or in-flight result produced by
// any engine serves the request, and the override only decides which
// engine an uncached run led by this request executes on.
func (r *Runner) RunEngineCtx(ctx context.Context, p *programs.Program, cfg Config, engine mipsx.Engine) (*Result, error) {
	key := p.Name + "/" + cfg.Key()
	start := time.Now()
	for {
		r.mu.Lock()
		if res, ok := r.cacheGet(key); ok {
			r.mu.Unlock()
			r.Metrics.Add("run_cache_hits_total", 1)
			r.observeRunLatency("hit", start)
			return res, nil
		}
		if f, ok := r.inflight[key]; ok {
			r.mu.Unlock()
			select {
			case <-f.done:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			if f.err == nil {
				r.Metrics.Add("run_cache_hits_total", 1)
				r.observeRunLatency("hit", start)
				return f.res, nil
			}
			if isCancellation(f.err) {
				continue // the leader's request died, not the run; retry
			}
			return nil, f.err
		}
		f := &flight{done: make(chan struct{})}
		r.inflight[key] = f
		r.mu.Unlock()

		r.Metrics.Add("run_cache_misses_total", 1)
		f.res, f.err = r.runUncached(ctx, p, cfg, key, engine)
		r.mu.Lock()
		delete(r.inflight, key)
		if f.err == nil {
			r.cacheAdd(key, f.res)
		}
		r.mu.Unlock()
		close(f.done)
		if f.err == nil {
			r.observeRunLatency("miss", start)
		}
		return f.res, f.err
	}
}

// observeRunLatency splits end-to-end run latency by cache outcome: hits
// (including waits on an in-flight leader) answer in microseconds while
// misses pay compile plus simulate, so folding them into one series
// would crush both distributions.
func (r *Runner) observeRunLatency(cache string, start time.Time) {
	r.Metrics.ObserveBounds(obs.Labeled("run_latency_seconds", "cache", cache),
		obs.LatencyBounds, time.Since(start).Seconds())
}

// isCancellation reports whether err stems from a canceled or expired
// context rather than from the simulation itself.
func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// imageFor builds p's image under cfg on the key's shared compiled
// runtime; key labels errors. The image is the caller's alone: a run that
// misses the result cache builds afresh, which costs about a millisecond
// against the run itself.
func (r *Runner) imageFor(p *programs.Program, cfg Config, key string, tl *obs.Timeline) (*rt.Image, error) {
	opts := rt.BuildOptions{
		Scheme:    cfg.Scheme,
		HW:        cfg.HW,
		Checking:  cfg.Checking,
		HeapWords: p.HeapWords,
		Phase: func(name string, d time.Duration) {
			tl.Record(name, time.Now().Add(-d), d)
		},
	}
	sys, err := r.runtimeFor(opts, tl)
	if err != nil {
		return nil, fmt.Errorf("%s: build: %w", key, err)
	}
	img, err := sys.Build(p.Source, opts)
	if err != nil {
		return nil, fmt.Errorf("%s: build: %w", key, err)
	}
	return img, nil
}

// runtimeCap bounds the compiled runtimes a Runner keeps (~145 KB each):
// room for every configuration of the table sweeps, while a scheme search
// that tries more configurations than that recompiles some.
const runtimeCap = 256

// runtimeFor returns the compiled runtime (sys and lib units) an image
// built with opts links against, compiling it on the first build of its
// key. The compilation is recorded as a compile span on tl, ahead of the
// program's own parse and compile. Concurrent first builds of one key
// may each compile; the first to finish is kept.
func (r *Runner) runtimeFor(opts rt.BuildOptions, tl *obs.Timeline) (*rt.Runtime, error) {
	key, err := opts.RuntimeKey()
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	sys := r.runtimes[key]
	r.mu.Unlock()
	if sys != nil {
		return sys, nil
	}
	end := tl.Start(obs.PhaseCompile)
	sys, err = rt.CompileRuntime(opts)
	end()
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if prev, ok := r.runtimes[key]; ok {
		return prev, nil
	}
	if len(r.runtimes) >= runtimeCap {
		for k := range r.runtimes { // evict an arbitrary runtime
			delete(r.runtimes, k)
			break
		}
	}
	r.runtimes[key] = sys
	return sys, nil
}

// runUncached builds and executes one run; key labels errors. Every run
// carries a phase timeline (parse, compile, new-machine, translate,
// native-compile, execute, stats-flush) recorded entirely off the
// engines' dispatch loops: build phases come from rt.Build's hook, the
// JIT phases from the fresh image's cumulative compile-time counters.
// Nothing the Runner keeps references the image once this returns.
func (r *Runner) runUncached(ctx context.Context, p *programs.Program, cfg Config, key string, engine mipsx.Engine) (*Result, error) {
	tl := obs.NewTimeline()
	img, err := r.imageFor(p, cfg, key, tl)
	if err != nil {
		return nil, err
	}
	machStart := time.Now()
	var m *mipsx.Machine
	if r.Observe != nil {
		// An observer may hold on to the machine, so an observed run's
		// memory stays on the heap.
		m = img.NewMachine()
	} else {
		// Nothing outside this call sees m, so its memory is leased and
		// goes back to the kernel once the result is decoded (or the run
		// failed).
		m = img.LeaseMachine()
		defer m.Release()
	}
	tl.Record(obs.PhaseNewMachine, machStart, time.Since(machStart))
	m.MaxCycles = r.MaxCycles
	// Only a context that can end is worth polling; Background, TODO and
	// WithoutCancel contexts have a nil Done channel.
	if ctx.Done() != nil {
		m.Ctx = ctx
	}
	if r.Observe != nil {
		m.Obs = r.Observe(p, cfg)
	}
	r.Metrics.Add("runs_engine_total/"+engine.String(), 1)
	executed := m.Executes(engine)
	execStart := time.Now()
	runErr := m.RunEngine(engine)
	tl.Record(obs.PhaseExecute, execStart, time.Since(execStart))
	jt, jn := img.Prog.JITTimes()
	if jt > 0 {
		tl.Record(obs.PhaseTranslate, execStart, jt)
	}
	if jn > 0 {
		tl.Record(obs.PhaseNativeCompile, execStart, jn)
	}
	if runErr != nil {
		if isCancellation(runErr) {
			r.Metrics.Add("runs_canceled_total", 1)
		} else {
			r.Metrics.Add("run_errors_total", 1)
		}
		return nil, fmt.Errorf("%s: run: %w", key, runErr)
	}
	flushStart := time.Now()
	value := sexpr.String(img.DecodeItem(m.Mem, m.Regs[mipsx.RRet]))
	if p.Expected != "" && value != p.Expected {
		return nil, fmt.Errorf("%s: result %s, want %s (configuration broke program semantics)",
			key, value, p.Expected)
	}
	res := &Result{
		Program: p.Name,
		Config:  cfg,
		Stats:   m.Stats,
		Units:   img.Units,
		Value:   value,
		Output:  m.Output.String(),
		Engine:  executed,
		image: ImageIntrospection{
			Key:     key,
			Program: p.Name,
			Config:  cfg.String(),
			Runs:    1,
			Engine:  img.Prog.Introspect(),
			Trans:   m.Trans,
			Native:  m.Native,
		},
	}
	r.Metrics.RecordRun(metricProgram(p), metricConfig(cfg), &m.Stats)
	r.Metrics.RecordTrans(&m.Trans)
	r.Metrics.RecordNative(&m.Native)
	tl.Record(obs.PhaseStatsFlush, flushStart, time.Since(flushStart))
	res.Phases = tl.Spans()
	for _, s := range res.Phases {
		r.Metrics.ObserveBounds(
			obs.Labeled("run_phase_seconds", "engine", engine.String(), "phase", s.Phase),
			obs.LatencyBounds, s.DurUS/1e6)
	}
	return res, nil
}

// metricProgram is p's label in per-program metrics: its name for a
// benchmark program, "inline" for any other source, so distinct inline
// programs share one series instead of minting one each.
func metricProgram(p *programs.Program) string {
	if _, ok := programs.ByName(p.Name); ok {
		return p.Name
	}
	return "inline"
}

// metricHW lists the hardware with a named label in per-config metrics:
// none, every Table 2 row, and the presets the other built-in tables run
// (pre-shifted pair tags, software and hardware memory tagging).
var metricHW = func() []tags.HW {
	hw := []tags.HW{{}, {PreshiftedPairTag: true}, {Memtag: true}, {Memtag: true, MemtagHW: true}}
	for _, row := range Table2Rows {
		hw = append(hw, row.HW)
	}
	for i := range hw {
		hw[i] = hw[i].Normalized()
	}
	return hw
}()

// metricConfig is cfg's label in per-config metrics: its spelling for a
// built-in scheme under one of metricHW, with or without checking (every
// config the built-in tables run), "other" for any other scheme spec or
// hardware combination, so the many configs a client may name share one
// series instead of minting one each.
func metricConfig(cfg Config) string {
	if _, ok := tags.BuiltinSpec(cfg.Scheme); ok && slices.Contains(metricHW, cfg.HW.Normalized()) {
		return cfg.String()
	}
	return "other"
}

// ImageIntrospection is the engine internals of the image behind one
// cached result, served by GET /v1/introspect: its translated blocks and
// superblock streams, and the engine counters of the run that produced
// the result. Each key runs once per stay in the cache, so Runs is 1.
type ImageIntrospection struct {
	Key     string                    `json:"key"`
	Program string                    `json:"program"`
	Config  string                    `json:"config"`
	Runs    uint64                    `json:"runs"`
	Engine  mipsx.EngineIntrospection `json:"engine"`
	Trans   mipsx.TransStats          `json:"trans"`
	Native  mipsx.NativeStats         `json:"native"`
}

// IntrospectImages returns the snapshot of every cached result's image,
// most recently used first.
func (r *Runner) IntrospectImages() []ImageIntrospection {
	r.mu.Lock()
	defer r.mu.Unlock()
	infos := make([]ImageIntrospection, 0, r.lru.Len())
	for e := r.lru.Front(); e != nil; e = e.Next() {
		infos = append(infos, e.Value.(*cacheEntry).res.image)
	}
	return infos
}

// Prewarm fills the cache for every (program, config) pair concurrently;
// the table builders call it so sweeps use all cores. The first error (if
// any) is returned; successfully completed runs stay cached either way.
func (r *Runner) Prewarm(ps []*programs.Program, cfgs []Config) error {
	return r.PrewarmCtx(context.Background(), ps, cfgs)
}

// PrewarmCtx is Prewarm with cancellation: canceling ctx stops feeding
// new pairs and interrupts the runs in flight.
func (r *Runner) PrewarmCtx(ctx context.Context, ps []*programs.Program, cfgs []Config) error {
	type job struct {
		p   *programs.Program
		cfg Config
	}
	jobs := make(chan job)
	errc := make(chan error, 1)
	var wg sync.WaitGroup
	workers := r.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				if _, err := r.RunCtx(ctx, j.p, j.cfg); err != nil {
					select {
					case errc <- err:
					default:
					}
				}
			}
		}()
	}
feed:
	for _, p := range ps {
		for _, cfg := range cfgs {
			select {
			case jobs <- job{p, cfg}:
			case <-ctx.Done():
				break feed
			}
		}
	}
	close(jobs)
	wg.Wait()
	select {
	case err := <-errc:
		return err
	default:
		return ctx.Err()
	}
}

// MustRun is Run for harness internals that treat failure as fatal.
func (r *Runner) MustRun(p *programs.Program, cfg Config) *Result {
	res, err := r.Run(p, cfg)
	if err != nil {
		panic(err)
	}
	return res
}

// Baseline is the straightforward PSL tag implementation of §2.1: a 5-bit
// tag in the most significant bits, all tag handling in software.
func Baseline(checking bool) Config {
	return Config{Scheme: tags.High5, Checking: checking}
}

// HWRow names one degree of hardware support from Table 2.
type HWRow struct {
	ID    string  `json:"id"`
	Label string  `json:"label"`
	HW    tags.HW `json:"hw"`
}

// Table2Rows are the seven rows of Table 2 plus the SPUR-like subset
// discussed in §7.
var Table2Rows = []HWRow{
	{"1", "avoid tag masking", tags.HW{MemIgnoresTags: true}},
	{"2", "avoid tag extraction", tags.HW{TagBranch: true}},
	{"3", "avoid masking and extraction", tags.HW{MemIgnoresTags: true, TagBranch: true}},
	{"4", "support generic arithmetic", tags.HW{ArithTrap: true}},
	{"5", "avoid tag checking on list ops", tags.HW{ParallelCheckList: true}},
	{"6", "avoid tag checking (lists+vectors)", tags.HW{ParallelCheckAll: true}},
	{"7", "all of rows 1+2+4+6", tags.HW{
		MemIgnoresTags: true, TagBranch: true, ArithTrap: true, ParallelCheckAll: true}},
	{"SPUR", "rows 1+2+4+5 (SPUR-like)", tags.HW{
		MemIgnoresTags: true, TagBranch: true, ArithTrap: true, ParallelCheckList: true}},
}
