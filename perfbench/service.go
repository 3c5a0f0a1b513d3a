package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/mipsx"
	"repro/internal/obs"
	"repro/internal/programs"
	"repro/internal/rt"
	"repro/internal/server"
	"repro/internal/sexpr"
)

// servicePrograms are the service workloads' programs: the five whose cold
// runs take milliseconds rather than seconds, so no request is one long
// simulation.
var servicePrograms = []string{"comp", "trav", "rat", "opt", "brow"}

const (
	// service-cold sends coldOpsPerSecond requests per nominal second in
	// rounds of coldRoundOps, each round on a fresh server with default
	// options. Those options keep every inline image (~5 MB each), so the
	// round size bounds the heap a run retains (~250 MB) on a machine with
	// a few GB of memory, whatever --seconds is.
	coldOpsPerSecond = 50
	coldRoundOps     = 50
	coldConfig       = "high5+check"
	// service-hot sends hotOpsPerSecond requests per nominal second over
	// hotClients clients, in rounds of hotRoundOps requests per client.
	hotOpsPerSecond = 16000
	hotRoundOps     = 1500
	hotClients      = 2
)

var hotConfigs = []string{"high5", "high5+check", "low3+check"}

// request is one prepared POST /v1/run and what its reply must say.
type request struct {
	kind   string
	body   []byte
	result string
	cycles uint64
}

// runReply is the part of the RunReport the benchmark checks.
type runReply struct {
	Result string `json:"result"`
	Cycles uint64 `json:"cycles"`
}

// endpoint is an in-process server.Server with default options, serving
// HTTP on a loopback port.
type endpoint struct {
	srv    *server.Server
	hs     *http.Server
	served chan error
	url    string
}

func startEndpoint() (*endpoint, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	e := &endpoint{
		srv:    server.New(server.Options{}),
		served: make(chan error, 1),
		url:    "http://" + ln.Addr().String(),
	}
	e.hs = &http.Server{Handler: e.srv}
	go func() { e.served <- e.hs.Serve(ln) }()
	return e, nil
}

// close drains the server and waits until it has stopped serving.
func (e *endpoint) close() error {
	e.srv.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := e.hs.Shutdown(ctx)
	if serr := <-e.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return err
}

// service drives an endpoint with closed-loop clients: each client sends
// its next request when the previous reply is in.
type service struct {
	client   *http.Client
	ep       *endpoint
	nclients int
	// rounds[r][c] is client c's request list in round r.
	rounds [][][]request
	// restart gives every round after the first a fresh server.
	restart bool

	// Growth of the /metrics counters and histograms over the timed phase,
	// summed over the servers it used.
	counters map[string]float64
	hists    map[string]histGrowth
	// newMachine, when set, measures machine construction on the
	// workload's own programs for the traced run (the server does not
	// report it).
	newMachine func() (ms, mb float64, err error)
}

type histGrowth struct{ count, sum float64 }

func newService(clients int) (*service, error) {
	ep, err := startEndpoint()
	if err != nil {
		return nil, err
	}
	return &service{
		ep:       ep,
		nclients: clients,
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: clients,
			DisableCompression:  true,
		}},
		counters: map[string]float64{},
		hists:    map[string]histGrowth{},
	}, nil
}

func (s *service) clients() int { return s.nclients }

func (s *service) close() error {
	err := s.ep.close()
	s.client.CloseIdleConnections()
	return err
}

// post sends one prepared body and decodes the reply.
func (s *service) post(body []byte) (runReply, error) {
	var r runReply
	resp, err := s.client.Post(s.ep.url+"/v1/run", "application/json", bytes.NewReader(body))
	if err != nil {
		return r, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return r, err
	}
	if resp.StatusCode != http.StatusOK {
		return r, fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(data)))
	}
	return r, json.Unmarshal(data, &r)
}

func (s *service) metrics() (*obs.Snapshot, error) {
	resp, err := s.client.Get(s.ep.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var snap obs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return nil, fmt.Errorf("/metrics: %w", err)
	}
	return &snap, nil
}

// collect adds the growth of the current server's /metrics since before.
func (s *service) collect(before *obs.Snapshot) error {
	after, err := s.metrics()
	if err != nil {
		return err
	}
	for k, v := range after.Counters {
		s.counters[k] += float64(v - before.Counters[k])
	}
	for k, h := range after.Histograms {
		g := s.hists[k]
		g.count += float64(h.Count - before.Histograms[k].Count)
		g.sum += h.Sum - before.Histograms[k].Sum
		s.hists[k] = g
	}
	return nil
}

// run plays the rounds in order. /metrics is read at the start, at every
// server restart and at the end, outside the timed requests.
func (s *service) run(tr *tracer) []opRecord {
	var out []opRecord
	fail := func(err error) []opRecord { return append(out, opRecord{kind: "server", err: err}) }
	before, err := s.metrics()
	if err != nil {
		return fail(err)
	}
	var next int32
	var refs []time.Duration
	for r, round := range s.rounds {
		if r > 0 && s.restart {
			if err := s.collect(before); err != nil {
				return fail(err)
			}
			if err := s.ep.close(); err != nil {
				return fail(err)
			}
			// Every round starts from the heap the timed phase started
			// from, so GC pacing does not carry the last server's images
			// into this round.
			runtime.GC()
			if s.ep, err = startEndpoint(); err != nil {
				return fail(err)
			}
			if before, err = s.metrics(); err != nil {
				return fail(err)
			}
		}
		if s.nclients > 1 {
			refs = append(refs, refTime())
		}
		out = append(out, s.runRound(r, round, &next, tr)...)
		s.rounds[r] = nil // sent; not part of the heap the run retains
	}
	if s.nclients > 1 {
		scaleRounds(out, append(refs, refTime()))
	}
	if err := s.collect(before); err != nil {
		return fail(err)
	}
	return out
}

// runRound runs one round's client lists concurrently; next numbers the
// operations for the trace. One client times the reference loop between
// its requests. Several clients leave their records unscaled, to be scaled
// by scaleRounds, since the loop would compete with them for the CPUs.
func (s *service) runRound(round int, clients [][]request, next *int32, tr *tracer) []opRecord {
	base := *next
	for _, reqs := range clients {
		*next += int32(len(reqs))
	}
	if len(clients) == 1 {
		return paced(len(clients[0]), func(k int) opRecord {
			rec := s.op(base+int32(k), clients[0][k], tr)
			rec.round = round
			return rec
		})
	}
	recs := make([][]opRecord, len(clients))
	var wg sync.WaitGroup
	for c, reqs := range clients {
		wg.Add(1)
		go func(c int, base int32, reqs []request) {
			defer wg.Done()
			recs[c] = make([]opRecord, len(reqs))
			for k, q := range reqs {
				recs[c][k] = s.op(base+int32(k), q, tr)
				recs[c][k].round = round
			}
		}(c, base, reqs)
		base += int32(len(reqs))
	}
	wg.Wait()
	var out []opRecord
	for _, rs := range recs {
		out = append(out, rs...)
	}
	return out
}

// smoothRounds is how many rounds on either side of a round of several
// clients scaleRounds takes reference times from.
const smoothRounds = 5

// scaleRounds scales the records of rounds of several clients. refs[r] is
// the reference time taken before round r, and refs[len(refs)-1] the one
// after the last round. The reference loop, run between rounds, tracks
// requests of ~0.1 ms less closely than it tracks single operations, so
// each round takes the median of the reference times within smoothRounds
// rounds of it: that follows the host's slower changes of speed without
// adding the loop's own noise to every round.
func scaleRounds(recs []opRecord, refs []time.Duration) {
	scale := make([]float64, len(refs)-1)
	for r := range scale {
		near := append([]time.Duration(nil), refs[max(0, r-smoothRounds):min(len(refs), r+smoothRounds+2)]...)
		sort.Slice(near, func(i, j int) bool { return near[i] < near[j] })
		scale[r] = speedScale(near[len(near)/2], near[(len(near)-1)/2])
	}
	for i := range recs {
		recs[i].scale = scale[recs[i].round]
	}
}

func (s *service) op(i int32, q request, tr *tracer) opRecord {
	rec := opRecord{kind: q.kind}
	start := time.Now()
	root := tr.begin("http.POST /v1/run", -1, i)
	r, err := s.post(q.body)
	rec.dur = time.Since(start)
	tr.end(root)
	switch {
	case err != nil:
		rec.err = err
	case r.Result != q.result:
		rec.err = fmt.Errorf("result %s, want %s", r.Result, q.result)
	case r.Cycles != q.cycles:
		rec.err = fmt.Errorf("cycles %d, want %d", r.Cycles, q.cycles)
	}
	return rec
}

// layers reads the per-layer metrics from the /metrics deltas over the
// timed phase and the client-side request times.
func (s *service) layers(tr *tracer, opMS float64, m map[string]float64) error {
	tr.counters = s.counters
	c := func(name string) float64 { return s.counters[name] }
	runs := c("runs_total")
	parseN, parseS := s.histSum(`run_phase_seconds{`, `phase="parse"`)
	_, compileS := s.histSum(`run_phase_seconds{`, `phase="compile"`)
	_, execS := s.histSum(`run_phase_seconds{`, `phase="execute"`)
	_, transS := s.histSum(`run_phase_seconds{`, `phase="translate"`)
	_, nativeS := s.histSum(`run_phase_seconds{`, `phase="native-compile"`)
	m["sexpr.parse_ms"] = 1e3 * ratio(parseS, parseN)
	m["lispc.compile_ms"] = 1e3 * ratio(compileS, parseN)
	m["rt.build_ms"] = 1e3 * ratio(parseS+compileS, parseN)
	if s.newMachine != nil {
		ms, mb, err := s.newMachine()
		if err != nil {
			return err
		}
		m["rt.new_machine_ms"], m["rt.new_machine_mb"] = ms, mb
	}
	instrs := c("instrs_total")
	m["mipsx.translate_ms"] = 1e3 * ratio(transS, runs)
	m["mipsx.native_compile_ms"] = 1e3 * ratio(nativeS, runs)
	m["mipsx.exec_minstr_per_s"] = ratio(instrs/1e6, execS-transS-nativeS)
	m["mipsx.native.steps_per_kinstr"] = ratio(c("native_steps_total"), instrs/1e3)
	m["mipsx.native.sb_exit_frac"] = ratio(c("native_superblock_side_exits_total"),
		c("native_superblock_runs_total")+c("native_superblock_side_exits_total"))
	m["mipsx.native.elided_checks_per_kinstr"] = ratio(c("native_elided_checks_total"), instrs/1e3)
	m["mipsx.translated.fused_frac"] = ratio(c("engine_fused_steps_total"), c("engine_steps_total"))
	m["mipsx.translated.chain_hit_frac"] = ratio(c("engine_chain_hits_total"), c("engine_block_runs_total"))
	m["mipsx.fallback_frac"] = ratio(c("engine_fallbacks_total")+c("native_fallbacks_total"), runs)
	m["mipsx.sim_minstr"] = instrs / 1e6

	runN, runS := s.histSum(`run_latency_seconds{`, "")
	hits, misses := c("run_cache_hits_total"), c("run_cache_misses_total")
	imgHits := c("image_cache_hits_total")
	m["core.run_ms"] = 1e3 * ratio(runS, runN)
	m["core.result_hit_frac"] = ratio(hits, hits+misses)
	m["core.image_hit_frac"] = ratio(imgHits, imgHits+c("image_cache_misses_total"))
	m["core.image_evictions"] = c("image_cache_evictions_total")
	for _, e := range []mipsx.Engine{mipsx.EngineTranslated, mipsx.EngineNative, mipsx.EngineFused} {
		m["core.runs_engine."+e.String()] = c("runs_engine_total/" + e.String())
	}

	waitN, waitS := s.histSum("http_queue_wait_seconds", "")
	m["server.overhead_ms"] = opMS - m["core.run_ms"]
	m["server.queue_wait_ms"] = 1e3 * ratio(waitS, waitN)
	m["server.rejected_frac"] = ratio(c("http_rejected_total"), c("http_requests_total/POST /v1/run"))
	return nil
}

// histSum sums count and sum growth over the histograms whose key starts
// with prefix and contains label.
func (s *service) histSum(prefix, label string) (count, sum float64) {
	for k, g := range s.hists {
		if strings.HasPrefix(k, prefix) && strings.Contains(k, label) {
			count += g.count
			sum += g.sum
		}
	}
	return count, sum
}

// newServiceCold prepares unique inline sources: each is a service program
// with a seeded nonce comment, so it misses both caches yet must simulate
// exactly like the named program.
func newServiceCold(o options) (session, error) {
	cfg, err := core.ParseConfig(coldConfig)
	if err != nil {
		return nil, err
	}
	// Reference cycles from a direct build and run of each named program.
	ref := map[string]uint64{}
	for _, name := range servicePrograms {
		p := programs.MustByName(name)
		cycles, err := directRun(p.Source, p, cfg)
		if err != nil {
			return nil, fmt.Errorf("reference run of %s: %w", name, err)
		}
		ref[name] = cycles
	}
	rng := rand.New(rand.NewSource(o.seed))
	s, err := newService(1)
	if err != nil {
		return nil, err
	}
	s.restart = true
	for r := 0; r < max(1, o.seconds*coldOpsPerSecond/coldRoundOps); r++ {
		var reqs []request
		for _, i := range rng.Perm(coldRoundOps) {
			p := programs.MustByName(servicePrograms[i%len(servicePrograms)])
			body, err := json.Marshal(server.RunRequest{
				Source: nonced(p.Source, rng),
				Config: server.ConfigSpec{Config: cfg},
			})
			if err != nil {
				s.close()
				return nil, err
			}
			reqs = append(reqs, request{kind: p.Name, body: body, result: p.Expected, cycles: ref[p.Name]})
		}
		s.rounds = append(s.rounds, [][]request{reqs})
	}
	s.newMachine = func() (float64, float64, error) { return probeNewMachine(cfg, rng) }
	return s, nil
}

// nonced prefixes src with a comment line unique to this request.
func nonced(src string, rng *rand.Rand) string {
	return fmt.Sprintf(";; nonce %016x\n%s", rng.Uint64(), src)
}

// directRun builds and runs src on the translated engine outside the
// service and returns its simulated cycles, checking p's expected result.
func directRun(src string, p *programs.Program, cfg core.Config) (uint64, error) {
	img, err := rt.Build(src, rt.BuildOptions{Scheme: cfg.Scheme, HW: cfg.HW, Checking: cfg.Checking})
	if err != nil {
		return 0, err
	}
	m := img.NewMachine()
	m.MaxCycles = maxCycles
	if err := m.RunEngine(mipsx.EngineTranslated); err != nil {
		return 0, err
	}
	if v := sexpr.String(img.DecodeItem(m.Mem, m.Regs[mipsx.RRet])); v != p.Expected {
		return 0, fmt.Errorf("result %s, want %s", v, p.Expected)
	}
	return m.Stats.Cycles, nil
}

// probeNewMachine times machine construction on nonced images of the
// service programs, the images service-cold requests build.
func probeNewMachine(cfg core.Config, rng *rand.Rand) (ms, mb float64, err error) {
	const reps = 5
	var d time.Duration
	var bytes float64
	for _, name := range servicePrograms {
		p := programs.MustByName(name)
		img, err := rt.Build(nonced(p.Source, rng), rt.BuildOptions{Scheme: cfg.Scheme, HW: cfg.HW, Checking: cfg.Checking})
		if err != nil {
			return 0, 0, err
		}
		for r := 0; r < reps; r++ {
			a0 := readRuntime().allocBytes
			start := time.Now()
			img.NewMachine()
			d += time.Since(start)
			bytes += readRuntime().allocBytes - a0
		}
	}
	n := float64(reps * len(servicePrograms))
	return float64(d.Nanoseconds()) / 1e6 / n, bytes / 1e6 / n, nil
}

// newServiceHot primes the 15 keys and splits a balanced, seeded request
// list between the clients.
func newServiceHot(o options) (session, error) {
	s, err := newService(hotClients)
	if err != nil {
		return nil, err
	}
	var keys []request
	for _, name := range servicePrograms {
		p := programs.MustByName(name)
		for _, c := range hotConfigs {
			cfg, err := core.ParseConfig(c)
			if err != nil {
				s.close()
				return nil, err
			}
			body, err := json.Marshal(server.RunRequest{Program: name, Config: server.ConfigSpec{Config: cfg}})
			if err != nil {
				s.close()
				return nil, err
			}
			r, err := s.post(body)
			if err == nil && r.Result != p.Expected {
				err = fmt.Errorf("result %s, want %s", r.Result, p.Expected)
			}
			if err != nil {
				s.close()
				return nil, fmt.Errorf("priming %s/%s: %w", name, c, err)
			}
			keys = append(keys, request{kind: name + "/" + c, body: body, result: p.Expected, cycles: r.Cycles})
		}
	}
	rng := rand.New(rand.NewSource(o.seed))
	for r := 0; r < max(1, o.seconds*hotOpsPerSecond/(hotClients*hotRoundOps)); r++ {
		round := make([][]request, hotClients)
		for c := range round {
			for _, i := range rng.Perm(hotRoundOps) {
				round[c] = append(round[c], keys[i%len(keys)])
			}
		}
		s.rounds = append(s.rounds, round)
	}
	return s, nil
}
