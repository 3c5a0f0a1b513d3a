// Command perfbench is the repository's benchmark. Each workload drives the
// public functions of rt, mipsx, core and server from outside, times a fixed
// list of operations, checks every output, and prints one JSON result line.
// README.md documents the workloads, the metrics and the noise rules.
//
//	bash perfbench/run.sh --workload cold-sweep --seed 1 --seconds 20 --trace 0
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// options is the command line. Seconds sizes the fixed amount of work a run
// does (operations per nominal second of a 2-core reference machine); it is
// not a deadline, so a slower machine runs longer instead of doing less.
type options struct {
	workload  string
	seed      int64
	seconds   int
	trace     bool
	setupOnly bool
}

// opRecord is one timed operation: its kind (operations of one kind do the
// same work), its round (a balanced slice of the operation list holding
// every kind equally often), its host time, the factor that scales its host
// time to reference time (calib.go), and why its output was wrong, if it
// was.
type opRecord struct {
	kind  string
	round int
	dur   time.Duration
	scale float64
	err   error
}

func (r opRecord) hostMS() float64 { return float64(r.dur.Nanoseconds()) / 1e6 }
func (r opRecord) refMS() float64  { return r.hostMS() * r.scale }

// session is a workload after set-up: everything a run does before its
// first timed operation has been done.
type session interface {
	// run executes the fixed operation list; tr is nil in untraced runs.
	run(tr *tracer) []opRecord
	// layers fills the per-layer metrics of a traced run, given the mean
	// operation host time in ms.
	layers(tr *tracer, opMS float64, m map[string]float64) error
	// clients is the number of closed-loop clients issuing operations.
	clients() int
	close() error
}

// workloads maps each workload to its set-up; BENCHMARK.json and README.md
// say why each was chosen.
var workloads = map[string]func(o options) (session, error){
	"cold-sweep":   newSweep,
	"service-cold": newServiceCold,
	"service-hot":  newServiceHot,
}

// Set-up time is the median over child processes, because one process
// start is at the mercy of the host: at least minSetupProbes of them, and
// as many more as fit in setupProbeTime when set-up is cheap.
const (
	minSetupProbes = 9
	setupProbeTime = 3 * time.Second
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run. Every workload reports every
// one of them, so each is defined per operation kind rather than per
// workload; README.md gives the definitions.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "op/s"},
	{"op_p50_ms", "ms"},
	{"op_p90_ms", "ms"},
	{"heap_retained_mb", "MB"},
}

// perLayer are the metrics of a traced run. A layer a workload does not
// exercise reports 0.
var perLayer = []metricDef{
	{"sexpr.parse_ms", "ms"},
	{"lispc.compile_ms", "ms"},
	{"rt.build_ms", "ms"},
	{"rt.new_machine_ms", "ms"},
	{"rt.new_machine_mb", "MB"},
	{"mipsx.translate_ms", "ms"},
	{"mipsx.native_compile_ms", "ms"},
	{"mipsx.exec_minstr_per_s", "Minstr/s"},
	{"mipsx.native.exec_minstr_per_s", "Minstr/s"},
	{"mipsx.translated.exec_minstr_per_s", "Minstr/s"},
	{"native_minstr_per_s", "Minstr/s"},
	{"translated_minstr_per_s", "Minstr/s"},
	{"mipsx.native.steps_per_kinstr", "1/kinstr"},
	{"mipsx.native.sb_exit_frac", "ratio"},
	{"mipsx.native.elided_checks_per_kinstr", "1/kinstr"},
	{"mipsx.translated.fused_frac", "ratio"},
	{"mipsx.translated.chain_hit_frac", "ratio"},
	{"mipsx.fallback_frac", "ratio"},
	{"mipsx.sim_minstr", "Minstr"},
	{"core.run_ms", "ms"},
	{"core.result_hit_frac", "ratio"},
	{"core.image_hit_frac", "ratio"},
	{"core.image_evictions", "count"},
	{"core.runs_engine.translated", "count"},
	{"core.runs_engine.native", "count"},
	{"core.runs_engine.fused", "count"},
	{"server.overhead_ms", "ms"},
	{"server.queue_wait_ms", "ms"},
	{"server.rejected_frac", "ratio"},
	{"go.alloc_mb_per_op", "MB"},
	{"go.gc_cpu_frac", "ratio"},
	{"go.rss_peak_mb", "MB"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseArgs(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	setup := workloads[o.workload]
	if o.setupOnly {
		s, err := setup(o)
		if err == nil {
			err = s.close()
		}
		if err != nil {
			fmt.Fprintln(stderr, "perfbench: set-up:", err)
			return 1
		}
		return 0
	}
	res, host, err := measure(o, setup, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	env, _ := json.Marshal(map[string]any{"env": environment(o), "host_time": host})
	line, _ := json.Marshal(res)
	fmt.Fprintf(stdout, "%s\n%s\n", env, line)
	if !res.Correct {
		return 1
	}
	return 0
}

func parseArgs(args []string, stderr io.Writer) (options, error) {
	var o options
	var trace int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "cold-sweep, service-cold or service-hot")
	fs.Int64Var(&o.seed, "seed", 1, "fixes operation order and nonces")
	fs.IntVar(&o.seconds, "seconds", 20, "amount of fixed work, in nominal seconds")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced, per-layer variant")
	fs.BoolVar(&o.setupOnly, "setup-only", false, "do the set-up and exit (set-up time probe)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if _, ok := workloads[o.workload]; !ok {
		return o, fmt.Errorf("unknown workload %q (want cold-sweep, service-cold or service-hot)", o.workload)
	}
	if o.seconds < 1 {
		return o, fmt.Errorf("--seconds must be at least 1")
	}
	if trace != 0 && trace != 1 {
		return o, fmt.Errorf("--trace must be 0 or 1")
	}
	o.trace = trace == 1
	return o, nil
}

// measure runs one workload: set-up time from child processes, then the
// workload's own set-up, a forced GC, and the timed phase. Besides the
// result it returns the timings in unscaled host time, with the host's
// median speed relative to the reference machine.
func measure(o options, setup func(options) (session, error), stderr io.Writer) (*result, map[string]float64, error) {
	setupTime, err := probeSetup(o, stderr)
	if err != nil {
		return nil, nil, err
	}
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	s, err := setup(o)
	if err != nil {
		return nil, nil, fmt.Errorf("set-up: %w", err)
	}
	runtime.GC()
	before := readRuntime()
	start := time.Now()
	recs := s.run(tr)
	wall := time.Since(start)
	after := readRuntime()

	res := &result{Attempted: len(recs), Metrics: map[string]metricValue{}}
	var opMS float64
	var host map[string]float64
	for _, r := range recs {
		opMS += r.hostMS()
		if r.err != nil {
			if res.Failed < 5 {
				fmt.Fprintf(stderr, "perfbench: %s: %v\n", r.kind, r.err)
			}
			res.Failed++
		}
	}
	res.Correct = res.Failed == 0 && len(recs) > 0
	e2e := map[string]float64{"setup_s": setupTime.Seconds()}
	if res.Correct {
		// Timings describe correct runs only; a run with failures reports
		// them and exits non-zero.
		e2e["op_p50_ms"], e2e["op_p90_ms"] = latencies(recs, opRecord.refMS)
		e2e["ops_per_s"] = throughput(recs, s.clients(), opRecord.refMS)
		host = map[string]float64{"ops_per_s": throughput(recs, s.clients(), opRecord.hostMS), "speed": hostSpeed(recs)}
		host["op_p50_ms"], host["op_p90_ms"] = latencies(recs, opRecord.hostMS)
	}
	// recs is dead from here on, so the heap is read with the program's
	// state (servers, caches) alive and the benchmark's records released.
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	e2e["heap_retained_mb"] = float64(ms.HeapAlloc) / 1e6
	if !o.trace {
		fill(res.Metrics, endToEnd, e2e)
		if err := saveUntraced(o, e2e); err != nil {
			s.close()
			return nil, nil, err
		}
		return res, host, s.close()
	}

	layers := map[string]float64{
		"go.alloc_mb_per_op": (after.allocBytes - before.allocBytes) / float64(res.Attempted) / 1e6,
		"go.gc_cpu_frac":     ratio(after.gcCPU-before.gcCPU, after.totalCPU-before.totalCPU),
		"go.rss_peak_mb":     rssPeakMB(),
	}
	if err := s.layers(tr, opMS/float64(res.Attempted), layers); err != nil {
		s.close()
		return nil, nil, fmt.Errorf("per-layer metrics: %w", err)
	}
	if err := s.close(); err != nil {
		return nil, nil, err
	}
	fill(res.Metrics, perLayer, layers)
	path, overhead, err := tr.write(o, wall, e2e)
	if err != nil {
		return nil, nil, err
	}
	fmt.Fprintf(stderr, "perfbench: %d spans written to %s; tracing overhead against the last untraced run: %v\n",
		len(tr.spans), path, overhead)
	return res, host, nil
}

// fill copies the named metrics, with their units, into out; a name the
// workload left unset reads 0 (bench_test.go checks that each workload sets
// the layers it exercises).
func fill(out map[string]metricValue, defs []metricDef, vals map[string]float64) {
	for _, d := range defs {
		out[d.name] = metricValue{Value: vals[d.name], Unit: d.unit}
	}
}

// probeSetup starts the benchmark in set-up-only mode and returns the median
// time from process start to exit, in reference time:
// runtime and package initialisation plus the workload's set-up.
func probeSetup(o options, stderr io.Writer) (time.Duration, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, fmt.Errorf("set-up probe: %w", err)
	}
	args := []string{"--workload", o.workload, "--seed", strconv.FormatInt(o.seed, 10),
		"--seconds", strconv.Itoa(o.seconds), "--setup-only"}
	var ds []float64
	ref := refTime()
	for begin := time.Now(); len(ds) < minSetupProbes || time.Since(begin) < setupProbeTime; {
		cmd := exec.Command(exe, args...)
		cmd.Stderr = stderr
		start := time.Now()
		if err := cmd.Run(); err != nil {
			return 0, fmt.Errorf("set-up probe: %w", err)
		}
		d := time.Since(start)
		next := refTime()
		ds = append(ds, float64(d)*speedScale(ref, next))
		ref = next
	}
	sort.Float64s(ds)
	return time.Duration(quantile(ds, 0.5)), nil
}

// latencies returns the typical operation's median and 90th-percentile
// latency in ms. No percentile is taken across operations of different
// lengths: p50 is the geometric mean over kinds of each kind's median, and
// p90 scales it by the 90th percentile of the operations' times relative to
// their kinds' medians, which pools the kinds' dispersion so that even a
// kind with few samples contributes to a tail with enough of them. That
// percentile is taken per round and the median over rounds kept, so a host
// slow-down lasting a few rounds does not become the run's tail.
func latencies(recs []opRecord, ms func(opRecord) float64) (p50, p90 float64) {
	byKind := map[string][]float64{}
	for _, r := range recs {
		byKind[r.kind] = append(byKind[r.kind], ms(r))
	}
	med := map[string]float64{}
	var logSum float64
	for k, ds := range byKind {
		sort.Float64s(ds)
		med[k] = quantile(ds, 0.5)
		logSum += math.Log(med[k])
	}
	rel := map[int][]float64{}
	for _, r := range recs {
		rel[r.round] = append(rel[r.round], ms(r)/med[r.kind])
	}
	var tails []float64
	for _, rs := range rel {
		sort.Float64s(rs)
		tails = append(tails, quantile(rs, 0.9))
	}
	sort.Float64s(tails)
	p50 = math.Exp(logSum / float64(len(byKind)))
	return p50, p50 * quantile(tails, 0.5)
}

// throughput is operations per second of client busy time, times the
// number of closed-loop clients: the run's rate, since its clients are
// never idle. Busy time rather than wall time leaves out the reference loop
// between operations and service-cold's server restarts.
func throughput(recs []opRecord, clients int, ms func(opRecord) float64) float64 {
	var busyMS float64
	for _, r := range recs {
		busyMS += ms(r)
	}
	return 1e3 * float64(clients*len(recs)) / busyMS
}

// hostSpeed is the median over operations of the host's speed relative to
// the reference machine.
func hostSpeed(recs []opRecord) float64 {
	var ss []float64
	for _, r := range recs {
		ss = append(ss, r.scale)
	}
	sort.Float64s(ss)
	return quantile(ss, 0.5)
}

// quantile interpolates linearly between the closest ranks of sorted xs.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// runtimeSample is the Go runtime's cumulative allocation and CPU account.
type runtimeSample struct{ allocBytes, gcCPU, totalCPU float64 }

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return runtimeSample{float64(s[0].Value.Uint64()), s[1].Value.Float64(), s[2].Value.Float64()}
}

func rssPeakMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Maxrss is in KiB on Linux
}

// environment is recorded with every result: what ran, and on what.
func environment(o options) map[string]any {
	return map[string]any{
		"workload":   o.workload,
		"seed":       o.seed,
		"seconds":    o.seconds,
		"trace":      o.trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"git_sha":    gitSHA(),
		"src_sha256": sourceHash("."),
	}
}

// gitSHA resolves HEAD from the .git directory of the working directory,
// or returns "none": the benchmark may run from a plain copy of the tree,
// which sourceHash identifies instead.
func gitSHA() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if sha, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(sha))
	}
	packed, _ := os.ReadFile(filepath.Join(".git", "packed-refs"))
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return "none"
}

// sourceHash digests every Go source and module file under root, skipping
// hidden directories (the build output and any .git), in path order.
func sourceHash(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(path), len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}
