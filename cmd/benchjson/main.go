// Command benchjson runs the BenchmarkPrograms throughput benchmark under
// all three simulator engines, and the BenchmarkCold build-and-run-once
// benchmark under native and translated, and archives the result as
// BENCH_<n>.json at the repository root (the lowest unused index). The
// Makefile target `make bench-json` invokes it; `make bench-compare` prints the per-engine
// comparison table from a fresh run. When an earlier BENCH_<n>.json
// exists, the run also prints each engine's geometric-mean speedup over
// the most recent archived baseline.
//
// With -smoke, it instead runs a short BenchmarkEngine and BenchmarkCold
// pass and fails if the translated engine falls under 2.0x the reference
// engine, the native engine under 1.5x the translated one, or cold native
// under 1.0x cold translated (geometric means over the benchmark
// programs) — the CI guard against an engine regression. Both outputs
// print each engine's geometric-mean Minstr/s, warm and cold, under the
// ratios.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// Doc is the archived benchmark record.
type Doc struct {
	Schema     string   `json:"schema"`
	Date       string   `json:"date"`
	GitSHA     string   `json:"git_sha,omitempty"` // commit the numbers were measured at
	GoVersion  string   `json:"go_version"`
	GOOS       string   `json:"goos"`
	GOARCH     string   `json:"goarch"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	Benchtime  string   `json:"benchtime"`
	Engines    []Engine `json:"engines"`
	// Cold holds BenchmarkCold per engine: every iteration builds a fresh
	// image and runs it once, so translation and superblock formation are
	// paid in full, as in a real run (absent in archives before it).
	Cold []Engine `json:"cold,omitempty"`
}

// gitSHA asks git for HEAD; an archived record should say which commit
// produced its numbers. Best-effort: outside a work tree (or without
// git) the field is simply omitted.
func gitSHA() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

// Engine holds one engine's per-program results.
type Engine struct {
	Name     string    `json:"name"` // "native", "translated" or "reference" ("fused" in archives before its removal)
	Programs []Program `json:"programs"`
}

// Program is one BenchmarkPrograms sub-benchmark line.
type Program struct {
	Name      string  `json:"name"`
	Procs     int     `json:"procs"`
	NsPerOp   float64 `json:"ns_per_op"`
	MinstrS   float64 `json:"minstr_per_s"`
	SimCycles uint64  `json:"sim_cycles"`
	BPerOp    float64 `json:"b_per_op"`
	AllocsOp  float64 `json:"allocs_per_op"`
}

// engines lists the selector spellings passed through SIM_ENGINE. The
// names are explicit (never "") because the empty selector means the
// default engine, which would silently re-measure native twice.
var engines = []string{"native", "translated", "reference"}

// coldEngines are BenchmarkCold's sub-benchmarks: the two fast engines.
var coldEngines = []string{"native", "translated"}

func main() {
	smoke := flag.Bool("smoke", false, "short BenchmarkEngine and BenchmarkCold run; exit nonzero if translated is under 2.0x reference, native under 1.5x translated, or cold native under 1.0x cold translated")
	benchtime := flag.String("benchtime", "20x", "go test -benchtime for the archived run (iterations, not wall time: superblock formation and chain warmup amortize over iterations, and a 1x run measures mostly warmup)")
	smoketime := flag.String("smoketime", "5x", "go test -benchtime for -smoke")
	out := flag.String("out", "", "output path (default: BENCH_<n>.json for the lowest unused n; -smoke default: no file)")
	baseline := flag.String("baseline", "", "archived BENCH_<n>.json to compare the run against (default: the highest-numbered existing one)")
	flag.Parse()

	var err error
	if *smoke {
		err = runSmoke(*smoketime, *out)
	} else {
		err = runArchive(*benchtime, *out, *baseline)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

func runArchive(benchtime, out, baseline string) error {
	doc := Doc{
		Schema:     "tagsim-bench/v1",
		Date:       time.Now().UTC().Format(time.RFC3339),
		GitSHA:     gitSHA(),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Benchtime:  benchtime,
	}
	for _, eng := range engines {
		outBuf, err := runBench("^BenchmarkPrograms$", benchtime, eng)
		if err != nil {
			return fmt.Errorf("engine %s: %w", eng, err)
		}
		progs, err := parseBench(outBuf, "BenchmarkPrograms/")
		if err != nil {
			return fmt.Errorf("engine %s: %w", eng, err)
		}
		doc.Engines = append(doc.Engines, Engine{Name: eng, Programs: progs})
	}
	coldBuf, err := runBench("^BenchmarkCold$", benchtime, "")
	if err != nil {
		return fmt.Errorf("cold: %w", err)
	}
	for _, eng := range coldEngines {
		progs, err := parseBench(coldBuf, "BenchmarkCold/"+eng+"/")
		if err != nil {
			return fmt.Errorf("cold %s: %w", eng, err)
		}
		doc.Cold = append(doc.Cold, Engine{Name: eng, Programs: progs})
	}
	printComparison(&doc)
	path := out
	if path == "" {
		path = nextBenchFile()
	}
	if baseline == "" {
		baseline = latestBenchFile(path)
	}
	if baseline != "" {
		if err := printBaseline(&doc, baseline); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson: baseline comparison skipped:", err)
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Println("wrote", path)
	return nil
}

// runSmoke runs BenchmarkEngine (all three engines' sub-benchmarks) and
// BenchmarkCold in one go test pass and fails if the engine ladder slips
// in geometric mean (smokeFloors).
func runSmoke(benchtime, out string) error {
	outBuf, err := runBench("^(BenchmarkEngine|BenchmarkCold)$/^(native|translated|reference)$", benchtime, "")
	if err != nil {
		return err
	}
	warm, err := minstrFrom(outBuf, "BenchmarkEngine/", engines)
	if err != nil {
		return err
	}
	cold, err := minstrFrom(outBuf, "BenchmarkCold/", coldEngines)
	if err != nil {
		return err
	}
	if out != "" {
		if err := os.WriteFile(out, outBuf, 0o644); err != nil {
			return err
		}
	}
	fmt.Printf("%-8s %12s %12s %12s %8s %8s %8s\n", "program", "native", "translated", "reference", "na/tr", "tr/ref", "cold n/t")
	naTr := geomeanRatio(warm["native"], warm["translated"], func(name string, na, tr float64) {
		ref := warm["reference"][name]
		fmt.Printf("%-8s %9.1f M/s %9.1f M/s %9.1f M/s %7.2fx %7.2fx %7.2fx\n",
			name, na, tr, ref, na/tr, tr/ref, ratio(cold["native"][name], cold["translated"][name]))
	})
	trRef := geomeanRatio(warm["translated"], warm["reference"], nil)
	coldNaTr := geomeanRatio(cold["native"], cold["translated"], nil)
	if naTr == 0 || trRef == 0 || coldNaTr == 0 {
		return fmt.Errorf("no comparable benchmark lines:\n%s", outBuf)
	}
	fmt.Printf("geomean native/translated: %.2fx, translated/reference: %.2fx, cold native/translated: %.2fx\n",
		naTr, trRef, coldNaTr)
	fmt.Println(absLine(warm, cold))
	return smokeFloors(naTr, trRef, coldNaTr)
}

// smokeFloors is the smoke gate on the geometric means: warm translated
// under 2.0x reference, warm native under 1.5x translated, or cold native
// under 1.0x cold translated fails. The warm floors sit below the archived
// measurements (BENCH_4: 2.55x and 1.84x; every program's
// translated/reference ratio is at least 2.08x); the cold floor is the
// point of the native engine, since every real run is cold (EXPERIMENTS.md
// "Cold native: formation cost": 1.53x geomean). The margins absorb
// short-benchtime jitter: individual programs jitter, the mean does not
// cross a floor unless an engine actually regressed.
func smokeFloors(naTr, trRef, coldNaTr float64) error {
	switch {
	case trRef < 2.0:
		return fmt.Errorf("translated engine geomean %.2fx < 2.0x reference", trRef)
	case naTr < 1.5:
		return fmt.Errorf("native engine geomean %.2fx < 1.5x translated", naTr)
	case coldNaTr < 1.0:
		return fmt.Errorf("cold native engine geomean %.2fx < 1.0x cold translated", coldNaTr)
	}
	return nil
}

// minstrFrom parses the sub-benchmark lines of each engine under prefix
// (prefix + engine + "/" + program) into Minstr/s by engine, then program.
func minstrFrom(out []byte, prefix string, engs []string) (map[string]map[string]float64, error) {
	var es []Engine
	for _, eng := range engs {
		progs, err := parseBench(out, prefix+eng+"/")
		if err != nil {
			return nil, fmt.Errorf("engine %s: %w", eng, err)
		}
		es = append(es, Engine{Name: eng, Programs: progs})
	}
	return minstrBy(es), nil
}

// geomeanRatio returns the geometric mean of num[name]/den[name] over the
// programs both maps hold, calling visit (when non-nil) per program. A
// zero return means no program was comparable.
func geomeanRatio(num, den map[string]float64, visit func(name string, n, d float64)) float64 {
	logSum, n := 0.0, 0
	for name, nv := range num {
		dv := den[name]
		if nv <= 0 || dv <= 0 {
			continue
		}
		if visit != nil {
			visit(name, nv, dv)
		}
		logSum += math.Log(nv / dv)
		n++
	}
	if n == 0 {
		return 0
	}
	return math.Exp(logSum / float64(n))
}

// printComparison prints per-program warm Minstr/s side by side with the
// native/translated and translated/reference speedup columns and, when the
// run has a cold row, the cold native and translated ms per run and their
// native/translated ratio; then the geometric means over all programs.
func printComparison(doc *Doc) {
	byEngine := minstrBy(doc.Engines)
	coldMS := map[string]map[string]float64{}
	for _, e := range doc.Cold {
		m := map[string]float64{}
		for _, p := range e.Programs {
			m[p.Name] = p.NsPerOp / 1e6
		}
		coldMS[e.Name] = m
	}
	var order []string
	if len(doc.Engines) > 0 {
		for _, p := range doc.Engines[0].Programs {
			order = append(order, p.Name)
		}
	}
	fmt.Printf("%-8s", "program")
	for _, e := range engines {
		fmt.Printf(" %12s", e)
	}
	fmt.Printf(" %8s %8s", "na/tr", "tr/ref")
	if len(doc.Cold) > 0 {
		fmt.Printf(" %12s %12s %8s", "cold native", "cold transl", "cold n/t")
	}
	fmt.Println()
	for _, name := range order {
		fmt.Printf("%-8s", name)
		for _, e := range engines {
			fmt.Printf(" %8.1f M/s", byEngine[e][name])
		}
		fmt.Printf(" %7.2fx %7.2fx", ratio(byEngine["native"][name], byEngine["translated"][name]),
			ratio(byEngine["translated"][name], byEngine["reference"][name]))
		if len(doc.Cold) > 0 {
			na, tr := coldMS["native"][name], coldMS["translated"][name]
			// Both engines run the same instructions, so the throughput
			// ratio is the inverse of the time ratio.
			fmt.Printf(" %9.1f ms %9.1f ms %7.2fx", na, tr, ratio(tr, na))
		}
		fmt.Println()
	}
	naTr := geomeanRatio(byEngine["native"], byEngine["translated"], nil)
	trRef := geomeanRatio(byEngine["translated"], byEngine["reference"], nil)
	fmt.Printf("geomean native/translated: %.2fx, translated/reference: %.2fx over %d programs\n",
		naTr, trRef, len(order))
	cold := minstrBy(doc.Cold)
	if len(doc.Cold) > 0 {
		fmt.Printf("geomean cold native/translated: %.2fx\n",
			geomeanRatio(cold["native"], cold["translated"], nil))
	}
	fmt.Println(absLine(byEngine, cold))
}

// absLine prints each engine's geometric-mean Minstr/s, warm and (when
// measured) cold, next to the ratios: a ratio can rise because its
// baseline sank, which only the absolute numbers show.
func absLine(warm, cold map[string]map[string]float64) string {
	part := func(label string, by map[string]map[string]float64, engs []string) string {
		var fs []string
		for _, e := range engs {
			fs = append(fs, fmt.Sprintf("%s %.1f", e, geomean(by[e])))
		}
		return label + ": " + strings.Join(fs, ", ")
	}
	line := "geomean Minstr/s, " + part("warm", warm, engines)
	if len(cold) > 0 {
		line += "; " + part("cold", cold, coldEngines)
	}
	return line
}

// geomean is the geometric mean of the positive values of m, or 0 when it
// has none.
func geomean(m map[string]float64) float64 {
	logSum, n := 0.0, 0
	for _, v := range m {
		if v > 0 {
			logSum += math.Log(v)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(logSum / float64(n))
}

// minstrBy indexes Minstr/s by engine, then program.
func minstrBy(es []Engine) map[string]map[string]float64 {
	by := map[string]map[string]float64{}
	for _, e := range es {
		m := map[string]float64{}
		for _, p := range e.Programs {
			m[p.Name] = p.MinstrS
		}
		by[e.Name] = m
	}
	return by
}

// ratio is num/den, or 0 when den is not positive.
func ratio(num, den float64) float64 {
	if den <= 0 {
		return 0
	}
	return num / den
}

// printBaseline prints each engine's geometric-mean throughput ratio of
// this run over the archived baseline, per engine across the programs
// both runs measured.
func printBaseline(doc *Doc, path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var base Doc
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	baseBy, cur := minstrBy(base.Engines), minstrBy(doc.Engines)
	fmt.Printf("vs %s (%s):\n", path, base.Date)
	for _, e := range doc.Engines {
		if ratio := geomeanRatio(cur[e.Name], baseBy[e.Name], nil); ratio > 0 {
			fmt.Printf("  %-10s %.2fx geomean speedup\n", e.Name, ratio)
		} else {
			fmt.Printf("  %-10s not in baseline\n", e.Name)
		}
	}
	return nil
}

// latestBenchFile returns the highest-numbered existing BENCH_<n>.json
// other than exclude, or "" when none exists.
func latestBenchFile(exclude string) string {
	latest := ""
	for n := 1; ; n++ {
		path := fmt.Sprintf("BENCH_%d.json", n)
		if _, err := os.Stat(path); os.IsNotExist(err) {
			return latest
		}
		if path != exclude {
			latest = path
		}
	}
}

func runBench(pattern, benchtime, simEngine string) ([]byte, error) {
	cmd := exec.Command("go", "test", "-run", "^$",
		"-bench", pattern, "-benchtime", benchtime, "-benchmem", ".")
	cmd.Env = append(os.Environ(), "SIM_ENGINE="+simEngine)
	var buf bytes.Buffer
	cmd.Stdout = &buf
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// parseBench extracts the sub-benchmark lines under prefix:
//
//	BenchmarkPrograms/boyer-8  1  12345 ns/op  9.87 Minstr/s  107955837 sim-cycles  0 B/op  0 allocs/op
func parseBench(out []byte, prefix string) ([]Program, error) {
	var progs []Program
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 2 || !strings.HasPrefix(fields[0], prefix) {
			continue
		}
		name := strings.TrimPrefix(fields[0], prefix)
		procs := 1
		if i := strings.LastIndexByte(name, '-'); i >= 0 {
			if n, err := strconv.Atoi(name[i+1:]); err == nil {
				procs = n
				name = name[:i]
			}
		}
		p := Program{Name: name, Procs: procs}
		// After the iteration count, the line is value/unit pairs.
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				p.NsPerOp = v
			case "Minstr/s":
				p.MinstrS = v
			case "sim-cycles":
				p.SimCycles = uint64(v)
			case "B/op":
				p.BPerOp = v
			case "allocs/op":
				p.AllocsOp = v
			}
		}
		progs = append(progs, p)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(progs) == 0 {
		return nil, fmt.Errorf("no benchmark lines with prefix %s in output:\n%s", prefix, out)
	}
	return progs, nil
}

// nextBenchFile returns BENCH_<n>.json for the lowest unused n.
func nextBenchFile() string {
	for n := 1; ; n++ {
		path := fmt.Sprintf("BENCH_%d.json", n)
		if _, err := os.Stat(path); os.IsNotExist(err) {
			return path
		}
	}
}
