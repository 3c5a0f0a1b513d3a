// Command tagsim runs the paper's benchmark programs on the MIPS-X-like
// simulator under any tag-scheme / hardware / checking configuration, and
// regenerates the evaluation tables and figures.
//
// Usage:
//
//	tagsim -list                                  # show the ten programs
//	tagsim -program boyer -checking               # run one program
//	tagsim -program trav -scheme low3 -hw mem,tbr # pick scheme and hardware
//	tagsim -program boyer -trace-out boyer.json   # Chrome trace timeline
//	tagsim -program boyer -flame boyer.folded     # flamegraph input
//	tagsim -program inter -json                   # machine-readable output
//	tagsim -table 1|2|3                           # regenerate a table
//	tagsim -figure 1|2                            # regenerate a figure
//	tagsim -ablation arith|preshift|lowtag|dispatch
//	tagsim -all                                   # everything (slow)
//	tagsim -disasm inter                          # dump compiled code
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/mipsx"
	"repro/internal/obs"
	"repro/internal/programs"
	"repro/internal/rt"
	"repro/internal/sexpr"
	"repro/internal/tags"
)

// options collects every flag that shapes a run.
type options struct {
	list     bool
	program  string
	scheme   string
	checking bool
	hw       string
	table    int
	figure   int
	ablation string
	all      bool
	disasm   string
	profile  bool
	trace    int
	repl     bool
	t2row    string
	workers  int
	engine   string

	json         bool
	traceOut     string
	flame        string
	eventsOut    string
	eventsCap    int
	samplePeriod uint64
	sampleWindow uint64
	metricsOut   string
	spanOut      string
}

func main() {
	var o options
	flag.BoolVar(&o.list, "list", false, "list benchmark programs")
	flag.StringVar(&o.program, "program", "", "run one benchmark program")
	flag.StringVar(&o.scheme, "scheme", "high5", "tag scheme: high5, high6, low3, low2")
	flag.BoolVar(&o.checking, "checking", false, "enable full run-time type checking")
	flag.StringVar(&o.hw, "hw", "", "hardware: comma list of mem,tbr,atrap,pclist,pcall,preshift,shadow,memtag,memtaghw,mtg<3-6>,mtw<1-8>")
	flag.IntVar(&o.table, "table", 0, "regenerate paper table (1, 2 or 3)")
	flag.IntVar(&o.figure, "figure", 0, "regenerate paper figure (1 or 2)")
	flag.StringVar(&o.ablation, "ablation", "", "run an ablation: arith, preshift, lowtag, dispatch")
	flag.BoolVar(&o.all, "all", false, "regenerate every table, figure and ablation")
	flag.StringVar(&o.disasm, "disasm", "", "print the compiled code of a program")
	flag.BoolVar(&o.profile, "profile", false, "with -program: per-function cycle profile")
	flag.IntVar(&o.trace, "trace", 0, "with -program: print the first N executed instructions")
	flag.BoolVar(&o.repl, "repl", false, "interactive read-eval-print loop on the simulated machine")
	flag.StringVar(&o.t2row, "table2-row", "", "per-program detail for one Table 2 row (1-7 or SPUR)")
	flag.IntVar(&o.workers, "workers", 0, "parallel simulations in table/figure sweeps (default: one per CPU, GOMAXPROCS)")
	flag.StringVar(&o.engine, "engine", "", "simulator engine: native (default), translated, reference; -trace-out, -flame and -events-out always run reference")
	flag.BoolVar(&o.json, "json", false, "emit machine-readable JSON (schema "+core.SchemaVersion+") instead of text")
	flag.StringVar(&o.traceOut, "trace-out", "", "with -program: write a Chrome trace_event timeline (chrome://tracing) to this file")
	flag.StringVar(&o.flame, "flame", "", "with -program: write folded call stacks (flamegraph input) to this file")
	flag.StringVar(&o.eventsOut, "events-out", "", "with -program: write the event-stream tail as JSON lines (reference engine, per-instruction events)")
	flag.IntVar(&o.eventsCap, "events-cap", 0, "ring capacity for -events-out (default 65536)")
	flag.Uint64Var(&o.samplePeriod, "sample-period", 0, "with -events-out: sampling period in cycles (0 = trace everything)")
	flag.Uint64Var(&o.sampleWindow, "sample-window", 0, "with -events-out: cycles traced at the start of each period")
	flag.StringVar(&o.metricsOut, "metrics-out", "", "write the aggregated metrics registry snapshot (JSON) to this file")
	flag.StringVar(&o.spanOut, "span-out", "", "with -program: write the run's phase timeline (parse, compile, translate, native-compile, execute) as JSON to this file")
	cpuprof := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprof := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	if *cpuprof != "" {
		f, err := os.Create(*cpuprof)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tagsim:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "tagsim:", err)
			os.Exit(1)
		}
	}

	err := run(o)

	// Profiles are written explicitly rather than deferred because the error
	// path exits with os.Exit, which would skip deferred writers.
	if *cpuprof != "" {
		pprof.StopCPUProfile()
	}
	if *memprof != "" {
		f, ferr := os.Create(*memprof)
		if ferr != nil {
			fmt.Fprintln(os.Stderr, "tagsim:", ferr)
			os.Exit(1)
		}
		runtime.GC()
		if ferr := pprof.WriteHeapProfile(f); ferr != nil {
			fmt.Fprintln(os.Stderr, "tagsim:", ferr)
			os.Exit(1)
		}
		f.Close()
	}

	if err != nil {
		fmt.Fprintln(os.Stderr, "tagsim:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	if o.list {
		for _, p := range programs.All() {
			fmt.Printf("%-8s %s\n", p.Name, p.Description)
		}
		return nil
	}

	kind, err := parseScheme(o.scheme)
	if err != nil {
		return err
	}
	hw, err := parseHW(o.hw)
	if err != nil {
		return err
	}
	engine, err := mipsx.ParseEngine(o.engine)
	if err != nil {
		return err
	}

	if o.repl {
		return runRepl(kind, hw, o.checking)
	}

	if o.disasm != "" {
		p, ok := programs.ByName(o.disasm)
		if !ok {
			return fmt.Errorf("unknown program %q", o.disasm)
		}
		img, err := rt.Build(p.Source, rt.BuildOptions{
			Scheme: kind, HW: hw, Checking: o.checking, HeapWords: p.HeapWords,
		})
		if err != nil {
			return err
		}
		fmt.Print(mipsx.DisasmProgram(img.Prog))
		return nil
	}

	if o.program != "" {
		cfg := core.Config{Scheme: kind, HW: hw, Checking: o.checking}
		if o.trace > 0 {
			return runTrace(o.program, cfg, o.trace)
		}
		if o.profile {
			p, ok := programs.ByName(o.program)
			if !ok {
				return fmt.Errorf("unknown program %q (try -list)", o.program)
			}
			return runProfiled(p, cfg)
		}
		return runOne(o.program, cfg, engine, o)
	}

	r := core.NewRunner()
	r.Workers = o.workers
	r.Engine = engine
	doc := core.NewReport()
	ran := false
	emit := func(v any) {
		if !o.json {
			fmt.Println(v)
		}
	}
	if o.t2row != "" {
		for _, row := range core.Table2Rows {
			if row.ID == o.t2row {
				d, err := core.BuildTable2Detail(r, row)
				if err != nil {
					return err
				}
				doc.Table2Detail = d
				emit(d)
				return finishSweep(o, r, doc)
			}
		}
		return fmt.Errorf("unknown Table 2 row %q", o.t2row)
	}
	if o.table == 1 || o.all {
		t, err := core.BuildTable1(r)
		if err != nil {
			return err
		}
		doc.Table1 = t
		emit(t)
		ran = true
	}
	if o.table == 2 || o.all {
		t, err := core.BuildTable2(r)
		if err != nil {
			return err
		}
		doc.Table2 = t
		emit(t)
		ran = true
	}
	if o.table == 3 || o.all {
		t, err := core.BuildTable3(r)
		if err != nil {
			return err
		}
		doc.Table3 = t
		emit(t)
		ran = true
	}
	if o.figure == 1 || o.all {
		f, err := core.BuildFigure1(r)
		if err != nil {
			return err
		}
		doc.Figure1 = f
		emit(f)
		ran = true
	}
	if o.figure == 2 || o.all {
		f, err := core.BuildFigure2(r)
		if err != nil {
			return err
		}
		doc.Figure2 = f
		emit(f)
		ran = true
	}
	if o.ablation == "arith" || o.all {
		a, err := core.BuildArithEncoding(r)
		if err != nil {
			return err
		}
		doc.ArithEncoding = a
		emit(a)
		ran = true
	}
	if o.ablation == "preshift" || o.all {
		p, err := core.BuildPreshift(r)
		if err != nil {
			return err
		}
		doc.Preshift = p
		emit(p)
		ran = true
	}
	if o.ablation == "lowtag" || o.all {
		rows, err := core.BuildLowTag(r)
		if err != nil {
			return err
		}
		doc.LowTag = rows
		emit(core.FormatLowTag(rows))
		ran = true
	}
	if o.ablation == "dispatch" || o.all {
		d, err := core.BuildDispatchStress()
		if err != nil {
			return err
		}
		doc.DispatchStress = d
		emit(d)
		ran = true
	}
	if !ran {
		flag.Usage()
		return nil
	}
	return finishSweep(o, r, doc)
}

// finishSweep emits the JSON document and the metrics snapshot of a
// table/figure/ablation sweep.
func finishSweep(o options, r *core.Runner, doc *core.Report) error {
	snap := r.Metrics.Snapshot()
	if o.metricsOut != "" {
		if err := writeFile(o.metricsOut, snap.WriteJSON); err != nil {
			return err
		}
	}
	if o.json {
		doc.Metrics = snap
		return writeJSON(os.Stdout, doc)
	}
	return nil
}

// parseScheme and parseHW delegate to the canonical parsers in core, which
// the server's API shares.
func parseScheme(s string) (tags.Kind, error) { return core.ParseScheme(s) }

func parseHW(s string) (tags.HW, error) { return core.ParseHW(s) }

// runOne executes one program, with whatever observers the flags request
// attached to the machine, and reports the run as text or JSON.
func runOne(name string, cfg core.Config, engine mipsx.Engine, o options) error {
	p, ok := programs.ByName(name)
	if !ok {
		return fmt.Errorf("unknown program %q (try -list)", name)
	}
	var tl *obs.Timeline
	bo := rt.BuildOptions{
		Scheme: cfg.Scheme, HW: cfg.HW, Checking: cfg.Checking, HeapWords: p.HeapWords,
	}
	if o.spanOut != "" {
		tl = obs.NewTimeline()
		bo.Phase = func(phase string, d time.Duration) {
			tl.Record(phase, time.Now().Add(-d), d)
		}
	}
	img, err := rt.Build(p.Source, bo)
	if err != nil {
		return err
	}
	m := img.NewMachine()
	m.MaxCycles = 2_000_000_000

	var observers []mipsx.Observer
	var ct *obs.CallTracer
	if o.traceOut != "" || o.flame != "" {
		prof := mipsx.NewProfile(img.Prog, mipsx.IsFunctionLabel)
		ct = obs.NewCallTracer(prof, m.PC)
		if o.traceOut != "" {
			ct.EnableChrome(0)
		}
		observers = append(observers, ct)
	}
	var ring *obs.RingTracer
	if o.eventsOut != "" {
		ring = obs.NewRingTracer(o.eventsCap)
		if o.samplePeriod > 0 {
			observers = append(observers, obs.NewSampler(ring, o.samplePeriod, o.sampleWindow))
		} else {
			observers = append(observers, ring)
		}
	}
	m.Obs = obs.Tee(observers...)

	// Only the reference engine emits events, so a run with any observer
	// attached (-trace-out, -flame, -events-out) executes there whatever
	// -engine asked for, and the reports name the engine that ran.
	ranEngine := m.Executes(engine)
	execStart := time.Now()
	runErr := m.RunEngine(ranEngine)
	if tl != nil {
		tl.Record(obs.PhaseExecute, execStart, time.Since(execStart))
		// The lazy JIT phases ran inside execute; their spans overlap it.
		if jt, jn := img.Prog.JITTimes(); jt > 0 || jn > 0 {
			if jt > 0 {
				tl.Record(obs.PhaseTranslate, execStart, jt)
			}
			if jn > 0 {
				tl.Record(obs.PhaseNativeCompile, execStart, jn)
			}
		}
	}

	// Artifacts are written even for a failed run — a trace that ends at
	// the fault is exactly what one wants to look at.
	if ct != nil {
		ct.Finish(m.Stats.Cycles)
		if o.traceOut != "" {
			if err := writeFile(o.traceOut, ct.WriteChromeTrace); err != nil {
				return err
			}
		}
		if o.flame != "" {
			if err := writeFile(o.flame, ct.WriteFolded); err != nil {
				return err
			}
		}
	}
	if ring != nil {
		if err := writeFile(o.eventsOut, ring.WriteJSONL); err != nil {
			return err
		}
	}
	if tl != nil {
		doc := tl.Doc(core.SchemaVersion, p.Name, cfg.String(), ranEngine.String())
		if err := writeFile(o.spanOut, doc.WriteJSON); err != nil {
			return err
		}
	}
	if runErr != nil {
		return runErr
	}

	value := sexpr.String(img.DecodeItem(m.Mem, m.Regs[mipsx.RRet]))
	if p.Expected != "" && value != p.Expected {
		return fmt.Errorf("%s: result %s, want %s (configuration broke program semantics)",
			p.Name, value, p.Expected)
	}
	res := &core.Result{
		Program: p.Name,
		Config:  cfg,
		Stats:   m.Stats,
		Units:   img.Units,
		Value:   value,
		Output:  m.Output.String(),
		Engine:  ranEngine,
	}
	rep := core.NewRunReport(p, cfg, res)
	rep.Engine = &core.EngineReport{
		Name:   ranEngine.String(),
		Trans:  m.Trans,
		Native: m.Native,
		Caches: img.Prog.Introspect(),
	}
	if o.metricsOut != "" {
		reg := obs.NewRegistry()
		reg.RecordRun(p.Name, cfg.String(), &m.Stats)
		reg.RecordTrans(&m.Trans)
		reg.RecordNative(&m.Native)
		if err := writeFile(o.metricsOut, reg.Snapshot().WriteJSON); err != nil {
			return err
		}
	}
	if o.json {
		doc := core.NewReport()
		doc.Run = rep
		return writeJSON(os.Stdout, doc)
	}
	fmt.Print(rep)
	return nil
}

// writeFile creates path and runs write against it.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// runRepl evaluates forms interactively. Each input is compiled together
// with everything defined so far into a fresh image and executed on a fresh
// machine — definitions persist, heap state does not (the image model has
// no incremental loader, like a batch PSL).
func runRepl(kind tags.Kind, hw tags.HW, checking bool) error {
	fmt.Printf("tagsim repl — scheme %s, checking %v; definitions persist, heap state does not\n", kind, checking)
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var defs strings.Builder
	var pending strings.Builder
	depth := 0
	fmt.Print("> ")
	for sc.Scan() {
		line := sc.Text()
		pending.WriteString(line)
		pending.WriteByte('\n')
		for _, ch := range line {
			switch ch {
			case '(':
				depth++
			case ')':
				depth--
			case ';':
				goto scanDone
			}
		}
	scanDone:
		if depth > 0 {
			fmt.Print(". ")
			continue
		}
		depth = 0
		form := strings.TrimSpace(pending.String())
		pending.Reset()
		if form == "" {
			fmt.Print("> ")
			continue
		}
		src := defs.String() + "\n" + form
		img, err := rt.Build(src, rt.BuildOptions{Scheme: kind, HW: hw, Checking: checking})
		if err != nil {
			fmt.Println("error:", err)
			fmt.Print("> ")
			continue
		}
		m := img.NewMachine()
		m.MaxCycles = 2_000_000_000
		if err := m.Run(); err != nil {
			fmt.Println("error:", err)
			fmt.Print("> ")
			continue
		}
		if out := m.Output.String(); out != "" {
			fmt.Print(out)
		}
		fmt.Printf("%s   ; %d cycles, %.1f%% tag handling\n",
			sexpr.String(img.DecodeItem(m.Mem, m.Regs[mipsx.RRet])),
			m.Stats.Cycles, mipsx.Pct(m.Stats.TagCycles(), m.Stats.Cycles))
		// Keep definition forms for subsequent inputs.
		if strings.HasPrefix(form, "(defun") || strings.HasPrefix(form, "(defvar") ||
			strings.HasPrefix(form, "(put") {
			defs.WriteString(form)
			defs.WriteByte('\n')
		}
		fmt.Print("> ")
	}
	fmt.Println()
	return sc.Err()
}

// runTrace single-steps the first n instructions, showing the disassembly
// and the register each writes.
func runTrace(name string, cfg core.Config, n int) error {
	p, ok := programs.ByName(name)
	if !ok {
		return fmt.Errorf("unknown program %q (try -list)", name)
	}
	img, err := rt.Build(p.Source, rt.BuildOptions{
		Scheme: cfg.Scheme, HW: cfg.HW, Checking: cfg.Checking, HeapWords: p.HeapWords,
	})
	if err != nil {
		return err
	}
	byIndex := make(map[int]string, len(img.Prog.Labels))
	for lname, idx := range img.Prog.Labels {
		if prev, seen := byIndex[idx]; !seen || lname < prev {
			byIndex[idx] = lname
		}
	}
	m := img.NewMachine()
	m.MaxCycles = 2_000_000_000
	for i := 0; i < n && !m.Halted(); i++ {
		pc := m.PC
		in := img.Prog.Instrs[pc]
		if lbl, okL := byIndex[pc]; okL {
			fmt.Printf("%s:\n", lbl)
		}
		if err := m.Step(); err != nil {
			return err
		}
		line := fmt.Sprintf("%8d  %6d  %s", m.Stats.Cycles, pc, mipsx.Disasm(&in, byIndex))
		fmt.Println(line)
	}
	fmt.Printf("... stopped after %d instructions (%d cycles)\n", m.Stats.Instrs, m.Stats.Cycles)
	return nil
}

// runProfiled attributes cycles to functions.
func runProfiled(p *programs.Program, cfg core.Config) error {
	img, err := rt.Build(p.Source, rt.BuildOptions{
		Scheme: cfg.Scheme, HW: cfg.HW, Checking: cfg.Checking, HeapWords: p.HeapWords,
	})
	if err != nil {
		return err
	}
	m := img.NewMachine()
	m.MaxCycles = 2_000_000_000
	prof := mipsx.NewProfile(img.Prog, mipsx.IsFunctionLabel)
	if err := m.RunProfiled(prof); err != nil {
		return err
	}
	fmt.Printf("program  %s (%s), %d cycles\n", p.Name, cfg, m.Stats.Cycles)
	fmt.Printf("hottest functions:\n%s", prof.Format(20, m.Stats.Cycles))
	return nil
}
