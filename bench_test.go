// Benchmarks that regenerate every table and figure in the paper's
// evaluation. Each benchmark prints the reproduced table (once) and reports
// its headline numbers as custom metrics, so
//
//	go test -bench=. -benchmem
//
// yields the full paper-versus-measured record. EXPERIMENTS.md archives one
// such run next to the paper's numbers.
package repro_test

import (
	"os"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/mipsx"
	"repro/internal/programs"
	"repro/internal/rt"
	"repro/internal/tags"
)

// TestMain applies the SIM_SBOPT superblock ablation list ("noelide,
// norefuse") before any benchmark runs, so per-optimization
// numbers come from the same binary.
func TestMain(m *testing.M) {
	opt, err := mipsx.ParseSBOpt(os.Getenv("SIM_SBOPT"))
	if err != nil {
		panic(err)
	}
	mipsx.SetSBOpt(opt)
	os.Exit(m.Run())
}

// sharedRunner memoizes program runs across benchmarks so the full bench
// suite does each (program, configuration) simulation once.
var (
	sharedOnce   sync.Once
	sharedRunner *core.Runner
)

func runner() *core.Runner {
	sharedOnce.Do(func() { sharedRunner = core.NewRunner() })
	return sharedRunner
}

// BenchmarkTable1 regenerates Table 1: the cost of adding full run-time
// checking (paper: 24.6% average, 6.6%..88.3% spread, list checks dominant).
func BenchmarkTable1(b *testing.B) {
	var t1 *core.Table1
	for i := 0; i < b.N; i++ {
		var err error
		t1, err = core.BuildTable1(runner())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Log("\n" + t1.String())
	b.ReportMetric(t1.Average.Total, "avg-slowdown-%")
	b.ReportMetric(t1.Average.List, "avg-list-%")
	b.ReportMetric(t1.Average.Arith, "avg-arith-%")
	b.ReportMetric(t1.Average.Vector, "avg-vector-%")
}

// BenchmarkFigure1 regenerates Figure 1: time per tag operation (paper:
// insertion 1.5%, removal 8.7%, checking 11%->24%, totals 22%->32%).
func BenchmarkFigure1(b *testing.B) {
	var f *core.Figure1
	for i := 0; i < b.N; i++ {
		var err error
		f, err = core.BuildFigure1(runner())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Log("\n" + f.String())
	for _, bar := range f.Bars {
		b.ReportMetric(bar.Without, bar.Op+"-off-%")
		b.ReportMetric(bar.With, bar.Op+"-on-%")
	}
	b.ReportMetric(f.TotalWithout, "total-off-%")
	b.ReportMetric(f.TotalWith, "total-on-%")
}

// BenchmarkFigure2 regenerates Figure 2: instruction-frequency changes when
// tag removal is eliminated (paper: and ~-8%, noop ~+1%, total ~-5.7%).
func BenchmarkFigure2(b *testing.B) {
	var f *core.Figure2
	for i := 0; i < b.N; i++ {
		var err error
		f, err = core.BuildFigure2(runner())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Log("\n" + f.String())
	b.ReportMetric(f.And, "and-%")
	b.ReportMetric(f.Move, "move-%")
	b.ReportMetric(f.Noop, "noop-%")
	b.ReportMetric(f.Total, "total-%")
}

// BenchmarkTable2 regenerates Table 2: cycles eliminated per degree of
// hardware support (paper row 7: 9.3% / 22.1%).
func BenchmarkTable2(b *testing.B) {
	var t2 *core.Table2
	for i := 0; i < b.N; i++ {
		var err error
		t2, err = core.BuildTable2(runner())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Log("\n" + t2.String())
	for _, row := range t2.Rows {
		b.ReportMetric(row.NoChecking, "row"+row.ID+"-off-%")
		b.ReportMetric(row.WithChecking, "row"+row.ID+"-on-%")
	}
}

// BenchmarkTable3 regenerates Table 3: program sizes.
func BenchmarkTable3(b *testing.B) {
	var t3 *core.Table3
	for i := 0; i < b.N; i++ {
		var err error
		t3, err = core.BuildTable3(runner())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Log("\n" + t3.String())
	var words int
	for _, r := range t3.Rows {
		words += r.Words
	}
	b.ReportMetric(float64(words)/float64(len(t3.Rows)), "avg-object-words")
}

// BenchmarkSection42 regenerates the §4.2 tag-encoding ablation (paper:
// generic arithmetic 2% -> 1.6%, ~0.4% average speedup, ~2% for rat).
func BenchmarkSection42(b *testing.B) {
	var a *core.ArithEncoding
	for i := 0; i < b.N; i++ {
		var err error
		a, err = core.BuildArithEncoding(runner())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Log("\n" + a.String())
	b.ReportMetric(a.Average.SpeedupTotal, "avg-speedup-%")
}

// BenchmarkSection31Preshift regenerates the §3.1 pre-shifted-tag estimate
// (paper: ~0.5%).
func BenchmarkSection31Preshift(b *testing.B) {
	var p *core.PreshiftResult
	for i := 0; i < b.N; i++ {
		var err error
		p, err = core.BuildPreshift(runner())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Log("\n" + p.String())
	b.ReportMetric(p.AverageSpeedup, "speedup-%")
}

// BenchmarkSection52LowTags regenerates the §5.2 software low-tag
// comparison (paper: "the same speedup" as hardware row 1 without checking).
func BenchmarkSection52LowTags(b *testing.B) {
	var rows []core.LowTagRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = core.BuildLowTag(runner())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Log("\n" + core.FormatLowTag(rows))
	for _, r := range rows {
		b.ReportMetric(r.NoChecking, r.Scheme+"-off-%")
	}
}

// BenchmarkSection622Dispatch regenerates the §6.2.2 dispatch-stress
// estimate: a wrong integer bias is costly, and costlier still with traps.
func BenchmarkSection622Dispatch(b *testing.B) {
	var d *core.DispatchStress
	for i := 0; i < b.N; i++ {
		var err error
		d, err = core.BuildDispatchStress()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Log("\n" + d.String())
	b.ReportMetric(100*d.SoftwareOverhead, "software-overhead-%")
	b.ReportMetric(100*d.TrapOverhead, "trap-overhead-%")
}

// benchPrograms runs every PSL workload under one engine and reports
// Minstr/s per program.
func benchPrograms(b *testing.B, engine mipsx.Engine) {
	for _, p := range programs.All() {
		p := p
		b.Run(p.Name, func(b *testing.B) {
			img, err := rt.Build(p.Source, rt.BuildOptions{
				Scheme: tags.High5, Checking: true, HeapWords: p.HeapWords,
			})
			if err != nil {
				b.Fatal(err)
			}
			var cycles, instrs uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m := img.NewMachine()
				m.MaxCycles = 3_000_000_000
				if err := m.RunEngine(engine); err != nil {
					b.Fatal(err)
				}
				cycles = m.Stats.Cycles
				instrs = m.Stats.Instrs
			}
			b.StopTimer()
			b.ReportMetric(float64(cycles), "sim-cycles")
			b.ReportMetric(float64(instrs)*float64(b.N)/float64(b.Elapsed().Nanoseconds())*1e3, "Minstr/s")
		})
	}
}

// BenchmarkPrograms measures raw simulation throughput per program on the
// baseline configuration (a property of this reproduction, not the paper).
// Set SIM_ENGINE=native or SIM_ENGINE=reference to measure those engines
// instead of the default basic-block translator.
func BenchmarkPrograms(b *testing.B) {
	engine, err := mipsx.ParseEngine(os.Getenv("SIM_ENGINE"))
	if err != nil {
		b.Fatal(err)
	}
	benchPrograms(b, engine)
}

// BenchmarkEngine runs the same workloads under every engine in one
// invocation, so `go test -bench=Engine` yields a side-by-side throughput
// comparison (the CI smoke step and `make bench-compare` consume it).
func BenchmarkEngine(b *testing.B) {
	for _, e := range []mipsx.Engine{mipsx.EngineNative, mipsx.EngineTranslated, mipsx.EngineReference} {
		e := e
		b.Run(e.String(), func(b *testing.B) { benchPrograms(b, e) })
	}
}
