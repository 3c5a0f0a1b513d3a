// Command tagsearch explores the tag-scheme design space from the
// command line: it enumerates candidate schemes under machine-checked
// properties, sweeps the survivors (one representative per cost class)
// across hardware configurations, and prints the ranked report as
// tagsim/v1 JSON.
//
//	tagsearch                                # default: 2000 candidates, top 10
//	tagsearch -props disjoint,listmask -top 5
//	tagsearch -budget 500 -programs comp -variants check -table
//	tagsearch -smoke                         # exit 1 unless a candidate ties low3
//
// Any scheme the report names can be fed straight back into tagsim,
// tagsimd or the API by its canonical name (e.g. -scheme
// xl3:1.2.5.6.3.0.7) — searched schemes run in all three engines
// unchanged.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"text/tabwriter"

	"repro/internal/core"
	"repro/internal/mipsx"
	"repro/internal/schemesearch"
)

func main() {
	var (
		budget   = flag.Int("budget", schemesearch.DefaultBudget, "max property-valid candidates to enumerate")
		topK     = flag.Int("top", schemesearch.DefaultTopK, "ranked schemes to report")
		props    = flag.String("props", strings.Join(schemesearch.DefaultPropertyNames, ","), "comma-separated properties every candidate must satisfy")
		programs = flag.String("programs", strings.Join(schemesearch.DefaultPrograms, ","), "comma-separated benchmark programs to sweep")
		variants = flag.String("variants", strings.Join(schemesearch.DefaultVariants, ","), "comma-separated config variants (\"check\", \"check+mem+tbr\", \"plain\", ...)")
		engine   = flag.String("engine", "", "simulator engine for uncached runs (translated, reference, native)")
		table    = flag.Bool("table", false, "print a human-readable table instead of JSON")
		smoke    = flag.Bool("smoke", false, "exit nonzero unless some candidate ties or beats the hand-built low3 on a variant")
		verbose  = flag.Bool("v", false, "progress to stderr")
	)
	flag.Parse()

	eng, err := mipsx.ParseEngine(*engine)
	if err != nil {
		fatal(err)
	}
	runner := core.NewRunner()
	runner.Engine = eng

	req := schemesearch.Request{
		Budget:     *budget,
		TopK:       *topK,
		Properties: splitList(*props),
		Programs:   splitList(*programs),
		Variants:   splitList(*variants),
	}
	se := &schemesearch.Engine{Runner: runner, Metrics: runner.Metrics}
	if *verbose {
		se.Progress = func(p schemesearch.Progress) {
			switch p.Phase {
			case "enumerate":
				fmt.Fprintf(os.Stderr, "enumerated %d candidates in %d cost classes\n", p.Candidates, p.Classes)
			case "sweep":
				fmt.Fprintf(os.Stderr, "[%d/%d] %s on %s: %d cycles\n", p.Done, p.Total, p.Scheme, p.Config, p.Cycles)
			}
		}
	}
	rep, err := se.Search(context.Background(), req)
	if err != nil {
		fatal(err)
	}

	if *table {
		printTable(rep)
	} else {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fatal(err)
		}
	}

	if *smoke {
		ok, why := rep.BeatsBaseline("low3")
		if !ok {
			fatal(fmt.Errorf("search smoke failed: %s", why))
		}
		fmt.Fprintf(os.Stderr, "search smoke OK: %s\n", why)
	}
}

func splitList(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

func printTable(rep *schemesearch.Report) {
	fmt.Printf("searched %d candidates (%d cost classes) under %s in %.1fs; pruned: %v\n",
		rep.Candidates, rep.Classes, strings.Join(rep.Properties, ","), rep.ElapsedSec, rep.Pruned)
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(w, "rank\tscheme\ttotal cycles\tper variant\n")
	for _, rs := range rep.Ranked {
		fmt.Fprintf(w, "%d\t%s\t%d\t%s\n", rs.Rank, rs.Scheme, rs.TotalCycles, perConfig(rs))
	}
	fmt.Fprintf(w, "\tbaselines:\t\t\n")
	for _, rs := range rep.Baselines {
		fmt.Fprintf(w, "\t%s\t%d\t%s\n", rs.Scheme, rs.TotalCycles, perConfig(rs))
	}
	w.Flush()
}

func perConfig(rs schemesearch.RankedScheme) string {
	parts := make([]string, len(rs.PerConfig))
	for i, pc := range rs.PerConfig {
		parts[i] = fmt.Sprintf("%s=%d", pc.Config, pc.Cycles)
	}
	return strings.Join(parts, " ")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tagsearch:", err)
	os.Exit(1)
}
