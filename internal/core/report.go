package core

import (
	"fmt"
	"strings"

	"repro/internal/mipsx"
	"repro/internal/obs"
	"repro/internal/programs"
)

// SchemaVersion identifies the JSON layout emitted by tagsim -json.
// Consumers should reject documents with an unknown schema string.
const SchemaVersion = "tagsim/v1"

// CatCycles is one row of a cycle breakdown: a category (or checking
// cause) with its cycle count and share of the run.
type CatCycles struct {
	Name   string  `json:"name"`
	Cycles uint64  `json:"cycles"`
	Pct    float64 `json:"pct"`
}

// RunError is the symbolic form of a Lisp run-time error recorded in
// Stats: the SysError code, its name (see mipsx.ErrorCodeName) and the
// offending item word.
type RunError struct {
	Code int32  `json:"code"`
	Name string `json:"name"`
	Item uint32 `json:"item"`
}

// RunReport is the machine-readable account of one program execution. It
// carries every figure the tagsim default text output prints, so -json is
// a lossless alternative to the human-readable table.
type RunReport struct {
	Schema      string      `json:"schema"`
	Program     string      `json:"program"`
	Description string      `json:"description"`
	Config      string      `json:"config"`
	Scheme      string      `json:"scheme"`
	Checking    bool        `json:"checking"`
	Result      string      `json:"result"`
	Output      string      `json:"output,omitempty"`
	Cycles      uint64      `json:"cycles"`
	Instrs      uint64      `json:"instrs"`
	Stalls      uint64      `json:"stalls"`
	Squashed    uint64      `json:"squashed"`
	Traps       uint64      `json:"traps"`
	GCs         uint64      `json:"gcs"`
	GCWords     uint64      `json:"gc_words"`
	TagPct      float64     `json:"tag_pct"`
	Categories  []CatCycles `json:"categories"`
	RTCheckCost []CatCycles `json:"rt_check_cost,omitempty"`
	Error       *RunError   `json:"error,omitempty"`
	// EngineExecuted names the engine that ran the simulation (see
	// Result.Engine).
	EngineExecuted string `json:"engine_executed"`
	// Engine, when present, carries the executing engine's per-run
	// dispatch counters and the program's JIT-cache introspection — the
	// same superblock/fusion/elision numbers /v1/introspect serves, so a
	// -json run artifact is self-contained without a live server.
	Engine *EngineReport `json:"engine,omitempty"`
}

// EngineReport is the engine-internals section of a RunReport: which
// engine executed the run, its translated- and native-path counters, and
// the introspection snapshot of the program's lazily built caches.
type EngineReport struct {
	Name   string                    `json:"name"`
	Trans  mipsx.TransStats          `json:"trans"`
	Native mipsx.NativeStats         `json:"native"`
	Caches mipsx.EngineIntrospection `json:"caches"`
}

// NewRunReport shapes one Result into a RunReport.
func NewRunReport(p *programs.Program, cfg Config, res *Result) *RunReport {
	s := &res.Stats
	rep := &RunReport{
		Schema:      SchemaVersion,
		Program:     p.Name,
		Description: p.Description,
		Config:      cfg.String(),
		Scheme:      cfg.Scheme.String(),
		Checking:    cfg.Checking,
		Result:      res.Value,
		Output:      res.Output,
		Cycles:      s.Cycles,
		Instrs:      s.Instrs,
		Stalls:      s.Stalls,
		Squashed:    s.Squashed,
		Traps:       s.Traps,
		GCs:         s.GCs,
		GCWords:     s.GCWords,
		TagPct:      mipsx.Pct(s.TagCycles(), s.Cycles),

		EngineExecuted: res.Engine.String(),
	}
	for c := mipsx.CatWork; c < mipsx.NumCat; c++ {
		if s.ByCat[c] == 0 {
			continue
		}
		rep.Categories = append(rep.Categories, CatCycles{
			Name: c.String(), Cycles: s.ByCat[c], Pct: s.CatPct(c),
		})
	}
	if cfg.Checking {
		for sub := mipsx.SubCat(0); sub < mipsx.NumSub; sub++ {
			if s.ByRTSub[sub] == 0 {
				continue
			}
			rep.RTCheckCost = append(rep.RTCheckCost, CatCycles{
				Name: sub.String(), Cycles: s.ByRTSub[sub],
				Pct: mipsx.Pct(s.ByRTSub[sub], s.Cycles),
			})
		}
	}
	if s.ErrorCode != 0 {
		rep.Error = &RunError{
			Code: s.ErrorCode,
			Name: mipsx.ErrorCodeName(s.ErrorCode),
			Item: s.ErrorItem,
		}
	}
	return rep
}

// String renders the report as the tagsim default text output.
func (r *RunReport) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "program  %s (%s)\n", r.Program, r.Description)
	fmt.Fprintf(&sb, "config   %s\n", r.Config)
	fmt.Fprintf(&sb, "result   %s\n", r.Result)
	if r.Output != "" {
		fmt.Fprintf(&sb, "output   %q\n", r.Output)
	}
	if r.Error != nil {
		fmt.Fprintf(&sb, "error    %d (%s, item %#x)\n", r.Error.Code, r.Error.Name, r.Error.Item)
	}
	fmt.Fprintf(&sb, "cycles   %d (%d instructions, %d stalls, %d squashed, %d traps, %d GCs)\n",
		r.Cycles, r.Instrs, r.Stalls, r.Squashed, r.Traps, r.GCs)
	fmt.Fprintf(&sb, "tag handling: %.2f%% of cycles\n", r.TagPct)
	for _, c := range r.Categories {
		fmt.Fprintf(&sb, "  %-10s %10d cycles  %6.2f%%\n", c.Name, c.Cycles, c.Pct)
	}
	if len(r.RTCheckCost) > 0 {
		fmt.Fprintf(&sb, "run-time checking cost by cause:\n")
		for _, c := range r.RTCheckCost {
			fmt.Fprintf(&sb, "  %-10s %10d cycles  %6.2f%%\n", c.Name, c.Cycles, c.Pct)
		}
	}
	if e := r.Engine; e != nil {
		fmt.Fprintf(&sb, "engine   %s: %d blocks, %d superblocks (%d/%d steps after dataflow, %d checks elided)\n",
			e.Name, e.Caches.Blocks, e.Caches.SuperBlocks,
			e.Caches.SBSteps, e.Caches.SBRawSteps, e.Caches.SBElidedChecks)
	}
	return sb.String()
}

// Report is the top-level -json document: whichever tables, figures and
// ablations the invocation regenerated, plus the aggregated run metrics.
// Absent sections are omitted, so the schema is stable across subsets.
type Report struct {
	Schema         string          `json:"schema"`
	Run            *RunReport      `json:"run,omitempty"`
	Table1         *Table1         `json:"table1,omitempty"`
	Table2         *Table2         `json:"table2,omitempty"`
	Table2Detail   *Table2Detail   `json:"table2_detail,omitempty"`
	Table3         *Table3         `json:"table3,omitempty"`
	Figure1        *Figure1        `json:"figure1,omitempty"`
	Figure2        *Figure2        `json:"figure2,omitempty"`
	ArithEncoding  *ArithEncoding  `json:"arith_encoding,omitempty"`
	Preshift       *PreshiftResult `json:"preshift,omitempty"`
	LowTag         []LowTagRow     `json:"lowtag,omitempty"`
	DispatchStress *DispatchStress `json:"dispatch_stress,omitempty"`
	Metrics        *obs.Snapshot   `json:"metrics,omitempty"`
}

// NewReport returns an empty document carrying the schema version.
func NewReport() *Report { return &Report{Schema: SchemaVersion} }
