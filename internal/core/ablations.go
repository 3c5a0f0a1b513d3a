package core

import (
	"fmt"
	"strings"

	"repro/internal/mipsx"
	"repro/internal/programs"
	"repro/internal/rt"
	"repro/internal/sexpr"
	"repro/internal/tags"
)

// --- §4.2: the High6 encoding for generic arithmetic ------------------------

// ArithEncodingRow compares generic-arithmetic cost under High5 and High6.
type ArithEncodingRow struct {
	Program      string  `json:"program"`
	High5Pct     float64 `json:"high5_pct"`     // % of time in generic-arithmetic checking, High5
	High6Pct     float64 `json:"high6_pct"`     // same under the §4.2 encoding
	SpeedupTotal float64 `json:"speedup_total"` // total cycles saved by High6, %
}

// ArithEncoding is the §4.2 ablation.
type ArithEncoding struct {
	Rows    []ArithEncodingRow `json:"rows"`
	Average ArithEncodingRow   `json:"average"`
}

// BuildArithEncoding measures, with full checking on, how much execution
// time goes to the arithmetic checks under the straightforward 5-bit
// encoding versus the arithmetic-closed 6-bit encoding (§4.2: 2% -> 1.6% on
// average, ~2% total speedup for rat).
func BuildArithEncoding(r *Runner) (*ArithEncoding, error) {
	if err := r.Prewarm(programs.All(), []Config{
		{Scheme: tags.High5, Checking: true},
		{Scheme: tags.High6, Checking: true},
	}); err != nil {
		return nil, err
	}
	out := &ArithEncoding{}
	for _, p := range programs.All() {
		h5, err := r.Run(p, Config{Scheme: tags.High5, Checking: true})
		if err != nil {
			return nil, err
		}
		h6, err := r.Run(p, Config{Scheme: tags.High6, Checking: true})
		if err != nil {
			return nil, err
		}
		row := ArithEncodingRow{
			Program:  p.Name,
			High5Pct: mipsx.Pct(h5.Stats.ByRTSub[mipsx.SubArith], h5.Stats.Cycles),
			High6Pct: mipsx.Pct(h6.Stats.ByRTSub[mipsx.SubArith], h6.Stats.Cycles),
			SpeedupTotal: 100 * (float64(h5.Stats.Cycles) - float64(h6.Stats.Cycles)) /
				float64(h5.Stats.Cycles),
		}
		out.Rows = append(out.Rows, row)
		out.Average.High5Pct += row.High5Pct
		out.Average.High6Pct += row.High6Pct
		out.Average.SpeedupTotal += row.SpeedupTotal
	}
	n := float64(len(out.Rows))
	out.Average.Program = "average"
	out.Average.High5Pct /= n
	out.Average.High6Pct /= n
	out.Average.SpeedupTotal /= n
	return out, nil
}

func (a *ArithEncoding) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Section 4.2: generic arithmetic cost under the special 6-bit tag encoding\n")
	fmt.Fprintf(&b, "%-8s %14s %14s %14s\n", "", "high5 arith %", "high6 arith %", "total speedup")
	for _, r := range append(a.Rows, a.Average) {
		fmt.Fprintf(&b, "%-8s %14.2f %14.2f %14.2f\n", r.Program, r.High5Pct, r.High6Pct, r.SpeedupTotal)
	}
	return b.String()
}

// --- §3.1: pre-shifted pair tag ablation ------------------------------------

// PreshiftResult measures keeping a pre-shifted list tag in a register,
// which the paper estimates would buy only ~0.5%.
type PreshiftResult struct {
	AverageSpeedup float64 `json:"average_speedup"`
	InsertPctBase  float64 `json:"insert_pct_base"`
	InsertPctOpt   float64 `json:"insert_pct_opt"`
}

// BuildPreshift runs the §3.1 ablation with checking off.
func BuildPreshift(r *Runner) (*PreshiftResult, error) {
	out := &PreshiftResult{}
	all := programs.All()
	if err := r.Prewarm(all, []Config{Baseline(false),
		{Scheme: tags.High5, HW: tags.HW{PreshiftedPairTag: true}}}); err != nil {
		return nil, err
	}
	for _, p := range all {
		base, err := r.Run(p, Baseline(false))
		if err != nil {
			return nil, err
		}
		pre, err := r.Run(p, Config{Scheme: tags.High5, HW: tags.HW{PreshiftedPairTag: true}})
		if err != nil {
			return nil, err
		}
		out.AverageSpeedup += 100 * (float64(base.Stats.Cycles) - float64(pre.Stats.Cycles)) /
			float64(base.Stats.Cycles)
		out.InsertPctBase += base.Stats.CatPct(mipsx.CatTagInsert)
		out.InsertPctOpt += pre.Stats.CatPct(mipsx.CatTagInsert)
	}
	n := float64(len(all))
	out.AverageSpeedup /= n
	out.InsertPctBase /= n
	out.InsertPctOpt /= n
	return out, nil
}

func (p *PreshiftResult) String() string {
	return fmt.Sprintf("Section 3.1: pre-shifted pair tag in a register\n"+
		"insertion cost %.2f%% -> %.2f%% of time; average speedup %.2f%%\n",
		p.InsertPctBase, p.InsertPctOpt, p.AverageSpeedup)
}

// --- Low-tag software schemes as row-1 equivalents (§5.2) -------------------

// LowTagRow compares a software low-tag scheme against the High5 baseline.
type LowTagRow struct {
	Scheme       string  `json:"scheme"`
	NoChecking   float64 `json:"no_checking"`
	WithChecking float64 `json:"with_checking"`
}

// BuildLowTag verifies the paper's claim that a software low-tag scheme
// "gives the same speedup" as tag-ignoring loads and stores (Table 2 row 1).
func BuildLowTag(r *Runner) ([]LowTagRow, error) {
	var out []LowTagRow
	all := programs.All()
	var cfgs []Config
	for _, k := range []tags.Kind{tags.High5, tags.Low3, tags.Low2} {
		cfgs = append(cfgs, Config{Scheme: k}, Config{Scheme: k, Checking: true})
	}
	if err := r.Prewarm(all, cfgs); err != nil {
		return nil, err
	}
	for _, k := range []tags.Kind{tags.Low3, tags.Low2} {
		row := LowTagRow{Scheme: k.String()}
		for _, p := range all {
			for _, chk := range []bool{false, true} {
				base, err := r.Run(p, Baseline(chk))
				if err != nil {
					return nil, err
				}
				low, err := r.Run(p, Config{Scheme: k, Checking: chk})
				if err != nil {
					return nil, err
				}
				s := 100 * (float64(base.Stats.Cycles) - float64(low.Stats.Cycles)) /
					float64(base.Stats.Cycles)
				if chk {
					row.WithChecking += s
				} else {
					row.NoChecking += s
				}
			}
		}
		n := float64(len(all))
		row.NoChecking /= n
		row.WithChecking /= n
		out = append(out, row)
	}
	return out, nil
}

// FormatLowTag renders the low-tag comparison.
func FormatLowTag(rows []LowTagRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Section 5.2: software low-tag schemes vs the High5 baseline\n")
	fmt.Fprintf(&b, "%-8s %12s %12s\n", "scheme", "no checking", "checking")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s %12.1f %12.1f\n", r.Scheme, r.NoChecking, r.WithChecking)
	}
	return b.String()
}

// --- §6.2.2: dispatch stress — the inline integer bias always fails ---------

// dispatchStressSource is a synthetic float-only workload: every inline
// integer test fails and arithmetic always dispatches to the generic
// routine (the paper estimates the wrong bias costs ~2.7% extra on average;
// here the workload is pure arithmetic so the cost is the per-operation
// ceiling, not a whole-program average).
const dispatchStressSource = `
(defun churn-floats (n)
  (let ((a (float 3)) (b (float 4)) (acc (float 0)) (i 0))
    (while (< i n)
      (setq acc (+ acc (* a b)))
      (when (> (%raw->int (%ftoi (sys-float-bits acc))) 100000)
        (setq acc (float 0)))
      (setq i (1+ i)))
    (%raw->int (%ftoi (sys-float-bits acc)))))
(churn-floats 4000)
`

// dispatchStressIntSource is the same loop on fixnums, where the bias is
// right.
const dispatchStressIntSource = `
(defun churn-ints (n)
  (let ((a 3) (b 4) (acc 0) (i 0))
    (while (< i n)
      (setq acc (+ acc (* a b)))
      (when (> acc 100000) (setq acc 0))
      (setq i (1+ i)))
    acc))
(churn-ints 4000)
`

// DispatchStress compares the float loop (bias always wrong) with the
// fixnum loop (bias right) under checking, and reports the slowdown factor
// of a mispredicted bias with and without arithmetic trap hardware.
type DispatchStress struct {
	IntCycles         uint64  `json:"int_cycles"`
	FloatCycles       uint64  `json:"float_cycles"`
	FloatTrapCycles   uint64  `json:"float_trap_cycles"`   // with ArithTrap hardware: trap entry per op
	FloatShadowCycles uint64  `json:"float_shadow_cycles"` // ArithTrap + shadow-register assist (§6.2.2)
	SoftwareOverhead  float64 `json:"software_overhead"`
	TrapOverhead      float64 `json:"trap_overhead"`
	ShadowOverhead    float64 `json:"shadow_overhead"`
}

// BuildDispatchStress runs the synthetic workloads.
func BuildDispatchStress() (*DispatchStress, error) {
	run := func(src string, hw tags.HW) (uint64, error) {
		img, err := rt.Build(src, rt.BuildOptions{Scheme: tags.High5, Checking: true, HW: hw})
		if err != nil {
			return 0, err
		}
		m := img.LeaseMachine()
		defer m.Release()
		m.MaxCycles = 1_000_000_000
		if err := m.Run(); err != nil {
			return 0, err
		}
		_ = sexpr.String(img.DecodeItem(m.Mem, m.Regs[mipsx.RRet]))
		return m.Stats.Cycles, nil
	}
	ints, err := run(dispatchStressIntSource, tags.HW{})
	if err != nil {
		return nil, err
	}
	floats, err := run(dispatchStressSource, tags.HW{})
	if err != nil {
		return nil, err
	}
	floatsTrap, err := run(dispatchStressSource, tags.HW{ArithTrap: true})
	if err != nil {
		return nil, err
	}
	floatsShadow, err := run(dispatchStressSource, tags.HW{ArithTrap: true, ShadowRegisters: true})
	if err != nil {
		return nil, err
	}
	return &DispatchStress{
		IntCycles:         ints,
		FloatCycles:       floats,
		FloatTrapCycles:   floatsTrap,
		FloatShadowCycles: floatsShadow,
		SoftwareOverhead:  float64(floats)/float64(ints) - 1,
		TrapOverhead:      float64(floatsTrap)/float64(ints) - 1,
		ShadowOverhead:    float64(floatsShadow)/float64(ints) - 1,
	}, nil
}

func (d *DispatchStress) String() string {
	return fmt.Sprintf("Section 6.2.2: always-failing integer bias (dispatch stress)\n"+
		"fixnum loop %d cycles; float loop %d cycles (+%.0f%%); "+
		"float loop with trap hardware %d cycles (+%.0f%%); "+
		"with shadow registers %d cycles (+%.0f%%)\n"+
		"(traps make the wrong-bias case slower than software dispatch, as §6.2.2\n"+
		"predicts; shadow registers [Ungar] recover part of the difference)\n",
		d.IntCycles, d.FloatCycles, 100*d.SoftwareOverhead,
		d.FloatTrapCycles, 100*d.TrapOverhead,
		d.FloatShadowCycles, 100*d.ShadowOverhead)
}
