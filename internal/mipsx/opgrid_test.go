package mipsx_test

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"repro/internal/mipsx"
	"repro/internal/tags"
)

// The per-op differential grid. Every op the block translator compiles
// into a single step runs as a one-instruction block body (op; HALT, with
// a HALT handler after it) on the reference, translated and native
// engines, over a grid of operand values, immediates, tags and hardware
// configs, and every observable must agree: registers, memory, Stats
// (cycles, traps and every category), PC, output and the error, whose
// message carries the fault pc and cycle. Registers and memory are preset
// on the machine rather than loaded by instructions, so the op is alone in
// its block and nothing fuses with it. The grid is what the ten benchmark
// programs cannot give: ops they never execute (SLL, SRL, SRA, XORI,
// FDIV) and every fault and trap exit of the per-op kinds.

const (
	gridMemWords = 1024 // 4 KB: addresses 0x000–0xfff
	// The memory-tagging geometry: 8-byte granules below 0x800, colors in
	// the shadow table at 0x800. Granule g is colored 1 + g%3, so
	// neighbouring granules differ, except granules 64–71 (0x200–0x23f),
	// which stay 0 (poisoned).
	gridMemtagBase  = 0x800
	gridMemtagShift = 3
	gridMemtagLimit = 0x800
	gridHandler     = 2 // the HALT every handled config's handlers point at
)

// gridConfig is one hardware config of the grid; scheme is nil for the
// plain config (no tag hardware, no memory tagging, faulting handlers).
type gridConfig struct {
	name   string
	scheme tags.Scheme
	hw     mipsx.HWConfig
}

func gridConfigs() []gridConfig {
	cfgs := []gridConfig{{name: "plain", hw: mipsx.HWConfig{
		TrapHandler: -1, CheckFailHandler: -1, MemtagFailHandler: -1}}}
	for _, s := range tags.All() {
		for _, handled := range []bool{false, true} {
			hw := tags.HWConfig(s, tags.HW{MemIgnoresTags: true})
			hw.MemtagBase, hw.MemtagShift, hw.MemtagLimit = gridMemtagBase, gridMemtagShift, gridMemtagLimit
			hw.MemtagFailHandler = -1
			name := s.Kind().String()
			if handled {
				hw.TrapHandler, hw.CheckFailHandler, hw.MemtagFailHandler = gridHandler, gridHandler, gridHandler
				name += "+handlers"
			}
			cfgs = append(cfgs, gridConfig{name: name, scheme: s, hw: hw})
		}
	}
	return cfgs
}

// gridInts are the scheme-independent operand values: 0, ±1, ±2, shift
// counts around 32, the int32 extremes, and float bit patterns (±1.0,
// ±2^31, infinity, NaN, the smallest denormal is 1).
var gridInts = []uint32{
	0, 1, math.MaxUint32, 2, math.MaxUint32 - 1, 31, 32, 33,
	math.MaxInt32, 1 << 31, math.MaxInt32 - 1, 1<<31 + 1,
	0x3f800000, 0xbf800000, 0x4f000000, 0xcf000000, 0x7f800000, 0x7fc00000,
}

// gridImms are the immediates of the ALU immediate forms.
var gridImms = []int32{0, 1, -1, 2, 31, 32, 33, 0xffff, math.MaxInt32, math.MinInt32}

// gridAddrs are base values for the memory ops: aligned and misaligned
// words, granule and shadow-table edges, the poisoned granules, the last
// word, one past it, and values that only fit once tag bits are masked.
var gridAddrs = []uint32{
	0x100, 0x104, 0x101, 0x102, 0x0fc, 0x1fc, 0x200, 0x7fc, 0x800, 0xffc,
	0x1000, 0xfffffffc, 0x80000100, 0x08000100,
}

// gridMemImms are the memory ops' offsets: same word, the next word (next
// granule from an even word), the previous one, a misaligning one.
var gridMemImms = []int32{0, 4, -4, 8, 2}

// schemeInts are scheme s's tag boundaries — the lowest and highest word
// carrying each type's tag — and its fixnum extremes and their
// neighbours, the values where tag checks and ADDTC/SUBTC change their
// verdict.
func schemeInts(s tags.Scheme) []uint32 {
	shift, mask := s.HWShift(), s.HWMask()
	var vs []uint32
	for t := tags.Type(0); t < tags.NumTypes; t++ {
		lo := uint32(s.Tag(t)) << shift
		vs = append(vs, lo, lo|^(mask<<shift))
	}
	half := int64(1) << (s.FixnumBits() - 1)
	for _, n := range []int64{0, 1, -1, half - 1, -half, half - 2, -half + 1} {
		if v, ok := s.MakeInt(n); ok {
			vs = append(vs, v)
		}
	}
	return vs
}

// schemeAddrs are tagged pointers of every type of s to a few words,
// which the masking memory ops must resolve to the untagged address.
func schemeAddrs(s tags.Scheme) []uint32 {
	var vs []uint32
	for t := tags.Type(0); t < tags.NumTypes; t++ {
		align, off := s.Align(t)
		for _, a := range []uint32{0x100, 0x7f0} {
			vs = append(vs, s.MakePtr(t, a/align*align+off))
		}
	}
	return vs
}

// gridOps groups the single-step ops by operand shape.
var (
	gridBinary = []mipsx.Op{mipsx.ADD, mipsx.SUB, mipsx.AND, mipsx.OR, mipsx.XOR,
		mipsx.SLL, mipsx.SRL, mipsx.SRA, mipsx.MUL, mipsx.DIV, mipsx.REM,
		mipsx.FADD, mipsx.FSUB, mipsx.FMUL, mipsx.FDIV, mipsx.FLT, mipsx.FEQ}
	gridImmOps = []mipsx.Op{mipsx.LI, mipsx.ADDI, mipsx.ANDI, mipsx.ORI, mipsx.XORI,
		mipsx.SLLI, mipsx.SRLI, mipsx.SRAI}
	gridUnary  = []mipsx.Op{mipsx.NOP, mipsx.MOV, mipsx.ITOF, mipsx.FTOI}
	gridMemOps = []mipsx.Op{mipsx.LD, mipsx.ST, mipsx.LDT, mipsx.STT,
		mipsx.LDC, mipsx.STC, mipsx.LDM, mipsx.STM}
)

// gridCase is one program (the op's instruction) and the register values
// it runs under.
type gridCase struct {
	in        mipsx.Instr
	a, b, cbv uint32 // rs1, rs2 and the LDM/STM color-base register r9
}

// gridProgram lays out op; HALT; HALT (the handler) with no scheduling:
// the op is the whole body of the entry block.
func gridProgram(in mipsx.Instr) *mipsx.Program {
	return &mipsx.Program{Entry: 0, Instrs: []mipsx.Instr{in, {Op: mipsx.HALT}, {Op: mipsx.HALT}}}
}

// gridMachine makes a machine for one grid run: r6 = a, r7 = b, r9 = cbv,
// every other register a distinct marker, data words a fixed hash of their
// index, and the shadow table colored as described above.
func gridMachine(p *mipsx.Program, hw mipsx.HWConfig, c *gridCase) *mipsx.Machine {
	m := mipsx.NewMachine(p, gridMemWords, hw)
	m.MaxCycles = 1000
	for i := range m.Regs {
		m.Regs[i] = 0x5000 + uint32(i)
	}
	m.Regs[0] = 0
	m.Regs[6], m.Regs[7], m.Regs[9] = c.a, c.b, c.cbv
	for i := range m.Mem {
		m.Mem[i] = uint32(i) * 2654435761
	}
	for g := uint32(0); g < gridMemtagLimit>>gridMemtagShift; g++ {
		color := 1 + g%3
		if g >= 64 && g < 72 {
			color = 0
		}
		m.Mem[(gridMemtagBase>>2)+g] = color
	}
	return m
}

// gridRun is one engine's outcome.
type gridRun struct {
	m   *mipsx.Machine
	err error
}

// gridDiff returns how run diverges from the reference, or "".
func gridDiff(got, ref gridRun) string {
	errStr := func(err error) string {
		if err == nil {
			return "<nil>"
		}
		return err.Error()
	}
	switch {
	case errStr(got.err) != errStr(ref.err):
		return fmt.Sprintf("error %s, reference %s", errStr(got.err), errStr(ref.err))
	case got.m.Stats != ref.m.Stats:
		return fmt.Sprintf("stats %+v, reference %+v", got.m.Stats, ref.m.Stats)
	case got.m.Regs != ref.m.Regs:
		return fmt.Sprintf("registers %v, reference %v", got.m.Regs, ref.m.Regs)
	case got.m.PC != ref.m.PC:
		return fmt.Sprintf("pc %d, reference %d", got.m.PC, ref.m.PC)
	case got.m.Output.String() != ref.m.Output.String():
		return fmt.Sprintf("output %q, reference %q", got.m.Output.String(), ref.m.Output.String())
	}
	for i := range got.m.Mem {
		if got.m.Mem[i] != ref.m.Mem[i] {
			return fmt.Sprintf("memory word %d: %#x, reference %#x", i, got.m.Mem[i], ref.m.Mem[i])
		}
	}
	return ""
}

// gridOutcome classifies a reference run for the coverage check: "ok",
// "handler" (a trap or failed check entered its handler), or the fault.
func gridOutcome(r gridRun) string {
	switch {
	case r.err != nil:
		for _, f := range []string{"division by zero", "misaligned", "out of range",
			"tag mismatch", "granule check", "arithmetic trap", "without integer-test hardware"} {
			if strings.Contains(r.err.Error(), f) {
				return f
			}
		}
		return r.err.Error()
	case r.m.Stats.Traps > 0:
		return "handler"
	}
	return "ok"
}

// gridCases enumerates the grid under one config.
func gridCases(cfg gridConfig) []gridCase {
	ints := gridInts
	addrs := gridAddrs
	var tagVals []uint8
	if cfg.scheme != nil {
		ints = append(append([]uint32(nil), gridInts...), schemeInts(cfg.scheme)...)
		addrs = append(append([]uint32(nil), gridAddrs...), schemeAddrs(cfg.scheme)...)
		seen := map[uint8]bool{}
		for t := tags.Type(0); t < tags.NumTypes; t++ {
			if v := cfg.scheme.Tag(t); !seen[v] {
				seen[v] = true
				tagVals = append(tagVals, v)
			}
		}
	}
	var cs []gridCase
	// rd 5 is the plain case, rd 0 a write to the hardwired zero and rd 6
	// a result overwriting its own first operand.
	rds := []uint8{5, 0, 6}
	if cfg.scheme == nil {
		for _, op := range gridBinary {
			for _, rd := range rds {
				for _, a := range ints {
					for _, b := range ints {
						cs = append(cs, gridCase{in: mipsx.Instr{Op: op, Rd: rd, Rs1: 6, Rs2: 7}, a: a, b: b})
					}
				}
			}
		}
		for _, op := range gridImmOps {
			for _, rd := range rds {
				for _, a := range ints {
					for _, imm := range gridImms {
						cs = append(cs, gridCase{in: mipsx.Instr{Op: op, Rd: rd, Rs1: 6, Imm: imm}, a: a})
					}
				}
			}
		}
		for _, op := range gridUnary {
			for _, rd := range rds {
				for _, a := range ints {
					cs = append(cs, gridCase{in: mipsx.Instr{Op: op, Rd: rd, Rs1: 6}, a: a})
				}
			}
		}
	}
	for _, op := range []mipsx.Op{mipsx.ADDTC, mipsx.SUBTC} {
		for _, rd := range rds {
			for _, a := range ints {
				for _, b := range ints {
					cs = append(cs, gridCase{in: mipsx.Instr{Op: op, Rd: rd, Rs1: 6, Rs2: 7}, a: a, b: b})
				}
			}
		}
	}
	for _, op := range gridMemOps {
		tvs := []uint8{0}
		if (op == mipsx.LDC || op == mipsx.STC) && cfg.scheme != nil {
			tvs = tagVals
		}
		// LDM/STM take their color base from rs1 (Tag 0) or from r9.
		cbs := []uint8{0}
		if op == mipsx.LDM || op == mipsx.STM {
			cbs = []uint8{0, 9}
		}
		for _, tv := range tvs {
			for _, cb := range cbs {
				if cb != 0 {
					tv = cb
				}
				for _, a := range addrs {
					for _, imm := range gridMemImms {
						cbvs := []uint32{0}
						if cb != 0 {
							cbvs = []uint32{0x100, 0x108, 0x200, 0x7f8, 0x800}
						}
						for _, cbv := range cbvs {
							cs = append(cs, gridCase{in: mipsx.Instr{Op: op, Rd: 5, Rs1: 6, Rs2: 7, Imm: imm, Tag: tv},
								a: a, b: 0xabcd0000 + uint32(len(cs)), cbv: cbv})
						}
					}
				}
			}
		}
	}
	return cs
}

// TestOpGrid runs the grid and checks that it reached every exit it
// exists for.
func TestOpGrid(t *testing.T) {
	covered := map[string]int{}
	runs := 0
	for _, cfg := range gridConfigs() {
		progs := map[mipsx.Instr]*mipsx.Program{}
		fails := 0
		for _, c := range gridCases(cfg) {
			c := c
			p := progs[c.in]
			if p == nil {
				p = gridProgram(c.in)
				progs[c.in] = p
			}
			ref := gridRun{m: gridMachine(p, cfg.hw, &c)}
			ref.err = ref.m.RunReference()
			covered[c.in.Op.String()+": "+gridOutcome(ref)]++
			for _, e := range []mipsx.Engine{mipsx.EngineTranslated, mipsx.EngineNative} {
				got := gridRun{m: gridMachine(p, cfg.hw, &c)}
				got.err = got.m.RunEngine(e)
				runs++
				if d := gridDiff(got, ref); d != "" {
					t.Errorf("%s: %v rd=%d imm=%d tag=%d, r6=%#x r7=%#x r9=%#x: %v: %s",
						cfg.name, c.in.Op, c.in.Rd, c.in.Imm, c.in.Tag, c.a, c.b, c.cbv, e, d)
					if fails++; fails == 10 {
						t.Fatalf("%s: too many divergences", cfg.name)
					}
				}
				got.m.Release()
			}
			ref.m.Release()
		}
	}
	want := []string{
		"sll: ok", "srl: ok", "sra: ok", "xori: ok", "fdiv: ok",
		"div: division by zero", "rem: division by zero",
		"ld: misaligned", "ld: out of range", "st: misaligned", "st: out of range",
		"stt: out of range",
		"ldc: tag mismatch", "ldc: handler", "stc: tag mismatch", "stc: handler",
		"ldc: misaligned", "ldc: out of range", "stc: misaligned", "stc: out of range",
		"ldm: granule check", "ldm: handler", "stm: granule check", "stm: handler",
		"ldm: out of range", "stm: out of range",
		"addtc: arithmetic trap", "addtc: handler", "subtc: arithmetic trap", "subtc: handler",
		"addtc: without integer-test hardware", "subtc: without integer-test hardware",
		"addtc: ok", "subtc: ok", "ldc: ok", "stc: ok", "ldm: ok", "stm: ok",
	}
	for _, k := range want {
		if covered[k] == 0 {
			t.Errorf("the grid never reached %q", k)
		}
	}
	if testing.Verbose() {
		var keys []string
		for k := range covered {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			t.Logf("%-40s %d", k, covered[k])
		}
	}
	t.Logf("%d engine runs compared with the reference", runs)
}
