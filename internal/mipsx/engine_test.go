package mipsx

import (
	"strings"
	"testing"
)

// runEngines executes p on the translated and native engines and asserts
// every observable — statistics, registers, PC, memory, output, and any
// error — is identical to a reference-engine run. It returns the translated
// machine for additional assertions.
func runEngines(t *testing.T, p *Program, memWords int, hw HWConfig) *Machine {
	t.Helper()
	ref := NewMachine(p, memWords, hw)
	ref.MaxCycles = 1_000_000
	rerr := ref.RunReference()

	var translated *Machine
	for _, e := range []Engine{EngineTranslated, EngineNative} {
		m := NewMachine(p, memWords, hw)
		m.MaxCycles = 1_000_000
		merr := m.RunEngine(e)
		if e == EngineTranslated {
			translated = m
		}

		switch {
		case (merr == nil) != (rerr == nil):
			t.Fatalf("error divergence: %v %v, ref %v", e, merr, rerr)
		case merr != nil && merr.Error() != rerr.Error():
			t.Fatalf("error divergence:\n%v: %v\nref:   %v", e, merr, rerr)
		}
		if m.Stats != ref.Stats {
			t.Errorf("stats diverge:\n%v: %+v\nref:   %+v", e, m.Stats, ref.Stats)
		}
		if m.Regs != ref.Regs {
			t.Errorf("registers diverge:\n%v: %v\nref:   %v", e, m.Regs, ref.Regs)
		}
		if m.PC != ref.PC {
			t.Errorf("final PC diverges: %v %d, ref %d", e, m.PC, ref.PC)
		}
		if m.Output.String() != ref.Output.String() {
			t.Errorf("output diverges: %v %q, ref %q", e, m.Output.String(), ref.Output.String())
		}
		for i := range m.Mem {
			if m.Mem[i] != ref.Mem[i] {
				t.Errorf("memory diverges at word %d: %v %#x, ref %#x", i, e, m.Mem[i], ref.Mem[i])
				break
			}
		}
	}
	return translated
}

// TestEnginesMatchReference pits the translated and native engines against
// the single-step reference on small programs that exercise every special
// path: interlock stalls, squashing branches, tag branches, checked loads
// with and without a handler, arithmetic traps, memory tagging, jumps,
// syscalls with output, and faults.
func TestEnginesMatchReference(t *testing.T) {
	tagged := HWConfig{TagShift: 27, TagMask: 31, IsIntItem: isInt27,
		TrapHandler: -1, CheckFailHandler: -1}
	plain := HWConfig{TrapHandler: -1, CheckFailHandler: -1}
	// memtagHW places an 8-byte-granule shadow table at 0x2000 covering
	// data below it; fail is the violation handler (-1 = fault).
	memtagHW := func(fail int) HWConfig {
		return HWConfig{TrapHandler: -1, CheckFailHandler: -1, MemtagFailHandler: fail,
			MemtagBase: 0x2000, MemtagShift: 3, MemtagLimit: 0x2000}
	}

	cases := map[string]struct {
		hw    HWConfig
		build func(a *Asm) (handler string)
	}{
		"alu-loop-interlock": {plain, func(a *Asm) string {
			loop := a.NewLabel("loop")
			a.Li(10, 0x100)
			a.Li(11, 7)
			a.St(11, 10, 0)
			a.Li(12, 0) // sum
			a.Li(13, 0) // i
			a.Bind(loop)
			a.Ld(14, 10, 0)
			a.Add(12, 12, 14) // immediate use: interlock stall
			a.Addi(13, 13, 1)
			a.Blti(13, 50, loop)
			a.Mul(15, 12, 11)
			a.Div(16, 15, 11)
			a.Halt()
			return ""
		}},
		"squashing-branch": {plain, func(a *Asm) string {
			loop := a.NewLabel("loop")
			a.Li(10, 0)
			a.Li(11, 1)
			a.Bind(loop)
			a.Add(10, 10, 11)
			a.Addi(11, 11, 1)
			a.Li(12, 10)
			a.Raw(Instr{Op: BLE, Rs1: 11, Rs2: 12, Target: int(loop), Squash: true})
			a.Halt()
			return ""
		}},
		"tag-branch-ldt": {tagged, func(a *Asm) string {
			a.Li(10, int32(uint32(3)<<27|0x100))
			yes := a.NewLabel("yes")
			a.Bteq(10, 3, yes)
			a.Halt()
			a.Bind(yes)
			a.Li(11, 99)
			a.Stt(11, 10, 0)
			a.Ldt(12, 10, 0)
			a.Add(13, 12, 12) // interlock on a tag-ignoring load
			a.Halt()
			return ""
		}},
		"checked-load-ok": {tagged, func(a *Asm) string {
			a.Li(10, int32(uint32(3)<<27|0x100))
			a.Li(11, 1234)
			a.Stc(11, 10, 0, 3)
			a.Ldc(12, 10, 0, 3)
			a.Halt()
			return ""
		}},
		"checked-load-fail-nohandler": {tagged, func(a *Asm) string {
			a.Li(10, int32(uint32(3)<<27|0x100))
			a.Ldc(12, 10, 0, 5) // wrong tag, no handler: fault
			a.Halt()
			return ""
		}},
		"checked-load-fail-handler": {tagged, func(a *Asm) string {
			handler := a.NewLabel("handler")
			a.Li(10, int32(uint32(3)<<27|0x100))
			a.Ldc(12, 10, 0, 5) // wrong tag: enters handler
			a.Halt()
			a.Bind(handler)
			a.Mov(20, RT0)
			a.Mov(21, RT1)
			a.Halt()
			return "handler"
		}},
		"arith-trap-handler": {tagged, func(a *Asm) string {
			handler := a.NewLabel("trap")
			a.Li(10, int32(uint32(1)<<27|0x100)) // non-integer
			a.Li(11, 1)
			a.Addtc(12, 10, 11)
			a.Mov(13, 12)
			a.Halt()
			a.Bind(handler)
			a.Li(RT0, 4242)
			a.St(RT0, RZero, TrapResultAddr)
			a.Sys(SysTrapReturn)
			return "trap"
		}},
		"arith-trap-nohandler": {tagged, func(a *Asm) string {
			a.Li(10, 1<<26-1)
			a.Li(11, 1)
			a.Addtc(12, 10, 11) // overflow, no handler: fault
			a.Halt()
			return ""
		}},
		"jumps-and-calls": {plain, func(a *Asm) string {
			fn := a.NewLabel("fn")
			over := a.NewLabel("over")
			a.Jal(fn)
			a.Jmp(over)
			a.Bind(fn)
			a.Addi(10, 10, 1)
			a.Jr(RRA)
			a.Bind(over)
			a.Mov(11, RRA)
			a.Halt()
			return ""
		}},
		"syscalls-output": {plain, func(a *Asm) string {
			a.Li(RRet, 'h')
			a.Sys(SysPutChar)
			a.Li(RRet, -42)
			a.Sys(SysPutInt)
			a.Li(RRet, 16)
			a.Sys(SysGCNotify)
			a.Halt()
			return ""
		}},
		"runtime-error": {plain, func(a *Asm) string {
			a.Li(3, 0x77)
			a.Li(RRet, 5)
			a.Sys(SysError)
			return ""
		}},
		"memtag-ok": {memtagHW(-1), func(a *Asm) string {
			a.Li(10, 0x100)
			a.Li(11, 1)
			a.St(11, RZero, 0x2080) // color granule 0x100>>3 = 32
			a.Li(12, 777)
			a.Stm(12, 10, 0, 0)
			a.Ldm(13, 10, 0, 0)
			a.Add(14, 13, 13) // interlock on the tag-checked load
			a.Halt()
			return ""
		}},
		"memtag-poisoned-nohandler": {memtagHW(-1), func(a *Asm) string {
			a.Li(10, 0x100)
			a.Ldm(12, 10, 0, 0) // granule never colored: fault
			a.Halt()
			return ""
		}},
		"memtag-mismatch-handler": {memtagHW(0), func(a *Asm) string {
			handler := a.NewLabel("mthandler")
			a.Li(10, 0x100)
			a.Li(11, 1)
			a.St(11, RZero, 0x2080) // granule of 0x100: color 1
			a.Li(11, 2)
			a.St(11, RZero, 0x2084) // granule of 0x108: color 2
			a.Ldm(12, 10, 8, 0)     // base color 1, accessed color 2: trap
			a.Halt()
			a.Bind(handler)
			a.Mov(20, RT0)
			a.Mov(21, RT1)
			a.Halt()
			return "mthandler"
		}},
		"div-zero-fault": {plain, func(a *Asm) string {
			a.Li(10, 3)
			a.Div(11, 10, 0)
			a.Halt()
			return ""
		}},
		"wild-load-fault": {plain, func(a *Asm) string {
			a.Li(10, 1<<30)
			a.Ld(11, 10, 0)
			a.Halt()
			return ""
		}},
	}

	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			a := NewAsm()
			main := a.NewLabel("main")
			a.Bind(main)
			handler := tc.build(a)
			p, err := a.Finish("main")
			if err != nil {
				t.Fatal(err)
			}
			hw := tc.hw
			if handler != "" {
				switch {
				case name == "arith-trap-handler":
					hw.TrapHandler = p.Labels[handler]
				case strings.HasPrefix(name, "memtag-"):
					hw.MemtagFailHandler = p.Labels[handler]
				default:
					hw.CheckFailHandler = p.Labels[handler]
				}
			}
			runEngines(t, p, 4096, hw)
		})
	}
}

// TestEngineZeroAlloc verifies the acceptance criterion that the execution
// engines allocate nothing per simulated instruction in steady state:
// whole runs of a load/branch loop on a warm program must perform zero
// allocations. For the block engines "warm" means the program's block
// cache (and for native, the closure cache and superblocks) already
// exists, as it does for every run but the first in a sweep; NewMachine
// pre-sizes the per-machine counters from the warm program so steady-state
// runs never grow them.
func TestEngineZeroAlloc(t *testing.T) {
	variants := map[string]struct {
		hw     HWConfig
		memtag bool
	}{
		"plain": {HWConfig{TrapHandler: -1, CheckFailHandler: -1}, false},
		// Passing granule checks on every iteration must stay allocation-
		// free too: LDM/STM are hot-path instructions under memtaghw.
		"memtag": {HWConfig{TrapHandler: -1, CheckFailHandler: -1, MemtagFailHandler: -1,
			MemtagBase: 0x2000, MemtagShift: 3, MemtagLimit: 0x2000}, true},
	}
	for vname, v := range variants {
		hw := v.hw
		for _, engine := range []Engine{EngineTranslated, EngineNative} {
			t.Run(vname+"/"+engine.String(), func(t *testing.T) {
				a := NewAsm()
				main := a.NewLabel("main")
				loop := a.NewLabel("loop")
				a.Bind(main)
				a.Li(10, 0x100)
				a.Li(11, 3)
				if v.memtag {
					a.Li(15, 1)
					a.St(15, RZero, 0x2080) // color the data granule
					a.Stm(11, 10, 0, 0)
				} else {
					a.St(11, 10, 0)
				}
				a.Li(12, 0)
				a.Li(13, 0)
				a.Bind(loop)
				if v.memtag {
					a.Ldm(14, 10, 0, 0)
				} else {
					a.Ld(14, 10, 0)
				}
				a.Add(12, 12, 14) // interlock stall every iteration
				a.Addi(13, 13, 1)
				a.Blti(13, 100_000, loop)
				a.Halt()
				p, err := a.Finish("main")
				if err != nil {
					t.Fatal(err)
				}
				p.Predecode()

				// Warm the program-wide caches: blocks, closures, superblocks.
				warm := NewMachine(p, 4096, hw)
				warm.MaxCycles = 10_000_000
				if err := warm.RunEngine(engine); err != nil {
					t.Fatal(err)
				}

				const runs = 5
				// AllocsPerRun invokes the function runs+1 times (one warm-up
				// call), so every invocation needs its own fresh machine.
				machines := make([]*Machine, runs+1)
				for i := range machines {
					machines[i] = NewMachine(p, 4096, hw)
					machines[i].MaxCycles = 10_000_000
				}
				next := 0
				allocs := testing.AllocsPerRun(runs, func() {
					m := machines[next]
					next++
					if err := m.RunEngine(engine); err != nil {
						t.Fatal(err)
					}
				})
				if allocs != 0 {
					t.Errorf("%v engine allocated %.1f times per run, want 0", engine, allocs)
				}
				if machines[0].Regs[13] != 100_000 {
					t.Errorf("loop ran %d iterations, want 100000", machines[0].Regs[13])
				}
			})
		}
	}
}
