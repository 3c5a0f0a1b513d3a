package mipsx

import (
	"strings"
	"testing"
)

// buildRun assembles the program produced by f (entry label "main" must be
// bound by f) and runs it to completion.
func buildRun(t *testing.T, hw HWConfig, f func(a *Asm)) *Machine {
	t.Helper()
	m, err := buildRunErr(t, hw, f)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return m
}

func buildRunErr(t *testing.T, hw HWConfig, f func(a *Asm)) (*Machine, error) {
	t.Helper()
	a := NewAsm()
	main := a.NewLabel("main")
	a.Bind(main)
	f(a)
	p, err := a.Finish("main")
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	if hw.TrapHandler == 0 {
		hw.TrapHandler = -1
	}
	if hw.CheckFailHandler == 0 {
		hw.CheckFailHandler = -1
	}
	m := NewMachine(p, 4096, hw)
	m.MaxCycles = 1_000_000
	return m, m.Run()
}

func TestALUBasics(t *testing.T) {
	m := buildRun(t, HWConfig{}, func(a *Asm) {
		a.Li(10, 7)
		a.Li(11, 5)
		a.Add(12, 10, 11) // 12
		a.Sub(13, 10, 11) // 2
		a.Mul(14, 10, 11) // 35
		a.Div(15, 14, 10) // 5
		a.Rem(16, 14, 11) // 0
		a.Andi(17, 10, 3) // 3
		a.Ori(18, 11, 8)  // 13
		a.Xori(19, 10, 1) // 6
		a.Slli(20, 11, 2) // 20
		a.Srai(21, 20, 1) // 10
		a.Halt()
	})
	want := map[uint8]int32{12: 12, 13: 2, 14: 35, 15: 5, 16: 0, 17: 3, 18: 13, 19: 6, 20: 20, 21: 10}
	for r, v := range want {
		if got := int32(m.Regs[r]); got != v {
			t.Errorf("r%d = %d, want %d", r, got, v)
		}
	}
}

func TestNegativeArithmetic(t *testing.T) {
	m := buildRun(t, HWConfig{}, func(a *Asm) {
		a.Li(10, -7)
		a.Li(11, 2)
		a.Div(12, 10, 11) // -3 (truncating)
		a.Rem(13, 10, 11) // -1
		a.Srai(14, 10, 1) // -4
		a.Srli(15, 10, 28)
		a.Halt()
	})
	if int32(m.Regs[12]) != -3 || int32(m.Regs[13]) != -1 || int32(m.Regs[14]) != -4 {
		t.Errorf("got %d %d %d", int32(m.Regs[12]), int32(m.Regs[13]), int32(m.Regs[14]))
	}
	if m.Regs[15] != 0xF {
		t.Errorf("srli = %#x", m.Regs[15])
	}
}

func TestMemory(t *testing.T) {
	m := buildRun(t, HWConfig{}, func(a *Asm) {
		a.Li(10, 0x100)
		a.Li(11, 42)
		a.St(11, 10, 0)
		a.St(11, 10, 4)
		a.Ld(12, 10, 0)
		a.Addi(13, 12, 1)
		a.Halt()
	})
	if m.Mem[0x100>>2] != 42 || m.Mem[0x104>>2] != 42 {
		t.Error("stores did not land")
	}
	if m.Regs[13] != 43 {
		t.Errorf("load+use = %d", m.Regs[13])
	}
	if m.Stats.Stalls == 0 {
		t.Error("expected a load interlock stall (ld immediately followed by use)")
	}
}

func TestMemoryFaults(t *testing.T) {
	for name, f := range map[string]func(a *Asm){
		"misaligned": func(a *Asm) { a.Li(10, 0x101); a.Ld(11, 10, 0); a.Halt() },
		"wild":       func(a *Asm) { a.Li(10, 1<<30); a.Ld(11, 10, 0); a.Halt() },
		"divzero":    func(a *Asm) { a.Li(10, 3); a.Div(11, 10, 0); a.Halt() },
	} {
		_, err := buildRunErr(t, HWConfig{}, f)
		if err == nil {
			t.Errorf("%s: expected fault", name)
		}
	}
}

func TestBranchesAndLoop(t *testing.T) {
	// Sum 1..10 with a loop.
	m := buildRun(t, HWConfig{}, func(a *Asm) {
		loop := a.NewLabel("loop")
		done := a.NewLabel("done")
		a.Li(10, 0)  // sum
		a.Li(11, 1)  // i
		a.Li(12, 10) // limit
		a.Bind(loop)
		a.Bgt(11, 12, done)
		a.Add(10, 10, 11)
		a.Addi(11, 11, 1)
		a.Jmp(loop)
		a.Bind(done)
		a.Halt()
	})
	if m.Regs[10] != 55 {
		t.Errorf("sum = %d, want 55", m.Regs[10])
	}
}

func TestDelaySlotsExecute(t *testing.T) {
	// An instruction before a taken branch that the scheduler moves into a
	// delay slot must still execute.
	m := buildRun(t, HWConfig{}, func(a *Asm) {
		over := a.NewLabel("over")
		a.Li(10, 1)
		a.Li(11, 99) // movable; should land in a delay slot and still run
		a.Beq(0, 0, over)
		a.Li(11, 0) // skipped by the branch
		a.Bind(over)
		a.Halt()
	})
	if m.Regs[11] != 99 {
		t.Errorf("r11 = %d, want 99 (delay-slot instruction lost)", m.Regs[11])
	}
}

func TestCallReturn(t *testing.T) {
	m := buildRun(t, HWConfig{}, func(a *Asm) {
		fn := a.NewLabel("double")
		after := a.NewLabel("after")
		a.Li(RArg0, 21)
		a.Jal(fn)
		a.Jmp(after)
		a.Bind(fn)
		a.Add(RRet, RArg0, RArg0)
		a.Jr(RRA)
		a.Bind(after)
		a.Mov(10, RRet)
		a.Halt()
	})
	if m.Regs[10] != 42 {
		t.Errorf("call result = %d, want 42", m.Regs[10])
	}
}

func TestIndirectCall(t *testing.T) {
	m := buildRun(t, HWConfig{}, func(a *Asm) {
		fn := a.NewLabel("inc")
		tab := a.NewLabel("go")
		a.Li(RArg0, 41)
		// Load the function address into a register via a label-relative
		// trick: JAL to a stub that captures its own address.
		a.Jal(tab)
		a.Mov(10, RRet)
		a.Halt()
		a.Bind(fn)
		a.Addi(RRet, RArg0, 1)
		a.Jr(RRA)
		a.Bind(tab)
		// Call fn indirectly.
		a.Mov(RT2, RRA)
		a.Jal(fn)
		a.Jr(RT2)
	})
	if m.Regs[10] != 42 {
		t.Errorf("indirect result = %d, want 42", m.Regs[10])
	}
}

func TestSyscallsOutput(t *testing.T) {
	m := buildRun(t, HWConfig{}, func(a *Asm) {
		a.Li(RRet, 'h')
		a.Sys(SysPutChar)
		a.Li(RRet, 'i')
		a.Sys(SysPutChar)
		a.Li(RRet, -12)
		a.Sys(SysPutInt)
		a.Halt()
	})
	if got := m.Output.String(); got != "hi-12" {
		t.Errorf("output = %q", got)
	}
}

func TestSysError(t *testing.T) {
	_, err := buildRunErr(t, HWConfig{}, func(a *Asm) {
		a.Li(RRet, 7)
		a.Li(3, 0xBEEF>>2<<2)
		a.Sys(SysError)
		a.Halt()
	})
	re, ok := err.(*RuntimeError)
	if !ok {
		t.Fatalf("err = %v, want RuntimeError", err)
	}
	if re.Code != 7 {
		t.Errorf("code = %d", re.Code)
	}
}

func TestTagBranch(t *testing.T) {
	hw := HWConfig{TagShift: 27, TagMask: 31}
	m := buildRun(t, hw, func(a *Asm) {
		yes := a.NewLabel("yes")
		no := a.NewLabel("no")
		a.Li(10, int32(uint32(3)<<27|0x123)) // tag 3
		a.Bteq(10, 3, yes)
		a.Jmp(no)
		a.Bind(yes)
		a.Li(11, 1)
		a.Halt()
		a.Bind(no)
		a.Li(11, 2)
		a.Halt()
	})
	if m.Regs[11] != 1 {
		t.Errorf("bteq took wrong path: r11=%d", m.Regs[11])
	}
}

func TestTagIgnoringMemory(t *testing.T) {
	hw := HWConfig{MemAddrMask: 0x07FFFFFF}
	m := buildRun(t, hw, func(a *Asm) {
		a.Li(10, 0x200)
		a.Li(11, 77)
		a.St(11, 10, 0)
		// Tagged pointer: tag 5 in the top bits.
		a.Li(12, int32(uint32(5)<<27|0x200))
		a.Ldt(13, 12, 0)
		a.Stt(13, 12, 4)
		a.Halt()
	})
	if m.Regs[13] != 77 {
		t.Errorf("ldt = %d", m.Regs[13])
	}
	if m.Mem[0x204>>2] != 77 {
		t.Error("stt did not mask the tag")
	}
}

func TestCheckedLoad(t *testing.T) {
	hw := HWConfig{TagShift: 27, TagMask: 31, MemAddrMask: 0x07FFFFFF}
	m := buildRun(t, hw, func(a *Asm) {
		a.Li(10, 0x200)
		a.Li(11, 99)
		a.St(11, 10, 0)
		a.Li(12, int32(uint32(1)<<27|0x200)) // pair-tagged pointer
		a.Ldc(13, 12, 0, 1)
		a.Halt()
	})
	if m.Regs[13] != 99 {
		t.Errorf("ldc = %d", m.Regs[13])
	}
	// Mismatched tag must fault when no handler is configured.
	_, err := buildRunErr(t, hw, func(a *Asm) {
		a.Li(12, int32(uint32(2)<<27|0x200))
		a.Ldc(13, 12, 0, 1)
		a.Halt()
	})
	if err == nil {
		t.Error("ldc with wrong tag: expected fault")
	}
}

func isInt27(v uint32) bool {
	return uint32(int32(v)<<5>>5) == v
}

func TestCheckedArith(t *testing.T) {
	hw := HWConfig{TagShift: 27, TagMask: 31, IsIntItem: isInt27}
	m := buildRun(t, hw, func(a *Asm) {
		a.Li(10, 20)
		a.Li(11, 22)
		a.Addtc(12, 10, 11)
		a.Li(13, -5)
		a.Subtc(14, 12, 13) // 47
		a.Halt()
	})
	if m.Regs[12] != 42 || m.Regs[14] != 47 {
		t.Errorf("addtc/subtc = %d %d", m.Regs[12], m.Regs[14])
	}
	// Non-integer operand traps (faults without a handler).
	_, err := buildRunErr(t, hw, func(a *Asm) {
		a.Li(10, int32(uint32(1)<<27|0x100)) // pair item
		a.Li(11, 1)
		a.Addtc(12, 10, 11)
		a.Halt()
	})
	if err == nil {
		t.Error("addtc on pair: expected trap fault")
	}
	// Overflow traps.
	_, err = buildRunErr(t, hw, func(a *Asm) {
		a.Li(10, 1<<26-1)
		a.Li(11, 1)
		a.Addtc(12, 10, 11)
		a.Halt()
	})
	if err == nil {
		t.Error("addtc overflow: expected trap fault")
	}
}

func TestArithTrapHandler(t *testing.T) {
	// Build a program with a software trap handler that services the trap
	// by writing a sentinel result.
	a := NewAsm()
	main := a.NewLabel("main")
	handler := a.NewLabel("handler")
	a.Bind(main)
	a.Li(10, int32(uint32(1)<<27|0x100)) // non-integer
	a.Li(11, 1)
	a.Addtc(12, 10, 11)
	a.Mov(13, 12) // executes after trap return
	a.Halt()
	a.Bind(handler)
	a.Li(RT0, 4242)
	a.St(RT0, RZero, TrapResultAddr)
	a.Sys(SysTrapReturn)
	p, err := a.Finish("main")
	if err != nil {
		t.Fatal(err)
	}
	hw := HWConfig{TagShift: 27, TagMask: 31, IsIntItem: isInt27,
		TrapHandler: p.Labels["handler"], CheckFailHandler: -1}
	m := NewMachine(p, 4096, hw)
	m.MaxCycles = 10000
	if err := m.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if m.Regs[13] != 4242 {
		t.Errorf("trap result = %d, want 4242", m.Regs[13])
	}
	if m.Stats.Traps != 1 {
		t.Errorf("traps = %d", m.Stats.Traps)
	}
}

func TestStatsCategories(t *testing.T) {
	m := buildRun(t, HWConfig{}, func(a *Asm) {
		a.Cat(CatTagRemove, SubNone)
		a.Andi(10, 11, 0x7)
		a.Cat(CatTagExtract, SubList)
		a.Srli(12, 11, 27)
		a.CatRT(CatTagCheck, SubList)
		skip := a.NewLabel("skip")
		a.Beq(12, 0, skip)
		a.Bind(skip)
		a.Work()
		a.Halt()
	})
	if m.Stats.ByCat[CatTagRemove] != 1 {
		t.Errorf("remove cycles = %d", m.Stats.ByCat[CatTagRemove])
	}
	if m.Stats.ByCat[CatTagExtract] != 1 {
		t.Errorf("extract cycles = %d", m.Stats.ByCat[CatTagExtract])
	}
	// The check branch got two unfilled delay slots (the preceding
	// instructions feed its condition), so check >= 1+2 cycles... the
	// extract may be hoisted? It writes r12 which the branch reads, so it
	// cannot move: slots are noops with the branch's category.
	if m.Stats.ByCat[CatTagCheck] < 3 {
		t.Errorf("check cycles = %d, want >= 3", m.Stats.ByCat[CatTagCheck])
	}
	if m.Stats.ByRTSub[SubList] < 3 {
		t.Errorf("rt list cycles = %d", m.Stats.ByRTSub[SubList])
	}
	if m.Stats.BySub[SubList] < 4 {
		t.Errorf("list sub cycles = %d", m.Stats.BySub[SubList])
	}
}

func TestSquashingBranch(t *testing.T) {
	// A loop whose back-edge is a squashing branch: taken iterations run
	// the loop head's first instructions in the delay slots (copied there
	// by fillSquashSlots); the final not-taken execution annuls them.
	a := NewAsm()
	main := a.NewLabel("main")
	loop := a.NewLabel("loop")
	a.Bind(main)
	a.Li(10, 0) // sum
	a.Li(11, 1) // i
	a.Bind(loop)
	a.Add(10, 10, 11) // sum += i
	a.Addi(11, 11, 1)
	a.Li(12, 10)
	a.Raw(Instr{Op: BLE, Rs1: 11, Rs2: 12, Target: int32(loop), Squash: true})
	a.Halt()
	p, err := a.Finish("main")
	if err != nil {
		t.Fatal(err)
	}
	m := NewMachine(p, 1024, HWConfig{TrapHandler: -1, CheckFailHandler: -1})
	m.MaxCycles = 1000
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if m.Regs[10] != 55 {
		t.Errorf("sum = %d, want 55", m.Regs[10])
	}
	if m.Stats.Squashed != 2 {
		t.Errorf("squashed = %d, want 2 (one annulled slot pair on exit)", m.Stats.Squashed)
	}
}

func TestSquashFillFromTarget(t *testing.T) {
	// The slots of a squashing back-edge should hold copies of the loop
	// head instructions, not no-ops.
	a := NewAsm()
	main := a.NewLabel("main")
	loop := a.NewLabel("loop")
	a.Bind(main)
	a.Li(10, 0)
	a.Li(11, 1)
	a.Bind(loop)
	a.Add(10, 10, 11)
	a.Addi(11, 11, 1)
	a.Li(12, 10)
	a.Raw(Instr{Op: BLE, Rs1: 11, Rs2: 12, Target: int32(loop), Squash: true})
	a.Halt()
	p, err := a.Finish("main")
	if err != nil {
		t.Fatal(err)
	}
	var br int = -1
	for i := range p.Instrs {
		if p.Instrs[i].Op == BLE {
			br = i
		}
	}
	if br < 0 {
		t.Fatal("no BLE found")
	}
	if p.Instrs[br+1].Op == NOP && p.Instrs[br+2].Op == NOP {
		t.Error("squash slots were not filled from the target")
	}
	if int(p.Instrs[br].Target) == p.Labels["loop"] {
		t.Error("branch was not retargeted past the copied instructions")
	}
}

func TestFinishErrors(t *testing.T) {
	a := NewAsm()
	main := a.NewLabel("main")
	missing := a.NewLabel("missing")
	a.Bind(main)
	a.Jmp(missing)
	if _, err := a.Finish("main"); err == nil {
		t.Error("unbound label: expected error")
	}
	a2 := NewAsm()
	l := a2.NewLabel("x")
	a2.Bind(l)
	a2.Halt()
	if _, err := a2.Finish("nope"); err == nil {
		t.Error("missing entry: expected error")
	}
}

func TestMaxCycles(t *testing.T) {
	_, err := buildRunErr(t, HWConfig{}, func(a *Asm) {
		loop := a.NewLabel("spin")
		a.Bind(loop)
		a.Jmp(loop)
	})
	if err == nil || !strings.Contains(err.Error(), "cycle limit") {
		t.Errorf("err = %v, want cycle limit fault", err)
	}
}

func TestDisasmSmoke(t *testing.T) {
	a := NewAsm()
	main := a.NewLabel("main")
	a.Bind(main)
	a.Li(10, 5)
	a.Cat(CatTagCheck, SubList)
	a.Bteq(10, 3, main)
	a.Work()
	a.Halt()
	p, err := a.Finish("main")
	if err != nil {
		t.Fatal(err)
	}
	s := DisasmProgram(p)
	for _, want := range []string{"main:", "li r10, 5", "bteq", "halt"} {
		if !strings.Contains(s, want) {
			t.Errorf("disassembly missing %q:\n%s", want, s)
		}
	}
}

func TestFloatOps(t *testing.T) {
	m := buildRun(t, HWConfig{}, func(a *Asm) {
		a.Li(10, 3)
		a.Li(11, 4)
		a.Itof(12, 10)
		a.Itof(13, 11)
		a.Fadd(14, 12, 13)
		a.Fmul(15, 12, 13)
		a.Fdiv(16, 13, 12)
		a.Ftoi(17, 14) // 7
		a.Ftoi(18, 15) // 12
		a.Ftoi(19, 16) // 1 (4/3 truncated)
		a.Flt(20, 12, 13)
		a.Feq(21, 12, 12)
		a.Halt()
	})
	if m.Regs[17] != 7 || m.Regs[18] != 12 || m.Regs[19] != 1 {
		t.Errorf("float arith = %d %d %d", m.Regs[17], m.Regs[18], m.Regs[19])
	}
	if m.Regs[20] != 1 || m.Regs[21] != 1 {
		t.Errorf("float compare = %d %d", m.Regs[20], m.Regs[21])
	}
}

func TestImmediateBranches(t *testing.T) {
	m := buildRun(t, HWConfig{}, func(a *Asm) {
		l1 := a.NewLabel("l1")
		l2 := a.NewLabel("l2")
		bad := a.NewLabel("bad")
		a.Li(10, 5)
		a.Beqi(10, 5, l1)
		a.Jmp(bad)
		a.Bind(l1)
		a.Blti(10, 6, l2)
		a.Jmp(bad)
		a.Bind(l2)
		a.Li(11, 1)
		a.Halt()
		a.Bind(bad)
		a.Li(11, 0)
		a.Halt()
	})
	if m.Regs[11] != 1 {
		t.Error("immediate branches took wrong path")
	}
}

func TestReturnAddressIsByteScaled(t *testing.T) {
	// Raw return addresses must always look like aligned byte addresses
	// (low two bits zero) so the GC can treat them as fixnums under every
	// tag scheme.
	m := buildRun(t, HWConfig{}, func(a *Asm) {
		fn := a.NewLabel("fn")
		out := a.NewLabel("out")
		a.Jal(fn)
		a.Jmp(out)
		a.Bind(fn)
		a.Mov(10, RRA)
		a.Jr(RRA)
		a.Bind(out)
		a.Halt()
	})
	if m.Regs[10]&3 != 0 {
		t.Errorf("RA = %#x, want low bits clear", m.Regs[10])
	}
	if m.Regs[10] == 0 {
		t.Error("RA not captured")
	}
}

func TestProfileAttributesCycles(t *testing.T) {
	a := NewAsm()
	main := a.NewLabel("main")
	fn := a.NewLabel("fn:busy")
	done := a.NewLabel("fn:done")
	a.Bind(main)
	a.Li(10, 0)
	a.Jal(fn)
	a.Jmp(done)
	a.Bind(fn)
	loop := a.NewLabel("")
	a.Li(11, 100)
	a.Bind(loop)
	a.Addi(10, 10, 1)
	a.Bne(10, 11, loop)
	a.Jr(RRA)
	a.Bind(done)
	a.Halt()
	p, err := a.Finish("main")
	if err != nil {
		t.Fatal(err)
	}
	m := NewMachine(p, 1024, HWConfig{TrapHandler: -1, CheckFailHandler: -1})
	m.MaxCycles = 100000
	prof := NewProfile(p, func(name string) bool { return name == "fn:busy" || name == "fn:done" || name == "main" })
	if err := m.RunProfiled(prof); err != nil {
		t.Fatal(err)
	}
	top := prof.Top(3)
	if len(top) == 0 || top[0].Name != "fn:busy" {
		t.Fatalf("hottest region = %+v, want fn:busy", top)
	}
	var sum uint64
	for _, c := range prof.Cycles {
		sum += c
	}
	if sum != m.Stats.Cycles {
		t.Errorf("profile sums to %d, machine ran %d cycles", sum, m.Stats.Cycles)
	}
	if s := prof.Format(2, m.Stats.Cycles); !strings.Contains(s, "fn:busy") {
		t.Errorf("Format output missing region: %s", s)
	}
}

func TestCheckFailHandlerPath(t *testing.T) {
	// An LDC tag mismatch must vector to the configured handler with the
	// offending item in RT0.
	a := NewAsm()
	main := a.NewLabel("main")
	handler := a.NewLabel("handler")
	a.Bind(main)
	a.Li(10, int32(uint32(2)<<27|0x200)) // symbol-tagged item
	a.Ldc(11, 10, 0, 1)                  // expects pair tag
	a.Li(12, 111)                        // skipped: handler halts
	a.Halt()
	a.Bind(handler)
	a.Mov(13, RT0)
	a.Halt()
	p, err := a.Finish("main")
	if err != nil {
		t.Fatal(err)
	}
	hw := HWConfig{TagShift: 27, TagMask: 31, MemAddrMask: 0x07FFFFFF,
		TrapHandler: -1, CheckFailHandler: p.Labels["handler"]}
	m := NewMachine(p, 4096, hw)
	m.MaxCycles = 1000
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if m.Regs[13] != uint32(2)<<27|0x200 {
		t.Errorf("handler saw offender %#x", m.Regs[13])
	}
	if m.Regs[12] == 111 {
		t.Error("execution continued past the failed check")
	}
	if m.Stats.Traps != 1 {
		t.Errorf("traps = %d", m.Stats.Traps)
	}
}

func TestSysGCNotify(t *testing.T) {
	m := buildRun(t, HWConfig{}, func(a *Asm) {
		a.Li(RRet, 128)
		a.Sys(SysGCNotify)
		a.Li(RRet, 64)
		a.Sys(SysGCNotify)
		a.Halt()
	})
	if m.Stats.GCs != 2 || m.Stats.GCWords != 192 {
		t.Errorf("GCs=%d words=%d", m.Stats.GCs, m.Stats.GCWords)
	}
}

func TestSignedBranchVariants(t *testing.T) {
	m := buildRun(t, HWConfig{}, func(a *Asm) {
		le := a.NewLabel("le")
		gt := a.NewLabel("gt")
		out := a.NewLabel("out")
		a.Li(10, -5)
		a.Li(11, 3)
		a.Ble(10, 11, le)
		a.Li(12, 0)
		a.Jmp(out)
		a.Bind(le)
		a.Li(12, 1)
		a.Bgt(11, 10, gt)
		a.Li(13, 0)
		a.Jmp(out)
		a.Bind(gt)
		a.Li(13, 1)
		a.Bind(out)
		a.Halt()
	})
	if m.Regs[12] != 1 || m.Regs[13] != 1 {
		t.Errorf("ble/bgt signed compare failed: %d %d", m.Regs[12], m.Regs[13])
	}
}

func TestTagCyclesHelper(t *testing.T) {
	var s Stats
	s.ByCat[CatTagInsert] = 1
	s.ByCat[CatTagRemove] = 2
	s.ByCat[CatTagExtract] = 3
	s.ByCat[CatTagCheck] = 4
	s.ByCat[CatWork] = 100
	if got := s.TagCycles(); got != 10 {
		t.Errorf("TagCycles = %d", got)
	}
	if Pct(10, 0) != 0 {
		t.Error("Pct with zero total must be 0")
	}
	if Pct(25, 100) != 25 {
		t.Error("Pct arithmetic")
	}
}

func TestLdtOutOfRangeReadsZero(t *testing.T) {
	// Tag-ignoring loads never fault: a wild masked address reads zero.
	m := buildRun(t, HWConfig{MemAddrMask: 0x07FFFFFF}, func(a *Asm) {
		a.Li(10, 0x07FFF000) // far beyond the test machine's memory
		a.Li(11, 77)
		a.Ldt(11, 10, 0)
		a.Halt()
	})
	if m.Regs[11] != 0 {
		t.Errorf("out-of-range ldt = %d, want 0", m.Regs[11])
	}
}

func TestDisasmAllOps(t *testing.T) {
	// Every opcode must render without panicking.
	for op := NOP; op < numOps; op++ {
		in := Instr{Op: op, Rd: 3, Rs1: 4, Rs2: 5, Imm: 7, Tag: 2, Target: 0}
		if s := Disasm(&in, nil); s == "" {
			t.Errorf("empty disassembly for %v", op)
		}
	}
}
