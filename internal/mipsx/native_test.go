package mipsx

import (
	"strings"
	"testing"
)

// TestSBExitSpillbackClamp pins the flush-time spill-back of superblock
// exit-site counters when the counter array stops short of a superblock's
// slot range. markSBExit grows the array only when the slot it marks
// overflows, and every grow adds headroom — so a superblock formed after a
// grow can have side exits at early elements land inside the headroom
// while the tail of its range (and its full-run slot) lie past the
// allocated length. The expansion must clamp its scan to the allocated
// length and still credit the recorded exits; a regression that skips the
// whole superblock silently drops the completed prefixes from the
// per-block counters and undercounts Instrs.
func TestSBExitSpillbackClamp(t *testing.T) {
	p := &Program{}
	np := &nativeProg{}
	p.nat.Store(np)
	m := &Machine{Prog: p}

	// First superblock: two elements, slots [0..2]. Marking its full-run
	// slot with an empty counter array forces the first grow, which
	// allocates exitLen+64 slots of headroom.
	blk := func(id int32) *tblock { return &tblock{id: id} }
	sb1 := &sblock{
		idx:      0,
		exitBase: 0,
		elems:    []sbElem{{b: blk(0)}, {b: blk(1)}},
	}
	np.exitLen.Store(3)
	list := []*sblock{sb1}
	np.sbs.Store(&list)
	m.markSBExit(sb1, 2) // full run: grows nctr to 3+64 = 67 slots

	// Second superblock, formed later: 100 elements, slots [3..103]. Its
	// range extends past the 67 allocated slots, but side exits at early
	// elements land inside the first grow's headroom, so markSBExit never
	// grows the array again.
	elems := make([]sbElem, 100)
	for i := range elems {
		elems[i] = sbElem{b: blk(int32(2 + i))}
	}
	sb2 := &sblock{idx: 1, exitBase: 3, elems: elems}
	np.exitLen.Store(3 + 100 + 1)
	list2 := []*sblock{sb1, sb2}
	np.sbs.Store(&list2)

	const exits = 7
	for i := 0; i < exits; i++ {
		m.markSBExit(sb2, 5) // element 5: prefix [0,5) completed
	}
	if len(m.nctr) >= int(sb2.exitBase)+len(sb2.elems)+1 {
		t.Fatalf("fixture broken: nctr grew to %d, wanted it short of slot %d",
			len(m.nctr), int(sb2.exitBase)+len(sb2.elems))
	}

	m.expandSBCtrs()

	// sb1's full run credits both its elements; sb2's exits credit
	// elements 0..4 of the completed prefix — exactly once per exit —
	// despite the clamped scan.
	for id := int32(0); id < 2; id++ {
		if got := m.growBctr(id).body; got != 1 {
			t.Errorf("sb1 element block %d: body = %d, want 1", id, got)
		}
	}
	for i := 0; i < 5; i++ {
		if got := m.growBctr(int32(2 + i)).body; got != exits {
			t.Errorf("sb2 element %d (block %d): body = %d, want %d", i, 2+i, got, exits)
		}
	}
	if got := m.growBctr(7).body; got != 0 {
		t.Errorf("sb2 element 5 (exit element, block 7): body = %d, want 0", got)
	}
	// The counters drain at flush: a second expansion must credit nothing.
	m.expandSBCtrs()
	if got := m.growBctr(2).body; got != exits {
		t.Errorf("after second expansion: body = %d, want %d (counters must drain)", got, exits)
	}
}

// TestNativeConfigFallback pins the config-mismatch fallback: a program
// whose native state is pinned to one hardware config must refuse native
// state for a different config (the caller runs without superblocks)
// rather than re-form or run streams whose elisions assumed another tag
// geometry.
func TestNativeConfigFallback(t *testing.T) {
	p := &Program{}
	hw1 := HWConfig{TagShift: 27, TagMask: 0x1f, MemAddrMask: ^uint32(0)}
	hw2 := HWConfig{TagShift: 25, TagMask: 0x7f, MemAddrMask: ^uint32(0)}
	np := p.nativeFor(&hw1)
	if np == nil {
		t.Fatal("first nativeFor returned nil")
	}
	if got := p.nativeFor(&hw2); got != nil {
		t.Fatal("nativeFor for a different config must return nil (fallback), got native state")
	}
	if again := p.nativeFor(&hw1); again != np {
		t.Fatal("nativeFor for the original config must return the existing native state")
	}
}

// TestNativeConfigMismatchRun drives the config-mismatch fallback end to
// end: a program whose superblocks are pinned to one hardware config is
// run natively under another. The run must count exactly one fallback,
// run no superblock stream, still execute on the block loop (not the
// reference engine), and match a reference run under the second config
// bit for bit. The loop's tag branch resolves differently under the two
// tag geometries, so a stream formed for the first would be wrong here.
func TestNativeConfigMismatchRun(t *testing.T) {
	a := NewAsm()
	main := a.NewLabel("main")
	loop := a.NewLabel("loop")
	skip := a.NewLabel("skip")
	a.Bind(main)
	a.Li(11, int32(uint32(5)<<27|0x140))
	a.Li(13, 0)
	a.Bind(loop)
	a.Bteq(11, 5, skip) // tag 5 at shift 27; tag 20 at shift 25
	a.Addi(14, 14, 1)
	a.Bind(skip)
	a.Addi(15, 15, 3)
	a.Addi(13, 13, 1)
	a.Blti(13, 500, loop)
	a.Halt()
	p, err := a.Finish("main")
	if err != nil {
		t.Fatal(err)
	}
	hw1 := HWConfig{TagShift: 27, TagMask: 31, TrapHandler: -1, CheckFailHandler: -1}
	hw2 := HWConfig{TagShift: 25, TagMask: 127, TrapHandler: -1, CheckFailHandler: -1}

	pin := NewMachine(p, 1024, hw1)
	pin.MaxCycles = 1_000_000
	if err := pin.RunNative(); err != nil {
		t.Fatal(err)
	}
	if pin.Native.SBRuns == 0 || pin.Native.Fallbacks != 0 {
		t.Fatalf("pinning run: %+v, want superblock runs and no fallback", pin.Native)
	}

	ref := NewMachine(p, 1024, hw2)
	ref.MaxCycles = 1_000_000
	if err := ref.RunReference(); err != nil {
		t.Fatal(err)
	}
	m := NewMachine(p, 1024, hw2)
	m.MaxCycles = 1_000_000
	if err := m.RunNative(); err != nil {
		t.Fatal(err)
	}
	if m.Native.Fallbacks != 1 || m.Native.SBRuns != 0 || m.Native.SuperBlocks != 0 {
		t.Errorf("mismatched run: %+v, want one fallback and no superblocks", m.Native)
	}
	if m.Native.BlockRuns == 0 || m.Trans.Fallbacks != 0 {
		t.Errorf("mismatched run left the block loop: native %+v, translated %+v", m.Native, m.Trans)
	}
	if m.Stats != ref.Stats || m.Regs != ref.Regs || m.PC != ref.PC || m.Output.String() != ref.Output.String() {
		t.Errorf("mismatched run diverges from reference:\nnative: %+v\nref:    %+v", m.Stats, ref.Stats)
	}
	if m.Regs[14] != ref.Regs[14] || pin.Regs[14] == m.Regs[14] {
		t.Errorf("tag branch resolved alike under both configs (r14 %d / %d): the fixture no longer distinguishes them",
			pin.Regs[14], m.Regs[14])
	}
}

// TestMemtagRecolorInStream pins that a granule check inside a superblock
// stream is never elided across a store: a hot loop under hardware memory
// tagging checks granule G, stores a color to G's shadow word and checks
// G again. The stored color is G's own on every pass but the last, which
// frees G (color 0), so the second check faults there. The stream that
// runs the loop must keep that check: native has to fault at the same pc
// and cycle as translated and reference, from inside the stream.
func TestMemtagRecolorInStream(t *testing.T) {
	const (
		log2N   = 10
		passes  = 1 << log2N
		data    = 0x100
		shadowG = 0x2000 + data>>3<<2 // G's shadow word (granule shift 3)
	)
	a := NewAsm()
	main := a.NewLabel("main")
	loop := a.NewLabel("loop")
	a.Bind(main)
	a.Li(10, data)
	a.Li(15, 1)
	a.St(15, RZero, shadowG) // color G
	a.Li(13, 0)
	a.Bind(loop)
	a.Ldm(14, 10, 0, 0) // check G
	// r16 = 1 on passes 0..passes-2, 0 on the last: (r13+1)>>log2N is 1
	// only when r13+1 == passes.
	a.Addi(16, 13, 1)
	a.Srli(16, 16, log2N)
	a.Xori(16, 16, 1)
	a.St(16, RZero, shadowG) // recolor G: unchanged, then freed
	a.Ldm(17, 10, 0, 0)      // check G again
	a.Addi(13, 13, 1)
	a.Blti(13, passes, loop)
	a.Halt()
	p, err := a.Finish("main")
	if err != nil {
		t.Fatal(err)
	}
	hw := HWConfig{TrapHandler: -1, CheckFailHandler: -1, MemtagFailHandler: -1,
		MemtagBase: 0x2000, MemtagShift: 3, MemtagLimit: 0x2000}

	ref := NewMachine(p, 4096, hw)
	ref.MaxCycles = 10_000_000
	rerr := ref.RunReference()
	if rerr == nil || !strings.Contains(rerr.Error(), "memtag granule check failed") {
		t.Fatalf("reference run: %v, want a granule fault", rerr)
	}
	if ref.Regs[13] != passes-1 || p.Instrs[ref.PC].Op != LDM || ref.Regs[17] != 0 {
		t.Fatalf("reference faulted at pc %d on pass %d, want the second check on the last pass", ref.PC, ref.Regs[13])
	}
	for _, e := range []Engine{EngineTranslated, EngineNative} {
		m := NewMachine(p, 4096, hw)
		m.MaxCycles = 10_000_000
		err := m.RunEngine(e)
		if err == nil || err.Error() != rerr.Error() {
			t.Errorf("%v: error %v, reference %v", e, err, rerr)
		}
		if m.PC != ref.PC || m.Stats != ref.Stats || m.Regs != ref.Regs {
			t.Errorf("%v faulted at pc %d, cycle %d; reference at pc %d, cycle %d",
				e, m.PC, m.Stats.Cycles, ref.PC, ref.Stats.Cycles)
		}
		if e == EngineNative && (m.Native.SBRuns < passes/2 || m.Native.SBSideExits != 1) {
			t.Errorf("native ran %d streams with %d exits, want the loop in a stream left once, by the fault",
				m.Native.SBRuns, m.Native.SBSideExits)
		}
	}
}

// TestLinkVNAfterJalrInStream pins that a stream's jalr guard (kEdgeJrL)
// gives the link register a new value number: a hot loop sets RA to a
// constant, computes r6 = RA+4, calls through a loaded pointer and, in
// the callee, computes r6 = RA+4 again. After the call RA holds the
// return address, so the second ADDI writes a new value and must stay in
// the stream; were RA's value number left stale, the analysis would see
// r6 already holding "RA+4" and drop it. Every engine must end with the
// reference's registers, and the loop must run in a stream.
func TestLinkVNAfterJalrInStream(t *testing.T) {
	const (
		passes = 256
		fnPtr  = 0x100
	)
	a := NewAsm()
	main := a.NewLabel("main")
	loop := a.NewLabel("loop")
	fn := a.NewLabel("fn")
	a.Bind(main)
	a.Li(13, 0)
	a.Jmp(loop) // so the loop's head block, not the callee, forms the stream
	a.Bind(loop)
	a.Ld(9, RZero, fnPtr) // the callee's address, a value the analysis cannot know
	a.Li(RRA, 100)
	a.Addi(6, RRA, 4)
	a.Jalr(9)
	a.Add(20, 20, 6) // the return point: sum r6 over the passes
	a.Addi(13, 13, 1)
	a.Blti(13, passes, loop)
	a.Halt()
	a.Bind(fn)
	a.Addi(6, RRA, 4)
	a.Bind(a.NewLabel("fnret")) // keeps the ADDI in the body, out of the jr's delay slot
	a.Jr(RRA)
	p, err := a.Finish("main")
	if err != nil {
		t.Fatal(err)
	}
	hw := HWConfig{TrapHandler: -1, CheckFailHandler: -1, MemtagFailHandler: -1}
	run := func(e Engine) *Machine {
		m := NewMachine(p, 4096, hw)
		m.Mem[fnPtr>>2] = uint32(p.Labels["fn"]) << 2
		m.MaxCycles = 10_000_000
		if err := m.RunEngine(e); err != nil {
			t.Fatalf("%v: %v", e, err)
		}
		return m
	}
	ref := run(EngineReference)
	if want := uint32(passes) * ref.Regs[6]; ref.Regs[20] != want || ref.Regs[6] == 104 {
		t.Fatalf("reference: r20 = %d, r6 = %d; want r6 = return address + 4 summed", ref.Regs[20], ref.Regs[6])
	}
	for _, e := range []Engine{EngineTranslated, EngineNative} {
		m := run(e)
		if m.Regs != ref.Regs || m.Stats != ref.Stats || m.PC != ref.PC {
			t.Errorf("%v: r6 = %d, r20 = %d; reference r6 = %d, r20 = %d",
				e, m.Regs[6], m.Regs[20], ref.Regs[6], ref.Regs[20])
		}
		if e == EngineNative && m.Native.SBRuns < passes/2 {
			t.Errorf("native ran %d streams, want the loop in a stream", m.Native.SBRuns)
		}
	}
}

// TestElideUnmodelledWriteKillsFacts pins elision's rule for a
// register-writing op that pureVN does not model: its destination gets a
// fresh value number, so a fact proven about the register's old value
// does not survive the write. Every op a block body or delay slot can
// hold is modelled today, so no program reaches the rule (DESIGN.md §16);
// it keeps an op added to the ISA later from inheriting stale facts.
// LABEL, which no stream holds, stands in for such an op here.
func TestElideUnmodelledWriteKillsFacts(t *testing.T) {
	edge := sbUnit{s: tstep{kind: edgeKind(BNEI), rd: uint8(BNEI), rs1: 5, imm: 7}}
	for _, tc := range []struct {
		name  string
		write tstep
		kept  int
	}{
		{"unmodelled write to r5", tstep{kind: uint8(LABEL), n: 1, rd: 5, rs1: 6}, 4},
		{"no write to r5", tstep{kind: uint8(MOV), n: 1, rd: 6, rs1: 5}, 3},
	} {
		units := []sbUnit{
			{s: tstep{kind: uint8(LD), n: 1, rd: 5, rs1: 1}}, // r5: an unknown value
			edge, // the stream continues only when r5 == 7
			{s: tc.write},
			edge, // redundant only if r5 still holds the checked value
		}
		sb := &sblock{elems: make([]sbElem, 1)}
		var an vnAn
		an.reset(&nsig{})
		if out := elideUnits(units, sb, &an); len(out) != tc.kept {
			t.Errorf("%s: %d units survive elision, want %d", tc.name, len(out), tc.kept)
		}
	}
}
