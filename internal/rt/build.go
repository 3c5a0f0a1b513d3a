package rt

import (
	"fmt"
	"maps"
	"strings"
	"time"

	"repro/internal/layout"
	"repro/internal/lispc"
	"repro/internal/mipsx"
	"repro/internal/sexpr"
	"repro/internal/tags"
)

// BuildOptions configures an image build.
type BuildOptions struct {
	Scheme   tags.Kind
	HW       tags.HW
	Checking bool
	// HeapWords is the size of each semispace in words (default 512K).
	HeapWords int
	// StackWords reserves stack space above the heap (default 64K).
	StackWords int
	// Phase, when non-nil, receives the wall duration of each build phase
	// ("parse", "compile") as it completes, so callers can thread the
	// build into a run timeline without this package depending on one.
	// "parse" is the program's parse; "compile" is the rest, including
	// the runtime when Build compiles one.
	Phase func(name string, d time.Duration)
}

// Image is a linked program plus its initial memory contents.
type Image struct {
	Prog     *mipsx.Program
	Scheme   tags.Scheme
	HW       tags.HW
	Checking bool

	// The initial memory is sparse: static holds words [0, len(static))
	// (globals, then the static area) and, under memory tagging, the
	// shadow words [shadowLo, shadowLo+shadowN) start colored 1. Every
	// other word of the memWords-word memory starts zero.
	static    []uint32
	shadowLo  int
	shadowN   int
	memWords  int
	heapALo   uint32
	heapWords int
	stackBase uint32
	pool      *constPool

	// Units holds Table 3 statistics per compiled unit ("sys", "lib",
	// "program").
	Units map[string]lispc.UnitStats
	// Procedures is the per-function object-word table.
	Procedures map[string]*lispc.FnInfo
}

// RuntimeKey identifies a compiled runtime: everything the sys and lib
// code depends on. Builds whose options have equal keys link against
// word-for-word identical runtime code.
type RuntimeKey struct {
	Scheme   tags.Kind
	HW       tags.HW
	Checking bool
	// Memtag is the memory-tagging geometry folded into compiled code; it
	// is how HeapWords and StackWords reach the runtime, and it is zero
	// when tagging is off.
	Memtag tags.MemtagGeom
}

// RuntimeKey applies opts' defaults and returns the key of the runtime a
// build with opts links against.
func (opts BuildOptions) RuntimeKey() (RuntimeKey, error) {
	_, key, err := opts.resolve()
	return key, err
}

// resolve applies the defaults and computes the runtime key.
func (opts BuildOptions) resolve() (BuildOptions, RuntimeKey, error) {
	if opts.HeapWords == 0 {
		opts.HeapWords = 512 << 10
	}
	if opts.StackWords == 0 {
		opts.StackWords = 64 << 10
	}
	opts.HW = opts.HW.Normalized()
	key := RuntimeKey{Scheme: opts.Scheme, HW: opts.HW, Checking: opts.Checking}

	// Memory tagging needs the whole memory map — including the shadow
	// color table base — before compilation, because the geometry is folded
	// into compiled code as immediates. The static area therefore gets a
	// fixed budget instead of being measured after the fact; everything
	// above it is computable up front. The plain build keeps its exact
	// historical layout (static area packed tight against the heap).
	if opts.HW.Memtag {
		heapA := uint32(memtagStaticBudget)
		heapBytes := uint32(4 * opts.HeapWords)
		stackBase := heapA + 2*heapBytes + uint32(4*opts.StackWords)
		if stackBase >= 1<<26 {
			return opts, key, fmt.Errorf("memory plan exceeds the 26-bit fixnum-safe address space")
		}
		key.Memtag = tags.MemtagGeom{
			Enabled:     true,
			HWCheck:     opts.HW.MemtagHW,
			GranuleLog2: uint32(opts.HW.MemtagGranule),
			ShadowBase:  stackBase,
			Limit:       stackBase,
			MaxColor:    opts.HW.MemtagMaxColor(),
		}
	}
	return opts, key, nil
}

// Runtime is the runtime system and the library compiled for one
// RuntimeKey: the code every image of that key starts with, like PSL's
// SYSLISP kernel, which was compiled once and linked under every program.
// It is still compiled by lispc, so its cycles count like user code. A
// Runtime is immutable; any number of goroutines may build on it at once.
type Runtime struct {
	key     RuntimeKey
	copts   lispc.Options
	asm     *mipsx.Asm
	pool    *constPool
	funcs   map[string]*lispc.FnInfo
	globals map[string]bool
	units   map[string]lispc.UnitStats
}

// CompileRuntime parses and compiles the sys and lib units for opts' key.
// opts.Phase is not called.
func CompileRuntime(opts BuildOptions) (*Runtime, error) {
	opts, key, err := opts.resolve()
	if err != nil {
		return nil, err
	}
	scheme := tags.New(opts.Scheme)
	pool := newConstPool(scheme)
	a := mipsx.NewAsm()
	copts := lispc.Options{Scheme: scheme, HW: opts.HW, Checking: opts.Checking, Memtag: key.Memtag}
	c := lispc.New(a, copts, pool)

	in := sexpr.NewInterner()
	sysSrc := sysSource
	if opts.HW.Memtag {
		sysSrc = sysSourceMemtag(key.Memtag)
	}
	sysForms, sysLines, err := parseUnit(in, "sys", sysSrc+sysTrapSource)
	if err != nil {
		return nil, err
	}
	libForms, libLines, err := parseUnit(in, "lib", libSource)
	if err != nil {
		return nil, err
	}

	// Glue entry points and the program's main must exist before
	// compilation so %gc, %ensure-heap and the start-up code can
	// reference them.
	gcGlue := &lispc.FnInfo{Name: "sys:gc-glue", Label: a.NewLabel("sys:gc-glue")}
	c.Funcs[gcGlue.Name] = gcGlue
	mainInfo := &lispc.FnInfo{Name: "main", Label: a.NewLabel("fn:main")}
	c.Funcs[mainInfo.Name] = mainInfo

	for _, forms := range [][]sexpr.Value{sysForms, libForms} {
		if err := c.DeclareUnit(forms); err != nil {
			return nil, err
		}
	}

	// Start-up: run the program's toplevel, halt with its value in R2.
	start := a.NewLabel("__start")
	a.Work()
	a.Bind(start)
	a.Jal(mainInfo.Label)
	a.Halt()

	// The system unit is always compiled without run-time checking, like
	// PSL's SYSLISP kernel.
	units := make(map[string]lispc.UnitStats)
	c.Opts.Checking = false
	st, err := c.CompileUnit(sysForms, "", sysLines)
	if err != nil {
		return nil, err
	}
	units["sys"] = st
	c.Opts.Checking = opts.Checking

	st, err = c.CompileUnit(libForms, "", libLines)
	if err != nil {
		return nil, err
	}
	units["lib"] = st
	return &Runtime{key: key, copts: copts, asm: a, pool: pool, funcs: c.Funcs, globals: c.Globals, units: units}, nil
}

// Build compiles the runtime system, the library and programSrc into one
// executable image. The program's top-level forms become its main function;
// its value is in R2 when the machine halts. It is CompileRuntime followed
// by Runtime.Build; the runtime's compilation counts in the compile phase.
func Build(programSrc string, opts BuildOptions) (*Image, error) {
	start := time.Now()
	r, err := CompileRuntime(opts)
	if err != nil {
		return nil, err
	}
	return r.build(programSrc, opts, time.Since(start))
}

// Build extends a copy of the runtime with programSrc and links the image.
// opts must have the runtime's key. The image is word-for-word the one a
// single pass over sys, lib and the program would produce: lispc rejects
// redefinitions and calls to undefined functions, so declaring the program
// after the runtime is compiled cannot change the runtime's code; the
// compiler's global table is only ever written; and the label IDs that
// shift never reach the image. The identity golden test pins this.
func (r *Runtime) Build(programSrc string, opts BuildOptions) (*Image, error) {
	return r.build(programSrc, opts, 0)
}

// build is Build with runtimeCompile, the time already spent compiling r,
// added to the compile phase.
func (r *Runtime) build(programSrc string, opts BuildOptions, runtimeCompile time.Duration) (*Image, error) {
	opts, key, err := opts.resolve()
	if err != nil {
		return nil, err
	}
	if key != r.key {
		return nil, fmt.Errorf("runtime compiled for %+v cannot build for %+v", r.key, key)
	}
	phase := opts.Phase
	if phase == nil {
		phase = func(string, time.Duration) {}
	}
	phaseStart := time.Now()
	progForms, progLines, err := parseUnit(sexpr.NewInterner(), "program", programSrc)
	if err != nil {
		return nil, err
	}
	phase("parse", time.Since(phaseStart))
	phaseStart = time.Now()

	a := r.asm.Clone()
	pool := r.pool.clone()
	c := lispc.New(a, r.copts, pool)
	for name, fi := range r.funcs {
		cp := *fi
		c.Funcs[name] = &cp
	}
	c.Globals = maps.Clone(r.globals)
	if err := c.DeclareUnit(progForms); err != nil {
		return nil, err
	}
	st, err := c.CompileUnit(progForms, "main", progLines)
	if err != nil {
		return nil, err
	}
	img := &Image{
		Scheme:   r.copts.Scheme,
		HW:       opts.HW,
		Checking: opts.Checking,
		pool:     pool,
		Units:    maps.Clone(r.units),
	}
	img.Units["program"] = st

	emitGCGlue(a, c, c.Funcs["sys:gc-glue"])
	emitTrapGlue(a, c)
	emitCheckFailGlue(a)
	if opts.HW.Memtag && opts.HW.MemtagHW {
		emitMemtagFailGlue(a)
	}

	prog, err := a.Finish("__start")
	if err != nil {
		return nil, err
	}
	img.Prog = prog
	img.Procedures = c.Funcs

	// Memory plan: static | semispace A | semispace B | stack, followed by
	// the shadow color table when memory tagging is on.
	geom := key.Memtag
	staticEnd := pool.End()
	heapA := (staticEnd + 7) &^ 7
	if opts.HW.Memtag {
		if staticEnd > memtagStaticBudget {
			return nil, fmt.Errorf("static area (%d bytes) exceeds the %d-byte memory-tagging budget", staticEnd, memtagStaticBudget)
		}
		heapA = memtagStaticBudget
	}
	heapBytes := uint32(4 * opts.HeapWords)
	heapB := heapA + heapBytes
	stackLo := heapB + heapBytes
	stackBase := stackLo + uint32(4*opts.StackWords)
	if stackBase >= 1<<26 {
		return nil, fmt.Errorf("memory plan exceeds the 26-bit fixnum-safe address space")
	}
	img.memWords = int(stackBase/4) + 16
	if opts.HW.Memtag {
		// The shadow table sits above the stack: one word per granule of
		// [0, stackBase). This must agree with the geometry computed before
		// compilation.
		if stackBase != geom.ShadowBase {
			return nil, fmt.Errorf("memtag layout drift: shadow base %#x, stack base %#x", geom.ShadowBase, stackBase)
		}
		img.memWords = int(stackBase/4) + int(stackBase>>geom.GranuleLog2) + 16
	}
	img.heapALo = heapA
	img.heapWords = opts.HeapWords
	img.stackBase = stackBase

	static := make([]uint32, staticEnd/4)
	copy(static, pool.words)
	setGlob := func(i int, v uint32) { static[layout.GlobAddr(i)/4] = v }
	setGlob(layout.GlobFromLo, heapA)
	setGlob(layout.GlobFromHi, heapB)
	setGlob(layout.GlobToLo, heapB)
	setGlob(layout.GlobToHi, stackLo)
	setGlob(layout.GlobStaticLo, layout.StaticBase)
	setGlob(layout.GlobStaticHi, staticEnd)
	setGlob(layout.GlobStackBase, stackBase)
	if opts.HW.Memtag {
		// Color the trap page, globals and the whole static budget 1 so
		// every static-object access passes the granule check; heap granules
		// start at 0 (unallocated) and the stack is never granule-checked.
		img.shadowLo = int(geom.ShadowBase / 4)
		img.shadowN = int(heapA >> geom.GranuleLog2)
		setGlob(layout.GlobMemtagColor, 1)
	}

	// Patch function cells of interned symbols so funcall works.
	for name := range c.Funcs {
		addr, ok := pool.symbolAddr(name)
		if !ok {
			continue
		}
		entry, ok := prog.Labels["fn:"+name]
		if !ok {
			continue
		}
		static[addr/4+4] = r.copts.Scheme.MakePtr(tags.TCode, uint32(entry*4))
	}
	img.static = static
	phase("compile", runtimeCompile+time.Since(phaseStart))
	return img, nil
}

// parseUnit reads every form of one unit's source, interning symbols in in.
func parseUnit(in *sexpr.Interner, name, src string) ([]sexpr.Value, int, error) {
	forms, err := sexpr.NewReader(in, src).ReadAll()
	if err != nil {
		return nil, 0, fmt.Errorf("%s: %w", name, err)
	}
	return forms, countSourceLines(src), nil
}

func countSourceLines(src string) int {
	n := 0
	for _, line := range strings.Split(src, "\n") {
		line = strings.TrimSpace(line)
		if line != "" && !strings.HasPrefix(line, ";") {
			n++
		}
	}
	return n
}

// emitGCGlue emits the collector entry: save r2..r31 to the register save
// area, run the Lisp collector (which scans and updates the saved words),
// reload every register and return. Callers see all registers preserved —
// with heap pointers relocated and the allocation frontier renewed.
func emitGCGlue(a *mipsx.Asm, c *lispc.Compiler, info *lispc.FnInfo) {
	a.Work()
	a.Bind(info.Label)
	for r := 2; r <= 31; r++ {
		a.St(uint8(r), mipsx.RZero, int32(layout.GlobRegSave+4*r))
	}
	a.Jal(c.Funcs["sys-gc"].Label)
	for r := 2; r <= 31; r++ {
		a.Ld(uint8(r), mipsx.RZero, int32(layout.GlobRegSave+4*r))
	}
	a.Jr(mipsx.RRA)
}

// emitTrapGlue emits the ADDTC/SUBTC trap entry: preserve the caller-visible
// registers on the stack (where the collector can see and relocate them),
// run the Lisp handler, restore, and resume via SysTrapReturn (which writes
// the handler's result into the trapped instruction's destination).
func emitTrapGlue(a *mipsx.Asm, c *lispc.Compiler) {
	l := a.NewLabel("sys:trap-glue")
	a.Work()
	a.Bind(l)
	const frame = 26 * 4
	a.Addi(mipsx.RSP, mipsx.RSP, -frame)
	slot := int32(0)
	for r := 2; r <= 25; r++ {
		a.St(uint8(r), mipsx.RSP, 4*slot)
		slot++
	}
	a.St(mipsx.RRA, mipsx.RSP, 4*slot)
	a.Jal(c.Funcs["sys-trap-handler"].Label)
	slot = 0
	for r := 2; r <= 25; r++ {
		a.Ld(uint8(r), mipsx.RSP, 4*slot)
		slot++
	}
	a.Ld(mipsx.RRA, mipsx.RSP, 4*slot)
	a.Addi(mipsx.RSP, mipsx.RSP, frame)
	a.Sys(mipsx.SysTrapReturn)
}

// emitCheckFailGlue emits the LDC/STC tag-mismatch path: a wrong-type error
// with the offending item (placed in RT0 by the hardware).
func emitCheckFailGlue(a *mipsx.Asm) {
	l := a.NewLabel("sys:checkfail-glue")
	a.Work()
	a.Bind(l)
	a.Mov(3, mipsx.RT0)
	a.Li(mipsx.RRet, errWrongTypeHW)
	a.Sys(mipsx.SysError)
}

// emitMemtagFailGlue emits the LDM/STM granule-mismatch path: a memtag-fault
// error with the offending item (placed in RT0 by the hardware).
func emitMemtagFailGlue(a *mipsx.Asm) {
	l := a.NewLabel("sys:memtagfail-glue")
	a.Work()
	a.Bind(l)
	a.Mov(3, mipsx.RT0)
	a.Li(mipsx.RRet, mipsx.ErrMemtagFault)
	a.Sys(mipsx.SysError)
}

// errWrongTypeHW is the error code raised by the hardware check-fail path.
const errWrongTypeHW = mipsx.ErrWrongTypeHW

// memtagStaticBudget is the fixed static-area reservation under memory
// tagging (the layout must be known before compilation).
const memtagStaticBudget = 1 << 19

// NewMachine instantiates a fresh machine for the image: memory allocated
// zeroed with the static words and shadow run written, registers
// initialized, trap vectors wired.
func (img *Image) NewMachine() *mipsx.Machine {
	return img.machine(mipsx.NewMachine)
}

// LeaseMachine is NewMachine over leased memory (mipsx.LeaseMachine): the
// caller must call Release once nothing reads the machine's memory.
func (img *Image) LeaseMachine() *mipsx.Machine {
	return img.machine(mipsx.LeaseMachine)
}

// machine is the body NewMachine and LeaseMachine share; alloc makes the
// machine over zeroed memory.
func (img *Image) machine(alloc func(*mipsx.Program, int, mipsx.HWConfig) *mipsx.Machine) *mipsx.Machine {
	hw := tags.HWConfig(img.Scheme, img.HW)
	if img.HW.ArithTrap {
		hw.TrapHandler = img.Prog.Labels["sys:trap-glue"]
	}
	hw.CheckFailHandler = img.Prog.Labels["sys:checkfail-glue"]
	if img.HW.Memtag && img.HW.MemtagHW {
		// Shadow base, limit and stack base coincide by construction.
		hw.MemtagBase = img.stackBase
		hw.MemtagShift = uint32(img.HW.MemtagGranule)
		hw.MemtagLimit = img.stackBase
		hw.MemtagFailHandler = img.Prog.Labels["sys:memtagfail-glue"]
	}
	m := alloc(img.Prog, img.memWords, hw)
	copy(m.Mem, img.static)
	for i := img.shadowLo; i < img.shadowLo+img.shadowN; i++ {
		m.Mem[i] = 1
	}
	m.Regs[mipsx.RNil] = img.pool.nilItem
	m.Regs[mipsx.RMask] = img.Scheme.PtrMaskConst()
	m.Regs[mipsx.RHP] = img.heapALo
	m.Regs[mipsx.RHLim] = img.heapALo + uint32(4*img.heapWords)
	m.Regs[mipsx.RSP] = img.stackBase
	if img.HW.PreshiftedPairTag {
		m.Regs[mipsx.RT5] = uint32(img.Scheme.Tag(tags.TPair)) << img.Scheme.HWShift()
	}
	return m
}

// SymbolItem exposes interned symbols for tests and result decoding.
func (img *Image) SymbolItem(name string) uint32 { return img.pool.SymbolItem(name) }

// NilItem is the NIL item.
func (img *Image) NilItem() uint32 { return img.pool.nilItem }

// DecodeItem renders a machine item as an S-expression (best effort, bounded
// depth), reading object contents from mem.
func (img *Image) DecodeItem(mem []uint32, item uint32) sexpr.Value {
	return img.decode(mem, item, 64)
}

func (img *Image) decode(mem []uint32, item uint32, depth int) sexpr.Value {
	s := img.Scheme
	if depth <= 0 {
		return &sexpr.Sym{Name: "..."}
	}
	read := func(addr uint32) uint32 {
		if int(addr/4) < len(mem) {
			return mem[addr/4]
		}
		return 0
	}
	switch s.TypeOf(item, read) {
	case tags.TInt:
		return sexpr.Int(s.IntVal(item))
	case tags.TPair:
		addr := s.Addr(item)
		return &sexpr.Cell{
			Car: img.decode(mem, read(addr), depth-1),
			Cdr: img.decode(mem, read(addr+4), depth-1),
		}
	case tags.TSymbol:
		addr := s.Addr(item)
		name := img.decodeString(mem, read(addr+4))
		if name == "nil" {
			return nil
		}
		return &sexpr.Sym{Name: name}
	case tags.TString:
		return sexpr.Str(img.decodeString(mem, item))
	case tags.TVector:
		addr := s.Addr(item)
		_, size := s.HeaderInfo(read(addr))
		items := []sexpr.Value{&sexpr.Sym{Name: "vector"}}
		for i := 1; i < size && i < 32; i++ {
			items = append(items, img.decode(mem, read(addr+uint32(4*i)), depth-1))
		}
		return sexpr.List(items...)
	case tags.TFloat:
		return &sexpr.Sym{Name: "#float"}
	case tags.TCode:
		return &sexpr.Sym{Name: "#code"}
	}
	return &sexpr.Sym{Name: fmt.Sprintf("#item%x", item)}
}

func (img *Image) decodeString(mem []uint32, item uint32) string {
	s := img.Scheme
	addr := s.Addr(item)
	if int(addr/4)+1 >= len(mem) {
		return "?"
	}
	n := int(s.IntVal(mem[addr/4+1]))
	var b []byte
	for i := 0; i < n && i < 256; i++ {
		w := mem[addr/4+2+uint32(i/4)]
		b = append(b, byte(w>>(8*(i%4))))
	}
	return string(b)
}
