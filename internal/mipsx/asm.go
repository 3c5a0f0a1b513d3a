package mipsx

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Label identifies a code position before resolution.
type Label int

// Asm builds a Program. Instructions are emitted in sequence with the
// current category annotation; labels are bound with Bind and resolved by
// Finish. The builder emits branches without delay slots — the scheduler
// pass inserted by Finish rewrites the stream into delayed-branch form.
type Asm struct {
	instrs     []Instr
	labelNames []string
	labelBound []bool

	cat     Category
	sub     SubCat
	rt      bool
	safe    uint32
	workCat Category // category Work resets to; CatWork unless overridden
}

// NewAsm returns an empty program builder.
func NewAsm() *Asm {
	return &Asm{}
}

// Cat sets the category annotation for subsequently emitted instructions.
func (a *Asm) Cat(c Category, s SubCat) {
	a.cat, a.sub, a.rt = c, s, false
}

// CatRT is Cat for instructions that exist only because run-time checking is
// enabled.
func (a *Asm) CatRT(c Category, s SubCat) {
	a.cat, a.sub, a.rt = c, s, true
}

// Work resets the annotation to useful work (or to the override installed
// with SetWorkCat).
func (a *Asm) Work() { a.Cat(a.workCat, SubNone) }

// SetWorkCat overrides the category Work resets to, so whole stretches of
// generated code (the memtag coloring helpers) can be charged to a non-work
// category without touching every emission site. CatWork restores the
// default.
func (a *Asm) SetWorkCat(c Category) { a.workCat = c }

// SlotSafe declares registers that are dead on the taken paths of
// subsequently emitted conditional branches, permitting the scheduler to
// fill their delay slots with fall-through instructions that write those
// registers. Call with no arguments to clear. The caller must guarantee
// that a garbage value left in such a register by an annulled-in-spirit
// slot instruction is cleared before any collection point on the taken
// path (the slow-path helpers do this).
func (a *Asm) SlotSafe(regs ...uint8) {
	a.safe = 0
	for _, r := range regs {
		a.safe |= 1 << r
	}
}

// Annotation returns the current annotation so it can be restored later.
func (a *Asm) Annotation() (Category, SubCat, bool) { return a.cat, a.sub, a.rt }

// Restore restores an annotation saved with Annotation.
func (a *Asm) Restore(c Category, s SubCat, rt bool) { a.cat, a.sub, a.rt = c, s, rt }

// NewLabel creates a fresh unbound label.
func (a *Asm) NewLabel(name string) Label {
	a.labelNames = append(a.labelNames, name)
	a.labelBound = append(a.labelBound, false)
	return Label(len(a.labelNames) - 1)
}

// Bind places l at the current position.
func (a *Asm) Bind(l Label) {
	if a.labelBound[l] {
		panic(fmt.Sprintf("label %q bound twice", a.labelNames[l]))
	}
	a.labelBound[l] = true
	a.instrs = append(a.instrs, Instr{Op: LABEL, Target: int(l)})
}

// Len returns the number of instructions emitted so far (including pseudo
// label markers).
func (a *Asm) Len() int { return len(a.instrs) }

func (a *Asm) emit(i Instr) *Instr {
	i.Cat, i.Sub, i.RTCheck = a.cat, a.sub, a.rt
	if i.Op.IsCond() {
		i.SafeRegs = a.safe
	}
	a.instrs = append(a.instrs, i)
	return &a.instrs[len(a.instrs)-1]
}

// Raw emits a fully specified instruction, still stamped with the current
// annotation.
func (a *Asm) Raw(i Instr) *Instr { return a.emit(i) }

// Nop emits a no-op with the current annotation.
func (a *Asm) Nop() *Instr { return a.emit(Instr{Op: NOP}) }

// Mov emits rd = rs.
func (a *Asm) Mov(rd, rs uint8) *Instr { return a.emit(Instr{Op: MOV, Rd: rd, Rs1: rs}) }

// Li emits rd = imm.
func (a *Asm) Li(rd uint8, imm int32) *Instr { return a.emit(Instr{Op: LI, Rd: rd, Imm: imm}) }

// Add emits rd = rs1 + rs2.
func (a *Asm) Add(rd, rs1, rs2 uint8) *Instr {
	return a.emit(Instr{Op: ADD, Rd: rd, Rs1: rs1, Rs2: rs2})
}

// Addi emits rd = rs1 + imm.
func (a *Asm) Addi(rd, rs1 uint8, imm int32) *Instr {
	return a.emit(Instr{Op: ADDI, Rd: rd, Rs1: rs1, Imm: imm})
}

// Sub emits rd = rs1 - rs2.
func (a *Asm) Sub(rd, rs1, rs2 uint8) *Instr {
	return a.emit(Instr{Op: SUB, Rd: rd, Rs1: rs1, Rs2: rs2})
}

// And emits rd = rs1 & rs2.
func (a *Asm) And(rd, rs1, rs2 uint8) *Instr {
	return a.emit(Instr{Op: AND, Rd: rd, Rs1: rs1, Rs2: rs2})
}

// Andi emits rd = rs1 & imm.
func (a *Asm) Andi(rd, rs1 uint8, imm int32) *Instr {
	return a.emit(Instr{Op: ANDI, Rd: rd, Rs1: rs1, Imm: imm})
}

// Or emits rd = rs1 | rs2.
func (a *Asm) Or(rd, rs1, rs2 uint8) *Instr {
	return a.emit(Instr{Op: OR, Rd: rd, Rs1: rs1, Rs2: rs2})
}

// Ori emits rd = rs1 | imm.
func (a *Asm) Ori(rd, rs1 uint8, imm int32) *Instr {
	return a.emit(Instr{Op: ORI, Rd: rd, Rs1: rs1, Imm: imm})
}

// Xor emits rd = rs1 ^ rs2.
func (a *Asm) Xor(rd, rs1, rs2 uint8) *Instr {
	return a.emit(Instr{Op: XOR, Rd: rd, Rs1: rs1, Rs2: rs2})
}

// Xori emits rd = rs1 ^ imm.
func (a *Asm) Xori(rd, rs1 uint8, imm int32) *Instr {
	return a.emit(Instr{Op: XORI, Rd: rd, Rs1: rs1, Imm: imm})
}

// Slli emits rd = rs1 << imm.
func (a *Asm) Slli(rd, rs1 uint8, imm int32) *Instr {
	return a.emit(Instr{Op: SLLI, Rd: rd, Rs1: rs1, Imm: imm})
}

// Srli emits rd = rs1 >> imm (logical).
func (a *Asm) Srli(rd, rs1 uint8, imm int32) *Instr {
	return a.emit(Instr{Op: SRLI, Rd: rd, Rs1: rs1, Imm: imm})
}

// Srai emits rd = rs1 >> imm (arithmetic).
func (a *Asm) Srai(rd, rs1 uint8, imm int32) *Instr {
	return a.emit(Instr{Op: SRAI, Rd: rd, Rs1: rs1, Imm: imm})
}

// Sll emits rd = rs1 << (rs2 & 31).
func (a *Asm) Sll(rd, rs1, rs2 uint8) *Instr {
	return a.emit(Instr{Op: SLL, Rd: rd, Rs1: rs1, Rs2: rs2})
}

// Srl emits rd = rs1 >> (rs2 & 31), logical.
func (a *Asm) Srl(rd, rs1, rs2 uint8) *Instr {
	return a.emit(Instr{Op: SRL, Rd: rd, Rs1: rs1, Rs2: rs2})
}

// Sra emits rd = rs1 >> (rs2 & 31), arithmetic.
func (a *Asm) Sra(rd, rs1, rs2 uint8) *Instr {
	return a.emit(Instr{Op: SRA, Rd: rd, Rs1: rs1, Rs2: rs2})
}

// Mul emits rd = rs1 * rs2 (multi-cycle).
func (a *Asm) Mul(rd, rs1, rs2 uint8) *Instr {
	return a.emit(Instr{Op: MUL, Rd: rd, Rs1: rs1, Rs2: rs2})
}

// Div emits rd = rs1 / rs2 (multi-cycle, truncating).
func (a *Asm) Div(rd, rs1, rs2 uint8) *Instr {
	return a.emit(Instr{Op: DIV, Rd: rd, Rs1: rs1, Rs2: rs2})
}

// Rem emits rd = rs1 % rs2.
func (a *Asm) Rem(rd, rs1, rs2 uint8) *Instr {
	return a.emit(Instr{Op: REM, Rd: rd, Rs1: rs1, Rs2: rs2})
}

// Ld emits rd = mem[base+off].
func (a *Asm) Ld(rd, base uint8, off int32) *Instr {
	return a.emit(Instr{Op: LD, Rd: rd, Rs1: base, Imm: off})
}

// St emits mem[base+off] = val.
func (a *Asm) St(val, base uint8, off int32) *Instr {
	return a.emit(Instr{Op: ST, Rs2: val, Rs1: base, Imm: off})
}

// Ldt emits a tag-ignoring load: rd = mem[(base+off) & MemAddrMask].
func (a *Asm) Ldt(rd, base uint8, off int32) *Instr {
	return a.emit(Instr{Op: LDT, Rd: rd, Rs1: base, Imm: off})
}

// Stt emits a tag-ignoring store.
func (a *Asm) Stt(val, base uint8, off int32) *Instr {
	return a.emit(Instr{Op: STT, Rs2: val, Rs1: base, Imm: off})
}

// Ldc emits a checked load: traps unless tag(base) == tag.
func (a *Asm) Ldc(rd, base uint8, off int32, tag uint8) *Instr {
	return a.emit(Instr{Op: LDC, Rd: rd, Rs1: base, Imm: off, Tag: tag})
}

// Stc emits a checked store.
func (a *Asm) Stc(val, base uint8, off int32, tag uint8) *Instr {
	return a.emit(Instr{Op: STC, Rs2: val, Rs1: base, Imm: off, Tag: tag})
}

// Ldm emits a memory-tagging checked load: rd = mem[(base+off) & mask],
// trapping unless the accessed granule is allocated and, when the access
// leaves the granule of the color-base register, identically colored.
// colorBase RZero means "color-check against base itself".
func (a *Asm) Ldm(rd, base uint8, off int32, colorBase uint8) *Instr {
	return a.emit(Instr{Op: LDM, Rd: rd, Rs1: base, Imm: off, Tag: colorBase})
}

// Stm emits a memory-tagging checked store.
func (a *Asm) Stm(val, base uint8, off int32, colorBase uint8) *Instr {
	return a.emit(Instr{Op: STM, Rs2: val, Rs1: base, Imm: off, Tag: colorBase})
}

// Addtc emits a trap-checked integer add.
func (a *Asm) Addtc(rd, rs1, rs2 uint8) *Instr {
	return a.emit(Instr{Op: ADDTC, Rd: rd, Rs1: rs1, Rs2: rs2})
}

// Subtc emits a trap-checked integer subtract.
func (a *Asm) Subtc(rd, rs1, rs2 uint8) *Instr {
	return a.emit(Instr{Op: SUBTC, Rd: rd, Rs1: rs1, Rs2: rs2})
}

// Beq branches to l if rs1 == rs2.
func (a *Asm) Beq(rs1, rs2 uint8, l Label) *Instr {
	return a.emit(Instr{Op: BEQ, Rs1: rs1, Rs2: rs2, Target: int(l)})
}

// Bne branches to l if rs1 != rs2.
func (a *Asm) Bne(rs1, rs2 uint8, l Label) *Instr {
	return a.emit(Instr{Op: BNE, Rs1: rs1, Rs2: rs2, Target: int(l)})
}

// Blt branches to l if rs1 < rs2 (signed).
func (a *Asm) Blt(rs1, rs2 uint8, l Label) *Instr {
	return a.emit(Instr{Op: BLT, Rs1: rs1, Rs2: rs2, Target: int(l)})
}

// Bge branches to l if rs1 >= rs2 (signed).
func (a *Asm) Bge(rs1, rs2 uint8, l Label) *Instr {
	return a.emit(Instr{Op: BGE, Rs1: rs1, Rs2: rs2, Target: int(l)})
}

// Ble branches to l if rs1 <= rs2 (signed).
func (a *Asm) Ble(rs1, rs2 uint8, l Label) *Instr {
	return a.emit(Instr{Op: BLE, Rs1: rs1, Rs2: rs2, Target: int(l)})
}

// Bgt branches to l if rs1 > rs2 (signed).
func (a *Asm) Bgt(rs1, rs2 uint8, l Label) *Instr {
	return a.emit(Instr{Op: BGT, Rs1: rs1, Rs2: rs2, Target: int(l)})
}

// Beqi branches to l if rs1 == imm.
func (a *Asm) Beqi(rs1 uint8, imm int32, l Label) *Instr {
	return a.emit(Instr{Op: BEQI, Rs1: rs1, Imm: imm, Target: int(l)})
}

// Bnei branches to l if rs1 != imm.
func (a *Asm) Bnei(rs1 uint8, imm int32, l Label) *Instr {
	return a.emit(Instr{Op: BNEI, Rs1: rs1, Imm: imm, Target: int(l)})
}

// Blti branches to l if rs1 < imm (signed).
func (a *Asm) Blti(rs1 uint8, imm int32, l Label) *Instr {
	return a.emit(Instr{Op: BLTI, Rs1: rs1, Imm: imm, Target: int(l)})
}

// Bgei branches to l if rs1 >= imm (signed).
func (a *Asm) Bgei(rs1 uint8, imm int32, l Label) *Instr {
	return a.emit(Instr{Op: BGEI, Rs1: rs1, Imm: imm, Target: int(l)})
}

// Fadd emits rd = rs1 + rs2 (IEEE single, raw bits in registers).
func (a *Asm) Fadd(rd, rs1, rs2 uint8) *Instr {
	return a.emit(Instr{Op: FADD, Rd: rd, Rs1: rs1, Rs2: rs2})
}

// Fsub emits rd = rs1 - rs2 as floats.
func (a *Asm) Fsub(rd, rs1, rs2 uint8) *Instr {
	return a.emit(Instr{Op: FSUB, Rd: rd, Rs1: rs1, Rs2: rs2})
}

// Fmul emits rd = rs1 * rs2 as floats.
func (a *Asm) Fmul(rd, rs1, rs2 uint8) *Instr {
	return a.emit(Instr{Op: FMUL, Rd: rd, Rs1: rs1, Rs2: rs2})
}

// Fdiv emits rd = rs1 / rs2 as floats.
func (a *Asm) Fdiv(rd, rs1, rs2 uint8) *Instr {
	return a.emit(Instr{Op: FDIV, Rd: rd, Rs1: rs1, Rs2: rs2})
}

// Flt emits rd = (rs1 < rs2) as floats.
func (a *Asm) Flt(rd, rs1, rs2 uint8) *Instr {
	return a.emit(Instr{Op: FLT, Rd: rd, Rs1: rs1, Rs2: rs2})
}

// Feq emits rd = (rs1 == rs2) as floats.
func (a *Asm) Feq(rd, rs1, rs2 uint8) *Instr {
	return a.emit(Instr{Op: FEQ, Rd: rd, Rs1: rs1, Rs2: rs2})
}

// Itof converts a signed integer to float bits.
func (a *Asm) Itof(rd, rs1 uint8) *Instr { return a.emit(Instr{Op: ITOF, Rd: rd, Rs1: rs1}) }

// Ftoi truncates float bits to a signed integer.
func (a *Asm) Ftoi(rd, rs1 uint8) *Instr { return a.emit(Instr{Op: FTOI, Rd: rd, Rs1: rs1}) }

// Bteq branches to l if the tag field of rs equals tag.
func (a *Asm) Bteq(rs, tag uint8, l Label) *Instr {
	return a.emit(Instr{Op: BTEQ, Rs1: rs, Tag: tag, Target: int(l)})
}

// Btne branches to l if the tag field of rs differs from tag.
func (a *Asm) Btne(rs, tag uint8, l Label) *Instr {
	return a.emit(Instr{Op: BTNE, Rs1: rs, Tag: tag, Target: int(l)})
}

// Jmp jumps to l.
func (a *Asm) Jmp(l Label) *Instr { return a.emit(Instr{Op: JMP, Target: int(l)}) }

// Jal calls l, linking through R31.
func (a *Asm) Jal(l Label) *Instr { return a.emit(Instr{Op: JAL, Target: int(l)}) }

// Jalr calls through rs, linking through R31.
func (a *Asm) Jalr(rs uint8) *Instr { return a.emit(Instr{Op: JALR, Rs1: rs}) }

// Jr jumps through rs (function return).
func (a *Asm) Jr(rs uint8) *Instr { return a.emit(Instr{Op: JR, Rs1: rs}) }

// Sys emits syscall n.
func (a *Asm) Sys(n int32) *Instr { return a.emit(Instr{Op: SYS, Imm: n}) }

// Halt stops the machine.
func (a *Asm) Halt() *Instr { return a.emit(Instr{Op: HALT}) }

// Program is a resolved instruction stream ready to execute.
type Program struct {
	Instrs []Instr
	Entry  int
	// Labels maps label names to instruction indices (for disassembly,
	// tracing and locating runtime entry points).
	Labels map[string]int

	// Predecoded stream for the block engines, built once on first
	// use (see predecode.go). Instrs must not be mutated after execution
	// starts.
	predecodeOnce sync.Once
	dec           []decoded

	// Translated-block cache for the block engine (see blocks.go), shared
	// by every Machine running this program: tblocks[pc] is the block with
	// leader pc, translated lazily under tmu and published atomically.
	// blist indexes the same blocks densely by their id, so per-machine
	// execution counters can be small arrays instead of per-pc ones; it is
	// replaced wholesale (copy-on-write under tmu) when a block is added.
	tonce   sync.Once
	tmu     sync.Mutex
	tblocks []atomic.Pointer[tblock]
	blist   atomic.Pointer[[]*tblock]

	// Native compilation for the closure-threaded engine, pinned to the
	// hardware config of the first native run (see nclosure.go).
	nat atomic.Pointer[nativeProg]

	// Wall time consumed by the lazy JIT work above, accumulated on the
	// translation and native-compilation slow paths only (never the
	// dispatch loops): block translation under tmu, closure compilation,
	// and superblock formation. Exposed through JITTimes so the runner
	// can attribute these phases per run by delta.
	transNS  atomic.Int64
	nativeNS atomic.Int64
}

// JITTimes reports the cumulative wall time this program's lazy block
// translation (translate phase) and native closure/superblock
// compilation (native-compile phase) have consumed.
func (p *Program) JITTimes() (translate, nativeCompile time.Duration) {
	return time.Duration(p.transNS.Load()), time.Duration(p.nativeNS.Load())
}

// Finish schedules delay slots, resolves labels and returns the executable
// program. entry names the label execution starts at.
func (a *Asm) Finish(entry string) (*Program, error) {
	for l, bound := range a.labelBound {
		if !bound {
			return nil, fmt.Errorf("label %q referenced but never bound", a.labelNames[l])
		}
	}
	scheduled := schedule(a.instrs)

	// Strip LABEL pseudo-instructions and record positions.
	labelPos := make([]int, len(a.labelNames))
	out := make([]Instr, 0, len(scheduled))
	for _, in := range scheduled {
		if in.Op == LABEL {
			labelPos[in.Target] = len(out)
			continue
		}
		out = append(out, in)
	}
	// Resolve branch targets.
	for i := range out {
		if out[i].Op.IsControl() && out[i].Op != JALR && out[i].Op != JR {
			out[i].Target = labelPos[out[i].Target]
		}
	}
	fillSquashSlots(out)
	labels := make(map[string]int, len(a.labelNames))
	for l, name := range a.labelNames {
		if name != "" {
			labels[name] = labelPos[l]
		}
	}
	e, ok := labels[entry]
	if !ok {
		return nil, fmt.Errorf("entry label %q not defined", entry)
	}
	return &Program{Instrs: out, Entry: e, Labels: labels}, nil
}

// MarkSquash marks every conditional branch emitted at or after position
// from (from a prior Len call) that targets l as a squashing branch: its
// delay slots are filled from the branch target and annulled when the
// branch is not taken. Used for loop back-edges.
func (a *Asm) MarkSquash(from int, l Label) {
	for i := from; i < len(a.instrs); i++ {
		in := &a.instrs[i]
		if in.Op.IsCond() && in.Target == int(l) {
			in.Squash = true
		}
	}
}
