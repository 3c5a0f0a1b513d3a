package mipsx

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"strconv"
)

// HWConfig describes the processor variant being simulated: where the tag
// field lives (for the tag-aware instruction extensions) and which optional
// hardware is present. The zero value is a plain processor with no tag
// support; tag-aware instructions fault unless configured.
type HWConfig struct {
	// TagShift and TagMask locate the tag field for BTEQ/BTNE/LDC/STC:
	// tag(v) = (v >> TagShift) & TagMask.
	TagShift uint32
	TagMask  uint32
	// MemAddrMask is applied to the effective address of LDT/STT/LDC/STC,
	// modelling hardware that drops tag bits during address calculation.
	MemAddrMask uint32
	// IsIntItem reports whether a word is a valid integer item in the
	// current tag scheme; ADDTC/SUBTC use it for their parallel check.
	IsIntItem func(uint32) bool
	// TrapHandler is the instruction index of the software handler for
	// ADDTC/SUBTC traps, or -1 to fault on such traps.
	TrapHandler int
	// CheckFailHandler is the instruction index jumped to when LDC/STC
	// sees an unexpected tag (the type-error path), or -1 to fault.
	CheckFailHandler int
	// TrapCycles is the overhead charged on trap entry and on trap
	// return, modelling pipeline drain and handler dispatch.
	TrapCycles uint64

	// Memory-tagging geometry for LDM/STM (zero MemtagLimit disables the
	// check entirely; LDM/STM then behave exactly like LDT/STT). The color
	// of granule g lives in the word at MemtagBase + 4*g, where
	// g = addr >> MemtagShift; addresses at or above MemtagLimit (the
	// stack and the shadow table itself) are never checked.
	MemtagBase  uint32
	MemtagShift uint32
	MemtagLimit uint32
	// MemtagFailHandler is the instruction index jumped to when an LDM/STM
	// granule check fails, or -1 to fault.
	MemtagFailHandler int
}

// DefaultTrapCycles is the trap entry/return overhead used when TrapCycles
// is zero.
const DefaultTrapCycles = 8

// Fault is a simulator-detected error: misaligned or wild address, division
// by zero, unhandled trap, or a malformed program.
type Fault struct {
	PC     int
	Cycle  uint64
	Reason string
}

func (f *Fault) Error() string {
	return fmt.Sprintf("fault at pc=%d cycle=%d: %s", f.PC, f.Cycle, f.Reason)
}

// RuntimeError is a Lisp-level error raised via SysError (wrong type
// operand, bad index, ...).
type RuntimeError struct {
	Code int32
	Item uint32
}

func (e *RuntimeError) Error() string {
	return fmt.Sprintf("lisp runtime error %d (%s, item %#x)", e.Code, ErrorCodeName(e.Code), e.Item)
}

// Canceled reports a run stopped mid-flight because its Machine.Ctx was
// canceled or its deadline passed. It unwraps to the context error, so
// errors.Is(err, context.Canceled) and context.DeadlineExceeded both work.
type Canceled struct {
	Cycle uint64
	Err   error
}

func (c *Canceled) Error() string {
	return fmt.Sprintf("run canceled at cycle %d: %v", c.Cycle, c.Err)
}

func (c *Canceled) Unwrap() error { return c.Err }

// cancelCheckCycles is how many simulated cycles may pass between two
// polls of Machine.Ctx. At every engine's throughput (hundreds of
// simulated Mcycles per wall second) 64K cycles bounds cancellation
// latency to well under a millisecond while keeping the poll off the
// per-control-transfer path.
const cancelCheckCycles = 1 << 16

// cycleLimit is the single threshold the translated and native engines
// compare the cycle count against at control transfers and trap entries:
// MaxCycles (no limit when 0) or, with a Ctx attached, the cancellation
// poll point poll, whichever comes first. Folding both into one compare
// keeps cancellation off the dispatch path entirely.
func (m *Machine) cycleLimit(poll uint64) uint64 {
	limit := m.MaxCycles
	if limit == 0 {
		limit = math.MaxUint64
	}
	if m.Ctx != nil && poll < limit {
		limit = poll
	}
	return limit
}

// pollLimit is the cold path of the block engines' folded cycle test,
// entered once cycles has crossed the current cycleLimit. over reports
// that MaxCycles itself was exceeded (the caller raises the cycle-limit
// fault). Otherwise the crossing was a poll point, which cycleLimit sets
// only with a Ctx attached: err is Ctx's error when the run must stop,
// and next the threshold to test from here on.
func (m *Machine) pollLimit(cycles uint64) (next uint64, over bool, err error) {
	if m.MaxCycles != 0 && cycles > m.MaxCycles {
		return 0, true, nil
	}
	if err := m.Ctx.Err(); err != nil {
		return 0, false, err
	}
	return m.cycleLimit(cycles + cancelCheckCycles), false, nil
}

// Machine executes a Program against a word-addressed memory.
type Machine struct {
	Prog *Program
	Mem  []uint32 // one entry per 32-bit word; byte address = index*4
	Regs [32]uint32
	PC   int
	HW   HWConfig

	Stats  Stats
	Output bytes.Buffer

	// MaxCycles aborts runaway programs; 0 means no limit.
	MaxCycles uint64

	// Ctx, when non-nil, makes the run cancelable: every engine polls
	// Ctx.Err() at most once per cancelCheckCycles simulated cycles and
	// aborts with a *Canceled error once it is non-nil. The translated and
	// native engines fold the poll point into their MaxCycles test
	// (cycleLimit), so a Ctx costs them nothing per step or per block.
	Ctx context.Context

	// Obs, when non-nil, receives execution events from the reference
	// engine: control-flow events (branches taken, jumps, calls, returns,
	// traps, syscalls, GC, halt) plus one EvInstr per executed instruction.
	// The translated and native engines run an observed machine on the
	// reference engine, and an attached observer never changes
	// architectural state or Stats.
	Obs Observer

	halted bool
	// branch pipeline state
	pendTarget int // -1 when no jump pending
	pendCount  int
	pendSquash bool
	// load interlock state: the register written by the previous
	// instruction if it was a load (RZero otherwise) and that load's
	// instruction index, for stall attribution.
	lastLoadReg uint8
	lastLoad    int
	// execCounts[i] is the number of times a block engine executed
	// instruction i since the last flush; the engines derive the
	// per-category/op statistics from it on exit instead of updating them
	// per instruction.
	execCounts []uint64

	// Trans counts what the translated engine did on this machine.
	Trans TransStats
	// Per-block execution counters for the translated engine, indexed by
	// dense block id and expanded into execCounts-style statistics on exit
	// (see translate.go).
	bctr []blockCtr

	// Native counts what the native (closure-threaded) engine did on this
	// machine; nctr is its per-superblock run counter, indexed by dense
	// superblock id (see superblock.go); nst is its reusable exit mailbox.
	Native NativeStats
	nctr   []uint64
	nst    nstate
	// nregs is the native engine's working register file. The closure
	// calls keep escape analysis from proving a stack-local file does not
	// escape, so it lives here to keep steady-state runs allocation-free.
	nregs [256]uint32
}

// NewMachine creates a machine with memWords words of zeroed memory.
func NewMachine(prog *Program, memWords int, hw HWConfig) *Machine {
	if hw.TrapCycles == 0 {
		hw.TrapCycles = DefaultTrapCycles
	}
	if hw.MemAddrMask == 0 {
		hw.MemAddrMask = ^uint32(0)
	}
	m := &Machine{
		Prog:       prog,
		Mem:        make([]uint32, memWords),
		PC:         prog.Entry,
		HW:         hw,
		pendTarget: -1,
		execCounts: make([]uint64, len(prog.Instrs)),
	}
	// Pre-size the per-block and per-superblock counters from what the
	// program has already translated, so machines running a warm program
	// never grow them mid-run (the block engines' steady state allocates
	// nothing).
	if lp := prog.blist.Load(); lp != nil {
		m.bctr = make([]blockCtr, len(*lp)+64)
	}
	if np := prog.nat.Load(); np != nil {
		if n := np.exitLen.Load(); n > 0 {
			m.nctr = make([]uint64, int(n)+64)
		}
	}
	return m
}

// Halted reports whether the machine has executed HALT or SysHalt/SysError.
func (m *Machine) Halted() bool { return m.halted }

func (m *Machine) fault(format string, args ...any) error {
	return &Fault{PC: m.PC, Cycle: m.Stats.Cycles, Reason: fmt.Sprintf(format, args...)}
}

func (m *Machine) loadWord(addr uint32) (uint32, error) {
	if addr&3 != 0 {
		return 0, m.fault("misaligned load at %#x", addr)
	}
	i := addr >> 2
	if int(i) >= len(m.Mem) {
		return 0, m.fault("load out of range at %#x", addr)
	}
	return m.Mem[i], nil
}

func (m *Machine) storeWord(addr, v uint32) error {
	if addr&3 != 0 {
		return m.fault("misaligned store at %#x", addr)
	}
	i := addr >> 2
	if int(i) >= len(m.Mem) {
		return m.fault("store out of range at %#x", addr)
	}
	m.Mem[i] = v
	return nil
}

func (m *Machine) tagOf(v uint32) uint8 {
	return uint8((v >> m.HW.TagShift) & m.HW.TagMask)
}

// RunReference executes until HALT, a fault, a Lisp runtime error, or
// MaxCycles, one Step call per instruction. It is the reference engine: the
// translated and native engines are validated against it by differential
// tests, and anything that needs per-instruction observation (the tracer,
// profiling, every Observer) builds on the same Step path.
func (m *Machine) RunReference() error {
	var nextCancel uint64
	for !m.halted {
		if m.Ctx != nil && m.Stats.Cycles >= nextCancel {
			if err := m.Ctx.Err(); err != nil {
				return &Canceled{Cycle: m.Stats.Cycles, Err: err}
			}
			nextCancel = m.Stats.Cycles + cancelCheckCycles
		}
		if err := m.Step(); err != nil {
			return err
		}
		if m.MaxCycles != 0 && m.Stats.Cycles > m.MaxCycles {
			return m.fault("cycle limit %d exceeded", m.MaxCycles)
		}
	}
	if m.Stats.ErrorCode != 0 {
		return &RuntimeError{Code: m.Stats.ErrorCode, Item: m.Stats.ErrorItem}
	}
	return nil
}

// Step executes a single instruction (or annuls one squashed delay slot).
func (m *Machine) Step() error {
	if m.halted {
		return nil
	}
	if m.PC < 0 || m.PC >= len(m.Prog.Instrs) {
		return m.fault("pc out of range")
	}
	in := &m.Prog.Instrs[m.PC]

	// Annulled delay slot of a squashing branch that was not taken.
	if m.pendSquash {
		m.Stats.Cycles++
		m.Stats.Instrs++
		m.Stats.ByCat[CatSquash]++
		m.Stats.Squashed++
		m.lastLoadReg = RZero
		m.advance()
		return nil
	}

	// Load interlock: using a load result in the next cycle stalls one
	// cycle, charged to the load's own category.
	if m.lastLoadReg != RZero {
		rs, n := in.regsRead()
		for i := 0; i < n; i++ {
			if rs[i] == m.lastLoadReg {
				ld := &m.Prog.Instrs[m.lastLoad]
				m.Stats.Cycles++
				m.Stats.Stalls++
				m.Stats.ByCat[ld.Cat]++
				if ld.RTCheck {
					m.Stats.ByRTSub[ld.Sub]++
				}
				break
			}
		}
		m.lastLoadReg = RZero
	}

	m.Stats.add(in, in.Op.Cycles())
	if m.Obs != nil {
		m.Obs.Event(Event{Kind: EvInstr, Cycle: m.Stats.Cycles,
			PC: int32(m.PC), Target: -1, Arg: uint32(in.Op)})
	}

	r := &m.Regs
	sx := func(i uint8) int32 { return int32(r[i]) }
	setRd := func(v uint32) {
		if in.Rd != RZero {
			r[in.Rd] = v
		}
	}

	switch in.Op {
	case NOP:
	case MOV:
		setRd(r[in.Rs1])
	case LI:
		setRd(uint32(in.Imm))
	case ADD:
		setRd(uint32(sx(in.Rs1) + sx(in.Rs2)))
	case ADDI:
		setRd(uint32(sx(in.Rs1) + in.Imm))
	case SUB:
		setRd(uint32(sx(in.Rs1) - sx(in.Rs2)))
	case AND:
		setRd(r[in.Rs1] & r[in.Rs2])
	case ANDI:
		setRd(r[in.Rs1] & uint32(in.Imm))
	case OR:
		setRd(r[in.Rs1] | r[in.Rs2])
	case ORI:
		setRd(r[in.Rs1] | uint32(in.Imm))
	case XOR:
		setRd(r[in.Rs1] ^ r[in.Rs2])
	case XORI:
		setRd(r[in.Rs1] ^ uint32(in.Imm))
	case SLL:
		setRd(r[in.Rs1] << (r[in.Rs2] & 31))
	case SLLI:
		setRd(r[in.Rs1] << (uint32(in.Imm) & 31))
	case SRL:
		setRd(r[in.Rs1] >> (r[in.Rs2] & 31))
	case SRLI:
		setRd(r[in.Rs1] >> (uint32(in.Imm) & 31))
	case SRA:
		setRd(uint32(sx(in.Rs1) >> (r[in.Rs2] & 31)))
	case SRAI:
		setRd(uint32(sx(in.Rs1) >> (uint32(in.Imm) & 31)))
	case MUL:
		setRd(uint32(sx(in.Rs1) * sx(in.Rs2)))
	case FADD:
		setRd(math.Float32bits(math.Float32frombits(r[in.Rs1]) + math.Float32frombits(r[in.Rs2])))
	case FSUB:
		setRd(math.Float32bits(math.Float32frombits(r[in.Rs1]) - math.Float32frombits(r[in.Rs2])))
	case FMUL:
		setRd(math.Float32bits(math.Float32frombits(r[in.Rs1]) * math.Float32frombits(r[in.Rs2])))
	case FDIV:
		setRd(math.Float32bits(math.Float32frombits(r[in.Rs1]) / math.Float32frombits(r[in.Rs2])))
	case FLT:
		if math.Float32frombits(r[in.Rs1]) < math.Float32frombits(r[in.Rs2]) {
			setRd(1)
		} else {
			setRd(0)
		}
	case FEQ:
		if math.Float32frombits(r[in.Rs1]) == math.Float32frombits(r[in.Rs2]) {
			setRd(1)
		} else {
			setRd(0)
		}
	case ITOF:
		setRd(math.Float32bits(float32(sx(in.Rs1))))
	case FTOI:
		setRd(uint32(int32(math.Float32frombits(r[in.Rs1]))))
	case DIV:
		if r[in.Rs2] == 0 {
			return m.fault("division by zero")
		}
		setRd(uint32(sx(in.Rs1) / sx(in.Rs2)))
	case REM:
		if r[in.Rs2] == 0 {
			return m.fault("division by zero")
		}
		setRd(uint32(sx(in.Rs1) % sx(in.Rs2)))

	case LD:
		v, err := m.loadWord(uint32(sx(in.Rs1) + in.Imm))
		if err != nil {
			return err
		}
		setRd(v)
		m.lastLoadReg, m.lastLoad = in.Rd, m.PC
		m.advance()
		return nil
	case ST:
		if err := m.storeWord(uint32(sx(in.Rs1)+in.Imm), r[in.Rs2]); err != nil {
			return err
		}
	case LDT:
		// Tag-ignoring loads cannot fault: the hardware masks the tag
		// bits and the low address bits, and a wild (but masked) address
		// just reads whatever the bus returns. This is what lets the
		// scheduler hoist them into check-branch delay slots.
		addr := uint32(sx(in.Rs1)+in.Imm) & m.HW.MemAddrMask &^ 3
		var v uint32
		if int(addr>>2) < len(m.Mem) {
			v = m.Mem[addr>>2]
		}
		setRd(v)
		m.lastLoadReg, m.lastLoad = in.Rd, m.PC
		m.advance()
		return nil
	case STT:
		if err := m.storeWord(uint32(sx(in.Rs1)+in.Imm)&m.HW.MemAddrMask&^3, r[in.Rs2]); err != nil {
			return err
		}
	case LDM, STM:
		item := r[in.Rs1]
		addr := uint32(sx(in.Rs1)+in.Imm) & m.HW.MemAddrMask &^ 3
		cb := in.Tag
		if cb == RZero {
			cb = in.Rs1
		}
		if m.memtagViolation(addr, r[cb]) {
			return m.memtagFail(item, addr)
		}
		if in.Op == LDM {
			v, err := m.loadWord(addr)
			if err != nil {
				return err
			}
			setRd(v)
			m.lastLoadReg, m.lastLoad = in.Rd, m.PC
		} else if err := m.storeWord(addr, r[in.Rs2]); err != nil {
			return err
		}
		m.advance()
		return nil

	case LDC, STC:
		if m.tagOf(r[in.Rs1]) != in.Tag {
			return m.checkFail(r[in.Rs1], in.Tag)
		}
		addr := uint32(sx(in.Rs1)+in.Imm) & m.HW.MemAddrMask
		if in.Op == LDC {
			v, err := m.loadWord(addr)
			if err != nil {
				return err
			}
			setRd(v)
			m.lastLoadReg, m.lastLoad = in.Rd, m.PC
		} else if err := m.storeWord(addr, r[in.Rs2]); err != nil {
			return err
		}
		m.advance()
		return nil

	case ADDTC, SUBTC:
		if m.HW.IsIntItem == nil {
			return m.fault("%s without integer-test hardware", in.Op)
		}
		a, b := r[in.Rs1], r[in.Rs2]
		var s64 int64
		if in.Op == ADDTC {
			s64 = int64(int32(a)) + int64(int32(b))
		} else {
			s64 = int64(int32(a)) - int64(int32(b))
		}
		res := uint32(s64)
		if !m.HW.IsIntItem(a) || !m.HW.IsIntItem(b) ||
			s64 != int64(int32(res)) || !m.HW.IsIntItem(res) {
			return m.arithTrap(in, a, b)
		}
		setRd(res)

	case BEQ, BNE, BLT, BGE, BLE, BGT, BEQI, BNEI, BLTI, BGEI, BTEQ, BTNE:
		if m.pendCount > 0 {
			return m.fault("branch in delay slot")
		}
		var taken bool
		switch in.Op {
		case BEQ:
			taken = r[in.Rs1] == r[in.Rs2]
		case BNE:
			taken = r[in.Rs1] != r[in.Rs2]
		case BLT:
			taken = sx(in.Rs1) < sx(in.Rs2)
		case BGE:
			taken = sx(in.Rs1) >= sx(in.Rs2)
		case BLE:
			taken = sx(in.Rs1) <= sx(in.Rs2)
		case BGT:
			taken = sx(in.Rs1) > sx(in.Rs2)
		case BEQI:
			taken = sx(in.Rs1) == in.Imm
		case BNEI:
			taken = sx(in.Rs1) != in.Imm
		case BLTI:
			taken = sx(in.Rs1) < in.Imm
		case BGEI:
			taken = sx(in.Rs1) >= in.Imm
		case BTEQ:
			taken = m.tagOf(r[in.Rs1]) == in.Tag
		case BTNE:
			taken = m.tagOf(r[in.Rs1]) != in.Tag
		}
		if taken {
			if m.Obs != nil {
				m.Obs.Event(Event{Kind: EvBranch, Cycle: m.Stats.Cycles,
					PC: int32(m.PC), Target: int32(in.Target)})
			}
			m.pendTarget = in.Target
			m.pendCount = delaySlots
		} else if in.Squash {
			m.pendTarget = -1
			m.pendCount = delaySlots
			m.pendSquash = true
		}
		m.lastLoadReg = RZero
		m.PC++
		return nil

	case JMP, JAL, JALR, JR:
		if m.pendCount > 0 {
			return m.fault("jump in delay slot")
		}
		switch in.Op {
		case JMP:
			m.pendTarget = in.Target
		case JAL:
			r[RRA] = uint32(m.PC+1+delaySlots) << 2
			m.pendTarget = in.Target
		case JALR:
			if r[in.Rs1]&3 != 0 {
				return m.fault("jalr to misaligned code address %#x", r[in.Rs1])
			}
			t := int(r[in.Rs1] >> 2)
			r[RRA] = uint32(m.PC+1+delaySlots) << 2
			m.pendTarget = t
		case JR:
			if r[in.Rs1]&3 != 0 {
				return m.fault("jr to misaligned code address %#x", r[in.Rs1])
			}
			m.pendTarget = int(r[in.Rs1] >> 2)
		}
		if m.Obs != nil {
			k := EvJump
			switch in.Op {
			case JAL, JALR:
				k = EvCall
			case JR:
				k = EvReturn
			}
			m.Obs.Event(Event{Kind: k, Cycle: m.Stats.Cycles,
				PC: int32(m.PC), Target: int32(m.pendTarget)})
		}
		m.pendCount = delaySlots
		m.lastLoadReg = RZero
		m.PC++
		return nil

	case SYS:
		if err := m.syscall(in); err != nil {
			return err
		}
		if m.halted || in.Imm == SysTrapReturn {
			return nil
		}
	case HALT:
		m.halted = true
		if m.Obs != nil {
			m.Obs.Event(Event{Kind: EvHalt, Cycle: m.Stats.Cycles,
				PC: int32(m.PC), Target: -1})
		}
		return nil
	default:
		return m.fault("bad opcode %v", in.Op)
	}

	m.lastLoadReg = RZero
	m.advance()
	return nil
}

// advance moves past the current instruction, retiring pending delay slots.
func (m *Machine) advance() {
	m.PC++
	if m.pendCount > 0 {
		m.pendCount--
		if m.pendCount == 0 {
			if m.pendTarget >= 0 {
				m.PC = m.pendTarget
			}
			m.pendTarget = -1
			m.pendSquash = false
		}
	}
}

func (m *Machine) syscall(in *Instr) error {
	switch in.Imm {
	case SysHalt:
		m.halted = true
		if m.Obs != nil {
			m.Obs.Event(Event{Kind: EvHalt, Cycle: m.Stats.Cycles,
				PC: int32(m.PC), Target: -1})
		}
	case SysPutChar:
		m.Output.WriteByte(byte(m.Regs[RRet]))
		if m.Obs != nil {
			m.Obs.Event(Event{Kind: EvSyscall, Cycle: m.Stats.Cycles,
				PC: int32(m.PC), Target: -1, Arg: uint32(in.Imm)})
		}
	case SysPutInt:
		m.Output.WriteString(strconv.FormatInt(int64(int32(m.Regs[RRet])), 10))
		if m.Obs != nil {
			m.Obs.Event(Event{Kind: EvSyscall, Cycle: m.Stats.Cycles,
				PC: int32(m.PC), Target: -1, Arg: uint32(in.Imm)})
		}
	case SysError:
		m.Stats.ErrorCode = int32(m.Regs[RRet])
		m.Stats.ErrorItem = m.Regs[3]
		m.halted = true
		if m.Obs != nil {
			m.Obs.Event(Event{Kind: EvHalt, Cycle: m.Stats.Cycles,
				PC: int32(m.PC), Target: -1, Arg: m.Regs[RRet]})
		}
	case SysTrapReturn:
		if m.pendCount > 0 {
			return m.fault("trap return in delay slot")
		}
		rd := m.Mem[TrapRdAddr>>2]
		if rd >= 32 {
			return m.fault("bad trap destination register %d", rd)
		}
		if rd != RZero {
			m.Regs[rd] = m.Mem[TrapResultAddr>>2]
		}
		m.Stats.Cycles += m.HW.TrapCycles
		pc := m.PC
		m.PC = int(m.Mem[TrapPCAddr>>2])
		if m.Obs != nil {
			m.Obs.Event(Event{Kind: EvTrapRet, Cycle: m.Stats.Cycles,
				PC: int32(pc), Target: int32(m.PC)})
		}
	case SysGCNotify:
		m.Stats.GCs++
		m.Stats.GCWords += uint64(m.Regs[RRet])
		if m.Obs != nil {
			m.Obs.Event(Event{Kind: EvGC, Cycle: m.Stats.Cycles,
				PC: int32(m.PC), Target: -1, Arg: m.Regs[RRet]})
		}
	default:
		return m.fault("bad syscall %d", in.Imm)
	}
	return nil
}

// arithTrap enters the software handler for a failed ADDTC/SUBTC.
func (m *Machine) arithTrap(in *Instr, a, b uint32) error {
	if m.HW.TrapHandler < 0 {
		return m.fault("unhandled arithmetic trap (%v %#x %#x)", in.Op, a, b)
	}
	if m.pendCount > 0 {
		return m.fault("arithmetic trap in delay slot")
	}
	m.Mem[TrapOpAddr>>2] = uint32(in.Op)
	m.Mem[TrapAAddr>>2] = a
	m.Mem[TrapBAddr>>2] = b
	m.Mem[TrapRdAddr>>2] = uint32(in.Rd)
	m.Mem[TrapPCAddr>>2] = uint32(m.PC + 1)
	m.Stats.Cycles += m.HW.TrapCycles
	m.Stats.Traps++
	if m.Obs != nil {
		m.Obs.Event(Event{Kind: EvTrap, Cycle: m.Stats.Cycles,
			PC: int32(m.PC), Target: int32(m.HW.TrapHandler), Arg: uint32(in.Op)})
	}
	m.lastLoadReg = RZero
	m.PC = m.HW.TrapHandler
	return nil
}

// memtagViolation applies the granule check of LDM/STM: addr is the masked
// effective address, base the (unmasked) item the access is relative to. A
// checked address must land in an allocated (non-zero-colored) granule, and
// an access that leaves the base item's granule must find the same color
// there — crossing into a differently-colored neighbor is an overrun.
func (m *Machine) memtagViolation(addr, base uint32) bool {
	if addr >= m.HW.MemtagLimit {
		return false
	}
	g := m.HW.MemtagShift
	ca := m.Mem[(m.HW.MemtagBase+(addr>>g)<<2)>>2]
	if ca == 0 {
		return true
	}
	b := base & m.HW.MemAddrMask &^ 3
	if b>>g == addr>>g || b >= m.HW.MemtagLimit {
		return false
	}
	return m.Mem[(m.HW.MemtagBase+(b>>g)<<2)>>2] != ca
}

// memtagFail enters the memory-safety error path for a failed LDM/STM
// granule check, mirroring checkFail.
func (m *Machine) memtagFail(item, addr uint32) error {
	if m.HW.MemtagFailHandler < 0 {
		return m.fault("memtag granule check failed: item %#x, addr %#x", item, addr)
	}
	m.Regs[RT0] = item
	m.Regs[RT1] = addr
	m.Stats.Cycles += m.HW.TrapCycles
	m.Stats.Traps++
	if m.Obs != nil {
		m.Obs.Event(Event{Kind: EvTrap, Cycle: m.Stats.Cycles,
			PC: int32(m.PC), Target: int32(m.HW.MemtagFailHandler), Arg: addr})
	}
	m.lastLoadReg = RZero
	m.pendTarget = -1
	m.pendCount = 0
	m.pendSquash = false
	m.PC = m.HW.MemtagFailHandler
	return nil
}

// checkFail enters the type-error path for a failed LDC/STC tag check.
func (m *Machine) checkFail(item uint32, want uint8) error {
	if m.HW.CheckFailHandler < 0 {
		return m.fault("checked access tag mismatch: item %#x, want tag %d", item, want)
	}
	m.Regs[RT0] = item
	m.Regs[RT1] = uint32(want)
	m.Stats.Cycles += m.HW.TrapCycles
	m.Stats.Traps++
	if m.Obs != nil {
		m.Obs.Event(Event{Kind: EvTrap, Cycle: m.Stats.Cycles,
			PC: int32(m.PC), Target: int32(m.HW.CheckFailHandler), Arg: uint32(want)})
	}
	m.lastLoadReg = RZero
	m.pendTarget = -1
	m.pendCount = 0
	m.pendSquash = false
	m.PC = m.HW.CheckFailHandler
	return nil
}
