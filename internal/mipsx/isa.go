// Package mipsx implements an instruction-level simulator for a MIPS-X-like
// 32-bit RISC processor: 32 registers, compare-and-branch instructions with
// two delay slots (optionally squashing), one load-delay interlock, and a
// small set of optional "tagged architecture" instruction extensions that the
// paper evaluates (tag-ignoring memory access, tag-field branches, checked
// memory access, trap-checked integer arithmetic).
//
// The simulator charges one cycle per instruction (multi-cycle multiply and
// divide excepted) and attributes every cycle to a tag-operation category, so
// a run yields the breakdowns reported in the paper's tables and figures.
package mipsx

import "fmt"

// Op is an instruction opcode.
type Op uint8

// Opcodes. Reg-reg ALU ops compute Rd = Rs1 op Rs2; immediate forms use Imm.
const (
	NOP Op = iota
	MOV    // Rd = Rs1 (distinct from ADD for instruction-frequency stats)
	LI     // Rd = Imm
	ADD
	ADDI
	SUB
	AND
	ANDI
	OR
	ORI
	XOR
	XORI
	SLL
	SLLI
	SRL
	SRLI
	SRA
	SRAI
	MUL // multi-cycle
	DIV // multi-cycle, traps on divide by zero
	REM
	LD    // Rd = mem[Rs1+Imm]
	ST    // mem[Rs1+Imm] = Rs2
	LDT   // like LD but the address is masked with HWConfig.MemAddrMask
	STT   // like ST but the address is masked
	LDC   // like LDT, but traps to the check-fail handler unless tag(Rs1) == Tag
	STC   // like STT with the same parallel tag check
	LDM   // like LDT, but verifies the memory-tagging granule color in parallel
	STM   // like STT with the same parallel granule check
	ADDTC // Rd = Rs1+Rs2; traps unless both operands are integer items and no overflow
	SUBTC
	FADD // float ops on raw IEEE-754 single bits, modelling an FP coprocessor
	FSUB
	FMUL
	FDIV
	FLT // Rd = 1 if Rs1 < Rs2 as floats, else 0
	FEQ
	ITOF // Rd = float(int32(Rs1))
	FTOI // Rd = int32(trunc(float(Rs1)))
	BEQ  // compare-and-branch, two delay slots
	BNE
	BLT
	BGE
	BLE
	BGT
	BEQI // compare-and-branch against a small immediate
	BNEI
	BLTI
	BGEI
	BTEQ // branch if tag field of Rs1 == Tag (no extraction needed)
	BTNE
	JMP  // unconditional, two delay slots
	JAL  // call: R31 = return address
	JALR // indirect call through Rs1
	JR   // indirect jump through Rs1 (return)
	SYS  // syscall, number in Imm
	HALT
	LABEL // assembler pseudo-instruction, removed at resolution

	numOps
)

// NumOps is the number of real opcodes (LABEL excluded from stats arrays).
const NumOps = int(numOps)

var opNames = [...]string{
	NOP: "nop", MOV: "mov", LI: "li", ADD: "add", ADDI: "addi", SUB: "sub",
	AND: "and", ANDI: "andi", OR: "or", ORI: "ori", XOR: "xor", XORI: "xori",
	SLL: "sll", SLLI: "slli", SRL: "srl", SRLI: "srli", SRA: "sra", SRAI: "srai",
	MUL: "mul", DIV: "div", REM: "rem",
	LD: "ld", ST: "st", LDT: "ldt", STT: "stt", LDC: "ldc", STC: "stc",
	LDM: "ldm", STM: "stm",
	ADDTC: "addtc", SUBTC: "subtc",
	FADD: "fadd", FSUB: "fsub", FMUL: "fmul", FDIV: "fdiv", FLT: "flt",
	FEQ: "feq", ITOF: "itof", FTOI: "ftoi",
	BEQ: "beq", BNE: "bne", BLT: "blt", BGE: "bge", BLE: "ble", BGT: "bgt",
	BEQI: "beqi", BNEI: "bnei", BLTI: "blti", BGEI: "bgei",
	BTEQ: "bteq", BTNE: "btne",
	JMP: "jmp", JAL: "jal", JALR: "jalr", JR: "jr", SYS: "sys", HALT: "halt",
	LABEL: "label",
}

func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// IsCond reports whether o is a conditional branch.
func (o Op) IsCond() bool { return o >= BEQ && o <= BTNE }

// IsControl reports whether o transfers control.
func (o Op) IsControl() bool { return o >= BEQ && o <= JR }

// IsLoad reports whether o reads memory into Rd.
func (o Op) IsLoad() bool { return o == LD || o == LDT || o == LDC || o == LDM }

// IsStore reports whether o writes memory.
func (o Op) IsStore() bool { return o == ST || o == STT || o == STC || o == STM }

// CanTrap reports whether o may trap (and therefore must not sit in a delay
// slot, where the resume PC would be ambiguous).
func (o Op) CanTrap() bool {
	return o == LDC || o == STC || o == LDM || o == STM ||
		o == ADDTC || o == SUBTC || o == DIV || o == REM || o == SYS
}

// Cycles is the cost of one execution of o.
func (o Op) Cycles() uint64 {
	switch o {
	case MUL:
		return 10 // MIPS-X multiplied with multiply-step instructions
	case DIV, REM:
		return 20
	case FADD, FSUB, FMUL, FDIV, FLT, FEQ, ITOF, FTOI:
		return 6 // modelled FP coprocessor latency
	default:
		return 1
	}
}

// Category classifies a cycle for the paper's accounting (§3).
type Category uint8

const (
	// CatWork is useful (non-tag) work.
	CatWork Category = iota
	// CatTagInsert builds a tagged item from a tag and a datum (§3.1).
	CatTagInsert
	// CatTagRemove masks the tag off an item before use (§3.2).
	CatTagRemove
	// CatTagExtract isolates the tag for a later comparison (§3.3).
	CatTagExtract
	// CatTagCheck is the compare-and-branch part of a tag check, plus any
	// unfilled delay slots of that branch (§3.4).
	CatTagCheck
	// CatNoop is an unfilled delay slot not attributable to a tag operation.
	CatNoop
	// CatSquash counts annulled (squashed) delay-slot cycles. Assigned at
	// run time only.
	CatSquash
	// CatMemtag covers the memory-tagging model: software granule-check
	// sequences and the allocator/collector coloring loops. Kept out of
	// TagCycles — memory safety is priced separately from type safety.
	CatMemtag

	NumCat
)

var catNames = [NumCat]string{"work", "insert", "remove", "extract", "check", "noop", "squash", "memtag"}

func (c Category) String() string {
	if c < NumCat {
		return catNames[c]
	}
	return fmt.Sprintf("cat(%d)", uint8(c))
}

// SubCat attributes a tag check to its cause, for the Table 1 breakdown.
type SubCat uint8

const (
	// SubNone is the default attribution.
	SubNone SubCat = iota
	// SubList: checks on car/cdr/rplaca/rplacd operands.
	SubList
	// SubVector: vector/structure type, index and bounds checks.
	SubVector
	// SubArith: integer tests and overflow tests in generic arithmetic.
	SubArith
	// SubSymbol: checks that an operand is a symbol.
	SubSymbol
	// SubSource: type predicates written in the source program (atom,
	// null, consp, ...), present whether or not run-time checking is on.
	SubSource
	// SubString: checks on string operands.
	SubString

	NumSub
)

var subNames = [NumSub]string{"-", "list", "vector", "arith", "symbol", "source", "string"}

func (s SubCat) String() string {
	if s < NumSub {
		return subNames[s]
	}
	return fmt.Sprintf("sub(%d)", uint8(s))
}

// Instr is one machine instruction. Target holds a label id until the
// program is resolved, then an absolute instruction index. The fields are
// ordered by size so an Instr packs into 24 bytes: a Program's instruction
// array is the only per-instruction copy an image keeps, and the block
// engines decode from it as they read it.
type Instr struct {
	Imm    int32
	Target int32
	// SafeRegs is a bitmask of registers that the scheduler may let
	// fall-through instructions write inside this branch's delay slots:
	// registers known dead on the taken path. R1 (the sequence scratch,
	// which the GC never scans) is implicitly always safe.
	SafeRegs uint32
	Op       Op
	Rd       uint8
	Rs1      uint8
	Rs2      uint8
	Tag      uint8 // expected tag for LDC/STC/BTEQ/BTNE; color-base register for LDM/STM
	Cat      Category
	Sub      SubCat
	Squash   bool // conditional branch annuls its delay slots when not taken
	RTCheck  bool // emitted only because run-time checking is enabled
}

// Register conventions used by the compiler and runtime.
const (
	RZero = 0  // always zero
	RRet  = 2  // return value and first argument
	RArg0 = 2  // arguments in R2..R7
	RArgN = 7  // last argument register
	RT0   = 8  // caller-save scratch
	RT1   = 9  // caller-save scratch
	RLoc0 = 10 // callee-save locals R10..R21
	RLocN = 21
	RT2   = 22 // extra scratch (runtime glue)
	RT3   = 23
	RT4   = 24
	RT5   = 25
	RNil  = 26 // the item NIL
	RMask = 27 // pointer mask constant for the current tag scheme
	RHLim = 28 // heap limit
	RHP   = 29 // heap allocation pointer
	RSP   = 30 // stack pointer (grows down)
	RRA   = 31 // return address
)

// Syscall numbers (Imm field of SYS).
const (
	SysHalt       = 0 // stop execution
	SysPutChar    = 1 // write low byte of R2 to output
	SysPutInt     = 2 // write signed decimal of R2 to output
	SysError      = 3 // runtime error: code in R2, offending item in R3
	SysTrapReturn = 4 // return from an arithmetic trap handler
	SysGCNotify   = 5 // R2 = words copied; records GC statistics
)

// Fixed memory words used to communicate between a trapping instruction and
// the software trap handler (byte addresses).
const (
	TrapOpAddr     = 64 // opcode of the trapped instruction
	TrapAAddr      = 68 // first operand item
	TrapBAddr      = 72 // second operand item
	TrapRdAddr     = 76 // destination register index
	TrapPCAddr     = 80 // resume instruction index
	TrapResultAddr = 84 // handler writes the result item here
)

// readMask returns the registers the instruction reads as a bitmask, bit r
// for register r. RZero is never included: reading it neither interlocks
// nor depends on a write.
func (i *Instr) readMask() uint32 {
	var m uint32
	switch i.Op {
	case MOV, ADDI, ANDI, ORI, XORI, SLLI, SRLI, SRAI, ITOF, FTOI, LD, LDT, LDC,
		BEQI, BNEI, BLTI, BGEI, BTEQ, BTNE, JALR, JR:
		m = 1 << i.Rs1
	case ADD, SUB, AND, OR, XOR, SLL, SRL, SRA, MUL, DIV, REM, ADDTC, SUBTC,
		FADD, FSUB, FMUL, FDIV, FLT, FEQ, ST, STT, STC, BEQ, BNE, BLT, BGE, BLE, BGT:
		m = 1<<i.Rs1 | 1<<i.Rs2
	case LDM:
		m = 1<<i.Rs1 | 1<<i.Tag // color-base register (RZero means "use Rs1")
	case STM:
		m = 1<<i.Rs1 | 1<<i.Rs2 | 1<<i.Tag
	case SYS:
		m = 1<<RRet | 1<<3
	}
	return m &^ 1
}

// loadMask is the interlock mask a load leaves behind: the bit of its
// destination, except RZero, which never interlocks.
func (i *Instr) loadMask() uint32 { return (1 << (i.Rd & 31)) &^ 1 }

// stallsBefore reports whether i is a load whose result next reads, the
// one-cycle load interlock when next follows i.
func (i *Instr) stallsBefore(next *Instr) bool {
	return i.Op.IsLoad() && next.readMask()&i.loadMask() != 0
}

// regWritten returns the register an instruction writes, or RZero if none.
func (i *Instr) regWritten() uint8 {
	switch i.Op {
	case MOV, LI, ADD, ADDI, SUB, AND, ANDI, OR, ORI, XOR, XORI,
		SLL, SLLI, SRL, SRLI, SRA, SRAI, MUL, DIV, REM,
		FADD, FSUB, FMUL, FDIV, FLT, FEQ, ITOF, FTOI,
		LD, LDT, LDC, LDM, ADDTC, SUBTC:
		return i.Rd
	case JAL, JALR:
		return RRA
	}
	return RZero
}
