package mipsx

import "fmt"

// EventKind classifies an execution event delivered to an Observer.
type EventKind uint8

const (
	// EvInstr is one executed (non-annulled) instruction. Every event,
	// this one included, comes from the reference engine (Step /
	// RunReference): the block engines fall back to it whenever an
	// Observer is attached.
	EvInstr EventKind = iota
	// EvBranch is a taken conditional branch. Target is the branch target.
	EvBranch
	// EvJump is an unconditional JMP. Target is the jump target.
	EvJump
	// EvCall is a JAL or JALR. Target is the callee's first instruction.
	EvCall
	// EvReturn is a JR. Target is the resumed instruction index.
	EvReturn
	// EvTrap is a hardware trap entry: a failed LDC/STC tag check (Arg is
	// the expected tag) or a failed ADDTC/SUBTC parallel check (Arg is the
	// opcode). Target is the handler's first instruction.
	EvTrap
	// EvTrapRet is a return from a software trap handler (SYS SysTrapReturn).
	// Target is the resumed instruction index.
	EvTrapRet
	// EvSyscall is a SYS other than halt, error, GC-notify and trap return.
	// Arg is the syscall number.
	EvSyscall
	// EvGC is a SysGCNotify. Arg is the number of words the collector copied.
	EvGC
	// EvHalt is the end of execution: HALT, SysHalt, or SysError (Arg is the
	// error code, 0 for a plain halt).
	EvHalt

	NumEventKinds
)

var eventNames = [NumEventKinds]string{
	"instr", "branch", "jump", "call", "return", "trap", "trapret",
	"syscall", "gc", "halt",
}

func (k EventKind) String() string {
	if k < NumEventKinds {
		return eventNames[k]
	}
	return fmt.Sprintf("event(%d)", uint8(k))
}

// Event is one execution event. Cycle is Stats.Cycles at the event,
// including the emitting instruction's own cost (and, for traps, the trap
// entry overhead).
type Event struct {
	Cycle  uint64
	PC     int32 // instruction index of the emitting instruction
	Target int32 // control-transfer destination, -1 when not applicable
	Arg    uint32
	Kind   EventKind
}

// Observer receives execution events from a Machine. Attach one via
// Machine.Obs; an observed run executes on the reference engine whichever
// engine was asked for (the translated and native engines fall back to
// it), and attaching an observer never changes architectural state,
// Stats, or output. nil (the default) costs the block engines one test
// per run.
//
// Event is called synchronously from the simulation loop, so
// implementations should be cheap; bounded-memory collectors live in
// internal/obs (ring tracer, cycle-window sampler, call tracer, metrics).
type Observer interface {
	Event(Event)
}

// Symbolic SysError codes, shared by the compiler (internal/lispc), the
// runtime library (internal/rt) and anything that reports Stats.ErrorCode.
const (
	ErrNotPair      = 1  // car/cdr/rplaca/rplacd operand is not a pair
	ErrNotSymbol    = 2  // symbol-cell access on a non-symbol
	ErrNotVector    = 3  // vector op on a non-vector
	ErrNotInt       = 4  // fixnum required
	ErrBadIndex     = 5  // vector/string index out of range
	ErrNotNumber    = 6  // generic arithmetic on a non-number
	ErrOverflow     = 7  // arithmetic overflow or division by zero
	ErrNotFunction  = 8  // application of a non-function
	ErrUser         = 9  // (error ...) raised by the user program
	ErrHeapOverflow = 10 // to-space exhausted during GC copy
	ErrWrongTypeHW  = 20 // hardware LDC/STC tag-check failure
	ErrMemtagFault  = 21 // memory-tagging granule check failure (LDM/STM or software)
)

var errorNames = map[int32]string{
	ErrNotPair:      "not-a-pair",
	ErrNotSymbol:    "not-a-symbol",
	ErrNotVector:    "not-a-vector",
	ErrNotInt:       "not-an-integer",
	ErrBadIndex:     "bad-index",
	ErrNotNumber:    "not-a-number",
	ErrOverflow:     "arith-overflow",
	ErrNotFunction:  "not-a-function",
	ErrUser:         "user-error",
	ErrHeapOverflow: "heap-overflow",
	ErrWrongTypeHW:  "wrong-type",
	ErrMemtagFault:  "memtag-fault",
}

// ErrorCodeName returns the symbolic name of a SysError code ("not-a-pair",
// "heap-overflow", ...), or "error-<n>" for an unknown code.
func ErrorCodeName(code int32) string {
	if name, ok := errorNames[code]; ok {
		return name
	}
	return fmt.Sprintf("error-%d", code)
}
