package mipsx

import (
	"testing"
	"unsafe"
)

// TestInstrSize pins the packed instruction: every cached image keeps one
// Instr per instruction for its whole life, its only instruction array.
func TestInstrSize(t *testing.T) {
	if got := unsafe.Sizeof(Instr{}); got > 24 {
		t.Errorf("Instr is %d bytes, want at most 24", got)
	}
}

// TestFinishSizesInstrsExactly checks that the resolved program's array
// has no spare capacity left over from the LABEL pseudo-instructions.
func TestFinishSizesInstrsExactly(t *testing.T) {
	a := NewAsm()
	main := a.NewLabel("main")
	loop := a.NewLabel("loop")
	a.Bind(main)
	a.Li(10, 0)
	a.Bind(loop)
	a.Addi(10, 10, 1)
	a.Blti(10, 10, loop)
	a.Halt()
	p, err := a.Finish("main")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Instrs) != cap(p.Instrs) {
		t.Errorf("Instrs has length %d, capacity %d, want equal", len(p.Instrs), cap(p.Instrs))
	}
}
