package mipsx

import (
	"slices"
	"testing"
)

// TestLeasedMemoryIsFresh poisons a leased machine's memory and releases
// it: the next lease of that size must read word for word what a fresh
// NewMachine's memory holds, and run. Release must leave Mem nil and the
// mapping gone, a second Release must be a no-op, and releasing a
// NewMachine machine only drops its Mem. A lease the kernel refuses (zero
// words) falls back to the heap.
func TestLeasedMemoryIsFresh(t *testing.T) {
	a := NewAsm()
	a.Bind(a.NewLabel("main"))
	a.Halt()
	p, err := a.Finish("main")
	if err != nil {
		t.Fatal(err)
	}
	const words = 12_345 // not a whole number of pages

	fresh := NewMachine(p, words, HWConfig{})
	for round := 0; round < 3; round++ {
		m := LeaseMachine(p, words, HWConfig{})
		if len(m.Mem) != words || !slices.Equal(m.Mem, fresh.Mem) {
			t.Fatalf("round %d: leased memory differs from a fresh machine's", round)
		}
		if err := m.Run(); err != nil || !m.Halted() {
			t.Fatalf("round %d: run on leased memory: %v (halted %v)", round, err, m.Halted())
		}
		for i := range m.Mem {
			m.Mem[i] = 0xdeadbeef ^ uint32(i)
		}
		m.Release()
		if m.Mem != nil || m.lease != nil {
			t.Fatalf("round %d: Release left Mem or the lease set", round)
		}
		m.Release() // a second release is a no-op
	}

	heap := NewMachine(p, words, HWConfig{})
	mem := heap.Mem
	heap.Mem[7] = 42
	heap.Release()
	if heap.Mem != nil {
		t.Fatal("Release left a heap machine's Mem set")
	}
	if mem[7] != 42 {
		t.Fatal("Release changed a heap machine's memory")
	}
	heap.Release()

	empty := LeaseMachine(p, 0, HWConfig{})
	if empty.lease != nil || empty.Mem == nil {
		t.Fatalf("a refused lease was not a heap machine (lease %v, Mem %v)", empty.lease != nil, empty.Mem != nil)
	}
	empty.Release()
}
