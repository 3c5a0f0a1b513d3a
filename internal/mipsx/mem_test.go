package mipsx

import (
	"runtime/debug"
	"slices"
	"testing"
	"time"
)

// TestRecycledMemoryIsCleared poisons a machine's memory, releases it, and
// checks that the next machine of that size gets the same buffer back,
// cleared to what a fresh machine's memory holds. Garbage collection is off
// for the test, since a collection may drop the weakly held free buffer.
func TestRecycledMemoryIsCleared(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	a := NewAsm()
	a.Bind(a.NewLabel("main"))
	a.Halt()
	p, err := a.Finish("main")
	if err != nil {
		t.Fatal(err)
	}
	const words = 12_345 // a size no other test of the package uses

	m := NewMachine(p, words, HWConfig{})
	for i := range m.Mem {
		m.Mem[i] = 0xdeadbeef ^ uint32(i)
	}
	poisoned := &m.Mem[0]
	m.Release()
	if m.Mem != nil {
		t.Fatal("Release left Mem set")
	}
	m.Release() // a second release is a no-op

	// The buffer is listed only once a background goroutine cleared it.
	for deadline := time.Now().Add(10 * time.Second); freeMemCount(words) == 0; {
		if time.Now().After(deadline) {
			t.Fatal("released memory never reached the free list")
		}
		time.Sleep(time.Millisecond)
	}
	reused := NewMachine(p, words, HWConfig{})
	if &reused.Mem[0] != poisoned {
		t.Fatal("NewMachine did not reuse the released buffer")
	}
	fresh := NewMachine(p, words, HWConfig{})
	if &fresh.Mem[0] == poisoned {
		t.Fatal("one buffer handed to two live machines")
	}
	if len(reused.Mem) != len(fresh.Mem) || !slices.Equal(reused.Mem, fresh.Mem) {
		t.Error("recycled memory differs from a fresh machine's")
	}
	if err := reused.Run(); err != nil || !reused.Halted() {
		t.Errorf("run on recycled memory: %v (halted %v)", err, reused.Halted())
	}
}

// freeMemCount is the number of free buffers of n words still listed.
func freeMemCount(n int) int {
	freeMem.mu.Lock()
	defer freeMem.mu.Unlock()
	c := 0
	for _, e := range freeMem.by[n] {
		if e.Value() != nil {
			c++
		}
	}
	return c
}
