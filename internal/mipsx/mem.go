package mipsx

import (
	"sync"
	"weak"
)

// freeMem recycles machine memory. A released machine's memory is cleared
// on a background goroutine and only then listed here, by length, so
// NewMachine can hand a cleared buffer to the next machine of the same
// size instead of allocating and zeroing a fresh one on its caller's
// goroutine. A cleared buffer is word-for-word a fresh one: every word is
// cleared, not just the ranges a run dirtied, because an unchecked program
// can store anywhere and a partial reset would leak one run's data into
// the next.
//
// The list holds weak pointers only, so a free buffer lives until the next
// garbage collection and no longer: recycling never raises the heap that
// survives a GC. (A sync.Pool would keep its items through one more GC in
// its victim cache.)
var freeMem struct {
	mu sync.Mutex
	by map[int][]weak.Pointer[[]uint32]
}

// takeMem returns a zeroed buffer of n words: a cleared free one if any
// survives, otherwise a new allocation (made outside the lock).
func takeMem(n int) []uint32 {
	freeMem.mu.Lock()
	list := freeMem.by[n]
	for len(list) > 0 {
		p := list[len(list)-1].Value()
		list = list[:len(list)-1]
		if p != nil {
			freeMem.by[n] = list
			freeMem.mu.Unlock()
			return *p
		}
	}
	delete(freeMem.by, n)
	freeMem.mu.Unlock()
	return make([]uint32, n)
}

// recycleMem clears buf and lists it for reuse. Entries whose buffers
// the collector reclaimed are dropped by takeMem, so a list holds at most
// the releases not yet matched by a take.
func recycleMem(buf []uint32) {
	clear(buf)
	w := weak.Make(&buf)
	freeMem.mu.Lock()
	defer freeMem.mu.Unlock()
	if freeMem.by == nil {
		freeMem.by = make(map[int][]weak.Pointer[[]uint32])
	}
	freeMem.by[len(buf)] = append(freeMem.by[len(buf)], w)
}

// Release gives the machine's memory back for reuse by a later NewMachine
// of the same size, once a background goroutine has cleared it. Call it
// only when nothing will read m.Mem again (decode results first); Mem is
// nil afterwards, so a later run or read fails at once instead of seeing
// another machine's memory. Releasing twice is a no-op. A machine that is
// never released is collected as before.
func (m *Machine) Release() {
	if m.Mem == nil {
		return
	}
	buf := m.Mem
	m.Mem = nil
	go recycleMem(buf)
}
