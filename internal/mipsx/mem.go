package mipsx

// Machine memory comes from one of two places. NewMachine allocates it on
// the Go heap and the collector owns it, so a slice of it stays valid for
// as long as anything holds the slice, whether or not the machine is still
// alive (img.DecodeItem(m.Mem, ...) may read Mem after the last use of m).
// LeaseMachine maps it from the kernel instead (mapMem): a fresh anonymous
// mapping reads zero on every word without anyone clearing it, pages a run
// never touches cost neither time nor memory, and Release hands the whole
// mapping back at once, so an uncached service run neither zeroes megabytes
// on its request goroutine nor leaves them to the collector. The collector
// does not see memory outside its heap, so only an owner that promises to
// release the machine may lease it: a leased machine that is never released
// leaks its mapping, and one released too early faults on the next read.

// LeaseMachine is NewMachine for an owner that will call Release once
// nothing reads the machine's memory again. Each lease is a fresh mapping,
// so every word reads zero before the run. Where the platform has no such
// mapping, or the kernel refuses one, the memory comes from the heap as
// NewMachine's does.
func LeaseMachine(prog *Program, memWords int, hw HWConfig) *Machine {
	mem := mapMem(memWords)
	if mem == nil {
		return NewMachine(prog, memWords, hw)
	}
	m := newMachine(prog, mem, hw)
	m.lease = mem
	return m
}

// Release ends the machine's use of its memory. Call it only when nothing
// will read m.Mem again (decode results first). Mem is nil afterwards, so
// a later run or read fails at once instead of seeing another run's
// memory. A leased machine's mapping goes back to the kernel, and any
// slice of it still held faults on its next access; a NewMachine machine
// only drops Mem and leaves the buffer to the collector. Releasing twice
// is a no-op.
func (m *Machine) Release() {
	m.Mem = nil
	if m.lease != nil {
		unmapMem(m.lease)
		m.lease = nil
	}
}
