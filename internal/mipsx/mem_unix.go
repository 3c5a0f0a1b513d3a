//go:build unix

package mipsx

import (
	"syscall"
	"unsafe"
)

// mapMem maps words zeroed words of anonymous private memory, or returns
// nil if the kernel refuses (LeaseMachine then falls back to the heap).
// The kernel backs each page on its first touch with a zeroed page.
func mapMem(words int) []uint32 {
	b, err := syscall.Mmap(-1, 0, words*4, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil
	}
	return unsafe.Slice((*uint32)(unsafe.Pointer(unsafe.SliceData(b))), words)
}

// unmapMem returns a mapping made by mapMem to the kernel.
func unmapMem(mem []uint32) {
	b := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(mem))), len(mem)*4)
	if err := syscall.Munmap(b); err != nil {
		// Only a slice mapMem did not make, or one already unmapped, can
		// fail here: a bug, not a condition of the run.
		panic("mipsx: unmap machine memory: " + err.Error())
	}
}
