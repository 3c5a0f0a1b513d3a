//go:build !unix

package mipsx

// mapMem has no kernel mapping to offer on this platform, so LeaseMachine
// allocates on the heap, as NewMachine does, and Release never unmaps.
func mapMem(int) []uint32 { return nil }

// unmapMem is never called here: without mapMem, no machine holds a lease.
func unmapMem([]uint32) {}
