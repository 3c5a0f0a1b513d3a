package mipsx

// The native engine: the translated engine's block loop (translate.go)
// plus superblocks (superblock.go). RunNative runs that loop with the
// program's native state enabled, so hot chained-block paths are
// flattened into superblock streams and run by the same step executor
// (execSteps); everything else — terminators, faults, traps, delegated
// transfers, the flush expansion — is the translated engine's code.
//
// Superblock streams are formed for one hardware config: the dataflow
// pass folds tag geometry into its elision decisions. The native state is
// pinned to the config of the first native run (nativeFor records a
// signature); a later run under a different config runs the same loop
// without superblocks rather than re-forming them, which keeps the
// per-block anchors free of config keys. In practice every image is built
// for exactly one config, so that fallback never fires outside tests.
//
// Fallbacks mirror the translated engine's: an attached Observer or a
// machine stopped mid-pipeline delegates to the reference engine.

import (
	"reflect"
	"sync/atomic"
)

// RunNative executes until HALT, a fault, a Lisp runtime error, or
// MaxCycles, using the translated-block cache and the superblocks shared
// across all machines running the same Program under the same hardware
// config.
func (m *Machine) RunNative() error {
	if m.needsReference() {
		m.Native.Fallbacks++
		return m.RunReference()
	}
	np := m.Prog.nativeFor(&m.HW)
	if np == nil {
		m.Native.Fallbacks++
	}
	return runBlocks[nativeLoop](m, np)
}

// nativeProg is a program's native state: the config its superblocks are
// formed for and the superblocks formed so far. Each superblock is
// anchored at its head block (tblock.sb); anchors always belong to this
// config because a mismatched run never reads them.
type nativeProg struct {
	sig nsig
	// sbs densely indexes the formed superblocks so per-machine
	// superblock counters can be flat arrays. Each formation stores a new
	// slice header, appended into spare capacity: a loaded list never
	// changes below its length. exitLen is the total number of exit-site
	// counter slots the formed superblocks need (each contributes
	// len(elems)+1).
	sbs     atomic.Pointer[[]*sblock]
	exitLen atomic.Int32
}

// nsig is the comparable fingerprint of a hardware config; the IsIntItem
// function is identified by its code pointer.
type nsig struct {
	tagShift, tagMask, memAddrMask       uint32
	isIntItem                            uintptr
	trapHandler, checkFailHandler        int
	trapCycles                           uint64
	memtagBase, memtagShift, memtagLimit uint32
	memtagFailHandler                    int
}

func sigOf(hw *HWConfig) nsig {
	s := nsig{
		tagShift: hw.TagShift, tagMask: hw.TagMask, memAddrMask: hw.MemAddrMask,
		trapHandler: hw.TrapHandler, checkFailHandler: hw.CheckFailHandler,
		trapCycles: hw.TrapCycles,
		memtagBase: hw.MemtagBase, memtagShift: hw.MemtagShift,
		memtagLimit: hw.MemtagLimit, memtagFailHandler: hw.MemtagFailHandler,
	}
	if hw.IsIntItem != nil {
		s.isIntItem = reflect.ValueOf(hw.IsIntItem).Pointer()
	}
	return s
}

// nativeFor returns the program's native state for hw, creating it on
// first use. A nil result means the program's native state is already
// pinned to a different config and the caller must run without
// superblocks.
func (p *Program) nativeFor(hw *HWConfig) *nativeProg {
	sig := sigOf(hw)
	if np := p.nat.Load(); np != nil {
		if np.sig != sig {
			return nil
		}
		return np
	}
	p.tmu.Lock()
	defer p.tmu.Unlock()
	if np := p.nat.Load(); np != nil {
		if np.sig != sig {
			return nil
		}
		return np
	}
	np := &nativeProg{sig: sig}
	p.nat.Store(np)
	return np
}
