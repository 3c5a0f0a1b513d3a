package mipsx

import "fmt"

// Engine selects one of the three execution engines. The zero value is
// the block-translating engine, making it the default everywhere a caller
// does not ask for something else.
type Engine uint8

const (
	// EngineTranslated is the basic-block translation engine (translate.go):
	// the predecoded stream is cut into straight-line blocks, recurring tag
	// idioms are fused into superinstructions, and translated blocks are
	// cached and chained. Honours MaxCycles and Ctx itself; falls back to
	// the reference engine only when an Observer is attached or the machine
	// is stopped mid-pipeline.
	EngineTranslated Engine = iota
	// EngineReference is the single-step reference engine (sim.go): the
	// ground truth the other engines are tested against, and the engine
	// that serves every Observer.
	EngineReference
	// EngineNative is the closure-threaded engine (native.go): translated
	// blocks are compiled into chains of Go closures specialized on the
	// active hardware config, and hot chained-block paths are flattened
	// into superblocks executed with a single counter increment. Honours
	// Ctx and falls back like the translated engine, and additionally to
	// the translated engine when the program is already natively compiled
	// for a different hardware config.
	EngineNative
)

// EngineFused is a deprecated alias of EngineReference. The fused
// single-dispatch loop it named has been removed; the alias exists only
// because perfbench/service.go (line 363) names it, and the benchmark
// module changes separately from the simulator. Its String() is
// "reference", so perfbench's core.runs_engine.fused metric is never set
// and reads 0, as it did while no request ran on the fused loop. Nothing
// else may use it.
//
// Deprecated: use EngineReference, EngineTranslated or EngineNative.
const EngineFused = EngineReference

var engineNames = [...]string{
	EngineTranslated: "translated",
	EngineReference:  "reference",
	EngineNative:     "native",
}

func (e Engine) String() string {
	if int(e) < len(engineNames) {
		return engineNames[e]
	}
	return fmt.Sprintf("engine(%d)", uint8(e))
}

// EngineNames lists the accepted engine selector spellings.
var EngineNames = []string{"translated", "reference", "native"}

// ParseEngine parses an engine selector; the empty string selects the
// default (translated) engine.
func ParseEngine(s string) (Engine, error) {
	switch s {
	case "", "translated":
		return EngineTranslated, nil
	case "reference":
		return EngineReference, nil
	case "native":
		return EngineNative, nil
	}
	return EngineTranslated, fmt.Errorf("unknown engine %q (want translated, reference or native)", s)
}

// Run executes the program to completion on the default (translated)
// engine.
func (m *Machine) Run() error { return m.RunTranslated() }

// RunEngine executes the program to completion on the selected engine.
// All three engines produce bit-identical architectural state, statistics
// and output; they differ only in speed and in observability (the
// reference engine emits every event, including one per instruction; the
// translated and native engines emit none and transparently fall back to
// the reference engine when an Observer is attached). Every engine
// honours MaxCycles and Ctx cancellation.
func (m *Machine) RunEngine(e Engine) error {
	switch e {
	case EngineReference:
		return m.RunReference()
	case EngineNative:
		return m.RunNative()
	default:
		return m.RunTranslated()
	}
}

// TransStats counts what the translated engine did during one Machine's
// runs: how many blocks this machine translated (first executions of a
// block populate the program-wide cache), how many block transitions were
// served by a direct chain pointer, how many RunTranslated calls fell back
// to the reference engine (Observer attached or pipeline mid-flight), and the
// dispatch-step mix (FusedSteps of Steps were superinstructions covering
// two source instructions).
type TransStats struct {
	Translated uint64 `json:"translated"`  // blocks translated into the program's cache by this machine
	BlockRuns  uint64 `json:"block_runs"`  // completed basic-block executions
	ChainHits  uint64 `json:"chain_hits"`  // block transitions resolved through a chain pointer
	Fallbacks  uint64 `json:"fallbacks"`   // RunTranslated calls that delegated to the reference engine
	Steps      uint64 `json:"steps"`       // dispatch steps executed in completed block bodies
	FusedSteps uint64 `json:"fused_steps"` // of those, fused superinstructions (two source instrs)
}

// Accumulate adds o's counters into t (the runner aggregates the
// machines that ran one cached image).
func (t *TransStats) Accumulate(o *TransStats) {
	t.Translated += o.Translated
	t.BlockRuns += o.BlockRuns
	t.ChainHits += o.ChainHits
	t.Fallbacks += o.Fallbacks
	t.Steps += o.Steps
	t.FusedSteps += o.FusedSteps
}

// NativeStats counts what the native engine did during one Machine's runs.
// BlockRuns/Steps/FusedSteps cover per-block executions, including the
// expanded contribution of superblock runs; SBRuns counts complete
// superblock stream executions (each covering several block runs) and
// SBSideExits the streams abandoned partway.
type NativeStats struct {
	Compiled    uint64 `json:"compiled"`      // blocks closure-compiled into the program's cache by this machine
	SuperBlocks uint64 `json:"superblocks"`   // superblocks formed by this machine
	BlockRuns   uint64 `json:"block_runs"`    // completed basic-block executions (superblock runs included)
	ChainHits   uint64 `json:"chain_hits"`    // block transitions resolved through a chain pointer
	Fallbacks   uint64 `json:"fallbacks"`     // RunNative calls that delegated to another engine
	SBRuns      uint64 `json:"sb_runs"`       // complete superblock stream executions
	SBSideExits uint64 `json:"sb_side_exits"` // superblock streams exited before completion
	SlowRuns    uint64 `json:"slow_runs"`     // block executions dispatched on the per-block path
	Steps       uint64 `json:"steps"`         // dispatch steps executed in completed block bodies
	FusedSteps  uint64 `json:"fused_steps"`   // of those, fused superinstructions (two source instrs)
	// ElidedChecks counts dynamically skipped host-side checks: tag or
	// granule checks the superblock dataflow pass proved redundant, times
	// the runs of the elements containing them. The simulated statistics
	// still charge every one of them (block accounting is static), so
	// this is purely a host-speed counter.
	ElidedChecks uint64 `json:"elided_checks"`
}

// Accumulate adds o's counters into n.
func (n *NativeStats) Accumulate(o *NativeStats) {
	n.Compiled += o.Compiled
	n.SuperBlocks += o.SuperBlocks
	n.BlockRuns += o.BlockRuns
	n.ChainHits += o.ChainHits
	n.Fallbacks += o.Fallbacks
	n.SBRuns += o.SBRuns
	n.SBSideExits += o.SBSideExits
	n.SlowRuns += o.SlowRuns
	n.Steps += o.Steps
	n.FusedSteps += o.FusedSteps
	n.ElidedChecks += o.ElidedChecks
}
