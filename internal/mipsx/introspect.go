package mipsx

// Engine introspection: a read-only summary of a Program's lazily built
// translation and superblock state, safe to take while machines
// are running (everything here is read through the same atomics the
// engines publish with). The numbers describe the shared per-Program
// caches — block formation, superinstruction fusion, chain and
// inline-cache fill — not any one machine's run; per-run execution
// counters live in TransStats/NativeStats.

// EngineIntrospection is the snapshot returned by Program.Introspect.
type EngineIntrospection struct {
	// Instrs is the length of the resolved instruction stream.
	Instrs int `json:"instrs"`
	// Blocks is the number of translated basic blocks; InstrsCovered the
	// source instructions their bodies cover (terminators excluded).
	Blocks        int `json:"blocks"`
	InstrsCovered int `json:"instrs_covered"`
	// BodySteps counts dispatch steps across all block bodies; FusedSteps
	// of those are superinstructions covering two or more source
	// instructions (fusion quality = FusedSteps/BodySteps).
	BodySteps  int `json:"body_steps"`
	FusedSteps int `json:"fused_steps"`
	// ChainedEdges counts terminator edges (taken + fall-through) whose
	// chain pointer has been filled, out of 2×Blocks possible.
	ChainedEdges int `json:"chained_edges"`
	// IndirectTerms is the number of blocks ending in an indirect jump;
	// ICachedTerms of those have a populated inline target cache.
	IndirectTerms int `json:"indirect_terms"`
	ICachedTerms  int `json:"icached_terms"`
	// SuperBlocks is the number of superblocks formed over hot chains,
	// flattening SuperBlockElems block elements in total.
	SuperBlocks     int `json:"superblocks"`
	SuperBlockElems int `json:"superblock_elems"`
	// Superblock dataflow-pass totals across all formed streams: the unit
	// count before optimization, the steps that survived it, the check
	// sites removed or weakened (tag and granule checks proved redundant
	// by the availability analysis), and the redundant pure steps dropped.
	SBRawSteps     int `json:"sb_raw_steps"`
	SBSteps        int `json:"sb_steps"`
	SBElidedChecks int `json:"sb_elided_checks"`
	SBDroppedSteps int `json:"sb_dropped_steps"`
	// TranslateUS and NativeCompileUS are the cumulative wall time the
	// lazy JIT phases have consumed for this program, in microseconds.
	TranslateUS     float64 `json:"translate_us"`
	NativeCompileUS float64 `json:"native_compile_us"`
}

// Introspect summarizes the program's translated-block and native caches.
func (p *Program) Introspect() EngineIntrospection {
	ei := EngineIntrospection{Instrs: len(p.Instrs)}
	tNS, nNS := p.JITTimes()
	ei.TranslateUS = float64(tNS.Nanoseconds()) / 1e3
	ei.NativeCompileUS = float64(nNS.Nanoseconds()) / 1e3
	if lp := p.blist.Load(); lp != nil {
		for _, b := range *lp {
			ei.Blocks++
			ei.InstrsCovered += int(b.bodyLen)
			ei.BodySteps += len(b.steps)
			ei.FusedSteps += int(b.fusedN)
			if b.term.tnext.Load() != nil {
				ei.ChainedEdges++
			}
			if b.term.fnext.Load() != nil {
				ei.ChainedEdges++
			}
			if b.term.kind == termJumpInd {
				ei.IndirectTerms++
				if b.term.icache.Load() != nil {
					ei.ICachedTerms++
				}
			}
		}
	}
	if np := p.nat.Load(); np != nil {
		if lp := np.sbs.Load(); lp != nil {
			for _, sb := range *lp {
				ei.SuperBlocks++
				ei.SuperBlockElems += len(sb.elems)
				ei.SBRawSteps += int(sb.rawSteps)
				ei.SBSteps += len(sb.steps)
				ei.SBElidedChecks += int(sb.elidedChecks)
				ei.SBDroppedSteps += int(sb.droppedSteps)
			}
		}
	}
	return ei
}
