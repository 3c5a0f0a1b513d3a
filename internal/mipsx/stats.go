package mipsx

import "fmt"

// Stats accumulates execution statistics. Every executed cycle is attributed
// to exactly one Category; cycles spent in tag checks are additionally
// attributed to a SubCat, and cycles of instructions that exist only because
// run-time checking is enabled are tracked per SubCat for the Table 1
// breakdown.
type Stats struct {
	Cycles uint64
	Instrs uint64

	ByCat    [NumCat]uint64
	BySub    [NumSub]uint64 // cycles of tag extract/check instructions per cause
	ByRTSub  [NumSub]uint64 // cycles of run-time-checking-only instructions per cause
	ByOp     [NumOps]uint64 // executed instruction counts per opcode
	Squashed uint64         // annulled delay-slot instructions
	Stalls   uint64         // load-interlock stall cycles
	Traps    uint64         // hardware trap entries

	GCs       uint64 // copying-collector invocations (via SysGCNotify)
	GCWords   uint64 // words copied by the collector
	ErrorCode int32  // last SysError code, 0 if none
	ErrorItem uint32 // offending item of the last SysError
}

func (s *Stats) add(in *Instr, cycles uint64) {
	s.Cycles += cycles
	s.Instrs++
	s.ByCat[in.Cat] += cycles
	s.ByOp[in.Op]++
	if in.Cat == CatTagCheck || in.Cat == CatTagExtract {
		s.BySub[in.Sub] += cycles
	}
	if in.RTCheck {
		s.ByRTSub[in.Sub] += cycles
	}
}

// stall attributes n load-interlock stall cycles of a load of category
// cat and subcategory sub: to Stalls, to the load's category and, for a
// load that exists only for run-time checking, to its ByRTSub cause. The
// caller charges the cycles themselves.
func (s *Stats) stall(cat Category, sub SubCat, rtCheck bool, n uint64) {
	s.Stalls += n
	s.ByCat[cat] += n
	if rtCheck {
		s.ByRTSub[sub] += n
	}
}

// TagCycles returns the cycles spent on all tag handling: insertion, removal
// and checking (checking includes extraction and unused delay slots of check
// branches, per the paper's costing).
func (s *Stats) TagCycles() uint64 {
	return s.ByCat[CatTagInsert] + s.ByCat[CatTagRemove] + s.ByCat[CatTagExtract] + s.ByCat[CatTagCheck]
}

// CheckInvariants verifies the accounting identities every run must
// satisfy, whichever engine produced the numbers:
//
//   - category cycles sum to total cycles, except that trap entry/return
//     overhead (TrapCycles per transition) is charged to no category, so
//     with traps the category sum may only fall short, never exceed;
//   - tag-handling cycles are a subset of all cycles;
//   - per-opcode execution counts sum to Instrs minus the annulled delay
//     slots, which retire without an opcode.
//
// A violation means an engine is double- or under-charging somewhere, which
// would silently corrupt every table in the paper reproduction.
func (s *Stats) CheckInvariants() error {
	var cat uint64
	for _, c := range s.ByCat {
		cat += c
	}
	if cat > s.Cycles {
		return fmt.Errorf("category cycles %d exceed total cycles %d", cat, s.Cycles)
	}
	if cat != s.Cycles && s.Traps == 0 {
		return fmt.Errorf("category cycles %d != total cycles %d with no traps", cat, s.Cycles)
	}
	if tc := s.TagCycles(); tc > s.Cycles {
		return fmt.Errorf("tag cycles %d exceed total cycles %d", tc, s.Cycles)
	}
	var ops uint64
	for _, c := range s.ByOp {
		ops += c
	}
	if ops != s.Instrs-s.Squashed {
		return fmt.Errorf("opcode counts sum to %d, want Instrs-Squashed = %d",
			ops, s.Instrs-s.Squashed)
	}
	if s.Stalls > s.Cycles {
		return fmt.Errorf("stall cycles %d exceed total cycles %d", s.Stalls, s.Cycles)
	}
	return nil
}

// Pct returns 100*part/total, or 0 when total is zero.
func Pct(part, total uint64) float64 {
	if total == 0 {
		return 0
	}
	return 100 * float64(part) / float64(total)
}

// CatPct returns the percentage of all cycles attributed to c.
func (s *Stats) CatPct(c Category) float64 { return Pct(s.ByCat[c], s.Cycles) }
