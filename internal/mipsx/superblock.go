package mipsx

// Superblock formation for the native engine.
//
// A superblock is a straight-line path of hot chained blocks flattened into
// one specialized step stream: each element contributes its body steps, a
// conditional terminator contributes one edge pseudo-step that bails out of
// the stream when the branch resolves against the formed direction, and the
// terminator's delay slots ride along as ordinary steps (omitted entirely
// when the hot direction annuls them). One complete run of the stream
// charges the whole path with a single counter increment and a single
// precomputed cycle addition; the counter expands back into per-block body
// and direction counts at flush, which the translated engine's existing
// expansion then turns into exact per-instruction statistics. A side exit
// spills the completed prefix into the per-block counters immediately and
// resumes on the cold direction through the ordinary per-block path.
//
// Formation is seeded by the per-block execution counters: when a block's
// body count crosses the hot threshold on some machine, that machine walks
// the block's hot successors (unconditional jumps, falls, and conditional
// branches whose sampled direction is decisive) and publishes the stream
// program-wide. MaxCycles safety is a conservative entry guard: the stream
// is only entered when even its most expensive path cannot cross the cycle
// limit, so the in-stream steps need no limit checks; near the limit the
// runner stays on the per-block path, which faults exactly where the
// translated engine would.

import (
	"sync/atomic"
	"time"
)

const (
	// sbHotThreshold is the per-machine body count that triggers formation;
	// a head whose formation failed (typically for lack of direction
	// evidence this early) is retried with 8× and then 64× the warmup, by
	// which point the per-block counters have matured.
	sbHotThreshold = 32
	// sbRetrySlow is the body-count cadence (a power of two) at which
	// formation keeps being retried after the staged early attempts have
	// failed. An anchor can become formable arbitrarily late — most often
	// when a reformation upstream shortens a stream and leaves its tail
	// running per-block — so attempts are never exhausted, only spaced out.
	sbRetrySlow = 4096
	// sbMaxElems bounds a superblock's length; sbMinElems rejects degenerate
	// single-block "paths" not worth the stream overhead.
	sbMaxElems = 256
	sbMinElems = 2
	// sbMinDirSamples is the evidence needed before a conditional branch's
	// direction is trusted; the minority direction must stay under a quarter
	// of the samples for the edge to be considered decisive.
	sbMinDirSamples = 16
	// sbMaxPerProg caps the superblocks formed for one program.
	sbMaxPerProg = 1024
	// sbReformCheck is the per-site side-exit cadence (a power of two) at
	// which a superblock is checked for a stale direction; sbMaxReforms
	// bounds the replacement streams formed from one head so an inherently
	// unstable branch cannot thrash formation.
	sbReformCheck = 1024
	sbMaxReforms  = 4
)

// sbRetryAt reports whether a head's body count has just crossed the
// formation threshold for attempt number a (0-based).
func sbRetryAt(a int32, body uint64) bool {
	switch a {
	case 0:
		return body == sbHotThreshold
	case 1:
		return body == sbHotThreshold*8
	case 2:
		return body == sbHotThreshold*64
	}
	return body&(sbRetrySlow-1) == 0
}

// sbElem is one block's contribution to a superblock.
type sbElem struct {
	b        *tblock
	hotTaken bool // direction the stream follows (termCond/termJump/termJumpInd)
	hasDir   bool // false for termFall, which bumps no direction counter
	// jrTgt is the matched target pc of a termJumpInd element; jrStall
	// records that jumping there triggers the slot-2 load interlock the
	// translator cannot resolve statically, so each full run of this
	// element charges one extra stall (folded into the cycle sums at
	// formation, credited to the stall statistics at expansion).
	jrTgt   int32
	jrStall bool
	// cycBefore is the cycles charged by a full hot execution of every
	// element before this one, used to reconstruct exact cycle counts at
	// side exits and faults.
	cycBefore uint64
	// Half-open step ranges of this element in the flat stream: body steps
	// in [stepLo, slotLo), delay-slot steps in [slotLo, stepHi).
	stepLo, slotLo, stepHi int32
	// elided counts the check sites the dataflow pass removed from this
	// element's steps; each element run skipped that many host-side
	// checks, counted into NativeStats.ElidedChecks at expansion (the
	// simulated statistics are static per element and never change).
	elided uint16
}

// sblock is one formed superblock. Per-machine execution counters index by
// exit site: nctr[exitBase+j] counts stream executions that left at
// element j (having fully executed elements [0, j)), and
// nctr[exitBase+len(elems)] counts complete runs — so a side exit is one
// counter bump, not a walk over its prefix, and the expansion at flush
// reconstructs every element's run count from one suffix sum.
type sblock struct {
	idx      int32 // dense index into nativeProg.sbs
	exitBase int32 // this superblock's slice of Machine.nctr
	elems    []sbElem
	steps    []tstep
	fullCyc  uint64 // cycles charged by one complete run
	maxCyc   uint64 // worst-case cycles any path through the stream charges
	nextPC   int32  // where execution continues after a complete run
	next     atomic.Pointer[tblock]
	// termB is set when the last element is terminal: a block whose
	// terminator direction the walk could not predict, riding along
	// body-only. A complete run then resumes at its terminator through the
	// ordinary machinery instead of chaining to nextPC.
	termB *tblock
	// reforms counts how many stale predecessors this stream has replaced
	// (see maybeReform).
	reforms int32
	// Static dataflow-pass results, for introspection: check sites
	// removed or weakened, redundant pure steps dropped, and the unit
	// count before optimization.
	elidedChecks int32
	droppedSteps int32
	rawSteps     int32
}

// hotOutcome picks the direction a superblock would follow out of b on
// machine m, or nil when the terminator is unsuitable or the evidence is
// not decisive.
func (m *Machine) hotOutcome(b *tblock) (o *outcome, hotTaken, hasDir bool) {
	t := &b.term
	switch t.kind {
	case termFall:
		return &t.fall, false, false
	case termJump:
		return &t.taken, true, true
	case termCond:
		if int(b.id) >= len(m.bctr) {
			return nil, false, false
		}
		c := &m.bctr[b.id]
		tk, fl := c.taken, c.fall
		minor := fl
		hotTaken = tk >= fl
		if !hotTaken {
			minor = tk
		}
		if tk+fl < sbMinDirSamples || 4*minor > tk+fl {
			return nil, false, false
		}
		if hotTaken {
			return &t.taken, true, true
		}
		return &t.fall, false, true
	}
	return nil, false, false
}

// formSuperblock walks the hot path from head using m's counters, builds
// the flat stream, and publishes it. Returns nil when no viable path
// exists. Caller holds p.tmu.
func (p *Program) formSuperblock(m *Machine, head *tblock, np *nativeProg) *sblock {
	t0 := time.Now()
	defer func() { p.nativeNS.Add(time.Since(t0).Nanoseconds()) }()
	var old []*sblock
	if lp := np.sbs.Load(); lp != nil {
		old = *lp
	}
	if len(old) >= sbMaxPerProg {
		return nil
	}

	type walked struct {
		b        *tblock
		o        *outcome
		hotTaken bool
		hasDir   bool
		isJr     bool
		jrTgt    int32
		jrStall  bool
	}
	var path []walked
	// terminal is set when the walk stops at a block whose terminator
	// direction it cannot predict (a balanced or cold conditional, an
	// unguessable indirect jump, a syscall): the block still rides along
	// body-only as the stream's last element, so its body runs at stream
	// speed and a complete run resumes at its terminator through the
	// ordinary machinery.
	var terminal *tblock
	// rstack tracks the call structure of the walked path: a linking jump
	// pushes its return address, and a jr through RA pops it — the return
	// target of a call made inside the stream is known exactly, not
	// guessed from the icache (returns are polymorphic across call sites,
	// so the icache's promoted target would mispredict for every call
	// site but the first).
	var rstack []int32
	b := head
	for len(path) < sbMaxElems {
		var w walked
		var npc int32
		if t := &b.term; t.kind == termJumpInd {
			var tgt int32 = -1
			if !t.link && t.rs1 == RRA && len(rstack) > 0 {
				tgt = rstack[len(rstack)-1]
				rstack = rstack[:len(rstack)-1]
			} else if ce := t.icache.Load(); ce != nil {
				// An indirect call or an unmatched return: the hot
				// target is whatever the chaining icache promoted; the
				// stream guards on it and side-exits when the register
				// disagrees.
				tgt = ce.pc
			}
			if tgt < 0 {
				terminal = b
				break
			}
			w = walked{b: b, o: &t.taken, hotTaken: true, hasDir: true,
				isJr: true, jrTgt: tgt}
			w.jrStall = !t.slotsNop && t.taken.s2wmask != 0 &&
				uint(tgt) < uint(len(p.dec)) &&
				p.dec[tgt].readMask&t.taken.s2wmask != 0
			npc = tgt
		} else {
			o, hotTaken, hasDir := m.hotOutcome(b)
			if o == nil {
				terminal = b
				break
			}
			w = walked{b: b, o: o, hotTaken: hotTaken, hasDir: hasDir}
			npc = o.nextPC
		}
		if b.term.link {
			rstack = append(rstack, int32(int(b.term.pc)+1+delaySlots))
		}
		path = append(path, w)
		if uint(npc) >= uint(len(p.tblocks)) {
			break
		}
		nb := p.tblocks[npc].Load()
		if nb == nil {
			break
		}
		// Revisited blocks are allowed: a path that closes into a loop
		// keeps walking around it, unrolling the loop into the stream up
		// to the element cap. A full run of an unrolled loop covers
		// several iterations with one counter bump, and the iteration
		// count never divides the unroll factor evenly for free — the
		// final partial pass leaves through an ordinary side exit.
		b = nb
	}
	elemCount := len(path)
	if terminal != nil {
		elemCount++
	}
	if elemCount < sbMinElems {
		return nil
	}

	sb := &sblock{idx: int32(len(old))}
	dec := p.dec
	var units []sbUnit
	bodyUnits := func(b *tblock, elem int) {
		for pc := int(b.start); pc < int(b.start)+int(b.bodyLen); pc++ {
			if d := &dec[pc]; d.op != NOP {
				units = append(units, sbUnit{s: singleStep(d, pc), elem: int32(elem)})
			}
		}
	}
	var cyc, maxCyc uint64
	for j, w := range path {
		t := &w.b.term
		e := sbElem{
			b: w.b, hotTaken: w.hotTaken, hasDir: w.hasDir,
			jrTgt: w.jrTgt, jrStall: w.jrStall, cycBefore: cyc,
		}
		bodyUnits(w.b, j)
		switch t.kind {
		case termCond:
			hot := uint8(0)
			if w.hotTaken {
				hot = 1
			}
			units = append(units, sbUnit{s: tstep{
				kind: edgeKind(t.op), rd: uint8(t.op), rs1: t.rs1, rs2: t.rs2,
				tag: t.tag, imm: t.imm, rd2: uint8(j), rs3: hot, off: t.pc,
			}, elem: int32(j)})
		case termJumpInd:
			// Guard first, then the link write: the jump register is read
			// before a jalr clobbers RA, exactly as in the reference engine. A
			// jalr fuses the two into one step (kEdgeJrL).
			es := tstep{
				kind: kEdgeJr, rs1: t.rs1,
				imm: int32(uint32(w.jrTgt) << 2), rd2: uint8(j), off: t.pc,
			}
			if t.link {
				es.kind = kEdgeJrL
				es.imm2 = int32(uint32(int(t.pc)+1+delaySlots) << 2)
			}
			units = append(units, sbUnit{s: es, elem: int32(j)})
		case termJump:
			if t.link {
				units = append(units, sbUnit{s: tstep{
					kind: uint8(LI), n: 1, rd: RRA,
					imm: int32(uint32(int(t.pc)+1+delaySlots) << 2), off: t.pc,
				}, elem: int32(j)})
			}
		}
		if t.kind != termFall && !w.o.annul && !t.slotsNop {
			for i := range t.slots {
				if s := &t.slots[i]; s.kind != uint8(NOP) {
					units = append(units, sbUnit{s: *s, elem: int32(j), slot: true})
				}
			}
		}
		sb.elems = append(sb.elems, e)
		cyc += w.b.bodyCyc + w.o.cyc
		worst := t.taken.cyc
		if t.fall.cyc > worst {
			worst = t.fall.cyc
		}
		if w.jrStall {
			cyc++
			worst++
		}
		maxCyc += w.b.bodyCyc + worst
		sb.nextPC = npcOf(w.o, w.isJr, w.jrTgt)
	}
	if terminal != nil {
		sb.elems = append(sb.elems, sbElem{b: terminal, cycBefore: cyc})
		bodyUnits(terminal, len(path))
		cyc += terminal.bodyCyc
		maxCyc += terminal.bodyCyc
		sb.termB = terminal
	}
	sb.fullCyc, sb.maxCyc = cyc, maxCyc

	// The dataflow pass: elision, cross-element refusion, edge fusion.
	sopt := CurSBOpt()
	opt := optimizeUnits(units, len(sb.elems), &np.spec, sopt)
	sb.steps = opt.steps
	sb.elidedChecks = opt.elidedChecks
	sb.droppedSteps = opt.droppedSteps
	sb.rawSteps = opt.rawUnits
	for j := range sb.elems {
		e := &sb.elems[j]
		e.stepLo, e.slotLo, e.stepHi = opt.stepLo[j], opt.slotLo[j], opt.stepHi[j]
		e.elided = opt.elided[j]
	}
	sb.exitBase = np.exitLen.Load()
	np.exitLen.Store(sb.exitBase + int32(len(sb.elems)) + 1)

	list := make([]*sblock, len(old)+1)
	copy(list, old)
	list[len(old)] = sb
	np.sbs.Store(&list)
	return sb
}

// npcOf is where execution continues after a full hot execution of an
// element: the outcome's static successor, or the matched target for an
// indirect jump (whose outcome has no static successor).
func npcOf(o *outcome, isJr bool, jrTgt int32) int32 {
	if isJr {
		return jrTgt
	}
	return o.nextPC
}

// growBctr returns the counter cell for block id, growing the per-machine
// array (with headroom) when execution or expansion reaches a block past
// its current size.
func (m *Machine) growBctr(id int32) *blockCtr {
	if int(id) >= len(m.bctr) {
		grown := make([]blockCtr, int(id)+64)
		copy(grown, m.bctr)
		m.bctr = grown
	}
	return &m.bctr[id]
}

// creditJrStall credits n occurrences of an indirect-jump element's
// slot-2 load interlock to the stall statistics (the extra cycle itself is
// folded into the superblock's cycle sums at formation).
func (m *Machine) creditJrStall(e *sbElem, n uint64) {
	if !e.jrStall {
		return
	}
	s2 := e.b.term.slot2
	st := &m.Stats
	st.Stalls += n
	st.ByCat[s2.cat] += n
	if s2.rtCheck {
		st.ByRTSub[s2.sub] += n
	}
}

// markSBExit records one stream execution of sb that left at element j —
// after fully executing elements [0, j) — growing the per-machine exit
// counters (with headroom) when a superblock formed after this machine was
// created is counted for the first time. j == len(elems) marks a complete
// run.
func (m *Machine) markSBExit(sb *sblock, j int32) {
	i := int(sb.exitBase) + int(j)
	if i >= len(m.nctr) {
		need := m.Prog.nat.Load().exitLen.Load()
		grown := make([]uint64, int(need)+64)
		copy(grown, m.nctr)
		m.nctr = grown
	}
	m.nctr[i]++
}

// maybeReform replaces a superblock whose guarded direction at element j
// has gone stale. Formation locks directions in from early samples; when a
// branch's behavior shifts, one exit site starts absorbing most entries
// and the stream aborts there forever. Every sbReformCheck exits at one
// site, the machine compares that site's count against the runs that made
// it past the element; when the exits dominate, it folds the exit counters
// into the per-block evidence — which then reflects the directions the
// aborted runs actually took — and forms a replacement stream from the
// same head. The stale stream stays registered (its remaining counters
// expand normally at flush); only the head's anchor moves.
func (m *Machine) maybeReform(sb *sblock, j int32) {
	base := int(sb.exitBase)
	exits := m.nctr[base+int(j)]
	if exits&(sbReformCheck-1) != 0 || sb.reforms >= sbMaxReforms {
		return
	}
	hi := base + len(sb.elems)
	if hi >= len(m.nctr) {
		hi = len(m.nctr) - 1
	}
	var past uint64
	for k := base + int(j) + 1; k <= hi; k++ {
		past += m.nctr[k]
	}
	if exits <= 2*past {
		return
	}
	head := sb.elems[0].b
	bn := head.nat.Load()
	if bn == nil || bn.sb.Load() != sb {
		return
	}
	p := m.Prog
	np := p.nat.Load()
	if np == nil {
		return
	}
	m.expandSBCtrs()
	p.tmu.Lock()
	if bn.sb.Load() == sb {
		if nsb := p.formSuperblock(m, head, np); nsb != nil {
			nsb.reforms = sb.reforms + 1
			bn.sb.Store(nsb)
			m.Native.SuperBlocks++
		}
	}
	p.tmu.Unlock()
}

// expandSBCtrs folds the per-machine superblock exit-site counters into
// the per-block counters, from which the shared flush expansion
// reconstructs exact per-instruction statistics. An execution that left at
// element j ran every element before j, so element k's run count is the
// suffix sum of the exits past it. Called at flush before the per-block
// expansion. Each element run also executed that element's optimized
// steps, so its elided host-side checks accumulate into the engine
// counters here (they have no effect on the simulated statistics, which
// are static per element).
func (m *Machine) expandSBCtrs() {
	np := m.Prog.nat.Load()
	if np == nil {
		return
	}
	lp := np.sbs.Load()
	if lp == nil {
		return
	}
	for _, sb := range *lp {
		base := int(sb.exitBase)
		last := base + len(sb.elems)
		// The counters may stop short of this superblock's range: markSBExit
		// grows them only when the marked slot itself overflows, so exits at
		// early elements can land in a previous grow's headroom while the
		// range's tail lies past the end. Slots past the end were provably
		// never marked (marking one would have grown the array past it), so
		// the scan clamps to the allocated length rather than skipping.
		if last >= len(m.nctr) {
			last = len(m.nctr) - 1
		}
		if last < base {
			continue
		}
		var runs uint64
		for k := last; k > base; k-- {
			runs += m.nctr[k]
			m.nctr[k] = 0
			if runs == 0 {
				continue
			}
			e := &sb.elems[k-1-base]
			c := m.growBctr(e.b.id)
			c.body += runs
			if e.elided != 0 {
				m.Native.ElidedChecks += runs * uint64(e.elided)
			}
			if e.hasDir {
				if e.hotTaken {
					c.taken += runs
				} else {
					c.fall += runs
				}
			}
			m.creditJrStall(e, runs)
		}
		m.nctr[base] = 0
	}
}
