package mipsx

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
)

// SuperblockDigest hashes every superblock formed for p so far, in
// formation order: each stream's steps, each element's block, direction,
// indirect-jump target and stall, cycle prefix, step ranges and elided
// count, and the stream's cycle sums and continuation pc. Two runs that
// form the same streams produce the same digest; n is the stream count.
func SuperblockDigest(p *Program) (digest string, n int) {
	h := sha256.New()
	var buf []byte
	put := func(vs ...uint64) {
		for _, v := range vs {
			buf = binary.LittleEndian.AppendUint64(buf, v)
		}
	}
	b2u := func(b bool) uint64 {
		if b {
			return 1
		}
		return 0
	}
	var sbs []*sblock
	if np := p.nat.Load(); np != nil {
		if lp := np.sbs.Load(); lp != nil {
			sbs = *lp
		}
	}
	for _, sb := range sbs {
		buf = buf[:0]
		put(uint64(len(sb.steps)))
		putSteps(put, sb.steps)
		put(uint64(len(sb.elems)))
		for i := range sb.elems {
			e := &sb.elems[i]
			put(uint64(e.b.id), b2u(e.hotTaken), b2u(e.hasDir), uint64(uint32(e.jrTgt)),
				b2u(e.jrStall), e.cycBefore, uint64(uint32(e.stepLo)), uint64(uint32(e.slotLo)),
				uint64(uint32(e.stepHi)), uint64(e.elided))
		}
		put(sb.fullCyc, sb.maxCyc, uint64(uint32(sb.nextPC)))
		h.Write(buf)
	}
	return hex.EncodeToString(h.Sum(nil)), len(sbs)
}

// BlockDigest hashes every block translated for p so far, in translation
// order: each block's dispatch steps and its fused-step count. Two runs
// that translate the same blocks into the same steps produce the same
// digest; n is the block count.
func BlockDigest(p *Program) (digest string, n int) {
	h := sha256.New()
	var buf []byte
	put := func(vs ...uint64) {
		for _, v := range vs {
			buf = binary.LittleEndian.AppendUint64(buf, v)
		}
	}
	var blocks []*tblock
	if lp := p.blist.Load(); lp != nil {
		blocks = *lp
	}
	for _, b := range blocks {
		buf = buf[:0]
		put(uint64(uint32(b.start)), uint64(len(b.steps)), b.fusedN)
		putSteps(put, b.steps)
		h.Write(buf)
	}
	return hex.EncodeToString(h.Sum(nil)), len(blocks)
}

// putSteps feeds every field of every step to put, for the digests above.
func putSteps(put func(...uint64), steps []tstep) {
	for i := range steps {
		s := &steps[i]
		put(uint64(s.kind), uint64(s.n), uint64(s.rd), uint64(s.rs1), uint64(s.rs2),
			uint64(s.tag), uint64(s.rd2), uint64(s.rs3),
			uint64(uint32(s.imm)), uint64(uint32(s.imm2)), uint64(uint32(s.off)))
	}
}
