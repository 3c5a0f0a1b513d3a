package mipsx

// decoded is the predecoded form of one Instr, computed once per Program
// and consumed by block translation (blocks.go) and the block engines'
// accounting. Everything they would otherwise recompute per instruction
// is resolved here:
// the cycle cost (Op.Cycles), the read-register set as a bitmask (the
// load-interlock test becomes one AND), and the BySub accounting
// predicate on the category.
type decoded struct {
	imm    int32
	target int32
	// readMask has bit r set when the instruction reads register r; bit 0
	// (RZero) is never set, mirroring regsRead.
	readMask uint32
	// wmask is the interlock mask a load leaves behind: the bit of rd,
	// except RZero which never interlocks.
	wmask   uint32
	cycles  uint32
	op      Op
	rd      uint8
	rs1     uint8
	rs2     uint8
	tag     uint8
	cat     Category
	sub     SubCat
	rtCheck bool
	subbed  bool // cat is CatTagExtract or CatTagCheck (BySub accounting)
	squash  bool
	// slotsNop marks branches/jumps whose two delay slots are both NOPs,
	// letting the block engines consume the slots without dispatching them.
	slotsNop bool
}

// Predecode forces construction of the predecoded instruction stream used
// by the translated and native engines, so the one-time decode cost lands
// at image-load time rather than on the first simulated instruction. The
// engines call it implicitly; callers that time execution (benchmarks, the
// sweep harness) call it up front.
func (p *Program) Predecode() { p.predecode() }

func (p *Program) predecode() []decoded {
	p.predecodeOnce.Do(func() {
		dec := make([]decoded, len(p.Instrs))
		for i := range p.Instrs {
			in := &p.Instrs[i]
			rs, n := in.regsRead()
			var mask uint32
			for k := 0; k < n; k++ {
				mask |= 1 << rs[k]
			}
			dec[i] = decoded{
				op:       in.Op,
				rd:       in.Rd,
				rs1:      in.Rs1,
				rs2:      in.Rs2,
				tag:      in.Tag,
				cat:      in.Cat,
				sub:      in.Sub,
				rtCheck:  in.RTCheck,
				subbed:   in.Cat == CatTagCheck || in.Cat == CatTagExtract,
				squash:   in.Squash,
				imm:      in.Imm,
				target:   int32(in.Target),
				cycles:   uint32(in.Op.Cycles()),
				readMask: mask,
				wmask:    (1 << (in.Rd & 31)) &^ 1,
				slotsNop: i+2 < len(p.Instrs) &&
					p.Instrs[i+1].Op == NOP && p.Instrs[i+2].Op == NOP,
			}
		}
		p.dec = dec
	})
	return p.dec
}
