package mipsx

// delaySlots is the number of delay slots after every control transfer,
// matching MIPS-X's two-slot delayed branches.
const delaySlots = 2

// schedule rewrites a raw instruction stream (with LABEL pseudo-instructions
// inline) into delayed-branch form: after every control transfer it places
// two delay-slot instructions. It fills slots by moving the instructions
// that immediately precede the branch when that is sound, and pads the rest
// with no-ops that inherit the branch's category — the paper charges unused
// delay slots after a tag-check branch to tag checking (§3.4).
//
// An instruction may move past a branch only when it does not feed the
// branch condition, does not touch the branch's link register, cannot trap,
// and is not itself inside another branch's delay-slot region (such an
// instruction must execute even when the earlier branch is taken, which a
// stolen slot would violate).
func schedule(in []Instr) []Instr {
	out := make([]Instr, 0, len(in)+len(in)/2)
	frozen := 0 // out[:frozen] may not be disturbed
	for k := 0; k < len(in); k++ {
		ins := in[k]
		switch {
		case ins.Op == LABEL:
			out = append(out, ins)
			frozen = len(out)
		case !ins.Op.IsControl():
			out = append(out, ins)
		default:
			var moved [delaySlots]Instr
			n := 0
			j := len(out)
			// A squashing branch annuls its slots when not taken, so
			// instructions from above (which must always execute) may
			// not move into them; fillSquashSlots fills them from the
			// branch target after resolution instead.
			for !ins.Squash && n < delaySlots && j > frozen && movable(&out[j-1], &ins) {
				j--
				n++
			}
			// out[j : j+n] moves into the slots, preserving order.
			copy(moved[:n], out[j:j+n])
			out = out[:j]
			// Fill remaining slots of a conditional branch from the
			// fall-through side: such instructions execute whether or
			// not the branch is taken, which is harmless only when
			// they write registers dead on the taken path.
			if ins.Op.IsCond() && !ins.Squash {
				for n < delaySlots && k+1 < len(in) && belowSafe(&in[k+1], &ins) {
					moved[n] = in[k+1]
					n++
					k++
				}
			}
			out = append(out, ins)
			out = append(out, moved[:n]...)
			for s := n; s < delaySlots; s++ {
				out = append(out, Instr{Op: NOP, Cat: ins.Cat, Sub: ins.Sub, RTCheck: ins.RTCheck})
			}
			frozen = len(out)
		}
	}
	return out
}

// belowSafe reports whether x, the instruction after conditional branch b,
// may move into b's delay slot. It then executes even when b is taken, so
// it must be a non-faulting ALU instruction whose destination is dead on
// the taken path: the R1 sequence scratch (never live across sequences and
// invisible to the collector) or a register b's emitter declared safe.
func belowSafe(x, b *Instr) bool {
	if x.Op.IsControl() || x.Op == LABEL || x.Op == SYS || x.Op == HALT || x.Op == NOP ||
		x.Op.CanTrap() || x.Op.IsStore() {
		return false
	}
	// Plain loads may fault on the taken path's garbage address;
	// tag-ignoring loads cannot fault and may fill slots.
	if x.Op == LD || x.Op == LDC {
		return false
	}
	w := x.regWritten()
	if w == RZero {
		return false // nothing written: keep the stream simple
	}
	if w == 1 {
		return true
	}
	return b.SafeRegs&(1<<w) != 0
}

// fillSquashSlots runs after label resolution. For every squashing branch
// whose delay slots are still no-ops, it copies the first instructions of
// the branch target into the slots and retargets the branch past them: when
// the branch is taken (the common case for loop back-edges) the slots do the
// target's first work; when it is not taken they are annulled. The original
// instructions remain in place, so other entries to the target are
// unaffected.
func fillSquashSlots(instrs []Instr) {
	for i := range instrs {
		b := &instrs[i]
		if !b.Op.IsCond() || !b.Squash {
			continue
		}
		for s := 0; s < delaySlots; s++ {
			slot := i + 1 + s
			if slot >= len(instrs) || instrs[slot].Op != NOP {
				break
			}
			t := int(b.Target)
			if t < 0 || t >= len(instrs) {
				break
			}
			c := instrs[t]
			if c.Op.IsControl() || c.Op.CanTrap() || c.Op == NOP || c.Op == HALT || c.Op == LABEL {
				break
			}
			instrs[slot] = c
			b.Target++
		}
	}
}

// movable reports whether x can be moved from immediately before branch b
// into one of b's delay slots.
func movable(x, b *Instr) bool {
	if x.Op.IsControl() || x.Op == LABEL || x.Op == SYS || x.Op == HALT || x.Op == NOP ||
		x.Op.CanTrap() {
		return false
	}
	xw := x.regWritten()
	if b.readMask()&(1<<xw) != 0 {
		return false
	}
	if bw := b.regWritten(); bw != RZero {
		if xw == bw || x.readMask()&(1<<bw) != 0 {
			return false
		}
	}
	return true
}
