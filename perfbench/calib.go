package main

import "time"

// The reference machine is a shared 2-vCPU VM whose speed changes from one
// second to the next and from one minute to the next: a fixed spin loop
// takes anywhere from 1x to 2x its fastest time, with process CPU time equal
// to wall time, so CPU-time metrics are no steadier. Every end-to-end
// timing is therefore scaled to a reference host speed. A fixed reference
// loop, written here and sharing no code with the program, is timed next to
// the operations, and each operation's host time is multiplied by
// refNominal ÷ the loop's time around it. Work the host slows uniformly
// cancels out; work the program itself does, or stops doing, does not.

// refNominal is the reference loop's time on the reference machine in its
// faster state, so scaled times read close to host milliseconds there.
const refNominal = 2500 * time.Microsecond

// refSteps sizes the reference loop to about refNominal.
const refSteps = 400_000

// refTable is the reference loop's read-only input: 64 KB, so its loads hit
// the caches the way an interpreter's tables do.
var refTable = func() *[1 << 14]uint32 {
	var t [1 << 14]uint32
	for i := range t {
		t[i] = uint32(i*2654435761) >> 7
	}
	return &t
}()

// refSink keeps the reference loop's result live.
var refSink uint32

// refTime runs the reference loop once and returns its host time. The loop
// is a small interpreter: a dispatch switch, data-dependent branches,
// loads, and stores to a scratch array that starts zeroed, so every call
// does identical work.
func refTime() time.Duration {
	start := time.Now()
	var scratch [256]uint32
	acc, pc := uint32(1), uint32(0)
	for i := 0; i < refSteps; i++ {
		op := refTable[pc%uint32(len(refTable))]
		switch op & 7 {
		case 0:
			acc += op
		case 1:
			acc ^= op << 3
		case 2:
			acc = acc*33 + 7
		case 3:
			scratch[acc&255] += op
		case 4:
			acc -= op >> 2
		case 5:
			acc = acc>>1 | acc<<31
		case 6:
			pc += acc & 15
		default:
			acc += scratch[op&255]
		}
		pc++
	}
	refSink = acc
	return time.Since(start)
}

// speedScale converts host time measured between two reference timings to
// reference time.
func speedScale(before, after time.Duration) float64 {
	return 2 * float64(refNominal) / float64(before+after)
}

// paced runs n operations back to back on one goroutine with the reference
// loop between them, and scales each by the reference timings on either
// side of it.
func paced(n int, op func(k int) opRecord) []opRecord {
	recs := make([]opRecord, n)
	before := refTime()
	for k := range recs {
		recs[k] = op(k)
		after := refTime()
		recs[k].scale = speedScale(before, after)
		before = after
	}
	return recs
}
