package obs

import (
	"bufio"
	"fmt"
	"io"
)

// RingTracer is an event tracer with bounded memory: it retains the most
// recent Cap events, overwriting the oldest. Attach it to a Machine to
// keep the tail of an arbitrarily long run: a full instruction trace
// (EvInstr) plus the control-flow events, since an observed run executes on
// the reference engine.
type RingTracer struct {
	buf   []Event
	next  int
	total uint64
}

// DefaultRingCap is the event capacity used when NewRingTracer is given a
// non-positive one (64Ki events ≈ 1.5 MiB).
const DefaultRingCap = 1 << 16

// NewRingTracer returns a tracer retaining the last capacity events.
func NewRingTracer(capacity int) *RingTracer {
	if capacity <= 0 {
		capacity = DefaultRingCap
	}
	return &RingTracer{buf: make([]Event, capacity)}
}

// Event implements mipsx.Observer.
func (t *RingTracer) Event(e Event) {
	t.buf[t.next] = e
	t.next++
	if t.next == len(t.buf) {
		t.next = 0
	}
	t.total++
}

// Total returns the number of events offered since creation.
func (t *RingTracer) Total() uint64 { return t.total }

// Dropped returns how many events were overwritten.
func (t *RingTracer) Dropped() uint64 {
	if t.total <= uint64(len(t.buf)) {
		return 0
	}
	return t.total - uint64(len(t.buf))
}

// Events returns the retained events, oldest first.
func (t *RingTracer) Events() []Event {
	if t.total <= uint64(len(t.buf)) {
		out := make([]Event, t.next)
		copy(out, t.buf[:t.next])
		return out
	}
	out := make([]Event, 0, len(t.buf))
	out = append(out, t.buf[t.next:]...)
	out = append(out, t.buf[:t.next]...)
	return out
}

// WriteJSONL writes the retained events as JSON lines, each
// {"cycle":..,"kind":"..","pc":..,"target":..,"arg":..}, preceded by a
// header line recording totals so consumers can detect truncation.
func (t *RingTracer) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "{\"schema\":\"tagsim-events/v1\",\"total\":%d,\"dropped\":%d}\n",
		t.total, t.Dropped())
	for _, e := range t.Events() {
		fmt.Fprintf(bw, "{\"cycle\":%d,\"kind\":%q,\"pc\":%d,\"target\":%d,\"arg\":%d}\n",
			e.Cycle, e.Kind.String(), e.PC, e.Target, e.Arg)
	}
	return bw.Flush()
}

// Sampler forwards events to Next only during recurring cycle windows:
// the first Window cycles of every Period cycles, starting at cycle 0.
// It bounds tracing cost on long runs while still sampling activity
// across the whole execution. A zero Period forwards everything.
type Sampler struct {
	Next    Observer
	Period  uint64
	Window  uint64
	dropped uint64
}

// NewSampler samples window cycles out of every period.
func NewSampler(next Observer, period, window uint64) *Sampler {
	return &Sampler{Next: next, Period: period, Window: window}
}

// Event implements mipsx.Observer.
func (s *Sampler) Event(e Event) {
	if s.Period == 0 || e.Cycle%s.Period < s.Window {
		s.Next.Event(e)
		return
	}
	s.dropped++
}

// Dropped returns the number of events outside every sampling window.
func (s *Sampler) Dropped() uint64 { return s.dropped }
