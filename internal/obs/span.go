package obs

import (
	"encoding/json"
	"io"
	"time"
)

// Run phase names recorded on a Timeline. The build phases (parse,
// compile) come first, since every uncached run builds its image; new-machine
// is the construction of the run's machine from the image (memory
// template copy included), between build and execute; the JIT phases
// (translate, native-compile) are carved out of execute — block
// translation and superblock formation happen lazily while the engine
// runs — so their spans share execute's start offset and their durations
// overlap it rather than adding to it.
const (
	PhaseParse         = "parse"
	PhaseCompile       = "compile"
	PhaseNewMachine    = "new-machine"
	PhaseTranslate     = "translate"
	PhaseNativeCompile = "native-compile"
	PhaseExecute       = "execute"
	PhaseStatsFlush    = "stats-flush"
)

// Span is one timed phase of a run, positioned relative to the
// timeline's start on the monotonic clock.
type Span struct {
	Phase   string  `json:"phase"`
	StartUS float64 `json:"start_us"`
	DurUS   float64 `json:"dur_us"`
}

// Timeline records the phase spans of one run against a single monotonic
// origin. It is not safe for concurrent use; a run's phases are recorded
// by the goroutine leading the run. All methods are nil-safe so callers
// can thread an optional timeline without guarding every record.
type Timeline struct {
	t0    time.Time
	spans []Span
}

// NewTimeline starts a timeline; its origin is the call instant.
func NewTimeline() *Timeline { return &Timeline{t0: time.Now()} }

// Start opens a span for phase and returns the func that closes it.
func (tl *Timeline) Start(phase string) (end func()) {
	if tl == nil {
		return func() {}
	}
	begin := time.Now()
	return func() { tl.Record(phase, begin, time.Since(begin)) }
}

// Record adds a completed span that began at begin and lasted d.
func (tl *Timeline) Record(phase string, begin time.Time, d time.Duration) {
	if tl == nil {
		return
	}
	tl.spans = append(tl.spans, Span{
		Phase:   phase,
		StartUS: float64(begin.Sub(tl.t0).Nanoseconds()) / 1e3,
		DurUS:   float64(d.Nanoseconds()) / 1e3,
	})
}

// Spans returns the recorded spans in recording order.
func (tl *Timeline) Spans() []Span {
	if tl == nil {
		return nil
	}
	return tl.spans
}

// Elapsed is the time since the timeline's origin.
func (tl *Timeline) Elapsed() time.Duration {
	if tl == nil {
		return 0
	}
	return time.Since(tl.t0)
}

// TimelineDoc is the tagsim/v1 JSON shape of a run timeline, written by
// tagsim -span-out.
type TimelineDoc struct {
	Schema  string  `json:"schema"`
	Kind    string  `json:"kind"`
	Program string  `json:"program"`
	Config  string  `json:"config"`
	Engine  string  `json:"engine"`
	TotalUS float64 `json:"total_us"`
	Spans   []Span  `json:"spans"`
}

// Doc shapes the timeline for JSON export. schema is the caller's schema
// string (core.SchemaVersion for the tagsim CLI).
func (tl *Timeline) Doc(schema, program, config, engine string) *TimelineDoc {
	return &TimelineDoc{
		Schema:  schema,
		Kind:    "run-timeline",
		Program: program,
		Config:  config,
		Engine:  engine,
		TotalUS: float64(tl.Elapsed().Nanoseconds()) / 1e3,
		Spans:   tl.Spans(),
	}
}

// WriteJSON writes the doc as indented JSON.
func (d *TimelineDoc) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}
