package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/mipsx"
)

type eventLog struct{ events []Event }

func (l *eventLog) Event(e Event) { l.events = append(l.events, e) }

func ev(cycle uint64, kind mipsx.EventKind) Event {
	return Event{Cycle: cycle, Kind: kind, Target: -1}
}

func TestTee(t *testing.T) {
	if Tee() != nil || Tee(nil, nil) != nil {
		t.Error("Tee of no observers should be nil")
	}
	var a eventLog
	if Tee(nil, &a) != &a {
		t.Error("Tee of one observer should be the observer itself")
	}
	var b eventLog
	Tee(&a, &b).Event(ev(1, mipsx.EvBranch))
	if len(a.events) != 1 || len(b.events) != 1 {
		t.Errorf("Tee did not fan out: %d/%d events", len(a.events), len(b.events))
	}
}

func TestRingTracerWrap(t *testing.T) {
	r := NewRingTracer(4)
	for i := uint64(0); i < 10; i++ {
		r.Event(ev(i, mipsx.EvBranch))
	}
	if r.Total() != 10 {
		t.Errorf("Total = %d, want 10", r.Total())
	}
	if r.Dropped() != 6 {
		t.Errorf("Dropped = %d, want 6", r.Dropped())
	}
	got := r.Events()
	if len(got) != 4 {
		t.Fatalf("retained %d events, want 4", len(got))
	}
	for i, e := range got {
		if e.Cycle != uint64(6+i) {
			t.Errorf("event %d has cycle %d, want %d (oldest first)", i, e.Cycle, 6+i)
		}
	}
}

func TestRingTracerPartial(t *testing.T) {
	r := NewRingTracer(8)
	r.Event(ev(1, mipsx.EvCall))
	r.Event(ev(2, mipsx.EvReturn))
	if r.Dropped() != 0 {
		t.Errorf("Dropped = %d, want 0", r.Dropped())
	}
	if got := r.Events(); len(got) != 2 || got[0].Cycle != 1 || got[1].Cycle != 2 {
		t.Errorf("Events = %+v", got)
	}
	if cap := NewRingTracer(0); len(cap.buf) != DefaultRingCap {
		t.Errorf("default capacity = %d, want %d", len(cap.buf), DefaultRingCap)
	}
}

func TestRingTracerJSONL(t *testing.T) {
	r := NewRingTracer(2)
	r.Event(Event{Cycle: 5, Kind: mipsx.EvBranch, PC: 10, Target: 3})
	r.Event(Event{Cycle: 9, Kind: mipsx.EvHalt, PC: 12, Target: -1})
	r.Event(Event{Cycle: 11, Kind: mipsx.EvGC, PC: 2, Target: -1, Arg: 64})
	var buf bytes.Buffer
	if err := r.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	var lines []map[string]any
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("line %q is not JSON: %v", sc.Text(), err)
		}
		lines = append(lines, m)
	}
	if len(lines) != 3 { // header + 2 retained events
		t.Fatalf("wrote %d lines, want 3", len(lines))
	}
	if lines[0]["schema"] != "tagsim-events/v1" || lines[0]["dropped"] != float64(1) {
		t.Errorf("header = %v", lines[0])
	}
	if lines[1]["kind"] != "halt" || lines[2]["kind"] != "gc" || lines[2]["arg"] != float64(64) {
		t.Errorf("events = %v / %v", lines[1], lines[2])
	}
}

func TestSampler(t *testing.T) {
	var log eventLog
	s := NewSampler(&log, 100, 10)
	for c := uint64(0); c < 250; c++ {
		s.Event(ev(c, mipsx.EvBranch))
	}
	// Windows [0,10), [100,110), [200,210) pass: 30 events.
	if len(log.events) != 30 {
		t.Errorf("forwarded %d events, want 30", len(log.events))
	}
	if s.Dropped() != 220 {
		t.Errorf("Dropped = %d, want 220", s.Dropped())
	}

	var all eventLog
	everything := NewSampler(&all, 0, 0)
	for c := uint64(0); c < 5; c++ {
		everything.Event(ev(c, mipsx.EvBranch))
	}
	if len(all.events) != 5 {
		t.Errorf("zero period forwarded %d events, want all 5", len(all.events))
	}
}

func TestRegistry(t *testing.T) {
	g := NewRegistry()
	g.Add("x", 2)
	g.Add("x", 3)
	g.Observe("h", 7)
	g.Observe("h", 7000)
	st := &mipsx.Stats{Cycles: 1000, Instrs: 900, Stalls: 50, Traps: 2, GCs: 1, GCWords: 64}
	g.RecordRun("boyer", "high5+check", st)
	g.RecordNative(&mipsx.NativeStats{SuperBlocks: 4, SBRuns: 9, Fallbacks: 1})

	s := g.Snapshot()
	if s.Counters["x"] != 5 {
		t.Errorf("counter x = %d, want 5", s.Counters["x"])
	}
	if s.Counters["runs_total"] != 1 || s.Counters["cycles_total"] != 1000 ||
		s.Counters["gc_words_total"] != 64 {
		t.Errorf("run counters = %v", s.Counters)
	}
	if s.Counters["cycles_total/boyer/high5+check"] != 1000 {
		t.Errorf("per-run counter missing: %v", s.Counters)
	}
	if s.Counters["native_superblocks_total"] != 4 ||
		s.Counters["native_superblock_runs_total"] != 9 ||
		s.Counters["native_fallbacks_total"] != 1 {
		t.Errorf("native counters = %v", s.Counters)
	}
	h := s.Histograms["h"]
	if h.Count != 2 || h.Sum != 7007 || h.Min != 7 || h.Max != 7000 {
		t.Errorf("histogram h = %+v", h)
	}
	if s.Histograms["run_cycles"].Count != 1 {
		t.Error("RecordRun did not observe run_cycles")
	}

	// The snapshot round-trips through JSON.
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.Counters["cycles_total"] != 1000 || back.Histograms["h"].Sum != 7007 {
		t.Errorf("JSON round-trip lost data: %+v", back)
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram([]float64{10, 100})
	for _, v := range []float64{1, 10, 11, 1000} {
		h.Observe(v)
	}
	s := h.snapshot()
	want := []uint64{2, 1, 1} // <=10, <=100, +Inf
	for i, c := range want {
		if s.Counts[i] != c {
			t.Errorf("bucket %d = %d, want %d", i, s.Counts[i], c)
		}
	}
	if h.Count() != 4 {
		t.Errorf("Count = %d, want 4", h.Count())
	}
}

// buildCallProg assembles main -> fn:a -> fn:b with a loop in fn:b,
// exercising call, return and taken-branch events under a profile.
func buildCallProg(t *testing.T) *mipsx.Program {
	t.Helper()
	a := mipsx.NewAsm()
	main := a.NewLabel("__start")
	fa := a.NewLabel("fn:a")
	fb := a.NewLabel("fn:b")
	loop := a.NewLabel("loop")
	a.Bind(main)
	a.Li(10, 0)
	a.Jal(fa)
	a.Halt()
	a.Bind(fa)
	a.Mov(20, 31)
	a.Jal(fb)
	a.Addi(10, 10, 1)
	a.Jr(20)
	a.Bind(fb)
	a.Li(13, 0)
	a.Bind(loop)
	a.Addi(10, 10, 2)
	a.Addi(13, 13, 1)
	a.Blti(13, 5, loop)
	a.Jr(31)
	p, err := a.Finish("__start")
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestCallTracerIntegration(t *testing.T) {
	p := buildCallProg(t)
	prof := mipsx.NewProfile(p, mipsx.IsFunctionLabel)
	m := mipsx.NewMachine(p, 1024, mipsx.HWConfig{TrapHandler: -1, CheckFailHandler: -1})
	m.MaxCycles = 1_000_000
	ct := NewCallTracer(prof, m.PC)
	ct.EnableChrome(0)
	m.Obs = ct
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	ct.Finish(m.Stats.Cycles)

	// Every simulated cycle is attributed to exactly one call path.
	var sum uint64
	for _, c := range ct.Folded() {
		sum += c
	}
	if sum != m.Stats.Cycles {
		t.Errorf("folded cycles sum %d, want Stats.Cycles %d", sum, m.Stats.Cycles)
	}
	var sawLeaf bool
	for path := range ct.Folded() {
		if strings.HasSuffix(path, "fn:a;fn:b") {
			sawLeaf = true
		}
	}
	if !sawLeaf {
		t.Errorf("no path ends in fn:a;fn:b: %v", ct.Folded())
	}

	var folded bytes.Buffer
	if err := ct.WriteFolded(&folded); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSpace(folded.String()), "\n") {
		if !strings.Contains(line, " ") {
			t.Errorf("folded line %q has no cycle count", line)
		}
	}

	var trace bytes.Buffer
	if err := ct.WriteChromeTrace(&trace); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Ts   uint64 `json:"ts"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(trace.Bytes(), &doc); err != nil {
		t.Fatalf("Chrome trace is not valid JSON: %v", err)
	}
	depth := 0
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "B":
			depth++
		case "E":
			depth--
			if depth < 0 {
				t.Fatal("Chrome trace closes more frames than it opens")
			}
		}
	}
	if depth != 0 {
		t.Errorf("Chrome trace left %d frames open", depth)
	}
	if ct.ChromeDropped() != 0 {
		t.Errorf("ChromeDropped = %d, want 0", ct.ChromeDropped())
	}
}

func TestCallTracerFinishIdempotent(t *testing.T) {
	p := buildCallProg(t)
	prof := mipsx.NewProfile(p, mipsx.IsFunctionLabel)
	ct := NewCallTracer(prof, 0)
	ct.Event(Event{Cycle: 5, Kind: mipsx.EvCall, Target: int32(p.Labels["fn:a"])})
	ct.Finish(10)
	ct.Finish(20) // no effect
	ct.Event(Event{Cycle: 30, Kind: mipsx.EvCall, Target: int32(p.Labels["fn:b"])})
	var sum uint64
	for _, c := range ct.Folded() {
		sum += c
	}
	if sum != 10 {
		t.Errorf("folded cycles after Finish = %d, want 10", sum)
	}
}

func TestCallTracerChromeCap(t *testing.T) {
	p := buildCallProg(t)
	prof := mipsx.NewProfile(p, mipsx.IsFunctionLabel)
	ct := NewCallTracer(prof, 0)
	ct.EnableChrome(2)
	fa := int32(p.Labels["fn:a"])
	for i := uint64(0); i < 10; i++ {
		ct.Event(Event{Cycle: i + 1, Kind: mipsx.EvCall, Target: fa})
		ct.Event(Event{Cycle: i + 2, Kind: mipsx.EvReturn, Target: 1})
	}
	if ct.ChromeDropped() == 0 {
		t.Error("expected dropped Chrome events past the cap")
	}
	// The folded attribution is never truncated.
	var sum uint64
	ct.Finish(30)
	for _, c := range ct.Folded() {
		sum += c
	}
	if sum != 30 {
		t.Errorf("folded cycles = %d, want 30", sum)
	}
}
