package core

import (
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/programs"
	"repro/internal/rt"
	"repro/internal/tags"
)

// sameImage reports the first difference between two images of one
// (program, config), or "" when the code, labels, units, procedure table
// and a fresh machine's memory and registers all match.
func sameImage(a, b *rt.Image) string {
	switch {
	case !slices.Equal(a.Prog.Instrs, b.Prog.Instrs) || a.Prog.Entry != b.Prog.Entry:
		return "code"
	case !reflect.DeepEqual(a.Prog.Labels, b.Prog.Labels):
		return "labels"
	case !reflect.DeepEqual(a.Units, b.Units):
		return "units"
	case len(a.Procedures) != len(b.Procedures):
		return "procedures"
	}
	for name, fa := range a.Procedures {
		fb := b.Procedures[name]
		if fb == nil || fa.Name != fb.Name || fa.NArgs != fb.NArgs || fa.Instrs != fb.Instrs {
			return "procedure " + name
		}
	}
	ma, mb := a.NewMachine(), b.NewMachine()
	if !slices.Equal(ma.Mem, mb.Mem) {
		return "memory"
	}
	if ma.Regs != mb.Regs {
		return "registers"
	}
	return ""
}

// TestSharedRuntimeConcurrentBuilds builds mixed programs × configs from
// several goroutines through one Runner, so first builds of one runtime
// key race each other and later builds extend a runtime other goroutines
// are extending too. Every image must equal a serial rt.Build.
func TestSharedRuntimeConcurrentBuilds(t *testing.T) {
	ps := []*programs.Program{
		programs.MustByName("comp"), programs.MustByName("dedgc"),
		programs.MustByName("trav"), programs.MustByName("boyer"),
	}
	cfgs := []Config{
		Baseline(false), Baseline(true),
		{Scheme: tags.Low3, HW: Table2Rows[6].HW, Checking: true},
		{Scheme: tags.High6, HW: tags.HW{ArithTrap: true}, Checking: true},
		{Scheme: tags.High5, HW: tags.HW{Memtag: true, MemtagHW: true}},
	}
	type pair struct {
		p   *programs.Program
		cfg Config
	}
	var pairs []pair
	for _, cfg := range cfgs {
		for _, p := range ps {
			pairs = append(pairs, pair{p, cfg})
		}
	}

	r := NewRunner()
	const workers = 4
	imgs := make([]*rt.Image, len(pairs))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(pairs); i += workers {
				pr := pairs[i]
				img, err := r.imageFor(pr.p, pr.cfg, pr.p.Name+"/"+pr.cfg.Key(), obs.NewTimeline())
				if err != nil {
					t.Error(err)
					return
				}
				imgs[i] = img
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for i, pr := range pairs {
		want, err := rt.Build(pr.p.Source, rt.BuildOptions{
			Scheme: pr.cfg.Scheme, HW: pr.cfg.HW, Checking: pr.cfg.Checking, HeapWords: pr.p.HeapWords,
		})
		if err != nil {
			t.Fatal(err)
		}
		if diff := sameImage(imgs[i], want); diff != "" {
			t.Errorf("%s %s: concurrent build differs from serial build in %s", pr.p.Name, pr.cfg, diff)
		}
	}
	// Four non-memtag configs share a runtime across heap sizes; the memtag
	// config needs one per heap size (dedgc's differs).
	if got := len(r.runtimes); got != 6 {
		t.Errorf("runner holds %d runtimes, want 6", got)
	}
}

// TestSharedRuntimeBuildErrors checks that a program the compiler rejects
// reports the same error as a single-pass build did, and leaves the cached
// runtime usable for the next program.
func TestSharedRuntimeBuildErrors(t *testing.T) {
	r := NewRunner()
	cfg := Baseline(true)
	prefix := "inline-x/" + cfg.Key() + ": build: "
	for _, tc := range []struct{ src, want string }{
		{"(defun generic-add (x y) 0)\n(generic-add 1 2)", "compile generic-add: redefined"},
		{"(defun sys-gc () 0)", "compile sys-gc: redefined"},
		{"(defun main () 1)", "compile main: redefined"},
		{"(frobnicate 1)", `compile main: call to undefined function "frobnicate"`},
		{"(car (cdr '(1 2)", "program: line 1: unterminated list"},
	} {
		_, err := r.Run(&programs.Program{Name: "inline-x", Source: tc.src}, cfg)
		if err == nil || err.Error() != prefix+tc.want {
			t.Errorf("%q: error %v, want %q", tc.src, err, prefix+tc.want)
		}
	}
	if got := len(r.runtimes); got != 1 {
		t.Fatalf("runner holds %d runtimes, want 1", got)
	}
	p := programs.MustByName("comp")
	res, err := r.Run(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := NewRunner().Run(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats != fresh.Stats || res.Value != fresh.Value {
		t.Errorf("run on the reused runtime: %+v %s, fresh runner: %+v %s", res.Stats, res.Value, fresh.Stats, fresh.Value)
	}
}

// TestSharedRuntimePhases pins the build spans: parse is the program's
// parse alone, and the runtime's compilation is one more compile span, on
// the first build of its key only.
func TestSharedRuntimePhases(t *testing.T) {
	r := NewRunner()
	cfg := Baseline(false)
	count := func(res *Result) (parse, compile int) {
		for _, s := range res.Phases {
			switch s.Phase {
			case obs.PhaseParse:
				parse++
			case obs.PhaseCompile:
				compile++
			}
		}
		return parse, compile
	}
	for i, tc := range []struct {
		prog           string
		parse, compile int
	}{{"comp", 1, 2}, {"trav", 1, 1}} {
		res, err := r.Run(programs.MustByName(tc.prog), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if parse, compile := count(res); parse != tc.parse || compile != tc.compile {
			t.Errorf("build %d (%s): %d parse and %d compile spans, want %d and %d",
				i+1, tc.prog, parse, compile, tc.parse, tc.compile)
		}
	}
}
