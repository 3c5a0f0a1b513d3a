package rt_test

import (
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/mipsx"
	"repro/internal/programs"
	"repro/internal/rt"
)

// maxRetainedPerImage bounds the heap one image retains after a native
// run: its single instruction array, labels, units and static
// words, plus the translated blocks and superblock streams the run leaves
// with the program. Measured at 354–355 KB per comp image under
// high5+check (10 images, amd64, Go 1.24); the bound adds about 15% for
// allocator and toolchain drift.
const maxRetainedPerImage = 410 << 10

// TestImageFootprint builds 10 comp images from one compiled runtime, the
// way core.Runner builds them, runs each once on the native engine and
// keeps them all alive, then charges the retained heap growth to the
// images. Machines are dropped after their run. core.Runner keeps no
// image at all (its TestRunnerRetainsNoImage); this bounds what one
// caller that does keep images pays per image.
func TestImageFootprint(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs 10 images")
	}
	p := programs.MustByName("comp")
	cfg, err := core.ParseConfig("high5+check")
	if err != nil {
		t.Fatal(err)
	}
	opts := buildOpts(p, cfg)
	sys, err := rt.CompileRuntime(opts)
	if err != nil {
		t.Fatal(err)
	}
	const n = 10
	imgs := make([]*rt.Image, n)
	before := retainedHeap()
	for i := range imgs {
		img, err := sys.Build(p.Source, opts)
		if err != nil {
			t.Fatal(err)
		}
		m := img.NewMachine()
		m.MaxCycles = 2_000_000_000
		if err := m.RunEngine(mipsx.EngineNative); err != nil {
			t.Fatal(err)
		}
		if m.Native.SBRuns == 0 {
			t.Fatalf("image %d: the native run entered no superblock stream", i)
		}
		imgs[i] = img
	}
	per := (retainedHeap() - before) / n
	runtime.KeepAlive(imgs)
	runtime.KeepAlive(sys)
	t.Logf("retained %d KB per image", per>>10)
	if per > maxRetainedPerImage {
		t.Errorf("each image retains %d KB, want at most %d KB", per>>10, maxRetainedPerImage>>10)
	}
}

// retainedHeap returns the live heap after a full collection.
func retainedHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}
