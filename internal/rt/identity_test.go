package rt_test

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/difftest"
	"repro/internal/programs"
	"repro/internal/rt"
)

// identityGolden holds one SHA-256 per (program, configuration) over
// everything a built image determines: the code, entry and labels, Table 3
// units, the procedure table, and a fresh machine's memory and registers.
// It was generated before the runtime was compiled once per configuration
// and images became sparse, so it pins both as invisible to the machine.
const identityGolden = "testdata/identity.golden"

// identityConfigs is the full hardware spectrum plus the memory-tagging
// spectrum: 52 configurations.
func identityConfigs() []core.Config {
	return append(difftest.Spectrum(), difftest.MemtagSpectrum()...)
}

func buildOpts(p *programs.Program, cfg core.Config) rt.BuildOptions {
	return rt.BuildOptions{Scheme: cfg.Scheme, HW: cfg.HW, Checking: cfg.Checking, HeapWords: p.HeapWords}
}

// imageHash hashes img and a fresh machine made from it. Label IDs are
// left out (they never reach the machine); memory is hashed as its length
// plus its non-zero words, which identifies it exactly.
func imageHash(img *rt.Image) string {
	h := sha256.New()
	var buf []byte
	put := func(vs ...uint64) {
		buf = buf[:0]
		for _, v := range vs {
			buf = binary.LittleEndian.AppendUint64(buf, v)
		}
		h.Write(buf)
	}
	b2u := func(b bool) uint64 {
		if b {
			return 1
		}
		return 0
	}
	prog := img.Prog
	put(uint64(len(prog.Instrs)), uint64(prog.Entry))
	for _, in := range prog.Instrs {
		put(uint64(in.Op), uint64(in.Rd), uint64(in.Rs1), uint64(in.Rs2), uint64(uint32(in.Imm)),
			uint64(in.Tag), uint64(in.Target), b2u(in.Squash), uint64(in.SafeRegs),
			uint64(in.Cat), uint64(in.Sub), b2u(in.RTCheck))
	}
	labels := make([]string, 0, len(prog.Labels))
	for name := range prog.Labels {
		labels = append(labels, name)
	}
	sort.Strings(labels)
	for _, name := range labels {
		fmt.Fprintf(h, "label %q %d\n", name, prog.Labels[name])
	}
	units := make([]string, 0, len(img.Units))
	for name := range img.Units {
		units = append(units, name)
	}
	sort.Strings(units)
	for _, name := range units {
		u := img.Units[name]
		fmt.Fprintf(h, "unit %q %d %d %d\n", name, u.Procedures, u.SourceLines, u.ObjectWords)
	}
	procs := make([]string, 0, len(img.Procedures))
	for name := range img.Procedures {
		procs = append(procs, name)
	}
	sort.Strings(procs)
	for _, name := range procs {
		fi := img.Procedures[name]
		fmt.Fprintf(h, "proc %q %q %d %d\n", name, fi.Name, fi.NArgs, fi.Instrs)
	}
	m := img.NewMachine()
	put(uint64(len(m.Mem)))
	for i, w := range m.Mem {
		if w != 0 {
			put(uint64(i), uint64(w))
		}
	}
	for _, r := range m.Regs {
		put(uint64(r))
	}
	return hex.EncodeToString(h.Sum(nil))
}

func readIdentityGolden(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(filepath.FromSlash(identityGolden))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) != 3 {
			t.Fatalf("malformed golden line %q", sc.Text())
		}
		want[fields[0]+" "+fields[1]] = fields[2]
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}

// TestImageIdentityGolden builds every benchmark program under every
// configuration with rt.Build and compares each image with the golden.
func TestImageIdentityGolden(t *testing.T) {
	want := readIdentityGolden(t)
	n := 0
	for _, p := range programs.All() {
		for _, cfg := range identityConfigs() {
			key := p.Name + " " + cfg.String()
			img, err := rt.Build(p.Source, buildOpts(p, cfg))
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			if got := imageHash(img); got != want[key] {
				t.Errorf("%s: image hash %s, golden %s", key, got, want[key])
			}
			n++
		}
	}
	if n != len(want) {
		t.Errorf("built %d images, golden has %d", n, len(want))
	}
}

// TestImageIdentitySharedRuntime builds the same 520 images by extending
// one compiled runtime per key, visiting the programs in a different order
// under every configuration. Outside memory tagging the key ignores the
// heap size, so programs with different HeapWords share a runtime.
func TestImageIdentitySharedRuntime(t *testing.T) {
	want := readIdentityGolden(t)
	ps := programs.All()
	heapSizes := make(map[rt.RuntimeKey]map[int]bool)
	for ci, cfg := range identityConfigs() {
		runtimes := make(map[rt.RuntimeKey]*rt.Runtime)
		for i := range ps {
			p := ps[(i*7+ci)%len(ps)]
			opts := buildOpts(p, cfg)
			key, err := opts.RuntimeKey()
			if err != nil {
				t.Fatal(err)
			}
			sys := runtimes[key]
			if sys == nil {
				if sys, err = rt.CompileRuntime(opts); err != nil {
					t.Fatal(err)
				}
				runtimes[key] = sys
				heapSizes[key] = make(map[int]bool)
			}
			heapSizes[key][p.HeapWords] = true
			img, err := sys.Build(p.Source, opts)
			if err != nil {
				t.Fatalf("%s %s: %v", p.Name, cfg, err)
			}
			if got, key := imageHash(img), p.Name+" "+cfg.String(); got != want[key] {
				t.Errorf("%s: shared-runtime image hash %s, golden %s", key, got, want[key])
			}
		}
	}
	mixed := false
	for _, sizes := range heapSizes {
		mixed = mixed || len(sizes) > 1
	}
	if !mixed {
		t.Error("no runtime served programs with different heap sizes")
	}
}
