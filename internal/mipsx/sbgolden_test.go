package mipsx_test

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/mipsx"
	"repro/internal/programs"
	"repro/internal/rt"
)

// streamGolden holds one SHA-256 per (program, configuration) over every
// superblock a single cold native run forms (mipsx.SuperblockDigest), plus
// the stream count. Formation is deterministic per machine, so any change
// to how streams are walked, built or optimized shows here; a change that
// only makes formation cheaper must leave every line as it is.
const streamGolden = "testdata/streams.golden"

// streamConfigs covers the high-tag and low-tag software-checking paths
// and the memory-tagging granule checks.
var streamConfigs = []string{"high5+check", "low3+check", "high5+check+memtag"}

// TestSuperblockStreamGolden runs every benchmark program cold on the
// native engine under each of streamConfigs and compares the formed
// streams with the golden. On a mismatch the log holds the full set of
// current lines in the golden's format.
func TestSuperblockStreamGolden(t *testing.T) {
	want := readStreamGolden(t)
	var got []string
	for _, p := range programs.All() {
		for _, name := range streamConfigs {
			cfg, err := core.ParseConfig(name)
			if err != nil {
				t.Fatal(err)
			}
			img, err := rt.Build(p.Source, rt.BuildOptions{
				Scheme: cfg.Scheme, HW: cfg.HW, Checking: cfg.Checking, HeapWords: p.HeapWords,
			})
			if err != nil {
				t.Fatalf("%s %s: %v", p.Name, name, err)
			}
			m := img.NewMachine()
			m.MaxCycles = 2_000_000_000
			if err := m.RunNative(); err != nil {
				t.Fatalf("%s %s: %v", p.Name, name, err)
			}
			digest, n := mipsx.SuperblockDigest(img.Prog)
			if n == 0 {
				t.Errorf("%s %s: no superblocks formed", p.Name, name)
			}
			key := p.Name + " " + name
			line := fmt.Sprintf("%s %d %s", key, n, digest)
			got = append(got, line)
			if want[key] != line {
				t.Errorf("%s: streams %d %s, golden %q", key, n, digest, want[key])
			}
		}
	}
	if len(got) != len(want) {
		t.Errorf("ran %d cells, golden has %d", len(got), len(want))
	}
	if t.Failed() {
		t.Logf("current streams:\n%s", strings.Join(got, "\n"))
	}
}

func readStreamGolden(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(filepath.FromSlash(streamGolden))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) != 4 {
			t.Fatalf("malformed golden line %q", sc.Text())
		}
		want[fields[0]+" "+fields[1]] = sc.Text()
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}
