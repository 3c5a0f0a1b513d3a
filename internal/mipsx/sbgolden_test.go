package mipsx_test

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
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

// blockGolden holds one SHA-256 per (program, configuration) over every
// block the same runs translate (mipsx.BlockDigest: each block's steps and
// fused-step count), plus the block count. It pins the block translator's
// peephole fusion, which superblock formation shares.
const blockGolden = "testdata/blocks.golden"

// streamConfigs covers the high-tag and low-tag software-checking paths
// and the memory-tagging granule checks.
var streamConfigs = []string{"high5+check", "low3+check", "high5+check+memtag"}

// goldenCell is one (program, configuration) of the goldens, run once.
type goldenCell struct {
	key  string
	prog *mipsx.Program
}

var (
	goldenOnce  sync.Once
	goldenCells []goldenCell
	goldenErr   error
)

// runGoldenCells runs every benchmark program cold on the native engine
// under each of streamConfigs, once per test binary; both goldens hash
// the programs these runs leave behind.
func runGoldenCells(t *testing.T) []goldenCell {
	t.Helper()
	goldenOnce.Do(func() {
		for _, p := range programs.All() {
			for _, name := range streamConfigs {
				cfg, err := core.ParseConfig(name)
				if err != nil {
					goldenErr = err
					return
				}
				img, err := rt.Build(p.Source, rt.BuildOptions{
					Scheme: cfg.Scheme, HW: cfg.HW, Checking: cfg.Checking, HeapWords: p.HeapWords,
				})
				if err != nil {
					goldenErr = fmt.Errorf("%s %s: %v", p.Name, name, err)
					return
				}
				m := img.NewMachine()
				m.MaxCycles = 2_000_000_000
				if err := m.RunNative(); err != nil {
					goldenErr = fmt.Errorf("%s %s: %v", p.Name, name, err)
					return
				}
				goldenCells = append(goldenCells, goldenCell{p.Name + " " + name, img.Prog})
			}
		}
	})
	if goldenErr != nil {
		t.Fatal(goldenErr)
	}
	return goldenCells
}

// TestSuperblockStreamGolden compares the streams each golden cell forms
// with the golden. On a mismatch the log holds the full set of current
// lines in the golden's format.
func TestSuperblockStreamGolden(t *testing.T) {
	checkGolden(t, streamGolden, "streams", mipsx.SuperblockDigest)
}

// TestBlockStepGolden compares the blocks each golden cell translates
// with the golden, the same way.
func TestBlockStepGolden(t *testing.T) {
	checkGolden(t, blockGolden, "blocks", mipsx.BlockDigest)
}

func checkGolden(t *testing.T, path, what string, digestOf func(*mipsx.Program) (string, int)) {
	want := readGolden(t, path)
	var got []string
	for _, c := range runGoldenCells(t) {
		digest, n := digestOf(c.prog)
		if n == 0 {
			t.Errorf("%s: no %s", c.key, what)
		}
		line := fmt.Sprintf("%s %d %s", c.key, n, digest)
		got = append(got, line)
		if want[c.key] != line {
			t.Errorf("%s: %s %d %s, golden %q", c.key, what, n, digest, want[c.key])
		}
	}
	if len(got) != len(want) {
		t.Errorf("ran %d cells, golden has %d", len(got), len(want))
	}
	if t.Failed() {
		t.Logf("current %s:\n%s", what, strings.Join(got, "\n"))
	}
}

func readGolden(t *testing.T, path string) map[string]string {
	t.Helper()
	f, err := os.Open(filepath.FromSlash(path))
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
