package difftest

import (
	"hash/fnv"
	"testing"
)

// fuzzOptions keeps per-exec cost low so `go test -fuzz` gets a usable
// exec rate; the deterministic sweep uses the larger defaults.
var fuzzOptions = Options{MaxCycles: 5_000_000, Steps: 100_000}

// FuzzGenerated drives the program generator from the fuzzer's byte stream:
// each byte feeds one generator decision (falling back to a PRNG seeded
// from the input once the bytes run out), so coverage-guided mutation
// explores the program space structurally instead of fighting the reader.
// The config under test is drawn from the same stream.
func FuzzGenerated(f *testing.F) {
	for seed := uint64(1); seed <= 8; seed++ {
		r := NewSeeded(seed)
		var bytes []byte
		for i := 0; i < 64; i++ {
			bytes = append(bytes, byte(r.Intn(256)))
		}
		f.Add(bytes)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r := FromBytes(data)
		spec := Spectrum()
		cfg := spec[r.Intn(len(spec))]
		src := Generate(r)
		if fail := Check(src, cfg, fuzzOptions); fail != nil {
			t.Fatalf("%v\nprogram:\n%s", fail, src)
		}
	})
}

// FuzzMemtag drives the memory-safety torture generator from the fuzzer's
// byte stream: the configuration is drawn from the memtag spectrum first,
// then the remaining decisions shape a program that is memory-unsafe by
// construction. The property is the always-fire side of the safety oracle:
// every generated torture program must raise a memtag fault, identically
// on all three engines. (The never-fire side runs on the fixed benchmark
// programs and needs no fuzzing.)
func FuzzMemtag(f *testing.F) {
	for seed := uint64(1); seed <= 8; seed++ {
		r := NewSeeded(seed * 31)
		var bytes []byte
		for i := 0; i < 32; i++ {
			bytes = append(bytes, byte(r.Intn(256)))
		}
		f.Add(bytes)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r := FromBytes(data)
		spec := MemtagSpectrum()
		cfg := spec[r.Intn(len(spec))]
		src, kind := GenerateTorture(r, int(cfg.HW.MemtagGranuleBytes()))
		if fail := CheckMemtagTorture(src, cfg, fuzzOptions); fail != nil {
			t.Fatalf("%s torture under %s: %v\nprogram:\n%s", kind, cfg, fail, src)
		}
	})
}

// FuzzSource feeds raw bytes to the full pipeline as Lisp source text. Most
// mutations are unreadable or unsupported and stop at the interpreter
// ("oracle" failures, skipped); inputs the interpreter accepts must then
// agree between the engines and — where the oracle's verdict applies — with
// the interpreter. Build rejections are skipped too: the compiler's static
// limits (unknown functions, arities, literal ranges) are narrower than the
// interpreter's dynamic semantics by design.
func FuzzSource(f *testing.F) {
	f.Add([]byte(`(+ 1 2)`))
	f.Add([]byte(`(princ (- (float 100) (float 69)))`))
	f.Add([]byte(`(list 7 (+ (float 95) 1) 8 9 10 -2 -10)`))
	f.Add([]byte("(defun f (n) (if (<= n 0) 0 (+ n (f (1- n)))))\n(f 10)"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			t.Skip("oversized input")
		}
		src := string(data)
		h := fnv.New64a()
		h.Write(data)
		spec := Spectrum()
		cfg := spec[int(h.Sum64()%uint64(len(spec)))]
		fail := Check(src, cfg, fuzzOptions)
		if fail != nil && fail.Kind != "oracle" && fail.Kind != "build" {
			t.Fatalf("%v\nprogram:\n%s", fail, src)
		}
	})
}
