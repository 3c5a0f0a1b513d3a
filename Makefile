GO ?= go

# The standard pre-PR gate: vet, build, full tests, and a one-shot
# benchmark smoke run (catches benchmark-only regressions cheaply).
.PHONY: check
check: vet build test smoke

.PHONY: vet
vet:
	$(GO) vet ./...

.PHONY: build
build:
	$(GO) build ./...

.PHONY: test
test:
	$(GO) test ./...

.PHONY: smoke
smoke:
	$(GO) test -run '^$$' -bench BenchmarkPrograms -benchtime 1x -benchmem .

# Full benchmark sweep: regenerates every table and figure and measures
# simulator throughput. Slow.
.PHONY: bench
bench:
	$(GO) test -run '^$$' -bench . -benchmem .

# Archive a throughput run (all three engines) as BENCH_<n>.json at the
# repo root, picking the lowest unused index, and print each engine's
# geomean speedup over the most recent archived baseline.
.PHONY: bench-json
bench-json:
	$(GO) run ./cmd/benchjson

# Per-engine throughput comparison: runs BenchmarkPrograms under all three
# engines at BENCHTIME iterations each, prints Minstr/s side by side with
# the native/translated and translated/reference speedups, and archives the
# run as BENCH_<n>.json.
BENCHTIME ?= 3x
.PHONY: bench-compare
bench-compare:
	$(GO) run ./cmd/benchjson -benchtime $(BENCHTIME)

# CI bench smoke: a short BenchmarkEngine pass that fails if the translated
# engine falls under 2.0x the reference engine or the native engine under
# 1.5x the translated one (geomean over the programs).
.PHONY: bench-smoke
bench-smoke:
	$(GO) run ./cmd/benchjson -smoke -out bench-smoke.txt

# Race-detector pass over the concurrent machinery: the runner cache and
# single-flight, context cancellation in the engines, and the whole server
# package. The full core suite (table sweeps) is too slow under -race, so
# core/mipsx are filtered to the concurrency tests; server runs entirely.
.PHONY: race
race:
	$(GO) test -race -run 'Concurrent|Parallel|Cancel|Deadline|CacheLRU|Prewarm|SharedCache' ./internal/core ./internal/mipsx
	$(GO) test -race ./internal/server

# Short-budget coverage-guided fuzzing over every fuzz target: the
# differential program generator, the raw-source pipeline, and the
# compiler/interpreter differential in lispc. FUZZTIME=10m for a longer
# local campaign; crashers land in the packages' testdata/fuzz corpora.
FUZZTIME ?= 30s
.PHONY: fuzz
fuzz:
	$(GO) test ./internal/difftest -run '^$$' -fuzz '^FuzzGenerated$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/difftest -run '^$$' -fuzz '^FuzzSource$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/difftest -run '^$$' -fuzz '^FuzzMemtag$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/lispc -run '^$$' -fuzz '^FuzzCompilerDifferential$$' -fuzztime $(FUZZTIME)

# Deterministic seeded campaign through the same oracle (no coverage
# feedback, no corpus mutation) — fast sanity sweep with JSON artifacts.
.PHONY: fuzz-sweep
fuzz-sweep:
	$(GO) run ./cmd/tagsimfuzz -seeds 500 -invariants -out fuzz-artifacts

# Memory-tagging safety oracle, both directions on fixed seeds: every
# generated torture program (use-after-free, out-of-granule, past-extent)
# must raise a memtag fault on all three engines, and every benchmark
# program must run clean under every memtag configuration. The pinned
# reproducer corpus is re-verified too.
.PHONY: memtag-smoke
memtag-smoke:
	$(GO) test ./internal/difftest -run 'Memtag' -count 1
	$(GO) run ./cmd/tagsimfuzz -memtag -seeds 60 -out fuzz-artifacts

# End-to-end /metrics check against a live prewarmed server: both the
# JSON and the Prometheus text expositions must be fetchable and valid.
.PHONY: metrics-smoke
metrics-smoke:
	sh scripts/metrics_smoke.sh

# Scheme-search smoke: enumerate the full acceptance budget, verify every
# ranked scheme against the property checker, and fail unless some
# searched scheme ties or beats the hand-built low3 on a variant.
.PHONY: search-smoke
search-smoke:
	$(GO) run ./cmd/tagsearch -budget 2000 -top 10 -smoke >/dev/null

# Run the simulation service on :8372.
.PHONY: serve
serve:
	$(GO) run ./cmd/tagsimd

# Closed-loop load test against a running `make serve` (10s, 8 in-flight).
.PHONY: loadtest
loadtest:
	$(GO) run ./cmd/tagsimload -addr http://localhost:8372 -c 8 -d 10s
