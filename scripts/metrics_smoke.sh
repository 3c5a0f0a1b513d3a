#!/bin/sh
# metrics_smoke.sh — end-to-end check of the /metrics dual exposition
# against a live tagsimd: start the server prewarmed, fetch the snapshot
# as JSON (default) and as Prometheus text (Accept: text/plain), and
# validate both — the JSON must parse, the Prometheus output must be
# line-valid text format and contain the run-phase and per-route latency
# histogram series the dashboards scrape. Used by `make metrics-smoke`
# and the CI metrics job.
set -eu

ADDR="${ADDR:-127.0.0.1:8377}"
BASE="http://$ADDR"
BIN="${TMPDIR:-/tmp}/tagsimd-smoke"
OUT="${TMPDIR:-/tmp}/tagsimd-smoke-out"
mkdir -p "$OUT"

go build -o "$BIN" ./cmd/tagsimd
"$BIN" -addr "$ADDR" -prewarm >"$OUT/server.log" 2>&1 &
PID=$!
trap 'kill "$PID" 2>/dev/null || true' EXIT

# Wait for readiness (prewarm runs every program first).
ok=0
for _ in $(seq 1 120); do
    if curl -fsS "$BASE/healthz" >/dev/null 2>&1; then ok=1; break; fi
    sleep 0.5
done
[ "$ok" = 1 ] || { echo "server never became healthy"; cat "$OUT/server.log"; exit 1; }

# One run so request/latency series exist beyond the prewarm counters.
curl -fsS -X POST "$BASE/v1/run" -d '{"program":"comp","config":"high5"}' >/dev/null

# One memory-tagging run so the memtag_* families are live (the prewarm
# sweep only covers untagged configs).
curl -fsS -X POST "$BASE/v1/run" -d '{"program":"comp","config":"high5+memtag"}' >/dev/null

# Every request carries a deadline into the simulator, and the translated
# and native engines must honour it themselves rather than hand the run
# to the reference engine. Each run below is of a pair the prewarm did not
# cache: one that names no engine (the default, native), one that names
# translated and one that names native. Each must execute on that engine,
# say so in its report, grow its engine's counters and leave both fallback
# counters at zero; the native runs must also have entered superblock
# streams, which bit-identical results alone cannot show.
engine_run() { # engine_run <request body> <engine> <counter that must grow>...
    body=$1 want=$2
    shift 2
    curl -fsS "$BASE/metrics" >"$OUT/before.json"
    curl -fsS -X POST "$BASE/v1/run" -d "$body" >"$OUT/run.json"
    curl -fsS "$BASE/metrics" >"$OUT/after.json"
    python3 - "$OUT" "$want" "$@" <<'PY' || exit 1
import json, sys
out, want, grow = sys.argv[1], sys.argv[2], sys.argv[3:]
before = json.load(open(out + "/before.json"))["counters"]
after = json.load(open(out + "/after.json"))["counters"]
ran = json.load(open(out + "/run.json"))["engine_executed"]
bad = [] if ran == want else ["engine_executed=" + ran]
bad += [k + "=" + str(after.get(k, 0)) for k in ("engine_fallbacks_total", "native_fallbacks_total")
        if after.get(k, 0) != 0]
bad += [k + " did not grow" for k in grow if after.get(k, 0) <= before.get(k, 0)]
if bad:
    sys.exit("engine selection lost on the service path (want " + want + "): " + ", ".join(bad))
PY
}
engine_run '{"program":"trav","config":"low3+check"}' native \
    runs_engine_total/native native_superblock_runs_total
engine_run '{"program":"rat","config":"low3+check","engine":"translated"}' translated \
    runs_engine_total/translated engine_block_runs_total
engine_run '{"program":"comp","config":"low3+check","engine":"native"}' native \
    runs_engine_total/native native_superblock_runs_total

# The runner keeps results, not images: /v1/introspect must still answer
# for the three runs above from the snapshot each took when it ended, with
# translated blocks for all three and superblock streams for the native two.
curl -fsS "$BASE/v1/introspect" >"$OUT/introspect.json"
python3 - "$OUT/introspect.json" <<'PY' || exit 1
import json, sys
images = {(i["program"], i["config"]): i for i in json.load(open(sys.argv[1]))["images"]}
bad = []
for prog, native in (("trav", True), ("rat", False), ("comp", True)):
    img = images.get((prog, "low3+check"))
    if img is None:
        bad.append(prog + "/low3+check not listed")
        continue
    if img["engine"]["blocks"] <= 0:
        bad.append(prog + "/low3+check: engine.blocks = %d" % img["engine"]["blocks"])
    if native and img["engine"]["superblocks"] <= 0:
        bad.append(prog + "/low3+check: engine.superblocks = %d" % img["engine"]["superblocks"])
if bad:
    sys.exit("introspection lost: " + ", ".join(bad))
PY

# One bounded scheme search so the search_* families are live.
curl -fsS -X POST "$BASE/v1/search" \
    -d '{"budget":40,"top_k":3,"programs":["comp"],"variants":["check"]}' \
    >"$OUT/search.json"
python3 -m json.tool "$OUT/search.json" >/dev/null
grep -q '"search-report"' "$OUT/search.json"

# JSON form (the default) must parse.
curl -fsS "$BASE/metrics" >"$OUT/metrics.json"
python3 -m json.tool "$OUT/metrics.json" >/dev/null
grep -q '"runs_total"' "$OUT/metrics.json"

# Prometheus form via Accept and via ?format= must be identical in shape.
curl -fsS -H 'Accept: text/plain' "$BASE/metrics" >"$OUT/metrics.prom"
curl -fsS "$BASE/metrics?format=prometheus" >"$OUT/metrics2.prom"

for f in "$OUT/metrics.prom" "$OUT/metrics2.prom"; do
    # Every line is a TYPE comment or "name{labels} value".
    if grep -vE '^(# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|histogram))$' "$f" \
        | grep -qvE '^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? -?[0-9.eE+-]+$'; then
        echo "invalid Prometheus text format in $f:"
        grep -vE '^(# TYPE .*|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? -?[0-9.eE+-]+)$' "$f" | head
        exit 1
    fi
    grep -q '^# TYPE run_phase_seconds histogram$' "$f"
    grep -q 'run_phase_seconds_bucket{' "$f"
    grep -q 'http_request_seconds_bucket{' "$f"
    grep -q 'le="+Inf"' "$f"
    # The search_* family list is single-sourced from the server's metric
    # golden: every pinned family must be live here, so adding one means
    # regenerating the golden, not editing this script.
    for fam in $(grep '^search_' internal/server/testdata/metric_names.golden); do
        grep -q "^# TYPE $fam " "$f" || { echo "missing family $fam in $f"; exit 1; }
    done
    # Same single-sourcing for the memory-tagging families.
    for fam in $(grep '^memtag_\|^run_memtag_' internal/server/testdata/metric_names.golden); do
        grep -q "^# TYPE $fam " "$f" || { echo "missing family $fam in $f"; exit 1; }
    done
    # And for the native-engine families (superblocks, fusion, elision)
    # exercised by the native runs above.
    for fam in $(grep '^native_' internal/server/testdata/metric_names.golden); do
        grep -q "^# TYPE $fam " "$f" || { echo "missing family $fam in $f"; exit 1; }
    done
done

echo "metrics smoke OK: $(wc -l <"$OUT/metrics.prom") prometheus lines, both formats valid"
