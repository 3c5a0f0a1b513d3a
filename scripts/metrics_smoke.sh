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

# One native-engine run so the native_* families count real work (they
# exist at zero for every run, but this exercises superblock formation,
# elision and the exit-site expansion end to end).
curl -fsS -X POST "$BASE/v1/run" -d '{"program":"comp","config":"high5+check","engine":"native"}' >/dev/null

# Every request carries a deadline into the simulator, and the translated
# and native engines must honour it themselves rather than hand the run
# to the reference engine. A default-engine and a native run of pairs the
# prewarm did not cache must execute on those engines and leave both
# fallback counters at zero.
curl -fsS -X POST "$BASE/v1/run" -d '{"program":"trav","config":"low3+check"}' >/dev/null
curl -fsS -X POST "$BASE/v1/run" -d '{"program":"comp","config":"low3+check","engine":"native"}' >/dev/null
curl -fsS "$BASE/metrics" | python3 -c '
import json, sys
c = json.load(sys.stdin)["counters"]
bad = [k + "=" + str(c.get(k, 0)) for k in ("engine_fallbacks_total", "native_fallbacks_total") if c.get(k, 0) != 0]
bad += [k + "=0" for k in ("runs_engine_total/translated", "runs_engine_total/native") if c.get(k, 0) == 0]
if bad:
    sys.exit("engine selection lost on the service path: " + ", ".join(bad))
'

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
    # And for the native-engine families (superblocks, fusion, elision,
    # register-cache spills) exercised by the native run above.
    for fam in $(grep '^native_' internal/server/testdata/metric_names.golden); do
        grep -q "^# TYPE $fam " "$f" || { echo "missing family $fam in $f"; exit 1; }
    done
done

echo "metrics smoke OK: $(wc -l <"$OUT/metrics.prom") prometheus lines, both formats valid"
