#!/bin/sh
# CI gate: build, vet, race-enabled tests.
#
#   ./ci.sh          full gate (build + vet + race tests)
#   ./ci.sh quick    race-disabled short tests only
#
# The race run matters: the parallel per-app corpus mode in
# evaluate.RunAllParallel, the analysis caches shared by concurrent readers
# (callgraph memos, taint summaries, the report cache) and the obs
# collector and registry are all exercised concurrently by the test suite.
set -eu
cd "$(dirname "$0")"

if [ "${1:-}" = "quick" ]; then
    exec go test -short ./...
fi

echo "== gofmt"
# Fail on any unformatted file; gofmt -l prints offenders but exits 0, so
# turn non-empty output into a failure explicitly.
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed:"
    echo "$unformatted"
    exit 1
fi

echo "== go build"
go build ./...

echo "== go vet"
go vet ./...

echo "== fault injection under -race"
# Robustness gate: injected panics and hangs in every pipeline phase must
# degrade into diagnostics, not crashes, while other apps are analyzed
# concurrently; counted fault rules must fire on the same job in every run;
# malformed input (a superclass cycle, a method name declared twice in one
# class) must be rejected, not spun on or half-analyzed.
go test -race -run 'TestFaultInjection|TestDecodeFault|TestInjectedHang|TestEvaluateAggregates|TestDegradation|TestSuperclassCycleRejected|TestDuplicateMethodRejected|TestCountedFaultsRepeatable' .

echo "== go test -race"
go test -race ./...

echo "== result cache smoke under -race"
# End-to-end warm-path gate on the real binaries: analyze the same .apkb
# twice into one cache directory; the second (warm) run must produce an
# identical report — modulo the run-local timing lines — and its profile
# must record exactly one report-cache hit.
smoke=$(mktemp -d)
trap 'rm -rf "$smoke"' EXIT
go run -race ./cmd/apkgen -out "$smoke" "radio reddit"
apkb=$(ls "$smoke"/*.apkb)
go run -race ./cmd/extractocol -cache "$smoke/cache" "$apkb" \
    | grep -v -e 'analysis time' -e 'phases:' > "$smoke/cold.txt"
go run -race ./cmd/extractocol -cache "$smoke/cache" "$apkb" \
    | grep -v -e 'analysis time' -e 'phases:' > "$smoke/warm.txt"
diff "$smoke/cold.txt" "$smoke/warm.txt"
go run -race ./cmd/extractocol -cache "$smoke/cache" -profile "$apkb" \
    | grep -q '"cache_report_hits": 1'

echo "== differential harness under -race"
# Correctness gate over the seeded generative corpus: 100 generated apps,
# all five equivalence axes (same-seed regeneration, serial/parallel,
# cold/warm cache, budgeted/unbudgeted, and the interpretive-vs-compiled
# signature matcher over recorded and labeled traffic) must be
# byte-identical. The deadline feeds the budgeted axis;
# generous on purpose — a budget that trips under -race is itself a
# mismatch.
go run -race ./cmd/evaluate -gen 1729:100 -deadline 5m

echo "== ops plane smoke under -race"
# Live-telemetry gate: a differential run serves /metrics and /healthz
# while it works. The scrape happens mid-run — it must see the per-phase
# latency histogram series and the cache/budget counters — and the run
# must still shut down cleanly and finish byte-identical.
go run -race ./cmd/evaluate -gen 1729:20 -ops 127.0.0.1:0 \
    > "$smoke/gen.txt" 2> "$smoke/gen.err" &
genpid=$!
addr=""
for _ in $(seq 1 100); do
    addr=$(sed -n 's#^ops: serving on ##p' "$smoke/gen.err" | head -n 1)
    [ -n "$addr" ] && break
    sleep 0.1
done
if [ -z "$addr" ]; then
    echo "ops listener never announced its address"
    cat "$smoke/gen.err"
    exit 1
fi
scraped=0
for _ in $(seq 1 400); do
    if curl -sf "$addr/metrics" > "$smoke/metrics.txt" 2>/dev/null \
        && grep -q 'extractocol_phase_latency_seconds_bucket' "$smoke/metrics.txt"; then
        scraped=1
        break
    fi
    kill -0 "$genpid" 2>/dev/null || break
    sleep 0.05
done
if [ "$scraped" != 1 ]; then
    echo "never scraped phase latency histograms from $addr"
    cat "$smoke/metrics.txt" 2>/dev/null || true
    exit 1
fi
grep -q 'extractocol_phase_latency_seconds_bucket{phase="slice"' "$smoke/metrics.txt"
grep -q 'extractocol_phase_seconds_total' "$smoke/metrics.txt"
grep -q 'extractocol_cache_report_hits_total' "$smoke/metrics.txt"
grep -q 'extractocol_budget_exceeded_total' "$smoke/metrics.txt"
curl -sf "$addr/healthz" | grep -q '"status":"ok"'
wait "$genpid"
grep -q 'OK: all axes byte-identical' "$smoke/gen.txt"

echo "== classifier smoke under -race"
# End-to-end gate on the classifier binary: both matcher backends over
# seeded labeled traffic must produce identical classifications, and the
# regex-derived ground-truth labels must be reproduced in full.
go run -race ./cmd/classify -app "radio reddit" -gen 7:500 -check \
    | tee "$smoke/classify.txt"
grep -q 'ground-truth labels reproduced: 500/500' "$smoke/classify.txt"

echo "== bench smoke"
go test -run=NONE -bench=. -benchtime=1x .

echo "CI OK"
