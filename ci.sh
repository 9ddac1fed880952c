#!/bin/sh
# CI gate: build, vet, race-enabled tests, allocation ceilings.
#
#   ./ci.sh          full gate (build + vet + race tests + allocation ceilings)
#   ./ci.sh quick    race-disabled short tests only
#
# The race run matters: the parallel per-app corpus mode of
# evaluate.RunAllConfig and the -gen harness, the analysis caches shared by
# concurrent readers (callgraph memos, taint summaries, the report cache)
# and the obs collector and registry are all exercised concurrently by the
# test suite.
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

echo "== perfbench vet and short tests"
# perfbench is its own module (go.mod with a replace of this repository),
# so the root ./... never builds, vets or tests it, though it imports core.
(cd perfbench && go vet ./... && go test -short ./...)

echo "== fault injection under -race"
# Robustness gate: injected panics and hangs in every pipeline phase must
# degrade into diagnostics, not crashes, while other apps are analyzed
# concurrently; counted fault rules must fire on the same job in every run;
# malformed input (a superclass cycle, a method name declared twice in one
# class) must be rejected, not spun on or half-analyzed.
go test -race -run 'TestFaultInjection|TestDecodeFault|TestInjectedHang|TestEvaluateAggregates|TestDegradation|TestSuperclassCycleRejected|TestDuplicateMethodRejected|TestCountedFaultsRepeatable' .

echo "== go test -race"
go test -race ./...

echo "== allocation ceilings"
# The -race step skips TestAllocCeilings: race instrumentation allocates on
# the instrumented paths and would inflate every count, so the table of
# allocation ceilings runs here, without -race.
go test -run '^TestAllocCeilings$' .

echo "== matcher equivalence fuzz"
# Thirty seconds of FuzzSigVM beyond its seeds: the compiled matcher walks
# JSON bytes and runs its own regex bytecode, the interpretive oracle
# decodes with encoding/json and compiles with regexp, and any signature
# and payload on which their verdicts or byte accounting differ fails.
# Minimizing a new interesting input may take 1 s, not the default 60 s,
# which would spend the whole budget on one input instead of fuzzing.
go test -run '^$' -fuzz '^FuzzSigVM$' -fuzztime 30s -fuzzminimizetime 1s ./internal/sigvm

echo "== report JSON writer fuzz"
# Ten seconds of FuzzReportJSON beyond its seeds: report.JSONOpts writes
# the indented document in one pass, and its oracle marshals the former
# struct shape with json.MarshalIndent; any package, app, URI literal,
# header key, demarcation point or slice fraction on which their bytes
# differ, or only one of them fails, fails the step.
go test -run '^$' -fuzz '^FuzzReportJSON$' -fuzztime 10s -fuzzminimizetime 1s ./internal/report

echo "== report text and signature renderer fuzz"
# Ten seconds each of FuzzReportText and FuzzSiglangCanon beyond their
# seeds: report.TextOpts and siglang's append renderers write into the
# caller's buffer in one pass, and the renderers they replaced (fmt.Fprintf
# per line, strings.Builder per signature) stay in the package tests as
# their oracles. Text must equal its oracle on the edge-case report shapes
# with arbitrary strings; every signature the parser accepts must render
# to the oracle's canonical form, regex, schema, DTD and keywords.
go test -run '^$' -fuzz '^FuzzReportText$' -fuzztime 10s -fuzzminimizetime 1s ./internal/report
go test -run '^$' -fuzz '^FuzzSiglangCanon$' -fuzztime 10s -fuzzminimizetime 1s ./internal/siglang

echo "== container and cache entry decoder fuzz"
# Ten seconds each of FuzzDexDecode and FuzzResultCacheCodec beyond their
# seeds: both decoders read through internal/wire's one reader, so a hole
# in its bounds or canonical-form checks shows in either. Re-sealed
# mutations must fail cleanly, a decoded container must re-encode, and a
# decoded cache entry must re-encode to the same bytes. Minimizing a new
# interesting input is bounded by 100 calls, not by 1 s: the inputs grow
# from whole encoded containers and reports, almost no byte of one can go
# without losing the coverage that made it interesting, so each
# minimization ran its full second for nothing, and with an input or two
# found per second the step spent its ten seconds minimizing.
go test -run '^$' -fuzz '^FuzzDexDecode$' -fuzztime 10s -fuzzminimizetime 100x ./internal/dex
go test -run '^$' -fuzz '^FuzzResultCacheCodec$' -fuzztime 10s -fuzzminimizetime 100x ./internal/resultcache

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
# all four equivalence axes (same-seed regeneration, serial/parallel,
# cold/warm cache, budgeted/unbudgeted) must be byte-identical. The
# deadline feeds the budgeted axis; generous on purpose — a budget that
# trips under -race is itself a mismatch. The compiled traffic matcher is
# held to its interpretive oracle by the sigvm package tests
# (TestClassifyMatchesOracle, FuzzSigVM) in the -race test step and by
# the fuzz step.
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
# End-to-end gate on the classifier binary: over seeded labeled traffic,
# the regex-derived ground-truth labels must be reproduced in full.
go run -race ./cmd/classify -app "radio reddit" -gen 7:500 \
    | tee "$smoke/classify.txt"
grep -q 'ground-truth labels reproduced: 500/500' "$smoke/classify.txt"

echo "== bench smoke"
go test -run=NONE -bench=. -benchtime=1x .

echo "== perfbench correctness smoke"
# The benchmark harness's own checks on three short runs: every operation's
# report digest, truth counts and cache verdicts must hold, and on classify
# every verdict must equal its entry's label ("correct":true, "failed":0).
# The traced run also cross-checks core.Analyze's profile counters against
# the standalone layer chain.
for args in "--workload corpus-cold --seconds 3 --trace 1" \
    "--workload gen-cold --seconds 3 --trace 0" \
    "--workload classify --seconds 3 --trace 0"; do
    # shellcheck disable=SC2086 # args is a word list on purpose
    bash perfbench/run.sh $args > "$smoke/perfbench.txt"
    grep '^{"attempted"' "$smoke/perfbench.txt" > "$smoke/perfbench.res" || true
    if [ ! -s "$smoke/perfbench.res" ] \
        || grep -v '"correct":true' "$smoke/perfbench.res" | grep -q . \
        || grep -Ev '"failed":0[,}]' "$smoke/perfbench.res" | grep -q .; then
        echo "perfbench $args: incorrect or failed operations"
        cat "$smoke/perfbench.txt"
        exit 1
    fi
done

echo "CI OK"
