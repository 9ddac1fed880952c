#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload:
#
#   bash perfbench/run.sh --workload corpus-cold --seed 1 --seconds 20 --trace 0
#
# With "--workload all" it runs every workload untraced and then traced and
# prints each run's metric table (the one command that prints every metric
# with its unit). Run it from the repository root. Every build artifact
# (binary, Go build cache, scratch cache directories) stays under
# .bench_build/ in the checkout.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local CGO_ENABLED=0

(cd "$root/perfbench" && go build -trimpath -o "$out/perfbench" .)

if [[ "${1:-}" == "--workload" && "${2:-}" == "all" ]]; then
	shift 2
	for trace in 0 1; do
		for w in corpus-cold gen-cold warm-reanalyze classify; do
			"$out/perfbench" -root "$root" --workload "$w" --trace "$trace" "$@"
		done
	done
	exit 0
fi
exec "$out/perfbench" -root "$root" "$@"
