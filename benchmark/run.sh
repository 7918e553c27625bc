#!/usr/bin/env bash
# Builds the benchmark and runs it. Everything it writes goes under
# .bench_build/ at the root of the checkout.
#
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one run of one workload (what BENCHMARK.json's command is); the
#       last line of output is the run's JSON result.
#   benchmark/run.sh all [--trace 0|1] [--seed N] [--seconds S] [--out FILE]
#       all four workloads, each in a fresh process; prints one
#       "workload metric unit value" line per metric and writes the results
#       as one JSON object to FILE (default .bench_build/results.json).
#   benchmark/run.sh compare A.json B.json
#       per-metric difference of two such files against the bounds; exits 1
#       when the two sets disagree.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
bin="$out/whalebench"
mkdir -p "$out"

# The toolchain keeps its caches inside the checkout too, and must not try
# to fetch anything: the module has no dependencies outside the repository.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOPROXY=off GOTOOLCHAIN=local

(cd "$here" && go build -o "$bin" .) >&2
cd "$root"

case "${1:-}" in
compare)
	shift
	exec "$bin" -compare "$@"
	;;
all)
	shift
	trace=0 seed=1 seconds=24 file="$out/results.json"
	while [ $# -gt 0 ]; do
		case "$1" in
		--trace) trace="$2" ;;
		--seed) seed="$2" ;;
		--seconds) seconds="$2" ;;
		--out) file="$2" ;;
		*) echo "run.sh all: unknown argument $1" >&2; exit 2 ;;
		esac
		shift 2
	done
	status=0 sep=""
	printf '{' >"$file.tmp"
	for w in fanout_whale fanout_storm ride_join stock_reliable; do
		if ! "$bin" -workload "$w" -seed "$seed" -seconds "$seconds" -trace "$trace" >"$out/last_run.txt"; then
			status=1
		fi
		grep -v '^{' "$out/last_run.txt" || true
		line="$(grep '^{' "$out/last_run.txt" | tail -n 1 || true)"
		if [ -n "$line" ]; then
			printf '%s"%s":%s' "$sep" "$w" "$line" >>"$file.tmp"
			sep=","
		fi
	done
	printf '}\n' >>"$file.tmp"
	mv "$file.tmp" "$file"
	echo "results written to $file" >&2
	exit "$status"
	;;
*)
	exec "$bin" "$@"
	;;
esac
