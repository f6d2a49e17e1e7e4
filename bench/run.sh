#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the repository root
# and runs it there with the given arguments:
#
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   bash bench/run.sh compare A.json... -- B.json...
#
# The Go build cache, GOPATH, temporary files and the go command's own config
# and telemetry directory (XDG_CONFIG_HOME) stay inside .bench_build/, so a run
# writes nothing outside the checkout. The build fails (and the script exits
# non-zero) when the repository's own module is absent.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=

(cd bench && go build -o "$build/lotus-bench" .)
exec "$build/lotus-bench" "$@"
