#!/usr/bin/env bash
# Builds the benchmark program from source and runs it with the given
# flags, e.g.
#
#   bash bench/run.sh --workload fig-quick --seed 1 --seconds 20 --trace 0
#
# Every build output, the Go build cache and the trace files stay under
# .bench_build at the repository root.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
(cd bench && go build -o "$out/bench" .)
exec "$out/bench" "$@"
