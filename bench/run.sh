#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository root:
#
#   bash bench/run.sh --workload person316k --seed 7 --seconds 25 --trace 0
#
# Everything the build writes (binary, Go build cache, temp files, the go
# command's own config and telemetry files) lands in $CARGO_TARGET_DIR,
# default .bench_build, so the checkout is the only place touched. The
# toolchain is pinned to the local one with no module proxy: the benchmark,
# like the library, needs nothing but the standard library.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/gocache" "$out/tmp" "$out/config"

(
	cd "$root/bench"
	export GOCACHE=$out/gocache GOTMPDIR=$out/tmp GOMODCACHE=$out/gomod XDG_CONFIG_HOME=$out/config
	export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off
	go build -o "$out/katara-bench" .
)
export KATARA_BENCH_TMP=$out/tmp
exec "$out/katara-bench" "$@"
