#!/usr/bin/env bash
# Builds the benchmark harness, the programs it drives (depanalyze,
# depserve) and its reference workload (refwork) from the source tree this
# script sits in, then runs the harness with the given arguments. Run it
# from the repository root:
#
#   bash perfbench/run.sh --workload cli_solve --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh --selftest
#
# Every build product and Go cache lives under .bench_build/ in the current
# directory, so nothing outside the checkout is read or written.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS= GOWORK=off

build_log="$out/build.log"
if ! {
	go build -o "$out/bin/depanalyze" ./cmd/depanalyze &&
		go build -o "$out/bin/depserve" ./cmd/depserve &&
		(cd perfbench && go build -o "$out/bin/perfbench" . && go build -o "$out/bin/refwork" ./refwork)
} >"$build_log" 2>&1; then
	cat "$build_log" >&2
	echo "perfbench: build failed" >&2
	exit 1
fi
exec "$out/bin/perfbench" -bin "$out/bin" -work "$out/work" "$@"
