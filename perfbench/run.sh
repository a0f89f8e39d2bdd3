#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources, then runs it:
#
#   bash perfbench/run.sh --workload paper_quick --seed 1 --seconds 55 --trace 0
#   bash perfbench/run.sh compare PARENT_RESULTS_DIR CHANGE_RESULTS_DIR
#
# Everything built or written — Go caches, the binary, scratch stores,
# result files — stays under .bench_build/ at the checkout's root.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/bin" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOMODCACHE="$out/gopath/pkg/mod" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" "$@"
