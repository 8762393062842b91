#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash bench/run.sh --workload table1 --seed 1 --seconds 15 --trace 0
#
# Every build product and cache stays inside the checkout, under
# .bench_build/ (or $CARGO_TARGET_DIR when set), and no network is used.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/bench/go.mod" ]]; then
	echo "run.sh: run from the repository root" >&2
	exit 2
fi
out="${CARGO_TARGET_DIR:-.bench_build}"
[[ "$out" = /* ]] || out="$root/$out"
mkdir -p "$out"

export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd "$root/bench" && go build -o "$out/crbench" .)
exec "$out/crbench" "$@"
