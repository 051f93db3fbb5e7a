#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources, then runs it with
# every argument passed through, e.g. from the repository root:
#
#   bash perfbench/run.sh --workload fsoi16-dense --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write (Go build cache, binary, span
# files) stays under .bench_build, or under $CARGO_TARGET_DIR when set.
set -euo pipefail
root="$(pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go build -C "$root/perfbench" -o "$out/perfbench" .
exec "$out/perfbench" --spans-dir "$out/spans" "$@"
