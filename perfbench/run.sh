#!/usr/bin/env bash
# Builds the served-path benchmark from the checkout it sits in and runs it
# once. Run it from the checkout root:
#
#   bash perfbench/run.sh --workload perm-miss --seed 1 --seconds 20 --trace 0
#
# Every build product and cache lives under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false

go -C "$here" build -o "$out/perfbench" . >&2
cd "$root"
exec "$out/perfbench" "$@"
