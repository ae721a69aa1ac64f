#!/usr/bin/env bash
# Builds perfbench from this checkout's sources and runs it with the
# given flags, e.g.
#
#   bash perfbench/run.sh --workload serve-open --seed 3 --seconds 15 --trace 0
#
# Run it from the repository root. The build cache, the binary, the
# journals and the span files all stay under .bench_build/.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (no go.mod here)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOENV=off GOFLAGS=-mod=readonly GOWORK=off GOPROXY=off GOTOOLCHAIN=local
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
