#!/usr/bin/env bash
# Entry point of the errprop benchmark. Run it from the repository root:
#
#   bash perfbench/run.sh --workload gateway-mlp-json --seed 1 --seconds 10 --trace 0
#
# It builds the perfbench program and errpropd from the checkout it runs in,
# keeping every build product, Go cache and temporary file under
# .bench_build/, then hands all arguments to perfbench. See
# perfbench/README.md for workloads, metrics and flags.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/errpropd" ] || [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the root of an errprop checkout (go.mod, cmd/errpropd and perfbench/ must exist)" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/bin"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
# Everything builds from this checkout; never reach for a toolchain or module download.
export GOTOOLCHAIN=local GOPROXY=off

(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .)
go build -o "$build/bin/errpropd" ./cmd/errpropd
exec "$build/bin/perfbench" -root "$root" -errpropd "$build/bin/errpropd" "$@"
