#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs it.
#
# Usage, from the repository root:
#   bash perfbench/run.sh --workload load_a --seed 1 --seconds 12 --trace 0
#
# Everything the build writes (binary, Go build cache, the go command's
# config and telemetry files) stays under the build directory,
# $CARGO_TARGET_DIR when set, else .bench_build. The benchmark exits
# non-zero without a result line when the repository source it
# measures is not next to it.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the repository root" >&2
	exit 2
fi
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal" ]; then
	echo "perfbench: repository source (go.mod, internal/) not found next to perfbench/" >&2
	exit 2
fi

build=${CARGO_TARGET_DIR:-.bench_build}
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build"

export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=
export GOWORK=off
export XDG_CONFIG_HOME="$build/config"

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" -spans-dir "$build/spans" "$@"
