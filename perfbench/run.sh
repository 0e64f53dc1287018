#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it with
# the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload sim --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh steady -n 10
#
# Everything the build writes (binary, Go build cache, spans) stays in
# .bench_build/ under the repository root.
set -euo pipefail
root="$(pwd)"
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" ]]; then
	echo "run.sh: run from the repository root (no program sources in $root)" >&2
	exit 1
fi
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local CGO_ENABLED=0
(cd "$root/perfbench" && go build -o "$build/ffbench" .)
exec "$build/ffbench" "$@"
