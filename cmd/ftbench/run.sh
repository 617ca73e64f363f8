#!/usr/bin/env bash
# Builds ftbench from this checkout and runs it with the given arguments,
# e.g. `bash cmd/ftbench/run.sh --workload local --seed 1`. Run it from the
# repository root. The build never touches the network, and the build cache,
# the Go tool's own state and the binary stay inside the checkout, in
# $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$out"
out=$(cd "$out" && pwd)
GOCACHE="$out/gocache" GOTMPDIR="$out" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off \
	go -C "$here" build -o "$out/bin/ftbench" .
exec "$out/bin/ftbench" "$@"
