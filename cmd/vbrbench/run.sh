#!/usr/bin/env bash
# Builds cmd/vbrbench from source and runs it with the given arguments.
# The binary, the Go build cache and every temporary file go under
# .bench_build/ at the repository root, so a run reads and writes only
# inside the checkout. Run it from the repository root, for example:
#
#   bash cmd/vbrbench/run.sh --workload uni --seed 1 --seconds 15 --trace 0
#   bash cmd/vbrbench/run.sh -seed 1 -o set.json
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOFLAGS=-buildvcs=false GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -o "$out/vbrbench" .)
exec "$out/vbrbench" "$@"
