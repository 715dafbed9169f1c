#!/usr/bin/env bash
# Builds ltqpbench from the checkout's source and runs it with the given
# arguments, from the root of the checkout. Everything the build writes stays
# under .bench_build/ there.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOFLAGS= GOTOOLCHAIN=local GOWORK=off
commit=unknown
if [ -d "$root/.git" ]; then
	commit="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)"
fi
(cd "$here" && go build -buildvcs=false -o "$build/ltqpbench" .)
cd "$root"
exec "$build/ltqpbench" --commit "$commit" "$@"
