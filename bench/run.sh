#!/usr/bin/env bash
# Builds ptfmark from source into the checkout's .bench_build/ and runs it
# from the checkout root with the arguments given. Everything it writes —
# the Go build cache included — stays inside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOWORK=off
(cd "$root/bench" && go build -o "$build/ptfmark" .)
cd "$root"
exec "$build/ptfmark" "$@"
