#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with
# the caller's arguments. Everything the build writes (Go's build cache
# included) stays under bench/out/, and nothing is fetched: the module
# has no dependencies beyond the repository it sits in.
set -euo pipefail
cd "$(dirname "$0")"
mkdir -p out
export GOCACHE="$PWD/out/gocache" GOPATH="$PWD/out/gopath"
export GOPROXY=off GOTOOLCHAIN=local
# The go command keeps its telemetry counters under the user config dir.
export XDG_CONFIG_HOME="$PWD/out/config"
go build -o out/wirebench .
exec out/wirebench "$@"
