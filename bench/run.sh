#!/usr/bin/env bash
# The benchmark's single command (BENCHMARK.json "command"): build the
# bench package from the checkout's own source, then run it with the
# arguments given. From the repository root:
#
#   bash bench/run.sh --workload serve_point --seed 7 --seconds 20 --trace 0
#
# Everything the build and the run write stays inside the checkout: the Go
# build cache, the binary and the run's temp dirs under .bench_build/, the
# trace and detail files under bench/out/. `go run ./bench` does the same
# job for people, with the build cache in its usual place.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f go.mod ]; then
	echo "bench/run.sh: no go.mod beside bench/: the benchmark builds against the repository's source" >&2
	exit 3
fi
build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/home"
# HOME is redirected for the build only, so the toolchain's own state (env
# file, telemetry counters) lands in the checkout too.
HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" GOPATH="$build/gopath" \
	GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false \
	go build -o "$build/cobenchmark" ./bench
exec "$build/cobenchmark" "$@"
