#!/bin/sh
# Builds the benchmark and perfplayd from this checkout and runs the
# benchmark with the given arguments. Run it from the repository root:
#
#	sh perfbench/run.sh --workload serve-mysql --seed 1 --seconds 15 --trace 0
#
# Everything the build writes (binaries, Go build cache, temp files)
# stays under .bench_build in the current directory.
set -eu
build="$(pwd)/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS= GOWORK=off
(
	cd perfbench
	go build -o "$build/bin/perfbench" .
	go build -o "$build/bin/perfplayd" perfplay/cmd/perfplayd
)
exec "$build/bin/perfbench" "$@"
