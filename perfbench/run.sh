#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Run from the repository root. Build outputs, the Go caches and the
# run's scratch stores all stay under .bench_build in that root.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/home"
(
	cd "$root/perfbench"
	HOME="$out/home" XDG_CONFIG_HOME="$out/home" XDG_CACHE_HOME="$out/home" \
	GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOFLAGS=-mod=mod \
	GOWORK=off GOPROXY=off GOTOOLCHAIN=local GOTELEMETRY=off \
		go build -o "$out/perfbench" .
)
exec "$out/perfbench" -dir "$out" "$@"
