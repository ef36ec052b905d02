#!/usr/bin/env bash
# Builds the benchmark and the nvmexplorer CLI from this checkout into
# .bench_build/, then runs the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload cold-grid --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh steady -k 10 [-sets 2] [-workloads cold-grid,...]
#
# Building happens before the benchmark starts, so no build time is
# measured. The Go build cache and every scratch file stay under
# .bench_build/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
	GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
# With telemetry on (its default in a fresh config directory), the go
# command starts a detached sidecar process that can outlive the build and
# this script; "go telemetry off" starts none.
go telemetry off >&2
(cd "$root" && go build -o "$build/nvmexplorer" ./cmd/nvmexplorer) >&2
(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
cd "$root"
if [[ "${1:-}" == steady ]]; then
	shift
	exec "$build/perfbench" steady -cli "$build/nvmexplorer" -out "$build" "$@"
fi
exec "$build/perfbench" --cli "$build/nvmexplorer" --out "$build" "$@"
