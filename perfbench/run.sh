#!/usr/bin/env bash
# Builds streamkmd, streamkm-router and the benchmark program from source into
# .bench_build/ and runs one benchmark workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload ingest --seed 1 --seconds 20 --trace 0
#
# Every file the build and the run write stays under .bench_build/ in the
# working directory, including the Go build cache.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/streamkmd" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (go.mod, cmd/streamkmd and perfbench/ must exist)" >&2
	exit 2
fi
mkdir -p "$out/bin" "$out/gocache" "$out/gopath" "$out/config" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOTELEMETRY=off CGO_ENABLED=0

go build -o "$out/bin/streamkmd" ./cmd/streamkmd >&2
go build -o "$out/bin/streamkm-router" ./cmd/streamkm-router >&2
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .) >&2

exec "$out/bin/perfbench" -bin "$out/bin" -work "$out" "$@"
