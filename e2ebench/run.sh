#!/usr/bin/env bash
# Builds tempaggd and the benchmark driver from this checkout, then runs one
# workload of the end-to-end benchmark. Run it from the repository root:
#
#   bash e2ebench/run.sh --workload dashboard --seed 1 --seconds 25 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the checkout.
set -euo pipefail
if [ ! -f go.mod ] || [ ! -d cmd/tempaggd ] || [ ! -f e2ebench/go.mod ]; then
	echo "run.sh: run from the root of a tempagg checkout" >&2
	exit 2
fi
out="$PWD/.bench_build/e2ebench"
mkdir -p "$out/gocache" "$out/gotmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" XDG_CONFIG_HOME="$out/config" \
	GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off
go build -o "$out/tempaggd" ./cmd/tempaggd
(cd e2ebench && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" -daemon "$out/tempaggd" -workdir "$out/runs" "$@"
