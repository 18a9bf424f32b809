#!/usr/bin/env bash
# Entry point of the repository benchmark; see tarbench/README.md.
# Run from the repository root:
#
#   bash tarbench/run.sh --workload paper-sweep --seed 1 --seconds 20 --trace 0
#
# Builds tartables, tarserved and the benchmark driver from this checkout
# into .bench_build/ (the Go build cache lives there too), then hands its
# arguments to the driver.
set -euo pipefail
root=$PWD
out=$root/.bench_build
export GOCACHE=$out/gocache GOMODCACHE=$out/gomodcache GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-buildvcs=false
mkdir -p "$out"
go build -o "$out/tartables" ./cmd/tartables
go build -o "$out/tarserved" ./cmd/tarserved
go -C tarbench build -o "$out/tarbench" .
exec "$out/tarbench" -root "$root" "$@"
