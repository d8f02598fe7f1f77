#!/usr/bin/env bash
# Builds the split-pipeline benchmark from the source tree it sits in and
# runs it with the given arguments. Run from the repository root:
#
#   bash splitbench/run.sh --workload paper_closed --seed 1 --seconds 30 --trace 0
#   bash splitbench/run.sh --workload all --seed 1 --seconds 30
#
# Build cache, temporary files, the Go tool's own state and the binary stay
# under .bench_build at the root, so a run writes nothing outside the
# checkout.
set -euo pipefail
root="$(pwd)"
out="${root}/.bench_build"
mkdir -p "${out}/go-cache" "${out}/tmp" "${out}/gopath" "${out}/config"
# The benchmark module needs nothing beyond the repository itself, so the
# toolchain is told never to fetch, and to ignore any per-user go env file.
export GOCACHE="${out}/go-cache" GOTMPDIR="${out}/tmp" GOPATH="${out}/gopath" \
	XDG_CONFIG_HOME="${out}/config" GOENV=off GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "${root}/splitbench" && go build -o "${out}/splitbench" .)
exec "${out}/splitbench" "$@"
