#!/usr/bin/env bash
# Builds tpibench from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash cmd/tpibench/run.sh -seed 1 -out BENCH_main.json
#   bash cmd/tpibench/run.sh --workload trfd-stream --seed 3 --seconds 17 --trace 0
#
# Besides tpibench's own flags it takes the benchmark-harness form:
# --trace 0 runs untraced, --trace 1 writes the spans to the build
# directory, and --seconds is accepted and ignored, because each
# workload's run is a fixed amount of work (see README.md).
#
# The binary, the Go build cache and Go's temporary files all live under
# the build directory ($CARGO_TARGET_DIR, default .bench_build), so a run
# writes nothing outside the checkout.
set -euo pipefail

root=$PWD
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac

args=()
while (($#)); do
	case $1 in
	-seconds | --seconds) shift 2 ;;
	-seconds=* | --seconds=*) shift ;;
	-trace | --trace)
		case ${2-} in
		0) ;;
		1) args+=(-trace "$out/spans.json") ;;
		*) args+=(-trace "${2-}") ;;
		esac
		shift 2
		;;
	*)
		args+=("$1")
		shift
		;;
	esac
done

mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE=$out/gocache GOPATH=$out/gopath GOTMPDIR=$out/tmp
export GOENV=off GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

build() { (cd "$root/cmd/tpibench" && go build "$@" -o "$out/tpibench" .); }
# The VCS revision stamped into the binary ends up in BENCH files; where
# git cannot report it, build without it.
build 2>/dev/null || build -buildvcs=false
exec "$out/tpibench" ${args[@]+"${args[@]}"}
