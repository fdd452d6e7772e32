#!/bin/sh
# Builds and runs the repository benchmark. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload suite_paper --seed 1 --seconds 24 --trace 0
#
# Everything the build and the run write stays under .bench_build/ (or
# $CARGO_TARGET_DIR when set): the Go build and module caches, the
# binary, and the scratch result caches. Outside a full checkout of the
# module the build fails and so does this script.
set -eu
root=$(pwd)
out="$root/${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath"
export GOWORK=off GOTOOLCHAIN=local GOTELEMETRY=off
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config"
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" -dir perfbench -work "$out/work" "$@"
