#!/bin/sh
# Build the end-to-end benchmark and the daemon it drives, then run it
# from the repository root with the given arguments:
#
#   sh bench/e2e/run.sh --workload hot-zipf --seed 1 --seconds 10 --trace 0
#
# Build output goes to stderr; standard output is the benchmark's own,
# ending with its one-line JSON result.
set -eu
cd "$(dirname "$0")/../.."
dune build --root . --display quiet bench/e2e/shades_bench.exe bin/shades_cli.exe >&2
exec ./_build/default/bench/e2e/shades_bench.exe "$@"
