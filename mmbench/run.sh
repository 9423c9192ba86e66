#!/usr/bin/env bash
# Build the benchmark from source in this checkout, then run it:
#   bash mmbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Build output goes to stderr; the result JSON is the last stdout line.
set -euo pipefail
cd "$(dirname "$0")/.."
# Keep every file the build and the run write inside the checkout: no
# shared dune cache, and compiler temporaries under mmbench/out/tmp.
export DUNE_CACHE=disabled
mkdir -p mmbench/out/tmp
export TMPDIR="$PWD/mmbench/out/tmp"
dune build --root . ./mmbench/mmbench.exe 1>&2
exec ./_build/default/mmbench/mmbench.exe "$@"
