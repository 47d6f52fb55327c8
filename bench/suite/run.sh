#!/bin/sh
# Build the recovery benchmark from source, then run it with the given
# arguments.  Run from the repository root, for example:
#   sh bench/suite/run.sh --workload engine-central-ring --seed 7 --seconds 16 --trace 0
# A failed build exits non-zero before anything is printed on stdout.
set -eu
command -v dune >/dev/null 2>&1 || eval "$(opam env)"
DUNE_CACHE=disabled dune build --root . --display quiet ./bench/suite/suite.exe 1>&2
exec ./_build/default/bench/suite/suite.exe "$@"
