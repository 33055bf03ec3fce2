#!/usr/bin/env bash
# Build `dcn` and the serving-path benchmark from source, then run the
# benchmark with the arguments given, e.g.
#
#   bash servebench/run.sh --workload steady-100 --seed 1 --seconds 20 --trace 0
#
# Run from the repository root.  Build output goes to stderr; the last
# line of stdout is the result object.
set -euo pipefail
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ]; then
  echo "servebench: run from the root of a dcnsched checkout" >&2
  exit 2
fi
dune build --root . ./bin/dcn_main.exe ./servebench/servebench.exe 1>&2
exec ./_build/default/servebench/servebench.exe \
  --dcn ./_build/default/bin/dcn_main.exe "$@"
