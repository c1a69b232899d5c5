#!/usr/bin/env bash
# Builds the benchmark from the sources in this checkout and runs it:
#   bash perfbench/run.sh --workload flood|twentyq|churn --seed N --seconds S --trace 0|1
# Build output goes to stderr; the last line of stdout is the result.
set -euo pipefail
cd "$(dirname "$0")/.."
export DUNE_CACHE=disabled
if command -v dune >/dev/null 2>&1; then
  dune=(dune)
elif command -v opam >/dev/null 2>&1; then
  dune=(opam exec -- dune)
else
  echo "run.sh: dune not found" >&2
  exit 2
fi
"${dune[@]}" build --root . --display quiet ./perfbench/vsbench.exe >&2
exec ./_build/default/perfbench/vsbench.exe "$@"
