#!/usr/bin/env bash
# Build the recorder and the topoguard binary from source, then run one
# benchmark measurement; every argument passes through to record.exe:
#
#   bash perf/run.sh --workload fleet-warm --seed 3 --seconds 20 --trace 0
#
# Run from the repository root.  Build output goes to _build and
# temporary files to .perf_tmp, both inside the checkout.
set -euo pipefail
export DUNE_CACHE=disabled
mkdir -p .perf_tmp
export TMPDIR="$PWD/.perf_tmp"
dune build --root . --display quiet perf/record.exe bin/topoguard_cli.exe >&2
exec ./_build/default/perf/record.exe --cli ./_build/default/bin/topoguard_cli.exe "$@"
