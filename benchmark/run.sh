#!/usr/bin/env bash
# The benchmark's one command. Builds the benchmark crate (its own
# workspace, lock file and target directory; CARGO_TARGET_DIR is honoured)
# and runs it with the arguments given:
#
#   benchmark/run.sh [--seed N] [--trace] [--aa] [--reps N] [--quick]
#       every workload untraced, end-to-end metrics by name with units and
#       failed/attempted per workload; non-zero exit on a failed check.
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one run of one workload (the form BENCHMARK.json's driver calls);
#       the last line of stdout is the result as one JSON object.
#
# The build runs on every core; the measured binary is pinned to one
# (taskset, when present) because everything it measures is one thread.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"
bin="${CARGO_TARGET_DIR:-$here/target}/release/tva-benchmark"
if command -v taskset >/dev/null 2>&1; then
  exec taskset -c "$(( $(nproc) - 1 ))" "$bin" "$@"
fi
exec "$bin" "$@"
