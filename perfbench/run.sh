#!/usr/bin/env bash
# Builds the `costar` CLI and the benchmark harness from this checkout, then
# runs one workload:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# The result is the last line of standard output; build output goes to
# standard error. Builds go to $CARGO_TARGET_DIR (default: target).
set -euo pipefail
cd "$(dirname "$0")/.."
if [[ ! -f Cargo.toml || ! -d crates ]]; then
    echo "perfbench: run from a checkout of the repository (no Cargo.toml or crates/ here)" >&2
    exit 1
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet -p costar-cli >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
# Not `exec`: the harness reads the peak memory of the `costar` processes it
# waits for from getrusage(RUSAGE_CHILDREN), which an exec'd process would
# inherit from this shell, builds included.
"$CARGO_TARGET_DIR/release/perfbench" "$@" \
    --costar-bin "$CARGO_TARGET_DIR/release/costar" --out perfbench/out
