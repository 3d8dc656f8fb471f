#!/usr/bin/env bash
# Builds the cpsdfad daemon and the benchmark driver from source, then runs
# the driver. Run from the repository root:
#
#   bash perfbench/run.sh --workload cold-miss --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh --workload all --seed 1 --seconds 10
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --quiet -p cpsdfa-service --bin cpsdfad >&2
cargo build --release --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" \
    --daemon "$CARGO_TARGET_DIR/release/cpsdfad" \
    --work-dir "$CARGO_TARGET_DIR/perfbench" "$@"
