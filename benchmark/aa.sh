#!/usr/bin/env bash
# Two sets of runs of the same build, compared metric by metric against
# the bounds in BENCHMARK.json (see src/bin/aa.rs).
#
#   benchmark/aa.sh [--runs N] [--seed S] [--seconds S] [--workload W]... [--smoke]
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target/benchmark/build}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/aa" "$@"
