#!/usr/bin/env bash
# The repo's benchmark: builds the `benchmark/` package and runs it.
#
#   benchmark/run.sh [--workload W] [--seed N] [--seconds S] [--trace 0|1]
#                    [--smoke] [--record]
#
# With --workload, runs that workload in one process and ends with its
# one-line JSON result (the form BENCHMARK.json's command takes). Without,
# runs all four, one process each, so that peak_rss_mb is per workload.
# --trace 1 reports the per-layer metrics and writes the span file;
# --smoke is the tiny preset; --record appends the end-to-end metrics to
# benchmark/history.jsonl. Everything lands under target/benchmark/.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target/benchmark/build}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
bin="$CARGO_TARGET_DIR/release/cpq-benchmark"

for arg in "$@"; do
    if [ "$arg" = "--workload" ]; then
        exec "$bin" "$@"
    fi
done
status=0
for workload in kcpq_hot kcpq_cold svc_mix live_rw; do
    "$bin" --workload "$workload" "$@" || status=$?
done
exit "$status"
