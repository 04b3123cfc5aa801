#!/usr/bin/env sh
# Offline CI gate: formatting, lints, release build, full test suite.
# The workspace has zero registry dependencies, so every step runs
# without network access.
set -eu

cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

# Lints. Every crate takes the workspace lint table (root Cargo.toml:
# unsafe_code forbidden, missing_docs, allow attributes need a reason), so a
# manifest without `[lints] workspace = true` would switch them off unseen.
echo "==> every crate manifest inherits the workspace lints"
for manifest in crates/*/Cargo.toml; do
    if ! grep -A1 '^\[lints\]' "$manifest" | grep -q '^workspace = true'; then
        echo "$manifest lacks \`[lints] workspace = true\`" >&2
        exit 1
    fi
done

# Every target, tests and examples included. clippy.toml disallows
# `std::thread::sleep`; an `#[expect]` that suppresses nothing fails here as
# `unfulfilled_lint_expectations`.
echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# Library code may not panic on `unwrap`/`expect` except where an
# `#[expect(clippy::expect_used, reason = ..)]` says why (clippy.toml exempts
# `#[cfg(test)]` code); a poisoned lock re-raises through the
# `cpq_check::sync` helpers.
echo "==> cargo clippy --workspace --lib (unwrap_used, expect_used)"
cargo clippy --workspace --lib -- -D warnings -D clippy::unwrap_used -D clippy::expect_used

# Under `--cfg cpq_model` the `cpq_check::sync` names are modeled types, so
# a `std::sync` lock, condvar or atomic named directly in a migrated crate is
# one clippy.toml's `disallowed-types` flags (each migrated lib root denies
# it under this cfg; in a normal build the two are the same type, so the
# lint cannot run there). Also the model-only code's own warnings.
echo "==> cargo clippy under --cfg cpq_model (disallowed_types)"
RUSTFLAGS="--cfg cpq_model" CARGO_TARGET_DIR=target/model \
    cargo clippy --no-deps --lib --tests -p cpq-check -p cpq-storage -p cpq-obs \
    -p cpq-core -p cpq-service -p cpq-shard -p cpq-live -- -D warnings

echo "==> cargo build --release"
cargo build --release --workspace

# Rustdoc with warnings as errors: a deletion that leaves a stale intra-doc
# link, or a public doc that links a private item, fails here.
echo "==> cargo doc --workspace --no-deps (RUSTDOCFLAGS=-D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> cargo test -q"
cargo test --workspace -q

# The step above runs in debug, where the kernels' `[f64; 4]` lanes do not
# vectorise: test them, and the exact work counts, in the release codegen
# the benchmark ships.
echo "==> cargo test --release -p cpq-core (lib kernels + work_counts_golden)"
cargo test --release -q -p cpq-core --lib --test work_counts_golden

# Analyze tier: cpq_analyze runs the three passes the compiler has no lint
# for (lock-order, atomics-pairing with its Relaxed-justification sweep,
# ordering-comment) over the workspace source and archives one report. Any
# finding fails the gate; there is no waiver and one configuration, the one
# crates/analyze/tests/real_workspace.rs ran above.
# (The /metrics exposition gate is a test:
# crates/service/tests/observability.rs, run by `cargo test` above.)
echo "==> cpq_analyze (multi-pass static analysis -> analysis_report.json)"
./target/release/cpq_analyze --root . --out target/analysis_report.json

# The sampling profiler on the insertion-build example it was written for
# (EXPERIMENTS.md "PR 25"), so that neither rots unseen: the report has to
# resolve samples to the R*-tree's own functions.
echo "==> scripts/sample.sh smoke (SIGPROF sampler on examples/rtree_build)"
cargo build --release --example rtree_build
scripts/sample.sh target/release/examples/rtree_build 1 | grep -q 'cpq_rtree::'

# The one runnable /metrics demo, on an ephemeral port for one second: it
# exits non-zero unless the service counted every query it issued as
# completed.
echo "==> metrics_endpoint smoke (/metrics demo; every query counted)"
cargo build --release --example metrics_endpoint
target/release/examples/metrics_endpoint 0 1 >/dev/null

# The benchmark's own four setup trees, page for page, by their seed-1
# fingerprints, and the `shard.*` probe's S = 4 shards of each `kcpq` side
# (both recorded in EXPERIMENTS.md). A write-path or shard-cut change that
# alters one page of a 62,536-point tree fails here.
# (The `""` keeps awk from comparing the hex strings as numbers, which would
# round them to doubles; `$NF` is the fingerprint column of both tables.)
echo "==> rtree_build seed 1: the benchmark's trees and shards keep their page fingerprints"
builds=$(target/release/examples/rtree_build 1)
for want in "kcpq.p 0x8cb47d02390be587" "kcpq.q 0x1de54f1c21b70ff5" \
    "svc_mix.p 0xac3d5cc0a25c72c5" "svc_mix.q 0x7b7a3e26c37b2697" \
    "shards.kcpq.p 0xb239145512a5aa6e" "shards.kcpq.q 0x539b351cf653c3aa"; do
    if ! echo "$builds" | awk -v tree="${want% *}" -v fp="${want#* }" \
        '$1 == tree && ($NF "") == fp { found = 1 } END { exit !found }'; then
        echo "rtree_build 1: the pages of ${want% *} changed (want ${want#* }):" >&2
        echo "$builds" >&2
        exit 1
    fi
done
# The bytes those four trees' pages store (`$(NF-1)`, the `stored` column):
# a page keeps only the prefix its node encodes (DESIGN.md §5). A write path
# that stores whole pages again keeps every fingerprint and fails here.
for want in "kcpq.p 1696932" "kcpq.q 1699836" "svc_mix.p 543804" "svc_mix.q 544156"; do
    if ! echo "$builds" | awk -v tree="${want% *}" -v bytes="${want#* }" \
        '$1 == tree && $(NF - 1) == bytes { found = 1 } END { exit !found }'; then
        echo "rtree_build 1: the stored bytes of ${want% *} changed (want ${want#* }):" >&2
        echo "$builds" >&2
        exit 1
    fi
done

# Model-check smoke tier: the concurrency shim is compiled in scheduler mode
# (--cfg cpq_model) and the harnesses run exhaustive/bounded DFS on the small
# models plus 200 seeded PCT schedules on the contended ones. A separate
# target dir keeps both cfg caches warm across CI runs.
echo "==> model-check smoke tier (cfg cpq_model: exhaustive DFS + 200-seed PCT)"
model_test() {
    RUSTFLAGS="--cfg cpq_model" CARGO_TARGET_DIR=target/model \
        cargo test -q "$@"
}
model_test -p cpq-check
model_test -p cpq-service --test model_queue
model_test -p cpq-storage --test model_buffer
model_test -p cpq-storage --lib sched::
model_test -p cpq-core --lib model_tests
model_test -p cpq-shard --lib model_tests
# Site #7 (epoch publish/reclaim, and a durable checkpoint's long-lived pin
# beside readers) with its pinned broken twin. (Site #8, the
# WAL's group commit, went with the protocol: the log has one lock.)
model_test -p cpq-live --lib model_tests

# Recovery smoke tier: the crash-injection harness truncates a real WAL at
# every record boundary (plus torn mid-record cuts), pairs every cut with
# both data images (crash-time and checkpoint), and asserts bit-identical
# K-CPQ answers after recovery: every cut x both data images.
echo "==> recovery smoke (crash at every WAL record boundary, bit-identical gate)"
cargo test --release -q -p cpq-live --test crash_recovery

# The out-of-workspace benchmark package path-depends on the crates above,
# so a workspace API change can break it unseen: run its own tests (code and
# BENCHMARK.json must agree), then its tiny preset, which exits non-zero on
# any divergent answer (every workload is gated bit-for-bit against memoised
# references and the direct engine). This is the repo's one bench step.
echo "==> benchmark package: cargo test --release + run.sh --smoke (zero-divergence gate)"
# (Same target dir as run.sh, so the package is compiled once.)
(cd benchmark && CARGO_TARGET_DIR=../target/benchmark/build cargo test --release --offline)
benchmark/run.sh --smoke >/dev/null
# The frozen benchmark: a crate that gains or drops a dependency makes
# Cargo rewrite benchmark/Cargo.lock, and only a change to the benchmark
# itself may touch anything under benchmark/.
if ! git diff --quiet -- benchmark/; then
    echo "benchmark/ changed during the build:" >&2
    git diff --stat -- benchmark/ >&2
    exit 1
fi
# The A/B script a gain claim is measured with, on this checkout against
# itself, so that it cannot rot unseen (one smoke pair of one workload —
# `run.sh --smoke` above ran all four; the table is not judged, a failed or
# wrong run is).
scripts/ab.sh . . --pairs 1 --workloads svc_mix --smoke >/dev/null

if [ "${1:-}" = "--full" ]; then
    # The sweep's cases draw worker-schedule scrambling and hazards too, so
    # it is also the parallel executor's wide stress tier.
    echo "==> differential harness: multi-seed sweep of the spec x executor x source x hazard matrix (release, --include-ignored)"
    cargo test --release --test differential -- --include-ignored

    echo "==> model-check full tier: widened PCT sweep (2000 seeds, release)"
    model_full() {
        RUSTFLAGS="--cfg cpq_model" CARGO_TARGET_DIR=target/model \
            CPQ_MODEL_SEEDS=2000 cargo test --release -q "$@"
    }
    model_full -p cpq-storage --test model_buffer pct_failing
    model_full -p cpq-storage --test model_buffer pct_checked
    model_full -p cpq-storage --test model_buffer pct_miss
    model_full -p cpq-core --lib model_tests::pct_

    # The figure gate: every figure and ablation at scale 1.0 must write
    # the committed results/*.csv byte for byte, and no CSV besides them.
    echo "==> figures all: every CSV byte-identical to results/"
    figs=$(mktemp -d)
    ./target/release/figures all --out "$figs" >/dev/null
    for csv in results/*.csv "$figs"/*.csv; do
        name=$(basename "$csv")
        if ! cmp -s "results/$name" "$figs/$name"; then
            echo "figure CSV differs from results/: $name" >&2
            rm -rf "$figs"
            exit 1
        fi
    done
    rm -rf "$figs"
fi

echo "==> CI green"
