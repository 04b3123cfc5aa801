//! Concurrency stress for the parallel executor: many seeds, maximum
//! speculation, deterministic yield injection to scramble thread schedules,
//! and cancellation firing at awkward moments (before the run, mid-steal,
//! and via deadline while page reads are artificially slow).
//!
//! The invariants under stress are exactly the parity contract: results
//! bit-identical to sequential, partial results a valid sorted prefix, no
//! deadlock, no poisoned state (a rerun on the same trees succeeds).
//!
//! The `#[ignore]`-marked wide sweep is the release-mode stage `scripts/ci.sh
//! --full` runs with `--include-ignored`.

use std::sync::Arc;
use std::time::Duration;

use cpq_core::{
    execute, k_closest_pairs, pair_cmp, self_closest_pairs, Algorithm, CancelToken, CpqConfig,
    ExecCtx, QueryRun, QuerySpec,
};
use cpq_datasets::uniform;
use cpq_geo::Point2;
use cpq_rtree::RTree;
use cpq_storage::FailureControl;

mod common;
use common::{assert_same, build, build_failing};

/// Builds a tree whose page file sleeps on every read, so queries spend
/// real wall-clock time inside I/O and deadlines trip mid-traversal. The
/// latency is armed after the build (inserts run at memory speed); the
/// returned control can disarm it again for fast follow-up parity runs.
fn build_slow(points: &[Point2], latency: Duration) -> (RTree<2>, Arc<FailureControl>) {
    let (tree, control) = build_failing(points);
    control.slow_reads(latency);
    (tree, control)
}

/// HEAP for the `k` closest pairs under a cancel token.
fn heap_under(
    tp: &RTree<2>,
    tq: &RTree<2>,
    k: usize,
    cfg: &CpqConfig,
    token: &CancelToken,
) -> QueryRun<2> {
    execute(
        tp,
        tq,
        &QuerySpec::cross(k),
        Algorithm::Heap,
        cfg,
        ExecCtx::default().with_cancel(token),
    )
    .unwrap()
}

fn stress_seed(seed: u64) {
    let p = uniform(400, seed.wrapping_mul(2).wrapping_add(1));
    let q = uniform(400, seed.wrapping_mul(2).wrapping_add(2));
    let (tp, tq) = (build(&p.points, 0), build(&q.points, 0));
    let base = CpqConfig::paper();
    let mut noisy = base.with_parallelism(8);
    noisy.parallel_yield_seed = Some(seed);
    for alg in [Algorithm::Heap, Algorithm::SortedDistances] {
        let seq = k_closest_pairs(&tp, &tq, 25, alg, &base).unwrap();
        let par = k_closest_pairs(&tp, &tq, 25, alg, &noisy).unwrap();
        assert_same(&seq, &par, &format!("seed={seed} {}", alg.label()));

        let seq = self_closest_pairs(&tp, 25, alg, &base).unwrap();
        let par = self_closest_pairs(&tp, 25, alg, &noisy).unwrap();
        assert_same(&seq, &par, &format!("seed={seed} self {}", alg.label()));
    }
}

#[test]
fn multi_seed_yield_injection_parity() {
    for seed in 0..6 {
        stress_seed(seed);
    }
}

/// The wide sweep: 64 seeds of schedule-scrambled parity. Slow in debug
/// builds, so it is ignored by default; `scripts/ci.sh --full` runs it in
/// release mode via `--include-ignored`.
#[test]
#[ignore = "wide stress sweep; run in release via scripts/ci.sh --full"]
fn wide_seed_sweep_release() {
    for seed in 0..64 {
        stress_seed(seed);
    }
}

#[test]
fn pre_cancelled_token_stops_before_work_and_leaves_no_poison() {
    let p = uniform(300, 41);
    let q = uniform(300, 42);
    let (tp, tq) = (build(&p.points, 0), build(&q.points, 0));
    let cfg = CpqConfig::paper().with_parallelism(8);

    let token = CancelToken::new();
    token.cancel();
    let run = heap_under(&tp, &tq, 10, &cfg, &token);
    assert!(!run.completed, "pre-tripped token must abort the run");
    assert!(
        run.outcome.pairs.is_empty(),
        "no work before the root reads"
    );

    // The trees and their pools are untouched: a fresh run still matches
    // sequential exactly.
    let seq = k_closest_pairs(&tp, &tq, 10, Algorithm::Heap, &CpqConfig::paper()).unwrap();
    let fresh = CancelToken::new();
    let rerun = heap_under(&tp, &tq, 10, &cfg, &fresh);
    assert!(rerun.completed);
    assert_same(&seq, &rerun.outcome, "rerun after pre-cancel");
}

/// Deadline trips while workers are mid-steal on slow I/O: the query must
/// come back promptly (no deadlock) with a sorted, internally-consistent
/// partial, and the trees must remain usable.
#[test]
fn deadline_mid_run_returns_sorted_partial_without_deadlock() {
    let p = uniform(6_000, 43);
    let q = uniform(6_000, 44);
    // 600us per read keeps even the 8-thread run an order of magnitude
    // past the deadline (release builds included), so expiry always lands
    // mid-traversal.
    let (tp, cp) = build_slow(&p.points, Duration::from_micros(600));
    let (tq, cq) = build_slow(&q.points, Duration::from_micros(600));
    let mut cfg = CpqConfig::paper().with_parallelism(8);
    cfg.parallel_yield_seed = Some(7);

    let token = CancelToken::expiring_in(Duration::from_millis(25));
    let run = heap_under(&tp, &tq, 50, &cfg, &token);
    assert!(
        !run.completed,
        "a 25ms budget cannot finish 6k x 6k over 600us page reads"
    );
    let pairs = &run.outcome.pairs;
    assert!(pairs.len() <= 50);
    for w in pairs.windows(2) {
        assert!(
            pair_cmp(&w[0], &w[1]).is_le(),
            "partial result must stay sorted by the canonical order"
        );
    }
    for pr in pairs {
        assert!(pr.dist2.get().is_finite() && pr.dist2.get() >= 0.0);
    }

    // No worker poisoned anything: the same trees answer a fresh unbounded
    // query with the exact sequential result (latency disarmed — parity
    // needs no slow I/O).
    cp.disarm();
    cq.disarm();
    let seq = k_closest_pairs(&tp, &tq, 5, Algorithm::Heap, &CpqConfig::paper()).unwrap();
    let par = k_closest_pairs(&tp, &tq, 5, Algorithm::Heap, &cfg).unwrap();
    assert_same(&seq, &par, "rerun after deadline abort");
}

/// Manual cancellation fired from another thread while 8 workers are
/// stealing across shards: the run stops, returns, and never hangs.
#[test]
fn cancel_during_steal_from_another_thread() {
    let p = uniform(6_000, 45);
    let q = uniform(6_000, 46);
    let (tp, _cp) = build_slow(&p.points, Duration::from_micros(600));
    let (tq, _cq) = build_slow(&q.points, Duration::from_micros(600));
    let mut cfg = CpqConfig::paper().with_parallelism(8);
    cfg.parallel_yield_seed = Some(11);

    let token = CancelToken::new();
    std::thread::scope(|scope| {
        let killer = token.clone();
        scope.spawn(move || {
            std::thread::sleep(Duration::from_millis(15));
            killer.cancel();
        });
        let run = heap_under(&tp, &tq, 50, &cfg, &token);
        assert!(!run.completed, "mid-run cancel must interrupt the query");
        for w in run.outcome.pairs.windows(2) {
            assert!(pair_cmp(&w[0], &w[1]).is_le());
        }
    });
}
