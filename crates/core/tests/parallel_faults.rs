//! Storage faults under parallel descent: an injected read error anywhere —
//! on the driver or inside a speculating worker — must surface as exactly
//! one `Err` from the query, never deadlock, and never poison a worker, a
//! pool, or a later query on the same trees.
//!
//! Note on ordinals: the parallel mode's shared node cache deduplicates
//! reads the sequential HEAP algorithm repeats, so a parallel query can
//! issue *fewer* physical reads than its sequential twin. Faults are
//! therefore armed at small ordinals every traversal reaches.

use std::time::Duration;

use cpq_core::{execute, k_closest_pairs, Algorithm, CancelToken, CpqConfig, ExecCtx, QuerySpec};
use cpq_datasets::uniform;
use cpq_rtree::RTreeError;
use cpq_storage::{PageId, StorageError};

mod common;
use common::{assert_same, build, build_failing};

#[test]
fn nth_read_failure_surfaces_exactly_one_error_then_recovers() {
    let p = uniform(800, 51);
    let q = uniform(800, 52);
    let (tp, control) = build_failing(&p.points);
    let tq = build(&q.points, 0);
    let cfg = CpqConfig::paper().with_parallelism(8);

    for alg in [Algorithm::Heap, Algorithm::SortedDistances] {
        control.fail_read(5);
        let err = k_closest_pairs(&tp, &tq, 10, alg, &cfg)
            .expect_err("armed read fault must fail the query");
        assert!(
            matches!(err, RTreeError::Storage(StorageError::Io(_))),
            "{}: want the injected I/O error, got {err:?}",
            alg.label()
        );

        // One shot, one error: the ordinal has fired, so without re-arming
        // the same trees answer correctly — no worker left anything poisoned.
        control.disarm();
        let seq = k_closest_pairs(&tp, &tq, 10, alg, &CpqConfig::paper()).unwrap();
        let par = k_closest_pairs(&tp, &tq, 10, alg, &cfg).unwrap();
        assert_same(&seq, &par, &format!("{} after disarm", alg.label()));
    }
}

#[test]
fn fault_in_either_tree_is_surfaced() {
    let p = uniform(800, 53);
    let q = uniform(800, 54);
    let (tp, cp) = build_failing(&p.points);
    let (tq, cq) = build_failing(&q.points);
    let cfg = CpqConfig::paper().with_parallelism(4);

    cp.fail_read(3);
    assert!(k_closest_pairs(&tp, &tq, 10, Algorithm::Heap, &cfg).is_err());
    cp.disarm();

    cq.fail_read(3);
    assert!(k_closest_pairs(&tp, &tq, 10, Algorithm::Heap, &cfg).is_err());
    cq.disarm();

    let seq = k_closest_pairs(&tp, &tq, 10, Algorithm::Heap, &CpqConfig::paper()).unwrap();
    let par = k_closest_pairs(&tp, &tq, 10, Algorithm::Heap, &cfg).unwrap();
    assert_same(&seq, &par, "after faults in both trees");
}

#[test]
fn corrupt_page_fails_the_query_until_disarmed() {
    let p = uniform(800, 55);
    let q = uniform(800, 56);
    let (tp, control) = build_failing(&p.points);
    let tq = build(&q.points, 0);
    let cfg = CpqConfig::paper().with_parallelism(8);

    // Corrupt a non-root page; a K=1000 query visits every page, so the
    // traversal is guaranteed to hit it (from the driver or a worker).
    let victim = (0..tp.pool().num_pages())
        .map(PageId)
        .find(|&id| id != tp.root())
        .expect("an 800-point tree has more than one page");
    control.corrupt(victim);
    let err = k_closest_pairs(&tp, &tq, 1000, Algorithm::Heap, &cfg)
        .expect_err("corrupt page must fail the query");
    assert!(
        matches!(err, RTreeError::Storage(StorageError::Corrupt { .. })),
        "want the corruption error, got {err:?}"
    );

    control.disarm();
    let seq = k_closest_pairs(&tp, &tq, 1000, Algorithm::Heap, &CpqConfig::paper()).unwrap();
    let par = k_closest_pairs(&tp, &tq, 1000, Algorithm::Heap, &cfg).unwrap();
    assert_same(&seq, &par, "after corruption disarmed");
}

/// Faults racing cancellation under slow I/O: whatever wins, the query
/// returns promptly — an error or a clean partial, never a hang, and the
/// error (when it wins) is the storage fault, not `Cancelled` dressed up.
#[test]
fn fault_racing_deadline_never_deadlocks() {
    let p = uniform(1_500, 57);
    let q = uniform(1_500, 58);
    let (tp, control) = build_failing(&p.points);
    let tq = build(&q.points, 0);
    let mut cfg = CpqConfig::paper().with_parallelism(8);
    cfg.parallel_yield_seed = Some(3);

    for trial in 0..4u64 {
        control.slow_reads(Duration::from_micros(150));
        control.fail_read(20 + trial * 7);
        let token = CancelToken::expiring_in(Duration::from_millis(8 + trial));
        match execute(
            &tp,
            &tq,
            &QuerySpec::cross(25),
            Algorithm::Heap,
            &cfg,
            ExecCtx::default().with_cancel(&token),
        ) {
            Ok(run) => assert!(!run.completed, "trial {trial}: deadline won, partial run"),
            Err(e) => assert!(
                matches!(e, RTreeError::Storage(_)),
                "trial {trial}: only the injected fault may error, got {e:?}"
            ),
        }
        control.disarm();
    }

    // After all that abuse the trees still produce exact answers.
    let seq = k_closest_pairs(&tp, &tq, 25, Algorithm::Heap, &CpqConfig::paper()).unwrap();
    let par = k_closest_pairs(&tp, &tq, 25, Algorithm::Heap, &cfg).unwrap();
    assert_same(&seq, &par, "after fault/deadline races");
}
