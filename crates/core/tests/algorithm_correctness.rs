//! What the workspace's differential harness (`tests/differential.rs`) does
//! not reach: a third dimension, and the cost side of the
//! algorithms — counters populated, HEAP/STD beating EXH, a window that
//! shrinks the traversal. Parity with the oracle for every 2-D K-CPQ spec,
//! algorithm and configuration lives in the harness.

use cpq_core::{
    brute, execute, k_closest_pairs, Algorithm, Constraint, CpqConfig, ExecCtx, QuerySpec,
};
use cpq_datasets::{clustered, uniform, ClusterSpec, WORKSPACE_SIDE};
use cpq_geo::{Point, Rect2};
use cpq_rng::Rng;
use cpq_rtree::RTreeParams;
use cpq_storage::MemPageFile;

mod common;
use common::build;

#[test]
fn three_dimensional_cpq() {
    let mut rng = Rng::seed_from_u64(26);
    let mut gen3 = |n: usize| -> Vec<Point<3>> {
        let mut coord = || rng.random_range(0.0..100.0);
        (0..n).map(|_| Point([coord(), coord(), coord()])).collect()
    };
    let (ps, qs) = (gen3(200), gen3(150));
    let build3 = |pts: &[Point<3>]| {
        let params = RTreeParams::for_page_size(1024, 3);
        common::build_on(Box::new(MemPageFile::new(1024)), params, 32, pts)
    };
    let (tp, tq) = (build3(&ps), build3(&qs));
    let expected = brute::k_closest_pairs_brute(&common::indexed(&ps), &common::indexed(&qs), 7);
    for alg in Algorithm::EVALUATED {
        let out = k_closest_pairs(&tp, &tq, 7, alg, &CpqConfig::paper()).unwrap();
        assert_eq!(out.pairs.len(), 7);
        for (i, (g, e)) in out.pairs.iter().zip(&expected).enumerate() {
            assert!(
                (g.dist2.get() - e.dist2.get()).abs() < 1e-9,
                "3d {} pair {i}",
                alg.label()
            );
        }
    }
}

#[test]
fn stats_are_populated() {
    let p = uniform(500, 27);
    let q = uniform(500, 28);
    let tp = build(&p.points, 0);
    let tq = build(&q.points, 0);
    let out = k_closest_pairs(&tp, &tq, 10, Algorithm::Heap, &CpqConfig::paper()).unwrap();
    let s = out.stats;
    assert!(s.disk_accesses() > 0, "zero-buffer run must hit the disk");
    assert!(s.node_pairs_processed > 0);
    assert!(s.dist_computations > 0);
    assert!(s.queue_inserts > 0);
    assert!(s.queue_peak > 0);
}

#[test]
fn heap_beats_exhaustive_on_disk_accesses() {
    // The paper's headline: HEAP/STD prune far better than EXH (Figure 4).
    let p = clustered(2000, ClusterSpec::default(), 42);
    let q = uniform(2000, 43);
    let tp = build(&p.points, 0);
    let tq = build(&q.points, 0);
    let run = |alg| {
        let out = k_closest_pairs(&tp, &tq, 1, alg, &CpqConfig::paper()).unwrap();
        out.stats.disk_accesses()
    };
    let exh = run(Algorithm::Exhaustive);
    let heap = run(Algorithm::Heap);
    let std = run(Algorithm::SortedDistances);
    assert!(heap < exh, "HEAP ({heap}) must beat EXH ({exh})");
    assert!(std < exh, "STD ({std}) must beat EXH ({exh})");
}

/// The windowed traversal must *use* the window rather than scan and
/// post-filter: on clustered data, unbuffered (so disk accesses are node
/// accesses), shrinking the window must never cost more node accesses.
#[test]
fn node_accesses_do_not_grow_as_window_shrinks() {
    let p = clustered(1_500, ClusterSpec::default(), 3);
    let q = clustered(1_500, ClusterSpec::default(), 4);
    let (tp, tq) = (build(&p.points, 0), build(&q.points, 0));
    let accesses: Vec<(f64, u64)> = [1.0, 0.5, 0.25, 0.125]
        .into_iter()
        .map(|frac| {
            let side = WORKSPACE_SIDE * frac;
            let window = Rect2::from_corners([0.0, 0.0], [side, side]);
            let spec = QuerySpec::cross(10).with_constraint(Constraint::window(window));
            let cfg = CpqConfig::paper();
            let run = execute(&tp, &tq, &spec, Algorithm::Heap, &cfg, ExecCtx::default()).unwrap();
            (frac, run.outcome.stats.disk_accesses())
        })
        .collect();
    for pair in accesses.windows(2) {
        assert!(
            pair[1].1 <= pair[0].1,
            "node accesses grew as the window shrank: {accesses:?}"
        );
    }
}

/// `K` is outside input and no bound on memory: K = 2^40 preallocates a
/// capped K-heap (`min(K, |P|·|Q|)` entries up front would be 112 GB on the
/// benchmark's trees) that grows past the cap on demand, and every one of
/// the 90,000 pairs comes back in canonical order.
#[test]
fn huge_k_returns_every_pair_in_canonical_order() {
    let p = uniform(300, 31);
    let q = uniform(300, 32);
    let (tp, tq) = (build(&p.points, 32), build(&q.points, 32));
    let want = brute::k_closest_pairs_brute(&p.indexed(), &q.indexed(), usize::MAX);
    assert_eq!(want.len(), 90_000);
    for alg in [Algorithm::Heap, Algorithm::SortedDistances] {
        let out = k_closest_pairs(&tp, &tq, 1 << 40, alg, &CpqConfig::paper()).unwrap();
        assert_eq!(out.pairs, want, "{}", alg.label());
    }
}
