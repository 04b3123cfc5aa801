//! Failure propagation the differential harness does not reach: a query
//! for no pairs reads no page, so it cannot fail. (Every join is held to
//! storage faults by the harness's hazards.)

use cpq_core::{k_closest_pairs_incremental, Traversal};
use cpq_geo::Point;
use cpq_rng::Rng;
use cpq_rtree::{RTree, RTreeParams};
use cpq_storage::{FailingPageFile, FailureControl, MemPageFile, DEFAULT_PAGE_SIZE};

mod common;

fn random_tree(n: usize, seed: u64) -> RTree<2> {
    let mut rng = Rng::seed_from_u64(seed);
    let mut coord = || rng.random_range(0.0..100.0);
    let points: Vec<_> = (0..n).map(|_| Point([coord(), coord()])).collect();
    common::build(&points, 0)
}

#[test]
fn the_incremental_join_at_k_zero_reads_nothing() {
    let mut rng = Rng::seed_from_u64(7);
    let mut coord = || rng.random_range(0.0..100.0);
    let points: Vec<_> = (0..300).map(|_| Point([coord(), coord()])).collect();
    let control = FailureControl::new();
    let file = FailingPageFile::new(
        Box::new(MemPageFile::new(DEFAULT_PAGE_SIZE)),
        control.clone(),
    );
    let (tp, tq) = (
        common::build_on(Box::new(file), RTreeParams::paper(), 0, &points),
        random_tree(300, 8),
    );
    tp.pool().reset_stats();
    control.fail_read(1);
    let out = k_closest_pairs_incremental(&tp, &tq, 0, Traversal::default())
        .expect("K = 0 asks for nothing, so nothing can fail");
    assert!(out.pairs.is_empty());
    assert_eq!(control.reads_seen(), 0, "K = 0 read a page");
    assert_eq!(tp.pool().buffer_stats().logical_reads, 0);
    // Armed at read 1, the first query that reads does fail.
    assert!(k_closest_pairs_incremental(&tp, &tq, 1, Traversal::default()).is_err());
}
