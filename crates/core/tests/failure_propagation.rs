//! Failure propagation through the executors the differential harness does
//! not reach: a corrupted page under one tree turns the semi closest-pair
//! result into `Err`. (The K-CPQ algorithms and the
//! incremental join are held to it by the harness's storage-fault hazards.)
//! And a query for no pairs reads no page, so it cannot fail.

use cpq_core::{k_closest_pairs_incremental, semi_closest_pairs, IncrementalConfig};
use cpq_geo::Point;
use cpq_rng::Rng;
use cpq_rtree::{RTree, RTreeParams};
use cpq_storage::{FailingPageFile, FailureControl, MemPageFile, PageId, DEFAULT_PAGE_SIZE};

mod common;

fn random_tree(n: usize, seed: u64) -> RTree<2> {
    let mut rng = Rng::seed_from_u64(seed);
    let mut coord = || rng.random_range(0.0..100.0);
    let points: Vec<_> = (0..n).map(|_| Point([coord(), coord()])).collect();
    common::build(&points, 0)
}

fn corrupt_all_but_root(tree: &RTree<2>) {
    // Corrupting every non-root page guarantees any traversal hits garbage.
    let garbage = vec![0xBAu8; tree.pool().page_size()];
    for p in 0..tree.pool().num_pages() {
        let id = PageId(p);
        if id != tree.root() {
            tree.pool().write_page(id, &garbage).unwrap();
        }
    }
}

#[test]
fn semi_surfaces_corruption() {
    let ta = random_tree(400, 5);
    let tb = random_tree(400, 6);
    corrupt_all_but_root(&tb);
    assert!(semi_closest_pairs(&ta, &tb).is_err());
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
    let out = k_closest_pairs_incremental(&tp, &tq, 0, &IncrementalConfig::default())
        .expect("K = 0 asks for nothing, so nothing can fail");
    assert!(out.pairs.is_empty());
    assert_eq!(control.reads_seen(), 0, "K = 0 read a page");
    assert_eq!(tp.pool().buffer_stats().logical_reads, 0);
    // Armed at read 1, the first query that reads does fail.
    assert!(k_closest_pairs_incremental(&tp, &tq, 1, &IncrementalConfig::default()).is_err());
}
