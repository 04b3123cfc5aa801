//! Failure propagation through the executors the differential harness does
//! not reach: a corrupted page under one tree turns the semi and multiway
//! closest-pair results into `Err`. (The K-CPQ algorithms and the
//! incremental join are held to it by the harness's storage-fault hazards.)

use cpq_core::{k_closest_tuples, semi_closest_pairs, TupleMetric};
use cpq_geo::Point;
use cpq_rng::Rng;
use cpq_rtree::RTree;
use cpq_storage::PageId;

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
fn semi_and_multiway_surface_corruption() {
    let ta = random_tree(400, 5);
    let tb = random_tree(400, 6);
    corrupt_all_but_root(&tb);
    assert!(semi_closest_pairs(&ta, &tb).is_err());
    assert!(k_closest_tuples(&[&ta, &tb], 2, TupleMetric::Chain).is_err());
}
