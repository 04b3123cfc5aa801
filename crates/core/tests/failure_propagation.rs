//! Failure propagation through the query algorithms: a corrupted page under
//! either tree turns every algorithm's result into `Err`.

use cpq_core::{
    distance_join, k_closest_pairs, k_closest_tuples, semi_closest_pairs, Algorithm, CpqConfig,
    IncrementalConfig, TupleMetric,
};
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
fn every_algorithm_surfaces_corruption() {
    let ta = random_tree(600, 1);
    let tb = random_tree(600, 2);
    corrupt_all_but_root(&tb);
    for alg in [
        Algorithm::Naive,
        Algorithm::Exhaustive,
        Algorithm::Simple,
        Algorithm::SortedDistances,
        Algorithm::Heap,
    ] {
        let r = k_closest_pairs(&ta, &tb, 3, alg, &CpqConfig::paper());
        assert!(r.is_err(), "{} must report corruption", alg.label());
    }
}

#[test]
fn incremental_join_surfaces_corruption() {
    let ta = random_tree(600, 3);
    let tb = random_tree(600, 4);
    corrupt_all_but_root(&tb);
    let mut join = distance_join(&ta, &tb, IncrementalConfig::default());
    // The stream must yield an Err (possibly after some valid pairs).
    let saw_error = join.any(|r| r.is_err());
    assert!(saw_error, "incremental stream must surface the corruption");
}

#[test]
fn semi_and_multiway_surface_corruption() {
    let ta = random_tree(400, 5);
    let tb = random_tree(400, 6);
    corrupt_all_but_root(&tb);
    assert!(semi_closest_pairs(&ta, &tb).is_err());
    assert!(k_closest_tuples(&[&ta, &tb], 2, TupleMetric::Chain).is_err());
}
