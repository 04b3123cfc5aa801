//! Extended-object (rectangle) support: every query algorithm works over
//! trees of `Rect` objects with MBR distance semantics, verified against
//! brute force.

use cpq_core::{
    brute, k_closest_pairs, k_closest_pairs_incremental, self_closest_pairs, semi_closest_pairs,
    Algorithm, CpqConfig, IncrementalConfig,
};
use cpq_datasets::uniform_rects;
use cpq_geo::{min_min_dist2, Rect2};
use cpq_rtree::{RTree, RTreeParams};
use cpq_storage::{MemPageFile, DEFAULT_PAGE_SIZE};

mod common;
use common::indexed;

fn rect_tree(rects: &[Rect2]) -> RTree<2, Rect2> {
    // Rect leaf entries are larger than point entries: derive a fitting M.
    let params = RTreeParams::for_page_size_with(DEFAULT_PAGE_SIZE, 2, 32);
    let file = MemPageFile::new(DEFAULT_PAGE_SIZE);
    common::build_on(Box::new(file), params, 64, rects)
}

#[test]
fn rect_tree_valid_and_searchable() {
    let rects = uniform_rects(2000, 15.0, 1);
    let mut tree = rect_tree(&rects);
    tree.assert_valid();
    assert_eq!(tree.len(), 2000);
    for (i, r) in rects.iter().take(50).enumerate() {
        assert!(tree.contains(r, i as u64).unwrap());
    }
    // Range query agrees with brute-force MBR intersection.
    let window = Rect2::from_corners([200.0, 200.0], [400.0, 400.0]);
    let mut got: Vec<u64> = tree
        .range_query(&window)
        .unwrap()
        .iter()
        .map(|e| e.oid)
        .collect();
    got.sort_unstable();
    let mut expected: Vec<u64> = rects
        .iter()
        .enumerate()
        .filter(|(_, r)| r.intersects(&window))
        .map(|(i, _)| i as u64)
        .collect();
    expected.sort_unstable();
    assert_eq!(got, expected);
    // Deletion keeps it valid.
    for (i, &r) in rects.iter().take(800).enumerate() {
        assert!(tree.delete(r, i as u64).unwrap());
    }
    tree.assert_valid();
}

#[test]
fn rect_kcpq_matches_brute_force_all_algorithms() {
    let ps = uniform_rects(300, 12.0, 2);
    let qs = uniform_rects(250, 12.0, 3);
    let tp = rect_tree(&ps);
    let tq = rect_tree(&qs);
    for k in [1usize, 10, 40] {
        let expected = brute::k_closest_pairs_brute(&indexed(&ps), &indexed(&qs), k);
        for alg in Algorithm::EVALUATED {
            let out = k_closest_pairs(&tp, &tq, k, alg, &CpqConfig::paper()).unwrap();
            assert_eq!(out.pairs.len(), expected.len());
            for (i, (g, e)) in out.pairs.iter().zip(&expected).enumerate() {
                assert!(
                    (g.dist2.get() - e.dist2.get()).abs() < 1e-9,
                    "{} k={k} pair {i}: {} vs {}",
                    alg.label(),
                    g.dist2.get(),
                    e.dist2.get()
                );
            }
        }
    }
}

#[test]
fn rect_pair_distance_is_mbr_minmindist() {
    let ps = uniform_rects(100, 20.0, 4);
    let qs = uniform_rects(100, 20.0, 5);
    let tp = rect_tree(&ps);
    let tq = rect_tree(&qs);
    let out = k_closest_pairs(&tp, &tq, 5, Algorithm::Heap, &CpqConfig::paper()).unwrap();
    for r in &out.pairs {
        let expect = min_min_dist2(&ps[r.p.oid as usize], &qs[r.q.oid as usize]);
        assert_eq!(r.dist2, expect);
    }
    // Overlapping rectangles exist at this density: distance 0 pairs first.
    assert_eq!(out.pairs[0].dist2.get(), 0.0);
}

#[test]
fn rect_incremental_and_semi_and_self() {
    let ps = uniform_rects(150, 10.0, 6);
    let qs = uniform_rects(150, 10.0, 7);
    let tp = rect_tree(&ps);
    let tq = rect_tree(&qs);

    let expected = brute::k_closest_pairs_brute(&indexed(&ps), &indexed(&qs), 20);
    let out = k_closest_pairs_incremental(&tp, &tq, 20, &IncrementalConfig::default()).unwrap();
    for (g, e) in out.pairs.iter().zip(&expected) {
        assert!((g.dist2.get() - e.dist2.get()).abs() < 1e-9, "incremental");
    }

    let semi = semi_closest_pairs(&tp, &tq).unwrap();
    let expected = brute::semi_closest_pairs_brute(&indexed(&ps), &indexed(&qs));
    assert_eq!(semi.pairs.len(), expected.len());
    for (g, e) in semi.pairs.iter().zip(&expected) {
        assert!((g.dist2.get() - e.dist2.get()).abs() < 1e-9, "semi");
    }

    let selfk = self_closest_pairs(&tp, 10, Algorithm::Heap, &CpqConfig::paper()).unwrap();
    let expected = brute::self_k_closest_pairs_brute(&indexed(&ps), 10);
    for (g, e) in selfk.pairs.iter().zip(&expected) {
        assert!((g.dist2.get() - e.dist2.get()).abs() < 1e-9, "self");
    }
}
