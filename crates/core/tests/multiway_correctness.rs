//! Multi-way CPQ correctness: exact agreement with the exponential brute
//! force for chains and cliques over 2, 3 and 4 data sets.

use cpq_core::multiway::k_closest_tuples_brute;
use cpq_core::{k_closest_pairs, k_closest_tuples, Algorithm, CpqConfig, TupleMetric};
use cpq_datasets::uniform;
use cpq_geo::Point2;
use cpq_rng::Rng;
use cpq_rtree::RTree;

mod common;
use common::indexed;

#[test]
fn three_way_chain_matches_brute_force() {
    let a = uniform(60, 1);
    let b = uniform(50, 2);
    let c = uniform(40, 3);
    let (ta, tb, tc) = (
        common::build(&a.points, 64),
        common::build(&b.points, 64),
        common::build(&c.points, 64),
    );
    let (ia, ib, ic) = (indexed(&a.points), indexed(&b.points), indexed(&c.points));
    for k in [1usize, 5, 25] {
        for metric in [TupleMetric::Chain, TupleMetric::Clique] {
            let got = k_closest_tuples(&[&ta, &tb, &tc], k, metric).unwrap();
            let expected = k_closest_tuples_brute(&[&ia, &ib, &ic], k, metric);
            assert_eq!(got.tuples.len(), expected.len(), "{metric:?} k={k}");
            for (i, (g, e)) in got.tuples.iter().zip(&expected).enumerate() {
                assert!(
                    (g.distance - e.distance).abs() < 1e-9,
                    "{metric:?} k={k} tuple {i}: {} vs {}",
                    g.distance,
                    e.distance
                );
            }
            // Emission order is non-decreasing.
            for w in got.tuples.windows(2) {
                assert!(w[0].distance <= w[1].distance + 1e-12);
            }
        }
    }
}

#[test]
fn four_way_chain_matches_brute_force() {
    let sets: Vec<_> = (0..4).map(|i| uniform(18, 10 + i)).collect();
    let trees: Vec<_> = sets.iter().map(|s| common::build(&s.points, 64)).collect();
    let tree_refs: Vec<&RTree<2>> = trees.iter().collect();
    let idx: Vec<Vec<(Point2, u64)>> = sets.iter().map(|s| indexed(&s.points)).collect();
    let idx_refs: Vec<&[(Point2, u64)]> = idx.iter().map(|v| v.as_slice()).collect();
    let got = k_closest_tuples(&tree_refs, 8, TupleMetric::Chain).unwrap();
    let expected = k_closest_tuples_brute(&idx_refs, 8, TupleMetric::Chain);
    for (g, e) in got.tuples.iter().zip(&expected) {
        assert!((g.distance - e.distance).abs() < 1e-9);
    }
}

#[test]
fn two_way_reduces_to_ordinary_kcpq() {
    let a = uniform(150, 20);
    let b = uniform(150, 21);
    let (ta, tb) = (common::build(&a.points, 64), common::build(&b.points, 64));
    let tuples = k_closest_tuples(&[&ta, &tb], 12, TupleMetric::Chain).unwrap();
    let pairs = k_closest_pairs(&ta, &tb, 12, Algorithm::Heap, &CpqConfig::paper()).unwrap();
    assert_eq!(tuples.tuples.len(), pairs.pairs.len());
    for (t, p) in tuples.tuples.iter().zip(&pairs.pairs) {
        assert!((t.distance - p.distance()).abs() < 1e-9);
    }
}

#[test]
fn edge_cases() {
    let a = uniform(10, 30);
    let ta = common::build(&a.points, 64);
    let empty = common::build(&[], 64);
    // Empty member set -> empty result.
    let out = k_closest_tuples(&[&ta, &empty, &ta], 5, TupleMetric::Chain).unwrap();
    assert!(out.tuples.is_empty());
    // K = 0 -> empty.
    let out = k_closest_tuples(&[&ta, &ta], 0, TupleMetric::Chain).unwrap();
    assert!(out.tuples.is_empty());
    // K beyond the product -> everything.
    let b = uniform(3, 31);
    let tb = common::build(&b.points, 64);
    let out = k_closest_tuples(&[&ta, &tb], 10_000, TupleMetric::Clique).unwrap();
    assert_eq!(out.tuples.len(), 30);
}

#[test]
#[should_panic]
fn single_tree_rejected() {
    let a = uniform(5, 32);
    let ta = common::build(&a.points, 64);
    let _ = k_closest_tuples(&[&ta], 1, TupleMetric::Chain);
}

#[test]
fn same_tree_multiple_roles() {
    // The same physical tree may serve several tuple positions.
    let a = uniform(40, 33);
    let ta = common::build(&a.points, 64);
    let ia = indexed(&a.points);
    let got = k_closest_tuples(&[&ta, &ta, &ta], 3, TupleMetric::Chain).unwrap();
    let expected = k_closest_tuples_brute(&[&ia, &ia, &ia], 3, TupleMetric::Chain);
    for (g, e) in got.tuples.iter().zip(&expected) {
        assert!((g.distance - e.distance).abs() < 1e-9);
    }
    // Trivially, the best tuple repeats one point three times: distance 0.
    assert_eq!(got.tuples[0].distance, 0.0);
}

/// Random 3-way instances (a fixed-seed loop) agree with brute force for
/// both graphs.
#[test]
fn random_three_way_agrees() {
    let mut rng = Rng::seed_from_u64(0xC0441);
    for case in 0..24u64 {
        let na = rng.random_range(3usize..25);
        let nb = rng.random_range(3usize..25);
        let nc = rng.random_range(3usize..25);
        let k = rng.random_range(1usize..12);
        let seed = rng.random_range(0u64..1000);
        let clique = rng.random_bool(0.5);
        let a = uniform(na, seed);
        let b = uniform(nb, seed + 1);
        let c = uniform(nc, seed + 2);
        let (ta, tb, tc) = (
            common::build(&a.points, 64),
            common::build(&b.points, 64),
            common::build(&c.points, 64),
        );
        let (ia, ib, ic) = (indexed(&a.points), indexed(&b.points), indexed(&c.points));
        let metric = if clique {
            TupleMetric::Clique
        } else {
            TupleMetric::Chain
        };
        let got = k_closest_tuples(&[&ta, &tb, &tc], k, metric).unwrap();
        let expected = k_closest_tuples_brute(&[&ia, &ib, &ic], k, metric);
        assert_eq!(got.tuples.len(), expected.len(), "case {case}");
        for (g, e) in got.tuples.iter().zip(&expected) {
            assert!(
                (g.distance - e.distance).abs() < 1e-9,
                "case {case}: {} vs {}",
                g.distance,
                e.distance
            );
        }
    }
}
