//! End-to-end behavioral tests for the R*-tree: queries agree with brute
//! force, invariants hold after mutation, trees persist across reopen.

use cpq_geo::{Point, Rect};
use cpq_rng::Rng;
use cpq_rtree::{RTree, RTreeError, RTreeParams};
use cpq_storage::{BufferPool, DiskPageFile, MemPageFile, PageId};

fn mem_pool(buffer: usize) -> BufferPool {
    BufferPool::with_lru(Box::new(MemPageFile::new(1024)), buffer)
}

fn rng(seed: u64) -> Rng {
    Rng::seed_from_u64(seed)
}

fn random_points(n: usize, seed: u64) -> Vec<Point<2>> {
    let mut r = rng(seed);
    (0..n)
        .map(|_| Point([r.random_range(0.0..1000.0), r.random_range(0.0..1000.0)]))
        .collect()
}

fn build_tree(points: &[Point<2>], buffer: usize) -> RTree<2> {
    let mut tree = RTree::new(mem_pool(buffer), RTreeParams::paper()).unwrap();
    for (i, &p) in points.iter().enumerate() {
        tree.insert(p, i as u64).unwrap();
    }
    tree
}

#[test]
fn empty_tree_basics() {
    let tree: RTree<2> = RTree::new(mem_pool(16), RTreeParams::paper()).unwrap();
    assert!(tree.is_empty());
    assert_eq!(tree.height(), 0);
    assert_eq!(tree.root(), PageId::INVALID);
    assert_eq!(tree.root_mbr().unwrap(), None);
    assert!(tree
        .range_query(&Rect::from_corners([0.0, 0.0], [1.0, 1.0]))
        .unwrap()
        .is_empty());
    assert!(tree.knn(&Point([0.0, 0.0]), 3).unwrap().is_empty());
    tree.assert_valid();
}

#[test]
fn insert_grows_height_and_stays_valid() {
    let points = random_points(2000, 7);
    let tree = build_tree(&points, 64);
    assert_eq!(tree.len(), 2000);
    assert!(tree.height() >= 3, "2000 points with M=21 need height >= 3");
    tree.assert_valid();
    // Every point findable.
    for (i, p) in points.iter().enumerate() {
        assert!(tree.contains(p, i as u64).unwrap(), "point {i} lost");
    }
}

#[test]
fn range_query_agrees_with_brute_force() {
    let points = random_points(800, 11);
    let tree = build_tree(&points, 64);
    let mut r = rng(12);
    for _ in 0..25 {
        let x = r.random_range(0.0..900.0);
        let y = r.random_range(0.0..900.0);
        let w = r.random_range(0.0..300.0);
        let h = r.random_range(0.0..300.0);
        let window = Rect::from_corners([x, y], [x + w, y + h]);
        let mut got: Vec<u64> = tree
            .range_query(&window)
            .unwrap()
            .iter()
            .map(|e| e.oid)
            .collect();
        got.sort_unstable();
        let mut expected: Vec<u64> = points
            .iter()
            .enumerate()
            .filter(|(_, p)| window.contains_point(p))
            .map(|(i, _)| i as u64)
            .collect();
        expected.sort_unstable();
        assert_eq!(got, expected);
    }
}

#[test]
fn knn_agrees_with_brute_force() {
    let points = random_points(600, 21);
    let tree = build_tree(&points, 64);
    let mut r = rng(22);
    for _ in 0..20 {
        let q = Point([r.random_range(0.0..1000.0), r.random_range(0.0..1000.0)]);
        // K is outside input: 0, |P|+1 and absurd values return what exists.
        for k in [0usize, 1, 5, 17, points.len() + 1, 1 << 44, usize::MAX] {
            let got = tree.knn(&q, k).unwrap();
            assert_eq!(got.len(), k.min(points.len()));
            // Distances must be non-decreasing.
            for w in got.windows(2) {
                assert!(w[0].dist2 <= w[1].dist2);
            }
            // Compare the distance multiset with brute force (points may tie).
            let mut brute: Vec<f64> = points.iter().map(|p| p.dist2(&q)).collect();
            brute.sort_by(f64::total_cmp);
            for (i, n) in got.iter().enumerate() {
                assert!(
                    (n.dist2.get() - brute[i]).abs() < 1e-9,
                    "k={k} neighbor {i}: got {} expected {}",
                    n.dist2.get(),
                    brute[i]
                );
            }
        }
    }
}

#[test]
fn knn_with_k_larger_than_tree() {
    let points = random_points(10, 31);
    let tree = build_tree(&points, 16);
    let got = tree.knn(&Point([0.0, 0.0]), 50).unwrap();
    assert_eq!(got.len(), 10, "k beyond |tree| returns all points");
}

#[test]
fn delete_removes_and_preserves_invariants() {
    let points = random_points(700, 41);
    let mut tree = build_tree(&points, 64);
    let mut r = rng(42);
    let mut live: Vec<usize> = (0..points.len()).collect();
    // Delete 500 random points, validating as we go.
    for step in 0..500 {
        let pos = r.random_range(0..live.len());
        let idx = live.swap_remove(pos);
        assert!(
            tree.delete(points[idx], idx as u64).unwrap(),
            "step {step}: delete of live point failed"
        );
        if step % 50 == 0 {
            tree.assert_valid();
        }
    }
    tree.assert_valid();
    assert_eq!(tree.len(), 200);
    for &idx in &live {
        assert!(tree.contains(&points[idx], idx as u64).unwrap());
    }
    // Deleted points are gone.
    assert!(!tree.contains(&points[0], 0).unwrap() || live.contains(&0));
}

/// Seeded interleavings of inserts and deletes, at node capacities from 4
/// to 11, keep the tree valid and equal to a shadow model.
#[test]
fn interleaved_ops_preserve_invariants() {
    for seed in 0..48 {
        let mut r = rng(seed);
        let params = RTreeParams::with_max_entries(r.random_range(4..12usize));
        let mut tree: RTree<2> = RTree::new(mem_pool(64), params).unwrap();
        let mut live: Vec<(Point<2>, u64)> = Vec::new();
        for oid in 0..r.random_range(1..150u64) {
            if r.random_bool(0.25) {
                if !live.is_empty() {
                    let (p, oid) = live.swap_remove(r.random_range(0..live.len()));
                    assert!(tree.delete(p, oid).unwrap(), "seed {seed}");
                }
            } else {
                let p = Point([r.random_range(0.0..100.0), r.random_range(0.0..100.0)]);
                tree.insert(p, oid).unwrap();
                live.push((p, oid));
            }
        }
        let report = tree.validate().unwrap();
        assert!(report.is_valid(), "seed {seed}: {:?}", report.violations);
        assert_eq!(tree.len(), live.len() as u64, "seed {seed}");
        for (p, oid) in &live {
            assert!(tree.contains(p, *oid).unwrap(), "seed {seed}: {oid} lost");
        }
    }
}

#[test]
fn delete_to_empty_and_reuse() {
    let points = random_points(100, 51);
    let mut tree = build_tree(&points, 32);
    for (i, &p) in points.iter().enumerate() {
        assert!(tree.delete(p, i as u64).unwrap());
    }
    assert!(tree.is_empty());
    assert_eq!(tree.height(), 0);
    tree.assert_valid();
    // The tree is usable again after being emptied.
    tree.insert(Point([1.0, 2.0]), 9).unwrap();
    assert_eq!(tree.len(), 1);
    assert!(tree.contains(&Point([1.0, 2.0]), 9).unwrap());
    tree.assert_valid();
}

#[test]
fn delete_missing_point_returns_false() {
    let points = random_points(50, 61);
    let mut tree = build_tree(&points, 32);
    assert!(!tree.delete(Point([-5.0, -5.0]), 0).unwrap());
    assert!(
        !tree.delete(points[0], 999_999).unwrap(),
        "wrong oid must not match"
    );
    assert_eq!(tree.len(), 50);
}

#[test]
fn duplicate_points_supported() {
    let mut tree = RTree::new(mem_pool(32), RTreeParams::paper()).unwrap();
    let p = Point([5.0, 5.0]);
    for i in 0..100u64 {
        tree.insert(p, i).unwrap();
    }
    assert_eq!(tree.len(), 100);
    tree.assert_valid();
    let hits = tree.range_query(&Rect::point(p)).unwrap();
    assert_eq!(hits.len(), 100);
    // Delete one specific duplicate.
    assert!(tree.delete(p, 37).unwrap());
    assert!(!tree.contains(&p, 37).unwrap());
    assert_eq!(tree.len(), 99);
}

#[test]
fn non_finite_points_rejected() {
    let mut tree: RTree<2> = RTree::new(mem_pool(8), RTreeParams::paper()).unwrap();
    assert!(tree.insert(Point([f64::NAN, 0.0]), 0).is_err());
    assert!(tree.insert(Point([f64::INFINITY, 0.0]), 0).is_err());
    assert!(tree.is_empty());
}

/// `bulk_load` is a second door into the tree and refuses what `insert`
/// refuses; before it did, one NaN point among 300 built a tree that failed
/// `validate()` and put the NaN point into K-CPQ answers.
#[test]
fn bulk_load_rejects_what_insert_rejects() {
    let mut pairs: Vec<(Point<2>, u64)> = random_points(300, 5)
        .into_iter()
        .enumerate()
        .map(|(i, p)| (p, i as u64))
        .collect();
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        pairs.push((Point([bad, 1.0]), 999));
        let res = RTree::bulk_load(mem_pool(64), RTreeParams::paper(), &pairs, 0.7);
        assert!(
            matches!(res, Err(RTreeError::InvalidParams(_))),
            "a {bad} coordinate"
        );
        pairs.pop();
    }
    // A fill outside (0, 1] is an error to return, not an assertion to trip.
    for fill in [0.0, -0.5, 1.5, f64::NAN, f64::INFINITY] {
        let res = RTree::bulk_load(mem_pool(64), RTreeParams::paper(), &pairs, fill);
        assert!(
            matches!(res, Err(RTreeError::InvalidParams(_))),
            "fill {fill}"
        );
    }
    let tree = RTree::bulk_load(mem_pool(64), RTreeParams::paper(), &pairs, 0.7).unwrap();
    assert!(tree.validate().unwrap().is_valid());
}

#[test]
fn bulk_load_matches_inserted_contents() {
    let points = random_points(3000, 71);
    let pairs: Vec<(Point<2>, u64)> = points
        .iter()
        .enumerate()
        .map(|(i, &p)| (p, i as u64))
        .collect();
    for fill in [0.7, 1.0] {
        let tree = RTree::bulk_load(mem_pool(64), RTreeParams::paper(), &pairs, fill).unwrap();
        assert_eq!(tree.len(), 3000);
        tree.assert_valid();
        let mut oids: Vec<u64> = tree.all_objects().unwrap().iter().map(|e| e.oid).collect();
        oids.sort_unstable();
        assert_eq!(oids, (0..3000u64).collect::<Vec<_>>());
    }
}

/// Bulk loading is valid at any legal fill factor and any size, empty
/// included.
#[test]
fn bulk_load_valid_at_any_fill() {
    for seed in 0..48 {
        let mut r = rng(seed);
        let pairs: Vec<(Point<2>, u64)> = (0..r.random_range(0..300u64))
            .map(|i| {
                (
                    Point([r.random_range(0.0..100.0), r.random_range(0.0..100.0)]),
                    i,
                )
            })
            .collect();
        let fill = r.random_range(0.4..1.0);
        let params = RTreeParams::with_max_entries(8);
        let tree = RTree::bulk_load(mem_pool(64), params, &pairs, fill).unwrap();
        let report = tree.validate().unwrap();
        assert!(
            report.is_valid(),
            "seed {seed} fill {fill}: {:?}",
            report.violations
        );
        assert_eq!(tree.len() as usize, pairs.len(), "seed {seed}");
    }
}

#[test]
fn bulk_load_tiny_and_empty() {
    let tree = RTree::<2>::bulk_load(mem_pool(8), RTreeParams::paper(), &[], 1.0).unwrap();
    assert!(tree.is_empty());
    tree.assert_valid();

    let pairs = vec![(Point([1.0, 1.0]), 0u64), (Point([2.0, 2.0]), 1u64)];
    let tree = RTree::bulk_load(mem_pool(8), RTreeParams::paper(), &pairs, 1.0).unwrap();
    assert_eq!(tree.len(), 2);
    assert_eq!(tree.height(), 1);
    tree.assert_valid();
}

#[test]
fn bulk_load_is_shallower_or_equal_to_inserted() {
    let points = random_points(5000, 81);
    let pairs: Vec<(Point<2>, u64)> = points
        .iter()
        .enumerate()
        .map(|(i, &p)| (p, i as u64))
        .collect();
    let inserted = build_tree(&points, 64);
    let packed = RTree::bulk_load(mem_pool(64), RTreeParams::paper(), &pairs, 1.0).unwrap();
    assert!(packed.height() <= inserted.height());
    let rep_packed = packed.validate().unwrap();
    let rep_ins = inserted.validate().unwrap();
    assert!(
        rep_packed.nodes <= rep_ins.nodes,
        "packing must not use more nodes"
    );
}

#[test]
fn disk_backed_tree_survives_reopen() {
    let mut path = std::env::temp_dir();
    path.push(format!("cpq-rtree-test-{}.pages", std::process::id()));
    let points = random_points(300, 91);
    let descriptor;
    {
        let file = DiskPageFile::create(&path, 1024).unwrap();
        let pool = BufferPool::with_lru(Box::new(file), 32);
        let mut tree = RTree::new(pool, RTreeParams::paper()).unwrap();
        for (i, &p) in points.iter().enumerate() {
            tree.insert(p, i as u64).unwrap();
        }
        tree.assert_valid();
        descriptor = tree.descriptor();
        // BufferPool drops here; DiskPageFile writes through so no flush is
        // needed beyond the header, which allocate() maintains.
    }
    {
        let file = DiskPageFile::open(&path).unwrap();
        let pool = BufferPool::with_lru(Box::new(file), 32);
        let tree: RTree<2> =
            RTree::from_descriptor(pool, RTreeParams::paper(), descriptor).unwrap();
        assert_eq!(tree.len(), 300);
        tree.assert_valid();
        for (i, p) in points.iter().enumerate() {
            assert!(tree.contains(p, i as u64).unwrap());
        }
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn disk_access_counting_zero_buffer() {
    let points = random_points(2000, 101);
    let tree = build_tree(&points, 64);
    // Reconfigure: zero buffer, fresh counters.
    tree.pool().set_capacity(0);
    tree.pool().reset_stats();
    let report = tree.validate().unwrap();
    let s = tree.pool().buffer_stats();
    assert_eq!(s.hits, 0, "zero buffer never hits");
    assert!(
        s.misses >= report.nodes,
        "full walk reads every node at least once"
    );
    assert_eq!(s.misses, tree.pool().io_stats().reads);
}

#[test]
fn buffer_reduces_disk_accesses() {
    let points = random_points(2000, 111);
    let tree = build_tree(&points, 0);
    let q = Point([500.0, 500.0]);

    tree.pool().set_capacity(0);
    tree.pool().reset_stats();
    tree.knn(&q, 10).unwrap();
    let without = tree.pool().buffer_stats().misses;

    tree.pool().set_capacity(64);
    tree.pool().reset_stats();
    tree.knn(&q, 10).unwrap();
    tree.knn(&q, 10).unwrap(); // second run should hit the cache
    let with = tree.pool().buffer_stats().misses;
    assert!(
        with < 2 * without,
        "cache must absorb repeated accesses: {with} vs 2x{without}"
    );
}

#[test]
fn guttman_variants_build_valid_trees_with_same_contents() {
    use cpq_rtree::SplitPolicy;
    let points = random_points(1500, 131);
    for policy in SplitPolicy::ALL {
        let params = RTreeParams {
            split_policy: policy,
            ..RTreeParams::paper()
        };
        let mut tree = RTree::new(mem_pool(64), params).unwrap();
        for (i, &p) in points.iter().enumerate() {
            tree.insert(p, i as u64).unwrap();
        }
        tree.assert_valid();
        assert_eq!(tree.len(), 1500, "{}", policy.label());
        // Queries agree regardless of variant.
        let q = Point([500.0, 500.0]);
        let got = tree.knn(&q, 5).unwrap();
        let mut brute: Vec<f64> = points.iter().map(|p| p.dist2(&q)).collect();
        brute.sort_by(f64::total_cmp);
        for (i, n) in got.iter().enumerate() {
            assert!(
                (n.dist2.get() - brute[i]).abs() < 1e-9,
                "{} knn mismatch",
                policy.label()
            );
        }
        // Deletion keeps the variant's tree valid too.
        for (i, &p) in points.iter().take(400).enumerate() {
            assert!(tree.delete(p, i as u64).unwrap());
        }
        tree.assert_valid();
    }
}

#[test]
fn rstar_produces_less_node_overlap_than_linear() {
    // The claim the paper cites ("the most efficient variant"): R* trees
    // have tighter, less-overlapping nodes. Measure total leaf-MBR overlap.
    use cpq_rtree::{NodeEntries, SplitPolicy};
    let points = random_points(4000, 137);
    let overlap_of = |policy: SplitPolicy| -> f64 {
        let params = RTreeParams {
            split_policy: policy,
            ..RTreeParams::paper()
        };
        let mut tree = RTree::new(mem_pool(64), params).unwrap();
        for (i, &p) in points.iter().enumerate() {
            tree.insert(p, i as u64).unwrap();
        }
        // Collect all leaf MBRs via their parents.
        let mut leaf_mbrs = Vec::new();
        let mut stack = vec![tree.root()];
        while let Some(id) = stack.pop() {
            let node = tree.read_node(id).unwrap();
            if let NodeEntries::Inner(entries) = node.entries() {
                for e in entries {
                    if node.level() == 1 {
                        leaf_mbrs.push(e.mbr);
                    } else {
                        stack.push(e.child);
                    }
                }
            }
        }
        let mut total = 0.0;
        for i in 0..leaf_mbrs.len() {
            for j in i + 1..leaf_mbrs.len() {
                total += leaf_mbrs[i].intersection_area(&leaf_mbrs[j]);
            }
        }
        total
    };
    let rstar = overlap_of(SplitPolicy::RStar);
    let linear = overlap_of(SplitPolicy::GuttmanLinear);
    assert!(
        rstar < linear,
        "R* leaf overlap ({rstar:.1}) must be below Guttman-linear ({linear:.1})"
    );
}

#[test]
fn three_dimensional_tree() {
    let mut r = rng(121);
    let points: Vec<Point<3>> = (0..500)
        .map(|_| {
            Point([
                r.random_range(0.0..100.0),
                r.random_range(0.0..100.0),
                r.random_range(0.0..100.0),
            ])
        })
        .collect();
    let pool = BufferPool::with_lru(Box::new(MemPageFile::new(1024)), 32);
    let mut tree = RTree::new(pool, RTreeParams::for_page_size(1024, 3)).unwrap();
    for (i, &p) in points.iter().enumerate() {
        tree.insert(p, i as u64).unwrap();
    }
    tree.assert_valid();
    let q = Point([50.0, 50.0, 50.0]);
    let got = tree.knn(&q, 5).unwrap();
    let mut brute: Vec<f64> = points.iter().map(|p| p.dist2(&q)).collect();
    brute.sort_by(f64::total_cmp);
    for (i, n) in got.iter().enumerate() {
        assert!((n.dist2.get() - brute[i]).abs() < 1e-9);
    }
}
