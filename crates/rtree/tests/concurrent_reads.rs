//! Thread-safety contract of the read-only query path: `RTree` is
//! `Send + Sync` by construction (all query methods take `&self`; interior
//! mutability lives in the buffer pool's mutex), so many threads may search
//! one tree concurrently — the foundation the `cpq-service` worker pool
//! stands on.

use cpq_geo::{Point, Point2, Rect};
use cpq_rtree::{RTree, RTreeParams};
use cpq_storage::{BufferPool, MemPageFile};

fn assert_send_sync<T: Send + Sync>() {}

#[test]
fn rtree_is_send_sync() {
    assert_send_sync::<RTree<2>>();
    assert_send_sync::<RTree<3>>();
}

/// Many threads range-searching one tree (through one shared buffer pool,
/// with a capacity small enough to force concurrent eviction) all see
/// exactly the single-threaded answer.
#[test]
fn concurrent_searches_agree_with_serial() {
    let pool = BufferPool::with_lru(Box::new(MemPageFile::new(1024)), 256);
    let mut tree: RTree<2> = RTree::new(pool, RTreeParams::paper()).unwrap();
    // A deterministic LCG point cloud; no external RNG.
    let mut state = 0x2545F4914F6CDD1Du64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let points: Vec<Point2> = (0..4000).map(|_| Point([next(), next()])).collect();
    for (i, &p) in points.iter().enumerate() {
        tree.insert(p, i as u64).unwrap();
    }

    let windows: Vec<Rect<2>> = (0..16)
        .map(|i| {
            let lo = [0.05 * i as f64 / 16.0, 0.4 * i as f64 / 16.0];
            Rect::new(Point(lo), Point([lo[0] + 0.3, lo[1] + 0.4]))
        })
        .collect();
    let serial: Vec<usize> = windows
        .iter()
        .map(|w| tree.range_query(w).unwrap().len())
        .collect();
    // Starve the pool below the working set so readers evict each other's
    // pages mid-search; correctness must not depend on cache residency.
    tree.pool().set_capacity(8);

    std::thread::scope(|s| {
        for t in 0..8 {
            let (tree, windows, serial) = (&tree, &windows, &serial);
            s.spawn(move || {
                for round in 0..5 {
                    let wi = (t + round) % windows.len();
                    let hits = tree.range_query(&windows[wi]).unwrap();
                    assert_eq!(hits.len(), serial[wi], "window {wi} diverged");
                    for e in &hits {
                        assert!(
                            windows[wi].contains_point(&e.object),
                            "window {wi} returned an outside point"
                        );
                    }
                }
            });
        }
    });
}
