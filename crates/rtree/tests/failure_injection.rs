//! Failure injection: corrupted pages and freed pages must propagate as
//! `Err` through every query path — never a panic, never silent garbage.

use cpq_geo::Point;
use cpq_rng::Rng;
use cpq_rtree::{RTree, RTreeError, RTreeParams};
use cpq_storage::{BufferPool, MemPageFile, PageId};

fn build(n: usize, seed: u64) -> RTree<2> {
    let pool = BufferPool::with_lru(Box::new(MemPageFile::new(1024)), 0);
    let mut tree = RTree::new(pool, RTreeParams::paper()).unwrap();
    let mut rng = Rng::seed_from_u64(seed);
    for i in 0..n as u64 {
        tree.insert(
            Point([rng.random_range(0.0..100.0), rng.random_range(0.0..100.0)]),
            i,
        )
        .unwrap();
    }
    tree
}

/// Overwrites one page with garbage directly through the pool.
fn corrupt_page(tree: &RTree<2>, id: PageId, pattern: u8) {
    let garbage = vec![pattern; tree.pool().page_size()];
    tree.pool().write_page(id, &garbage).unwrap();
}

#[test]
fn corrupted_root_fails_queries_cleanly() {
    let tree = build(500, 1);
    corrupt_page(&tree, tree.root(), 0xFF);
    let err = tree.knn(&Point([50.0, 50.0]), 3).unwrap_err();
    assert!(matches!(err, RTreeError::CorruptNode { .. }), "got {err}");
    assert!(tree
        .range_query(&cpq_geo::Rect::from_corners([0.0, 0.0], [10.0, 10.0]))
        .is_err());
    assert!(tree.all_objects().is_err());
    assert!(tree.validate().is_err());
}

#[test]
fn corrupted_interior_page_detected_during_traversal() {
    let tree = build(2000, 2);
    assert!(tree.height() >= 3);
    // Corrupt some non-root page (page ids are dense; skip the root).
    let victim = (0..tree.pool().num_pages())
        .map(PageId)
        .find(|&p| p != tree.root())
        .unwrap();
    corrupt_page(&tree, victim, 0xAB);
    // A full scan must hit it and report, not panic.
    let result = tree.all_objects();
    assert!(result.is_err(), "full scan must detect the corrupt page");
}

#[test]
fn zeroed_page_decodes_as_empty_leaf_and_validator_objects() {
    // An all-zero page happens to decode as a level-0 leaf with 0 entries —
    // plausible-looking garbage. The validator must still flag the tree
    // because parent MBRs/cardinalities no longer match.
    let tree = build(2000, 3);
    let victim = (0..tree.pool().num_pages())
        .map(PageId)
        .find(|&p| p != tree.root())
        .unwrap();
    corrupt_page(&tree, victim, 0x00);
    // An Err is also acceptable: the structural walk failed outright.
    if let Ok(report) = tree.validate() {
        assert!(
            !report.is_valid(),
            "validator must flag a zeroed page; got a clean report"
        );
    }
}

#[test]
fn freed_page_read_is_an_error() {
    let tree = build(100, 4);
    // Free a page behind the tree's back.
    let victim = (0..tree.pool().num_pages())
        .map(PageId)
        .find(|&p| p != tree.root())
        .unwrap();
    tree.pool().free_page(victim).unwrap();
    let result = tree.all_objects();
    assert!(result.is_err(), "reading a freed page must fail");
}
