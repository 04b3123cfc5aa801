//! Fixtures shared by this crate's integration tests (each test binary
//! includes the module and uses its own subset).
#![allow(
    dead_code,
    reason = "each test binary includes this module and uses its own subset"
)]

use cpq_geo::{Point, Point2};
use cpq_rtree::{RTree, RTreeParams};
use cpq_storage::{BufferPool, MemPageFile, PageFile, DEFAULT_PAGE_SIZE};

/// A tree over `file` built by repeated insertion (the paper's
/// construction); point `i` gets oid `i`.
pub fn build_on<const D: usize>(
    file: Box<dyn PageFile>,
    params: RTreeParams,
    buffer: usize,
    points: &[Point<D>],
) -> RTree<D> {
    let mut tree = RTree::new(BufferPool::with_lru(file, buffer), params).unwrap();
    for (i, &p) in points.iter().enumerate() {
        tree.insert(p, i as u64).unwrap();
    }
    tree
}

/// A paper-parameter point tree on 1 KiB memory pages behind `buffer`
/// pool pages.
pub fn build(points: &[Point2], buffer: usize) -> RTree<2> {
    let file = MemPageFile::new(DEFAULT_PAGE_SIZE);
    build_on(Box::new(file), RTreeParams::paper(), buffer, points)
}

/// `(point, oid)` pairs as the brute-force oracles take them, oids
/// matching [`build_on`].
pub fn indexed<const D: usize>(points: &[Point<D>]) -> Vec<(Point<D>, u64)> {
    points
        .iter()
        .enumerate()
        .map(|(i, &p)| (p, i as u64))
        .collect()
}
