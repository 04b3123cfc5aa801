//! Fixtures shared by this crate's integration tests (each test binary
//! includes the module and uses its own subset).
#![allow(dead_code)]

use cpq_geo::{Point2, SpatialObject};
use cpq_rtree::{RTree, RTreeParams};
use cpq_storage::{BufferPool, MemPageFile, PageFile, DEFAULT_PAGE_SIZE};

/// A tree over `file` built by repeated insertion (the paper's
/// construction); object `i` gets oid `i`.
pub fn build_on<const D: usize, O: SpatialObject<D>>(
    file: Box<dyn PageFile>,
    params: RTreeParams,
    buffer: usize,
    objects: &[O],
) -> RTree<D, O> {
    let mut tree = RTree::new(BufferPool::with_lru(file, buffer), params).unwrap();
    for (i, &o) in objects.iter().enumerate() {
        tree.insert(o, i as u64).unwrap();
    }
    tree
}

/// A paper-parameter point tree on 1 KiB memory pages behind `buffer`
/// pool pages.
pub fn build(points: &[Point2], buffer: usize) -> RTree<2> {
    let file = MemPageFile::new(DEFAULT_PAGE_SIZE);
    build_on(Box::new(file), RTreeParams::paper(), buffer, points)
}

/// `(object, oid)` pairs as the brute-force oracles take them, oids
/// matching [`build_on`].
pub fn indexed<O: Copy>(objects: &[O]) -> Vec<(O, u64)> {
    objects
        .iter()
        .enumerate()
        .map(|(i, &o)| (o, i as u64))
        .collect()
}
