//! Fixtures shared by this crate's integration tests (each test binary
//! includes the module and uses its own subset).
#![allow(dead_code)]

use cpq_core::QueryOutcome;
use cpq_geo::{Point2, SpatialObject};
use cpq_rtree::{RTree, RTreeParams};
use cpq_storage::{
    BufferPool, FailingPageFile, FailureControl, MemPageFile, PageFile, DEFAULT_PAGE_SIZE,
};
use std::sync::Arc;

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

/// [`build`] on an unbuffered pool whose page file takes injected faults
/// and latency from the returned control.
pub fn build_failing(points: &[Point2]) -> (RTree<2>, Arc<FailureControl>) {
    let control = FailureControl::new();
    let file = FailingPageFile::new(
        Box::new(MemPageFile::new(DEFAULT_PAGE_SIZE)),
        control.clone(),
    );
    let tree = build_on(Box::new(file), RTreeParams::paper(), 0, points);
    (tree, control)
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

/// Bit-identical pairs and identical work counters.
pub fn assert_same(seq: &QueryOutcome<2>, par: &QueryOutcome<2>, label: &str) {
    assert_eq!(seq.pairs.len(), par.pairs.len(), "{label}: length");
    for (i, (s, p)) in seq.pairs.iter().zip(&par.pairs).enumerate() {
        assert_eq!((s.p.oid, s.q.oid), (p.p.oid, p.q.oid), "{label}: pair #{i}");
        assert_eq!(
            s.dist2.get().to_bits(),
            p.dist2.get().to_bits(),
            "{label}: dist bits #{i}"
        );
    }
    assert_eq!(seq.stats, par.stats, "{label}: stats");
}
