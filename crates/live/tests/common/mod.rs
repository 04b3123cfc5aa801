//! Shared by this crate's integration tests.

use cpq_core::PairResult;
use cpq_geo::Point2;
use cpq_rtree::{RTree, RTreeParams};
use cpq_storage::{BufferPool, MemPageFile};
use std::collections::BTreeMap;

/// A plain tree rebuilt from scratch over `contents`: the reference a
/// live tree's answers are compared against.
pub fn mem_tree(contents: &BTreeMap<u64, Point2>) -> RTree<2> {
    let pool = BufferPool::with_lru(Box::new(MemPageFile::new(1024)), 256);
    let mut tree: RTree<2> = RTree::new(pool, RTreeParams::paper()).expect("tree");
    for (&oid, &p) in contents {
        tree.insert(p, oid).expect("insert");
    }
    tree
}

/// Result pairs as compared: `dist2` as raw bits ("bit-identical" means
/// bit-identical), then the two oids.
pub fn keys(pairs: &[PairResult<2>]) -> Vec<(u64, u64, u64)> {
    pairs
        .iter()
        .map(|r| (r.dist2.get().to_bits(), r.p.oid, r.q.oid))
        .collect()
}
