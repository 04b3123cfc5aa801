//! Building trees and running measured queries the way the paper does.
//!
//! Paper configuration (Section 4): page size 1 KiB ⇒ `M = 21`, `m = 7`;
//! trees are built by repeated insertion; an LRU buffer of `B` pages is
//! split into two halves of `B/2` pages, one per tree; the reported cost is
//! the number of buffer misses ("disk accesses") during the query only —
//! tree-building I/O is excluded by resetting the counters.

use crate::args::scaled;
use cpq_core::{
    k_closest_pairs, k_closest_pairs_incremental, Algorithm, CpqConfig, QueryOutcome, Traversal,
};
use cpq_datasets::{clustered, uniform, ClusterSpec, Dataset, CALIFORNIA_SURROGATE_SIZE};
use cpq_rtree::{RTree, RTreeParams, RTreeResult};
use cpq_storage::{BufferPool, LruPolicy, MemPageFile, ReplacementPolicy, DEFAULT_PAGE_SIZE};

/// The "real" data set (Sequoia surrogate), scaled.
pub fn real_dataset(scale: f64) -> Dataset {
    let mut ds = clustered(
        scaled(CALIFORNIA_SURROGATE_SIZE, scale),
        ClusterSpec::default(),
        0xCA11F0,
    );
    ds.name = "R".into();
    ds
}

/// A uniform data set of the paper's cardinality `n`, scaled.
pub fn uniform_dataset(n: usize, scale: f64, seed: u64) -> Dataset {
    let mut ds = uniform(scaled(n, scale), seed);
    ds.name = format!("{}K", n / 1000);
    ds
}

/// The general tree builder every harness funnels through: an
/// insertion-built tree over a fresh in-memory page file, with explicit
/// R-tree parameters, replacement policy, and build-time buffer capacity.
pub fn build_tree_with(
    ds: &Dataset,
    params: RTreeParams,
    policy: Box<dyn ReplacementPolicy>,
    cache_pages: usize,
) -> RTreeResult<RTree<2>> {
    let pool = BufferPool::new(
        Box::new(MemPageFile::new(DEFAULT_PAGE_SIZE)),
        cache_pages,
        policy,
    );
    let mut tree = RTree::new(pool, params)?;
    for (i, &p) in ds.points.iter().enumerate() {
        tree.insert(p, i as u64)?;
    }
    Ok(tree)
}

/// Builds an insertion-built R*-tree with the paper's parameters and an LRU
/// buffer. A roomy build-time buffer keeps construction fast; callers
/// reconfigure the buffer before measuring.
pub fn build_tree(ds: &Dataset) -> RTreeResult<RTree<2>> {
    build_tree_with(ds, RTreeParams::paper(), Box::new(LruPolicy::new()), 512)
}

/// Builds an STR bulk-loaded tree (for the tree-construction ablation).
pub fn build_tree_bulk(ds: &Dataset, fill: f64) -> RTreeResult<RTree<2>> {
    let pool = BufferPool::with_lru(Box::new(MemPageFile::new(DEFAULT_PAGE_SIZE)), 512);
    RTree::bulk_load(pool, RTreeParams::paper(), &ds.indexed(), fill)
}

/// Reconfigures both trees' buffers for a measured query: each gets `B/2`
/// LRU frames (`B = 0` disables caching entirely), cleared and with fresh
/// counters.
pub fn configure_buffers(tp: &RTree<2>, tq: &RTree<2>, buffer_b: usize) {
    tp.pool().set_capacity(buffer_b / 2);
    tq.pool().set_capacity(buffer_b / 2);
    tp.pool().reset_stats();
    tq.pool().reset_stats();
}

/// Runs one measured K-CPQ with a total buffer budget of `buffer_b` pages.
pub fn run_query(
    tp: &RTree<2>,
    tq: &RTree<2>,
    k: usize,
    algorithm: Algorithm,
    config: &CpqConfig,
    buffer_b: usize,
) -> RTreeResult<QueryOutcome<2>> {
    configure_buffers(tp, tq, buffer_b);
    k_closest_pairs(tp, tq, k, algorithm, config)
}

/// Runs one measured incremental (Hjaltason & Samet) K-CPQ.
pub fn run_incremental(
    tp: &RTree<2>,
    tq: &RTree<2>,
    k: usize,
    traversal: Traversal,
    buffer_b: usize,
) -> RTreeResult<QueryOutcome<2>> {
    configure_buffers(tp, tq, buffer_b);
    k_closest_pairs_incremental(tp, tq, k, traversal)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpq_datasets::uniform;

    #[test]
    fn build_and_measure_roundtrip() {
        let p = uniform(500, 1);
        let q = uniform(500, 2);
        let tp = build_tree(&p).unwrap();
        let tq = build_tree(&q).unwrap();
        tp.assert_valid();

        let out = run_query(&tp, &tq, 1, Algorithm::Heap, &CpqConfig::paper(), 0).unwrap();
        assert_eq!(out.pairs.len(), 1);
        assert!(out.stats.disk_accesses() > 0);

        // With an enormous buffer, a repeat run has far fewer misses than
        // the B=0 run.
        let zero = out.stats.disk_accesses();
        let out = run_query(&tp, &tq, 1, Algorithm::Heap, &CpqConfig::paper(), 4096).unwrap();
        let _warm = out.stats.disk_accesses();
        let out2 = k_closest_pairs(&tp, &tq, 1, Algorithm::Heap, &CpqConfig::paper()).unwrap();
        assert!(out2.stats.disk_accesses() < zero);
    }

    #[test]
    fn bulk_tree_agrees_with_inserted_tree() {
        let p = uniform(800, 3);
        let q = uniform(800, 4);
        let ti = build_tree(&p).unwrap();
        let tb = build_tree_bulk(&p, 0.7).unwrap();
        let tq = build_tree(&q).unwrap();
        let a = run_query(&ti, &tq, 5, Algorithm::Heap, &CpqConfig::paper(), 0).unwrap();
        let b = run_query(&tb, &tq, 5, Algorithm::Heap, &CpqConfig::paper(), 0).unwrap();
        for (x, y) in a.pairs.iter().zip(&b.pairs) {
            assert!((x.dist2.get() - y.dist2.get()).abs() < 1e-9);
        }
    }
}
