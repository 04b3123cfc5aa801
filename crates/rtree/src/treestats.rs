//! Per-level statistics of a tree, the inputs of analytic cost models.

use crate::codec::NodeEntries;
use crate::error::RTreeResult;
use crate::tree::RTree;

/// Aggregate statistics of one tree level.
#[derive(Debug, Clone)]
pub struct LevelStats<const D: usize> {
    /// Level (0 = leaves).
    pub level: u8,
    /// Number of nodes at this level.
    pub nodes: u64,
    /// Mean node-MBR extent per dimension.
    pub avg_extent: [f64; D],
    /// Mean entries per node.
    pub avg_occupancy: f64,
}

impl<const D: usize> RTree<D> {
    /// Walks the tree and returns statistics for every level, leaves first.
    ///
    /// Used by the analytic cost model of `cpq-core` (the paper's future
    /// work (b) cites the spatial-join cost models of Theodoridis,
    /// Stefanakis & Sellis, which consume exactly these densities).
    pub fn level_stats(&self) -> RTreeResult<Vec<LevelStats<D>>> {
        let h = self.height() as usize;
        let mut nodes = vec![0u64; h];
        let mut extent_sum = vec![[0.0; D]; h];
        let mut occupancy_sum = vec![0u64; h];
        if h == 0 {
            return Ok(Vec::new());
        }
        let mut stack = vec![self.root()];
        while let Some(id) = stack.pop() {
            let node = self.read_node(id)?;
            let l = node.level() as usize;
            nodes[l] += 1;
            occupancy_sum[l] += node.len() as u64;
            if let Some(mbr) = node.mbr() {
                for (d, e) in extent_sum[l].iter_mut().enumerate() {
                    *e += mbr.extent(d);
                }
            }
            if let NodeEntries::Inner(entries) = node.entries() {
                stack.extend(entries.iter().map(|e| e.child));
            }
        }
        Ok((0..h)
            .map(|l| {
                let n = nodes[l].max(1) as f64;
                let mut avg = [0.0; D];
                for d in 0..D {
                    avg[d] = extent_sum[l][d] / n;
                }
                LevelStats {
                    level: l as u8,
                    nodes: nodes[l],
                    avg_extent: avg,
                    avg_occupancy: occupancy_sum[l] as f64 / n,
                }
            })
            .collect())
    }
}

impl<const D: usize> RTree<D> {
    /// Pins every node at level `min_level` or above into the buffer pool
    /// (root included), so they are never evicted during queries — the
    /// classic "keep the directory resident" production policy.
    ///
    /// Returns the number of nodes pinned. Nodes that did not fit (pool too
    /// small) are skipped; pins are cleared by
    /// [`BufferPool::set_capacity`](cpq_storage::BufferPool::set_capacity)
    /// or [`clear`](cpq_storage::BufferPool::clear).
    pub fn pin_upper_levels(&self, min_level: u8) -> RTreeResult<usize> {
        if !self.root().is_valid() {
            return Ok(0);
        }
        let mut pinned = 0usize;
        let mut stack = vec![self.root()];
        while let Some(id) = stack.pop() {
            let node = self.read_node(id)?;
            if node.level() < min_level {
                continue;
            }
            if self.pool().pin_page(id)? {
                pinned += 1;
            }
            if let NodeEntries::Inner(entries) = node.entries() {
                if node.level() > min_level {
                    stack.extend(entries.iter().map(|e| e.child));
                }
            }
        }
        Ok(pinned)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::RTreeParams;
    use cpq_geo::Point;
    use cpq_rng::Rng;
    use cpq_storage::{BufferPool, MemPageFile};

    #[test]
    fn level_stats_reflect_structure() {
        let pool = BufferPool::with_lru(Box::new(MemPageFile::new(1024)), 64);
        let mut tree = RTree::new(pool, RTreeParams::paper()).unwrap();
        let mut rng = Rng::seed_from_u64(1);
        for i in 0..3000u64 {
            tree.insert(
                Point([rng.random_range(0.0..100.0), rng.random_range(0.0..100.0)]),
                i,
            )
            .unwrap();
        }
        let stats = tree.level_stats().unwrap();
        assert_eq!(stats.len(), tree.height() as usize);
        // Root level has one node; node counts decrease going up.
        assert_eq!(stats.last().unwrap().nodes, 1);
        for w in stats.windows(2) {
            assert!(w[0].nodes > w[1].nodes, "levels must shrink upward");
        }
        // Leaf count consistent with occupancy.
        let leaf = &stats[0];
        let points = leaf.nodes as f64 * leaf.avg_occupancy;
        assert!((points - 3000.0).abs() < 1e-6);
        // Occupancy within [m, M].
        for s in &stats[..stats.len() - 1] {
            assert!(s.avg_occupancy >= 7.0 && s.avg_occupancy <= 21.0);
        }
        // Extents grow with level (bigger nodes higher up).
        assert!(stats[1].avg_extent[0] > stats[0].avg_extent[0]);
    }

    #[test]
    fn empty_tree_has_no_levels() {
        let pool = BufferPool::with_lru(Box::new(MemPageFile::new(1024)), 8);
        let tree: RTree<2> = RTree::new(pool, RTreeParams::paper()).unwrap();
        assert!(tree.level_stats().unwrap().is_empty());
        assert_eq!(tree.pin_upper_levels(1).unwrap(), 0);
    }

    #[test]
    fn pin_upper_levels_keeps_directory_resident() {
        let pool = BufferPool::with_lru(Box::new(MemPageFile::new(1024)), 64);
        let mut tree = RTree::new(pool, RTreeParams::paper()).unwrap();
        let mut rng = Rng::seed_from_u64(2);
        let pts: Vec<Point<2>> = (0..3000)
            .map(|_| Point([rng.random_range(0.0..100.0), rng.random_range(0.0..100.0)]))
            .collect();
        for (i, &p) in pts.iter().enumerate() {
            tree.insert(p, i as u64).unwrap();
        }
        // Pin every non-leaf level.
        let stats = tree.level_stats().unwrap();
        let non_leaf_nodes: u64 = stats[1..].iter().map(|s| s.nodes).sum();
        tree.pool().clear();
        let pinned = tree.pin_upper_levels(1).unwrap();
        assert_eq!(pinned as u64, non_leaf_nodes);
        assert_eq!(tree.pool().pinned_pages(), pinned);
        // Queries under pressure keep hitting the pinned directory: all
        // misses must be leaf pages.
        tree.pool().reset_stats();
        for q in pts.iter().step_by(100) {
            tree.knn(q, 3).unwrap();
        }
        let s = tree.pool().buffer_stats();
        assert!(s.hits > 0, "pinned directory must produce hits");
    }
}
