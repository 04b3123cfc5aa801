//! Semi-CPQ (Section 6, future work): for **each** point of `P`, find its
//! nearest neighbor in `Q` — the "all nearest neighbors" join, where every
//! `P` point appears exactly once in the result.
//!
//! Implementation: a scan of `P`'s leaves drives one [`RTree::nearest`]
//! search on `Q` per point. Each search is warm-started with an upper bound
//! — the distance from the current point to the previous point's answer —
//! which prunes most of `Q`'s subtrees for spatially coherent scans (leaf
//! order is spatially clustered in an R*-tree).

use crate::types::{pair_cmp, CpqStats, DiskMeter, PairResult, QueryOutcome};
use cpq_geo::{min_min_dist2, Dist2};
use cpq_rtree::{LeafEntry, NodeEntries, RTree, RTreeResult};

/// Computes the semi-closest-pair join: one pair per point of `tree_p`,
/// matching it with its nearest neighbor in `tree_q` — among equal
/// distances, the one with the smallest oid. Results are sorted in the
/// canonical `(dist2, p.oid, q.oid)` order ([`pair_cmp`]). Empty when either
/// tree is empty. The stats carry the disk accesses only (one pool read by
/// both sides is counted once, on `P`).
pub fn semi_closest_pairs<const D: usize>(
    tree_p: &RTree<D>,
    tree_q: &RTree<D>,
) -> RTreeResult<QueryOutcome<D>> {
    let meter = DiskMeter::start(tree_p, tree_q);
    if tree_p.is_empty() || tree_q.is_empty() {
        return Ok(QueryOutcome {
            pairs: Vec::new(),
            stats: CpqStats::default(),
        });
    }

    let mut pairs: Vec<PairResult<D>> = Vec::with_capacity(tree_p.len() as usize);
    let mut last_answer: Option<LeafEntry<D>> = None;

    // Scan P's leaves depth-first (spatially coherent order).
    let mut stack = vec![tree_p.root()];
    while let Some(id) = stack.pop() {
        match tree_p.read_node(id)?.entries() {
            NodeEntries::Inner(entries) => stack.extend(entries.iter().map(|e| e.child)),
            NodeEntries::Leaf(es) => {
                for p in es {
                    let warm = last_answer
                        .map(|q| min_min_dist2(&p.mbr(), &q.mbr()))
                        .unwrap_or(Dist2::INFINITY);
                    #[expect(clippy::expect_used, reason = "a `Q` point lies within `warm`")]
                    let nn = tree_q
                        .nearest(&p.object, warm)?
                        .expect("non-empty Q has a nearest neighbor");
                    pairs.push(PairResult::with_dist2(p, nn.entry, nn.dist2));
                    last_answer = Some(nn.entry);
                }
            }
        }
    }

    pairs.sort_unstable_by(pair_cmp);
    let mut stats = CpqStats::default();
    meter.fill(&mut stats);
    Ok(QueryOutcome { pairs, stats })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::tests::grid_tree;

    /// One tree given as both sides reads one pool, whose misses count once.
    #[test]
    fn one_tree_as_both_sides_counts_its_pool_once() {
        let tree = grid_tree(80, 1);
        tree.pool().clear();
        let before = tree.pool().buffer_stats().misses;
        let stats = semi_closest_pairs(&tree, &tree).unwrap().stats;
        let misses = tree.pool().buffer_stats().misses - before;
        assert!(misses > 0);
        assert_eq!((stats.disk_accesses_p, stats.disk_accesses_q), (misses, 0));
    }
}
