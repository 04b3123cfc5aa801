//! Semi-CPQ (Section 6, future work): for **each** point of `P`, find its
//! nearest neighbor in `Q` — the "all nearest neighbors" join, where every
//! `P` point appears exactly once in the result.
//!
//! Implementation: a scan of `P`'s leaves drives one bounded best-first
//! nearest-neighbor search on `Q` per point. Each search is warm-started
//! with an upper bound — the distance from the current point to the previous
//! point's answer — which prunes most of `Q`'s subtrees for spatially
//! coherent scans (leaf order is spatially clustered in an R*-tree).

use crate::types::{CpqStats, PairResult, QueryOutcome};
use cpq_geo::{min_min_dist2, Dist2};
use cpq_rtree::{LeafEntry, NodeEntries, RTree, RTreeResult};
use cpq_storage::PageId;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Computes the semi-closest-pair join: one pair per point of `tree_p`,
/// matching it with its nearest neighbor in `tree_q`. Results are sorted by
/// ascending distance. Empty when either tree is empty.
pub fn semi_closest_pairs<const D: usize>(
    tree_p: &RTree<D>,
    tree_q: &RTree<D>,
) -> RTreeResult<QueryOutcome<D>> {
    let misses_before = (
        tree_p.pool().buffer_stats().misses,
        tree_q.pool().buffer_stats().misses,
    );
    let mut stats = CpqStats::default();
    if tree_p.is_empty() || tree_q.is_empty() {
        return Ok(QueryOutcome {
            pairs: Vec::new(),
            stats,
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
                    #[expect(clippy::expect_used, reason = "`tree_q` is non-empty: an NN exists")]
                    let (q, d) = nn_bounded(tree_q, &p, warm, &mut stats)?
                        .expect("non-empty Q has a nearest neighbor");
                    pairs.push(PairResult { p, q, dist2: d });
                    last_answer = Some(q);
                }
            }
        }
    }

    pairs.sort_by_key(|a| a.dist2);
    stats.disk_accesses_p = tree_p.pool().buffer_stats().misses - misses_before.0;
    stats.disk_accesses_q = tree_q.pool().buffer_stats().misses - misses_before.1;
    Ok(QueryOutcome { pairs, stats })
}

/// Best-first nearest neighbor of `p` in `tree`, pruning with the initial
/// upper bound `bound` (inclusive: an answer at exactly `bound` is found).
fn nn_bounded<const D: usize>(
    tree: &RTree<D>,
    p: &LeafEntry<D>,
    mut bound: Dist2,
    stats: &mut CpqStats,
) -> RTreeResult<Option<(LeafEntry<D>, Dist2)>> {
    #[derive(PartialEq, Eq, PartialOrd, Ord)]
    enum Kind {
        Node(PageId),
        Obj(usize),
    }
    let mut heap: BinaryHeap<(Reverse<Dist2>, usize, Kind)> = BinaryHeap::new();
    let mut store: Vec<LeafEntry<D>> = Vec::new();
    let mut best: Option<(LeafEntry<D>, Dist2)> = None;
    let mut seq = 0usize;
    heap.push((Reverse(Dist2::ZERO), seq, Kind::Node(tree.root())));
    while let Some((Reverse(d), _, kind)) = heap.pop() {
        if d > bound {
            break;
        }
        match kind {
            Kind::Obj(i) => {
                // First object popped is the nearest within the bound.
                best = Some((store[i], d));
                break;
            }
            Kind::Node(page) => {
                stats.node_pairs_processed += 1;
                match tree.read_node(page)?.entries() {
                    NodeEntries::Leaf(es) => {
                        for e in es {
                            stats.dist_computations += 1;
                            let dd = min_min_dist2(&p.mbr(), &e.mbr());
                            if dd <= bound {
                                if dd < bound {
                                    bound = dd;
                                }
                                store.push(e);
                                seq += 1;
                                heap.push((Reverse(dd), seq, Kind::Obj(store.len() - 1)));
                            }
                        }
                    }
                    NodeEntries::Inner(entries) => {
                        for e in entries {
                            let dd = min_min_dist2(&p.mbr(), &e.mbr);
                            if dd <= bound {
                                seq += 1;
                                heap.push((Reverse(dd), seq, Kind::Node(e.child)));
                            }
                        }
                    }
                }
            }
        }
    }
    // An object is always popped: the bound is the distance to a real `Q`
    // point, and every MBR containing that point scores at most that
    // distance (each axis gap to a containing rectangle is at most the gap to
    // the point, and rounding is monotone), so the point's whole path, or
    // the closer object that tightened the bound, is queued within it.
    Ok(best)
}
