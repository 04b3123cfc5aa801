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
use cpq_geo::{min_min_dist2, Dist2, SpatialObject};
use cpq_rtree::{LeafEntry, Node, RTree, RTreeResult};
use cpq_storage::PageId;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Computes the semi-closest-pair join: one pair per point of `tree_p`,
/// matching it with its nearest neighbor in `tree_q`. Results are sorted by
/// ascending distance. Empty when either tree is empty.
pub fn semi_closest_pairs<const D: usize, O: SpatialObject<D>>(
    tree_p: &RTree<D, O>,
    tree_q: &RTree<D, O>,
) -> RTreeResult<QueryOutcome<D, O>> {
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

    let mut pairs: Vec<PairResult<D, O>> = Vec::with_capacity(tree_p.len() as usize);
    let mut last_answer: Option<LeafEntry<D, O>> = None;

    // Scan P's leaves depth-first (spatially coherent order).
    let mut stack = vec![tree_p.root()];
    while let Some(id) = stack.pop() {
        match &*tree_p.read_node(id)? {
            Node::Inner { entries, .. } => stack.extend(entries.iter().map(|e| e.child)),
            Node::Leaf(es) => {
                for &p in es {
                    let warm = last_answer
                        .map(|q| min_min_dist2(&p.mbr(), &q.mbr()))
                        .unwrap_or(Dist2::INFINITY);
                    let (q, d) = nn_bounded(tree_q, &p, warm, &mut stats)?
                        // analyze: allow(panic-path) — `tree_q` was checked non-empty before
                        // the scan, so a nearest neighbor exists.
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
fn nn_bounded<const D: usize, O: SpatialObject<D>>(
    tree: &RTree<D, O>,
    p: &LeafEntry<D, O>,
    mut bound: Dist2,
    stats: &mut CpqStats,
) -> RTreeResult<Option<(LeafEntry<D, O>, Dist2)>> {
    #[derive(PartialEq, Eq, PartialOrd, Ord)]
    enum Kind {
        Node(PageId),
        Obj(usize),
    }
    let mut heap: BinaryHeap<(Reverse<Dist2>, usize, Kind)> = BinaryHeap::new();
    let mut store: Vec<LeafEntry<D, O>> = Vec::new();
    let mut best: Option<(LeafEntry<D, O>, Dist2)> = None;
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
                match &*tree.read_node(page)? {
                    Node::Leaf(es) => {
                        for &e in es {
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
                    Node::Inner { entries, .. } => {
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
    // The warm bound may have excluded everything only if it was wrong; it
    // is always a realized distance to an actual Q point, so if nothing
    // closer-or-equal surfaced, re-run unbounded. (Only reachable when Q has
    // a single point configuration where the warm point is the answer but
    // floating-point comparison is exact — the inclusive bound prevents it.)
    if best.is_none() && !bound.is_infinite() {
        return nn_bounded(tree, p, Dist2::INFINITY, stats);
    }
    Ok(best)
}
