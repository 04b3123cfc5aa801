//! Multi-way closest "pair" queries (Section 6, future work): find the `K`
//! **tuples** `(o_1, …, o_m)`, one object per data set, with the smallest
//! aggregate distance — the CPQ analogue of multi-way spatial joins
//! (Mamoulis & Papadias 1999, Papadias et al. 1999).
//!
//! Two query graphs are supported:
//!
//! * [`TupleMetric::Chain`] — `d(t) = Σ dist(t_i, t_{i+1})`, e.g.
//!   "warehouse → distribution hub → store" routes;
//! * [`TupleMetric::Clique`] — `d(t) = Σ_{i<j} dist(t_i, t_j)`, e.g. a
//!   meeting point of `m` mutually close facilities.
//!
//! The algorithm generalizes the best-first traversal: a priority queue
//! holds tuples of items (R-tree nodes or data objects), keyed by the
//! aggregate of pairwise `MINMINDIST` lower bounds over the query graph's
//! edges. Popping an all-objects tuple emits it (tuples surface in
//! non-decreasing aggregate distance); otherwise the shallowest node in the
//! tuple is expanded, bounding the branching factor by one node's fanout.
//! With the result bound `K`, a K-heap of complete-tuple distances prunes
//! queue insertions, exactly like the two-way algorithms.
//!
//! Aggregate distances sum *non-squared* Euclidean distances (sums of
//! squares would not be monotone in the individual distances).

use crate::types::CpqStats;
use cpq_geo::{min_min_dist2, Point, Rect, SpatialObject};
use cpq_rtree::{LeafEntry, Node, RTree, RTreeResult};
use cpq_storage::PageId;
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// Aggregation graph for tuple distances.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TupleMetric {
    /// Sum of consecutive distances `Σ dist(t_i, t_{i+1})`.
    #[default]
    Chain,
    /// Sum over all pairs `Σ_{i<j} dist(t_i, t_j)`.
    Clique,
}

impl TupleMetric {
    /// Edges of the query graph for `m` data sets.
    fn edges(&self, m: usize) -> Vec<(usize, usize)> {
        match self {
            TupleMetric::Chain => (0..m - 1).map(|i| (i, i + 1)).collect(),
            TupleMetric::Clique => {
                let mut e = Vec::with_capacity(m * (m - 1) / 2);
                for i in 0..m {
                    for j in i + 1..m {
                        e.push((i, j));
                    }
                }
                e
            }
        }
    }

    /// Aggregate distance of a concrete tuple of objects (exact for points,
    /// MBR distance for extended objects).
    pub fn tuple_distance<const D: usize, O: SpatialObject<D>>(
        &self,
        items: &[LeafEntry<D, O>],
    ) -> f64 {
        self.edges(items.len())
            .iter()
            .map(|&(i, j)| min_min_dist2(&items[i].mbr(), &items[j].mbr()).sqrt())
            .sum()
    }
}

/// One result tuple: an object from each data set plus the aggregate
/// distance under the query graph.
#[derive(Debug, Clone)]
pub struct TupleResult<const D: usize, O: SpatialObject<D> = Point<D>> {
    /// One entry per data set, in argument order.
    pub items: Vec<LeafEntry<D, O>>,
    /// Aggregate (non-squared) distance.
    pub distance: f64,
}

/// Outcome of a multi-way query.
#[derive(Debug, Clone)]
pub struct MultiwayOutcome<const D: usize, O: SpatialObject<D> = Point<D>> {
    /// Result tuples sorted by ascending aggregate distance.
    pub tuples: Vec<TupleResult<D, O>>,
    /// Work counters (disk accesses aggregated over all trees in
    /// `disk_accesses_p`; the per-tree split is not meaningful for `m > 2`).
    pub stats: CpqStats,
}

#[derive(Clone)]
enum Item<const D: usize, O: SpatialObject<D>> {
    Node {
        page: PageId,
        level: u8,
        mbr: Rect<D>,
    },
    Object(LeafEntry<D, O>),
}

impl<const D: usize, O: SpatialObject<D>> Item<D, O> {
    fn mbr(&self) -> Rect<D> {
        match self {
            Item::Node { mbr, .. } => *mbr,
            Item::Object(e) => e.mbr(),
        }
    }
    fn level_i(&self) -> i32 {
        match self {
            Item::Node { level, .. } => *level as i32,
            Item::Object(_) => -1,
        }
    }
}

struct QTuple<const D: usize, O: SpatialObject<D>> {
    bound: f64,
    seq: u64,
    items: Vec<Item<D, O>>,
}

impl<const D: usize, O: SpatialObject<D>> PartialEq for QTuple<D, O> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl<const D: usize, O: SpatialObject<D>> Eq for QTuple<D, O> {}
impl<const D: usize, O: SpatialObject<D>> PartialOrd for QTuple<D, O> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<const D: usize, O: SpatialObject<D>> Ord for QTuple<D, O> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.bound
            .total_cmp(&other.bound)
            .then_with(|| self.seq.cmp(&other.seq))
    }
}

/// Finds the `K` tuples with the smallest aggregate distance, one object
/// from each of `trees` (`m = trees.len() >= 2`).
///
/// Returns fewer than `K` tuples when the product of cardinalities is
/// smaller. Tuples are emitted by a best-first traversal, so they are exact
/// (verified against brute force in the test-suite).
pub fn k_closest_tuples<const D: usize, O: SpatialObject<D>>(
    trees: &[&RTree<D, O>],
    k: usize,
    metric: TupleMetric,
) -> RTreeResult<MultiwayOutcome<D, O>> {
    assert!(
        trees.len() >= 2,
        "multi-way CPQ needs at least two data sets"
    );
    let misses_before: u64 = trees.iter().map(|t| t.pool().buffer_stats().misses).sum();
    let mut stats = CpqStats::default();
    let mut out = MultiwayOutcome {
        tuples: Vec::new(),
        stats,
    };
    if k == 0 || trees.iter().any(|t| t.is_empty()) {
        return Ok(out);
    }
    let m = trees.len();
    let edges = metric.edges(m);

    // Lower bound of an item tuple: aggregate pairwise MINMINDIST (each a
    // lower bound of the member distance, hence the sum bounds the sum).
    let bound_of = |items: &[Item<D, O>]| -> f64 {
        edges
            .iter()
            .map(|&(i, j)| min_min_dist2(&items[i].mbr(), &items[j].mbr()).get().sqrt())
            .sum()
    };

    // K-bound on complete tuples seen, for queue pruning.
    let mut kbound: BinaryHeap<OrdF64> = BinaryHeap::new();
    let threshold = |kb: &BinaryHeap<OrdF64>| -> f64 {
        if kb.len() >= k {
            // analyze: allow(panic-path) — guarded by the length check above.
            kb.peek().expect("non-empty").0
        } else {
            f64::INFINITY
        }
    };

    let mut queue: BinaryHeap<Reverse<QTuple<D, O>>> = BinaryHeap::new();
    let mut seq = 0u64;

    // Seed: the tuple of roots.
    let mut roots = Vec::with_capacity(m);
    for t in trees.iter() {
        // analyze: allow(panic-path) — empty trees were rejected before the
        // join started.
        let mbr = t.root_mbr()?.expect("non-empty tree");
        roots.push(Item::Node {
            page: t.root(),
            level: t.height() - 1,
            mbr,
        });
    }
    let b = bound_of(&roots);
    queue.push(Reverse(QTuple {
        bound: b,
        seq,
        items: roots,
    }));

    while let Some(Reverse(tuple)) = queue.pop() {
        if tuple.bound > threshold(&kbound) {
            break; // nothing left can enter the result
        }
        // All objects? Emit.
        let expand_idx = tuple
            .items
            .iter()
            .enumerate()
            .max_by_key(|(_, it)| it.level_i())
            .map(|(i, it)| (i, it.level_i()))
            // analyze: allow(panic-path) — tuples always hold m >= 1 items.
            .expect("non-empty tuple");
        if expand_idx.1 < 0 {
            let entries: Vec<LeafEntry<D, O>> = tuple
                .items
                .iter()
                .map(|it| match it {
                    Item::Object(e) => *e,
                    Item::Node { .. } => unreachable!("all-object tuple"),
                })
                .collect();
            out.tuples.push(TupleResult {
                distance: tuple.bound,
                items: entries,
            });
            if out.tuples.len() >= k {
                break;
            }
            continue;
        }

        // Expand the shallowest node (highest level) in the tuple.
        stats.node_pairs_processed += 1;
        let (idx, _) = expand_idx;
        let Item::Node { page, .. } = &tuple.items[idx] else {
            unreachable!("expansion index points at a node")
        };
        let children: Vec<Item<D, O>> = match &*trees[idx].read_node(*page)? {
            Node::Leaf(es) => es.iter().copied().map(Item::Object).collect(),
            Node::Inner { level, entries } => entries
                .iter()
                .map(|e| Item::Node {
                    page: e.child,
                    level: level - 1,
                    mbr: e.mbr,
                })
                .collect(),
        };
        for child in children {
            let mut items = tuple.items.clone();
            items[idx] = child;
            let b = bound_of(&items);
            if b > threshold(&kbound) {
                stats.pairs_pruned += 1;
                continue;
            }
            if items.iter().all(|it| it.level_i() < 0) {
                stats.dist_computations += 1;
                // Complete tuple: feed the K-bound.
                if kbound.len() < k {
                    kbound.push(OrdF64(b));
                } else if b < threshold(&kbound) {
                    kbound.pop();
                    kbound.push(OrdF64(b));
                }
            }
            seq += 1;
            queue.push(Reverse(QTuple {
                bound: b,
                seq,
                items,
            }));
            stats.queue_inserts += 1;
            stats.queue_peak = stats.queue_peak.max(queue.len());
        }
    }

    let misses_after: u64 = trees.iter().map(|t| t.pool().buffer_stats().misses).sum();
    stats.disk_accesses_p = misses_after - misses_before;
    out.stats = stats;
    Ok(out)
}

/// Totally-ordered f64 for the K-bound heap.
struct OrdF64(f64);
impl PartialEq for OrdF64 {
    fn eq(&self, other: &Self) -> bool {
        self.0.total_cmp(&other.0) == Ordering::Equal
    }
}
impl Eq for OrdF64 {}
impl PartialOrd for OrdF64 {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for OrdF64 {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// Brute-force reference for multi-way queries (exponential; tests only).
pub fn k_closest_tuples_brute<const D: usize, O: SpatialObject<D>>(
    sets: &[&[(O, u64)]],
    k: usize,
    metric: TupleMetric,
) -> Vec<TupleResult<D, O>> {
    let m = sets.len();
    let mut all: Vec<TupleResult<D, O>> = Vec::new();
    let mut idx = vec![0usize; m];
    'outer: loop {
        let items: Vec<LeafEntry<D, O>> = idx
            .iter()
            .enumerate()
            .map(|(s, &i)| LeafEntry::new(sets[s][i].0, sets[s][i].1))
            .collect();
        let distance = metric.tuple_distance(&items);
        all.push(TupleResult { items, distance });
        // Odometer increment.
        for s in (0..m).rev() {
            idx[s] += 1;
            if idx[s] < sets[s].len() {
                continue 'outer;
            }
            idx[s] = 0;
        }
        break;
    }
    all.sort_by(|a, b| a.distance.total_cmp(&b.distance));
    all.truncate(k);
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpq_geo::Point;

    #[test]
    fn chain_and_clique_edges() {
        assert_eq!(TupleMetric::Chain.edges(4), vec![(0, 1), (1, 2), (2, 3)]);
        assert_eq!(
            TupleMetric::Clique.edges(4),
            vec![(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
        );
        // For m = 2 both reduce to one edge.
        assert_eq!(TupleMetric::Chain.edges(2), TupleMetric::Clique.edges(2));
    }

    #[test]
    fn tuple_distance_hand_computed() {
        let items = vec![
            LeafEntry::new(Point([0.0, 0.0]), 0),
            LeafEntry::new(Point([3.0, 4.0]), 1),
            LeafEntry::new(Point([3.0, 16.0]), 2),
        ];
        assert_eq!(TupleMetric::Chain.tuple_distance(&items), 5.0 + 12.0);
        let d03 = ((3.0f64).powi(2) + (16.0f64).powi(2)).sqrt();
        assert!((TupleMetric::Clique.tuple_distance(&items) - (5.0 + 12.0 + d03)).abs() < 1e-12);
    }

    #[test]
    fn brute_force_odometer_covers_product() {
        let a = vec![(Point([0.0, 0.0]), 0u64), (Point([1.0, 0.0]), 1)];
        let b = vec![(Point([0.0, 1.0]), 0u64)];
        let c = vec![(Point([0.0, 2.0]), 0u64), (Point([5.0, 5.0]), 1)];
        let all = k_closest_tuples_brute(&[&a, &b, &c], 100, TupleMetric::Chain);
        assert_eq!(all.len(), 2 * 2);
        for w in all.windows(2) {
            assert!(w[0].distance <= w[1].distance);
        }
    }
}
