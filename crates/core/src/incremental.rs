//! The incremental distance-join algorithms of Hjaltason & Samet
//! (SIGMOD 1998), the related work the paper compares against
//! (Sections 3.9 and 5.2).
//!
//! A single priority queue holds **item pairs** of mixed type — node/node,
//! node/object and object/object — keyed by `MINMINDIST`. Popping an
//! object/object pair *emits* it: pairs come out in non-decreasing distance
//! order, an unlimited incremental stream. Three traversal policies decide
//! which side of a popped node pair is expanded:
//!
//! * **BAS** (basic): priority is given to one of the trees, arbitrarily
//!   (here: the first tree).
//! * **EVN** (even): the node at the shallower depth is expanded.
//! * **SML** (simultaneous): both nodes are expanded at once, queueing all
//!   pairs of children.
//!
//! Ties of distance are resolved depth-first (deeper pair first) or
//! breadth-first. With an upper bound `K` supplied, the queue additionally
//! prunes items that cannot belong to the first `K` results, which is how
//! \[11\] makes the algorithm competitive for K-CPQs.

use crate::types::{CpqStats, PairResult, QueryOutcome};
use cpq_geo::{min_min_dist2, Dist2, Point, Rect, SpatialObject};
use cpq_rtree::{LeafEntry, Node, RTree, RTreeResult};
use cpq_storage::PageId;
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// Tree traversal policy (Section 3.9 / \[11\]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Traversal {
    /// BAS: always expand the first tree's node when possible.
    Basic,
    /// EVN: expand the node at the shallower depth.
    Even,
    /// SML: expand both nodes simultaneously (the policy all the paper's own
    /// algorithms follow).
    #[default]
    Simultaneous,
}

impl Traversal {
    /// All three policies (for the Figure 10 comparison).
    pub const ALL: [Traversal; 3] = [Traversal::Basic, Traversal::Even, Traversal::Simultaneous];

    /// Short label matching the paper's figures.
    pub fn label(&self) -> &'static str {
        match self {
            Traversal::Basic => "BAS",
            Traversal::Even => "EVN",
            Traversal::Simultaneous => "SML",
        }
    }
}

/// Tie policy for equal `MINMINDIST` (Section 3.9 / \[11\]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IncTie {
    /// A pair with a node at a deeper level has priority.
    #[default]
    DepthFirst,
    /// The opposite.
    BreadthFirst,
}

/// Configuration of the incremental distance join.
#[derive(Debug, Clone, Copy, Default)]
pub struct IncrementalConfig {
    /// Traversal policy.
    pub traversal: Traversal,
    /// Distance-tie policy.
    pub tie: IncTie,
    /// Optional result bound `K`: enables queue pruning as in \[11\]. The
    /// stream still yields lazily; the bound only limits what is queued.
    pub k_bound: Option<usize>,
}

/// One side of a queued item pair.
#[derive(Debug, Clone, Copy)]
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

    /// Level for depth comparisons; objects are deepest.
    fn level_i(&self) -> i32 {
        match self {
            Item::Node { level, .. } => *level as i32,
            Item::Object(_) => -1,
        }
    }
}

struct QEntry<const D: usize, O: SpatialObject<D>> {
    dist: Dist2,
    /// Smaller processes first: level sum for depth-first (deeper = smaller
    /// levels), negated for breadth-first.
    tie_key: i32,
    seq: u64,
    a: Item<D, O>,
    b: Item<D, O>,
}

impl<const D: usize, O: SpatialObject<D>> PartialEq for QEntry<D, O> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl<const D: usize, O: SpatialObject<D>> Eq for QEntry<D, O> {}
impl<const D: usize, O: SpatialObject<D>> PartialOrd for QEntry<D, O> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<const D: usize, O: SpatialObject<D>> Ord for QEntry<D, O> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.dist
            .cmp(&other.dist)
            .then_with(|| self.tie_key.cmp(&other.tie_key))
            .then_with(|| self.seq.cmp(&other.seq))
    }
}

/// Bound on the K-th closest object pair queued so far (the pruning
/// structure of \[11\] when an upper bound `K` is given).
struct KBound {
    k: usize,
    heap: BinaryHeap<Dist2>, // max-heap of the K best object-pair distances
}

impl KBound {
    fn new(k: usize) -> Self {
        KBound {
            k: k.max(1),
            heap: BinaryHeap::new(),
        }
    }

    fn threshold(&self) -> Dist2 {
        if self.heap.len() >= self.k {
            // analyze: allow(panic-path) — guarded by the length check above.
            *self.heap.peek().expect("non-empty heap")
        } else {
            Dist2::INFINITY
        }
    }

    fn offer(&mut self, d: Dist2) {
        if self.heap.len() < self.k {
            self.heap.push(d);
        } else if d < self.threshold() {
            self.heap.pop();
            self.heap.push(d);
        }
    }
}

/// A lazy stream of closest pairs in non-decreasing distance order.
///
/// Created by [`distance_join`]. Each [`next`](Iterator::next) call pops
/// queue entries (faulting R-tree pages as needed) until an object/object
/// pair surfaces.
pub struct DistanceJoin<'a, const D: usize, O: SpatialObject<D> = Point<D>> {
    tp: &'a RTree<D, O>,
    tq: &'a RTree<D, O>,
    cfg: IncrementalConfig,
    queue: BinaryHeap<Reverse<QEntry<D, O>>>,
    kbound: Option<KBound>,
    stats: CpqStats,
    misses_before: (u64, u64),
    seq: u64,
    emitted: u64,
    failed: bool,
    /// Error raised while seeding, surfaced on the first `next()`.
    pending_error: Option<cpq_rtree::RTreeError>,
}

/// Starts an incremental distance join between two trees.
pub fn distance_join<'a, const D: usize, O: SpatialObject<D>>(
    tree_p: &'a RTree<D, O>,
    tree_q: &'a RTree<D, O>,
    config: IncrementalConfig,
) -> DistanceJoin<'a, D, O> {
    let misses_before = (
        tree_p.pool().buffer_stats().misses,
        tree_q.pool().buffer_stats().misses,
    );
    let mut join = DistanceJoin {
        tp: tree_p,
        tq: tree_q,
        cfg: config,
        queue: BinaryHeap::new(),
        kbound: config.k_bound.map(KBound::new),
        stats: CpqStats::default(),
        misses_before,
        seq: 0,
        emitted: 0,
        failed: false,
        pending_error: None,
    };
    if !tree_p.is_empty() && !tree_q.is_empty() {
        // Seed with the root pair; reading the root MBRs costs one page
        // access per tree, like every algorithm's CP1 step. Real MBRs matter
        // for BAS/EVN, where one root may linger in the queue paired against
        // many expanded items.
        match (tree_p.root_mbr(), tree_q.root_mbr()) {
            (Ok(Some(mbr_p)), Ok(Some(mbr_q))) => {
                let a = Item::Node {
                    page: tree_p.root(),
                    level: tree_p.height() - 1,
                    mbr: mbr_p,
                };
                let b = Item::Node {
                    page: tree_q.root(),
                    level: tree_q.height() - 1,
                    mbr: mbr_q,
                };
                join.push(min_min_dist2(&mbr_p, &mbr_q), a, b);
            }
            (Err(e), _) | (_, Err(e)) => join.pending_error = Some(e),
            _ => unreachable!("non-empty trees have root MBRs"),
        }
    }
    join
}

impl<'a, const D: usize, O: SpatialObject<D>> DistanceJoin<'a, D, O> {
    fn push(&mut self, dist: Dist2, a: Item<D, O>, b: Item<D, O>) {
        if let Some(kb) = &mut self.kbound {
            if dist > kb.threshold() {
                self.stats.pairs_pruned += 1;
                return;
            }
            if let (Item::Object(_), Item::Object(_)) = (&a, &b) {
                kb.offer(dist);
            }
        }
        let tie_raw = a.level_i() + b.level_i();
        let tie_key = match self.cfg.tie {
            IncTie::DepthFirst => tie_raw,
            IncTie::BreadthFirst => -tie_raw,
        };
        self.seq += 1;
        self.queue.push(Reverse(QEntry {
            dist,
            tie_key,
            seq: self.seq,
            a,
            b,
        }));
        self.stats.queue_inserts += 1;
        self.stats.queue_peak = self.stats.queue_peak.max(self.queue.len());
    }

    /// Items of one node's children.
    fn expand(&mut self, page: PageId, on_p_side: bool) -> RTreeResult<Vec<Item<D, O>>> {
        let tree = if on_p_side { self.tp } else { self.tq };
        Ok(match &*tree.read_node(page)? {
            Node::Leaf(es) => es.iter().copied().map(Item::Object).collect(),
            Node::Inner { level, entries } => entries
                .iter()
                .map(|e| Item::Node {
                    page: e.child,
                    level: level - 1,
                    mbr: e.mbr,
                })
                .collect(),
        })
    }

    fn pair_dist(a: &Item<D, O>, b: &Item<D, O>) -> Dist2 {
        min_min_dist2(&a.mbr(), &b.mbr())
    }

    fn step(&mut self) -> RTreeResult<Option<PairResult<D, O>>> {
        while let Some(Reverse(entry)) = self.queue.pop() {
            match (&entry.a, &entry.b) {
                (Item::Object(p), Item::Object(q)) => {
                    self.emitted += 1;
                    return Ok(Some(PairResult::new(*p, *q)));
                }
                (a, b) => {
                    self.stats.node_pairs_processed += 1;
                    let expand_a;
                    let expand_b;
                    match (a, b) {
                        (Item::Node { .. }, Item::Object(_)) => {
                            expand_a = true;
                            expand_b = false;
                        }
                        (Item::Object(_), Item::Node { .. }) => {
                            expand_a = false;
                            expand_b = true;
                        }
                        (Item::Node { level: la, .. }, Item::Node { level: lb, .. }) => {
                            match self.cfg.traversal {
                                Traversal::Basic => {
                                    expand_a = true;
                                    expand_b = false;
                                }
                                Traversal::Even => {
                                    // Shallower depth = higher level expands.
                                    expand_a = la >= lb;
                                    expand_b = lb > la;
                                }
                                Traversal::Simultaneous => {
                                    expand_a = true;
                                    expand_b = true;
                                }
                            }
                        }
                        (Item::Object(_), Item::Object(_)) => unreachable!(),
                    }

                    let kids_a: Vec<Item<D, O>> = if expand_a {
                        let Item::Node { page, .. } = a else {
                            unreachable!()
                        };
                        self.expand(*page, true)?
                    } else {
                        vec![*a]
                    };
                    let kids_b: Vec<Item<D, O>> = if expand_b {
                        let Item::Node { page, .. } = b else {
                            unreachable!()
                        };
                        self.expand(*page, false)?
                    } else {
                        vec![*b]
                    };
                    for ka in &kids_a {
                        for kb in &kids_b {
                            let d = Self::pair_dist(ka, kb);
                            if let (Item::Object(_), Item::Object(_)) = (ka, kb) {
                                self.stats.dist_computations += 1;
                            }
                            self.push(d, *ka, *kb);
                        }
                    }
                }
            }
        }
        Ok(None)
    }

    /// Work counters so far; disk-access deltas are computed on call.
    pub fn stats(&self) -> CpqStats {
        let mut s = self.stats;
        s.disk_accesses_p = self.tp.pool().buffer_stats().misses - self.misses_before.0;
        if std::ptr::eq(self.tp, self.tq) {
            s.disk_accesses_q = 0;
        } else {
            s.disk_accesses_q = self.tq.pool().buffer_stats().misses - self.misses_before.1;
        }
        s
    }

    /// Number of pairs emitted so far.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }
}

impl<'a, const D: usize, O: SpatialObject<D>> Iterator for DistanceJoin<'a, D, O> {
    type Item = RTreeResult<PairResult<D, O>>;

    fn next(&mut self) -> Option<Self::Item> {
        if let Some(e) = self.pending_error.take() {
            self.failed = true;
            return Some(Err(e));
        }
        if self.failed {
            return None;
        }
        match self.step() {
            Ok(Some(pair)) => Some(Ok(pair)),
            Ok(None) => None,
            Err(e) => {
                self.failed = true;
                Some(Err(e))
            }
        }
    }
}

/// Runs the incremental join until `K` pairs are produced, returning them
/// with work counters — the configuration used in the paper's Section 5.2
/// comparison (the join is bounded by `K`, enabling queue pruning).
pub fn k_closest_pairs_incremental<const D: usize, O: SpatialObject<D>>(
    tree_p: &RTree<D, O>,
    tree_q: &RTree<D, O>,
    k: usize,
    config: &IncrementalConfig,
) -> RTreeResult<QueryOutcome<D, O>> {
    // K = 0 asks for nothing: answer without opening the join, whose roots
    // it would read (a failed read would be parked, never reported).
    if k == 0 {
        return Ok(QueryOutcome {
            pairs: Vec::new(),
            stats: CpqStats::default(),
        });
    }
    let cfg = IncrementalConfig {
        k_bound: Some(k),
        ..*config
    };
    let mut join = distance_join(tree_p, tree_q, cfg);
    // K is outside input: grow with the pairs produced, never preallocate K.
    let mut pairs = Vec::new();
    while pairs.len() < k {
        match join.next() {
            Some(Ok(pair)) => pairs.push(pair),
            Some(Err(e)) => return Err(e),
            None => break,
        }
    }
    let stats = join.stats();
    Ok(QueryOutcome { pairs, stats })
}
