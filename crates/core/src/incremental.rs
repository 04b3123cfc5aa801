//! The incremental distance-join algorithms of Hjaltason & Samet
//! (SIGMOD 1998), the related work the paper compares against
//! (Sections 3.9 and 5.2).
//!
//! A single priority queue holds **item pairs** of mixed type — node/node,
//! node/object and object/object — keyed by `MINMINDIST`. Popping an
//! object/object pair *emits* it: pairs come out in non-decreasing distance
//! order, an unlimited incremental stream. The two traversal policies the
//! paper's Figure 10 compares decide which side of a popped node pair is
//! expanded:
//!
//! * **EVN** (even): the node at the shallower depth is expanded.
//! * **SML** (simultaneous): both nodes are expanded at once, queueing all
//!   pairs of children.
//!
//! Ties of distance are resolved depth-first (deeper pair first), the
//! policy Figure 10 runs. [`k_closest_pairs_incremental`] bounds the queue
//! by `K`, pruning items that cannot belong to the first `K` results, which
//! is how \[11\] makes the algorithm competitive for K-CPQs;
//! [`distance_join`] streams unbounded.

use crate::types::{CpqStats, DiskMeter, PairResult, QueryOutcome};
use cpq_geo::{min_min_dist2, Dist2, Rect};
use cpq_rtree::{LeafEntry, NodeEntries, RTree, RTreeResult};
use cpq_storage::PageId;
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// Tree traversal policy (Section 3.9 / \[11\]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Traversal {
    /// EVN: expand the node at the shallower depth.
    Even,
    /// SML: expand both nodes simultaneously (the policy all the paper's own
    /// algorithms follow).
    #[default]
    Simultaneous,
}

impl Traversal {
    /// Both policies, as the Figure 10 comparison runs them.
    pub const ALL: [Traversal; 2] = [Traversal::Even, Traversal::Simultaneous];

    /// Short label matching the paper's figures.
    pub fn label(&self) -> &'static str {
        match self {
            Traversal::Even => "EVN",
            Traversal::Simultaneous => "SML",
        }
    }
}

/// One side of a queued item pair.
#[derive(Debug, Clone, Copy)]
enum Item<const D: usize> {
    Node {
        page: PageId,
        level: u8,
        mbr: Rect<D>,
    },
    Object(LeafEntry<D>),
}

impl<const D: usize> Item<D> {
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

struct QEntry<const D: usize> {
    dist: Dist2,
    /// Smaller processes first: the level sum, so that among equal
    /// distances the deeper pair goes first (depth-first ties).
    tie_key: i32,
    seq: u64,
    a: Item<D>,
    b: Item<D>,
}

impl<const D: usize> PartialEq for QEntry<D> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl<const D: usize> Eq for QEntry<D> {}
impl<const D: usize> PartialOrd for QEntry<D> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<const D: usize> Ord for QEntry<D> {
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

    #[expect(clippy::expect_used, reason = "guarded by the length check above.")]
    fn threshold(&self) -> Dist2 {
        if self.heap.len() >= self.k {
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
pub struct DistanceJoin<'a, const D: usize> {
    tp: &'a RTree<D>,
    tq: &'a RTree<D>,
    traversal: Traversal,
    queue: BinaryHeap<Reverse<QEntry<D>>>,
    /// The `K` bound of [`k_closest_pairs_incremental`]; `None` streams.
    kbound: Option<KBound>,
    stats: CpqStats,
    meter: DiskMeter<'a>,
    seq: u64,
    emitted: u64,
    failed: bool,
    /// Error raised while seeding, surfaced on the first `next()`.
    pending_error: Option<cpq_rtree::RTreeError>,
}

/// Starts an incremental distance join between two trees: an unbounded
/// stream of the pairs of `tree_p × tree_q` in non-decreasing distance,
/// expanding node pairs by `traversal` and breaking distance ties
/// depth-first. Stop pulling at any point; [`DistanceJoin::stats`] counts
/// the work done so far.
pub fn distance_join<'a, const D: usize>(
    tree_p: &'a RTree<D>,
    tree_q: &'a RTree<D>,
    traversal: Traversal,
) -> DistanceJoin<'a, D> {
    open(tree_p, tree_q, traversal, None)
}

/// The join of [`distance_join`], with the queue bounded by `K` when given.
fn open<'a, const D: usize>(
    tree_p: &'a RTree<D>,
    tree_q: &'a RTree<D>,
    traversal: Traversal,
    k_bound: Option<usize>,
) -> DistanceJoin<'a, D> {
    let mut join = DistanceJoin {
        tp: tree_p,
        tq: tree_q,
        traversal,
        queue: BinaryHeap::new(),
        kbound: k_bound.map(KBound::new),
        stats: CpqStats::default(),
        meter: DiskMeter::start(tree_p, tree_q),
        seq: 0,
        emitted: 0,
        failed: false,
        pending_error: None,
    };
    if !tree_p.is_empty() && !tree_q.is_empty() {
        // Seed with the root pair; reading the root MBRs costs one page
        // access per tree, like every algorithm's CP1 step. Real MBRs matter
        // for EVN, where one root may linger in the queue paired against
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

impl<'a, const D: usize> DistanceJoin<'a, D> {
    fn push(&mut self, dist: Dist2, a: Item<D>, b: Item<D>) {
        if let Some(kb) = &mut self.kbound {
            if dist > kb.threshold() {
                self.stats.pairs_pruned += 1;
                return;
            }
            if let (Item::Object(_), Item::Object(_)) = (&a, &b) {
                kb.offer(dist);
            }
        }
        let tie_key = a.level_i() + b.level_i();
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
    fn expand(&mut self, page: PageId, on_p_side: bool) -> RTreeResult<Vec<Item<D>>> {
        let tree = if on_p_side { self.tp } else { self.tq };
        let node = tree.read_node(page)?;
        Ok(match node.entries() {
            NodeEntries::Leaf(es) => es.iter().map(Item::Object).collect(),
            NodeEntries::Inner(entries) => entries
                .iter()
                .map(|e| Item::Node {
                    page: e.child,
                    level: node.level() - 1,
                    mbr: e.mbr,
                })
                .collect(),
        })
    }

    fn pair_dist(a: &Item<D>, b: &Item<D>) -> Dist2 {
        min_min_dist2(&a.mbr(), &b.mbr())
    }

    fn step(&mut self) -> RTreeResult<Option<PairResult<D>>> {
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
                            match self.traversal {
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

                    let kids_a: Vec<Item<D>> = if expand_a {
                        let Item::Node { page, .. } = a else {
                            unreachable!()
                        };
                        self.expand(*page, true)?
                    } else {
                        vec![*a]
                    };
                    let kids_b: Vec<Item<D>> = if expand_b {
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
        self.meter.fill(&mut s);
        s
    }

    /// Number of pairs emitted so far.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }
}

impl<'a, const D: usize> Iterator for DistanceJoin<'a, D> {
    type Item = RTreeResult<PairResult<D>>;

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
pub fn k_closest_pairs_incremental<const D: usize>(
    tree_p: &RTree<D>,
    tree_q: &RTree<D>,
    k: usize,
    traversal: Traversal,
) -> RTreeResult<QueryOutcome<D>> {
    // K = 0 asks for nothing: answer without opening the join, whose roots
    // it would read (a failed read would be parked, never reported).
    if k == 0 {
        return Ok(QueryOutcome {
            pairs: Vec::new(),
            stats: CpqStats::default(),
        });
    }
    let mut join = open(tree_p, tree_q, traversal, Some(k));
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
