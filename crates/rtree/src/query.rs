//! Search operations: window (range) queries, point lookups, K nearest
//! neighbors, and full scans.

use crate::codec::NodeEntries;
use crate::entry::LeafEntry;
use crate::error::RTreeResult;
use crate::tree::RTree;
use cpq_geo::{min_min_dist2, min_min_dist2_within, Dist2, Point, Rect};
use cpq_storage::PageId;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One result of a K-nearest-neighbor query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KnnNeighbor<const D: usize> {
    /// The matching leaf entry.
    pub entry: LeafEntry<D>,
    /// Its squared distance to the query point.
    pub dist2: Dist2,
}

impl<const D: usize> RTree<D> {
    /// Returns all objects whose MBR intersects `window` (boundary
    /// inclusive). For point objects this is exactly "points inside the
    /// window", the paper's range query.
    pub fn range_query(&self, window: &Rect<D>) -> RTreeResult<Vec<LeafEntry<D>>> {
        let mut out = Vec::new();
        if !self.root().is_valid() {
            return Ok(out);
        }
        let mut stack = vec![self.root()];
        while let Some(id) = stack.pop() {
            match self.read_node(id)?.entries() {
                NodeEntries::Leaf(es) => {
                    out.extend(es.iter().filter(|e| window.intersects(&e.mbr())));
                }
                NodeEntries::Inner(entries) => {
                    stack.extend(
                        entries
                            .iter()
                            .filter(|e| e.mbr.intersects(window))
                            .map(|e| e.child),
                    );
                }
            }
        }
        Ok(out)
    }

    /// `true` when the exact `(object, oid)` pair is indexed.
    pub fn contains(&self, object: &Point<D>, oid: u64) -> RTreeResult<bool> {
        if !self.root().is_valid() {
            return Ok(false);
        }
        let mut stack = vec![self.root()];
        while let Some(id) = stack.pop() {
            match self.read_node(id)?.entries() {
                NodeEntries::Leaf(es) => {
                    if es.iter().any(|e| e.object == *object && e.oid == oid) {
                        return Ok(true);
                    }
                }
                NodeEntries::Inner(entries) => {
                    stack.extend(
                        entries
                            .iter()
                            .filter(|e| e.mbr.contains_point(object))
                            .map(|e| e.child),
                    );
                }
            }
        }
        Ok(false)
    }

    /// K nearest neighbors of `query`, closest first (ties broken
    /// arbitrarily). Uses the best-first
    /// traversal of Hjaltason & Samet with a MINDIST-ordered priority queue.
    ///
    /// The queue is kept small with a running bound: once `k` candidate
    /// points have been seen, the k-th smallest pending point distance
    /// upper-bounds the final answer, and entries farther than that — nodes
    /// and points alike — are never pushed. Distances are evaluated with the
    /// threshold-aware kernel, which stops accumulating per-axis
    /// contributions as soon as the partial sum crosses the bound.
    pub fn knn(&self, query: &Point<D>, k: usize) -> RTreeResult<Vec<KnnNeighbor<D>>> {
        // `k` is outside input: size by what the tree can return.
        let cap = k.min(self.len() as usize);
        let mut out = Vec::with_capacity(cap);
        if k == 0 || !self.root().is_valid() {
            return Ok(out);
        }
        #[derive(PartialEq, Eq, PartialOrd, Ord)]
        enum Item {
            /// An R-tree node awaiting expansion.
            Node(PageId),
            /// Index into `pending` of a data point awaiting output.
            Point(usize),
        }
        let qrect = Rect::point(*query);
        let mut heap: BinaryHeap<(Reverse<Dist2>, usize, Item)> = BinaryHeap::new();
        let mut seq = 0usize; // FIFO tie-breaker for deterministic order
        heap.push((Reverse(Dist2::ZERO), seq, Item::Node(self.root())));
        let mut pending: Vec<LeafEntry<D>> = Vec::new(); // store for Point items
                                                         // Max-heap of the k smallest point distances seen so far; its top is
                                                         // the pruning bound once k candidates exist.
        let mut worst: BinaryHeap<Dist2> = BinaryHeap::with_capacity(cap + 1);
        #[expect(clippy::expect_used, reason = "guarded by the length check above.")]
        let bound = |worst: &BinaryHeap<Dist2>| {
            if worst.len() >= k {
                *worst.peek().expect("k >= 1")
            } else {
                Dist2::INFINITY
            }
        };
        while let Some((Reverse(d), _, item)) = heap.pop() {
            match item {
                Item::Point(idx) => {
                    out.push(KnnNeighbor {
                        entry: pending[idx],
                        dist2: d,
                    });
                    if out.len() == k {
                        break;
                    }
                }
                Item::Node(id) => match self.read_node(id)?.entries() {
                    NodeEntries::Leaf(es) => {
                        for e in es {
                            let b = bound(&worst);
                            let Some(dd) = min_min_dist2_within(&qrect, &e.mbr(), b) else {
                                continue; // farther than k candidates already seen
                            };
                            worst.push(dd);
                            if worst.len() > k {
                                worst.pop();
                            }
                            seq += 1;
                            pending.push(e);
                            heap.push((Reverse(dd), seq, Item::Point(pending.len() - 1)));
                        }
                    }
                    NodeEntries::Inner(entries) => {
                        for e in entries {
                            let Some(dd) = min_min_dist2_within(&qrect, &e.mbr, bound(&worst))
                            else {
                                continue; // subtree cannot contain a top-k point
                            };
                            seq += 1;
                            heap.push((Reverse(dd), seq, Item::Node(e.child)));
                        }
                    }
                },
            }
        }
        Ok(out)
    }

    /// All indexed objects whose MBR distance to `probe` is at most
    /// `bound`, **inclusive** — distance ties survive, so a caller
    /// maintaining a top-K set under the canonical `(dist2, oids)` order
    /// sees every pair that could displace its current K-th entry. The
    /// traversal prunes subtrees whose MINDIST to `probe` exceeds the
    /// bound; with `bound == INFINITY` it degenerates to a full scan.
    ///
    /// This is the bounded-radius probe behind continuous (incremental)
    /// K-CPQ maintenance: a newly inserted point probes the *other* tree
    /// seeded by the current K-th pair distance.
    pub fn within_dist2(&self, probe: &Rect<D>, bound: Dist2) -> RTreeResult<Vec<LeafEntry<D>>> {
        let mut out = Vec::new();
        if !self.root().is_valid() {
            return Ok(out);
        }
        let mut stack = vec![self.root()];
        while let Some(id) = stack.pop() {
            match self.read_node(id)?.entries() {
                NodeEntries::Leaf(es) => {
                    out.extend(
                        es.iter()
                            .filter(|e| min_min_dist2(probe, &e.mbr()) <= bound),
                    );
                }
                NodeEntries::Inner(entries) => {
                    stack.extend(
                        entries
                            .iter()
                            .filter(|e| min_min_dist2(probe, &e.mbr) <= bound)
                            .map(|e| e.child),
                    );
                }
            }
        }
        Ok(out)
    }

    /// All indexed objects, in unspecified order.
    pub fn all_objects(&self) -> RTreeResult<Vec<LeafEntry<D>>> {
        let mut out = Vec::with_capacity(self.len() as usize);
        if !self.root().is_valid() {
            return Ok(out);
        }
        let mut stack = vec![self.root()];
        while let Some(id) = stack.pop() {
            match self.read_node(id)?.entries() {
                NodeEntries::Leaf(es) => out.extend(es),
                NodeEntries::Inner(entries) => stack.extend(entries.iter().map(|e| e.child)),
            }
        }
        Ok(out)
    }
}
