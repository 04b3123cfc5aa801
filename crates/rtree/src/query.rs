//! Search operations: window (range) queries, point lookups, K nearest
//! neighbors, and full scans.

use crate::codec::NodeEntries;
use crate::entry::LeafEntry;
use crate::error::RTreeResult;
use crate::tree::RTree;
use cpq_geo::{min_min_dist2, Dist2, Point, Rect};
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

    /// K nearest neighbors of `query`, closest first and, among equal
    /// distances, by ascending oid — a canonical order, whatever the tree's
    /// shape or insertion history. Uses the best-first traversal of
    /// Hjaltason & Samet with a MINDIST-ordered priority queue.
    ///
    /// The queue is kept small with a running bound: once `k` candidate
    /// points have been seen, the k-th smallest pending point distance
    /// upper-bounds the final answer, and entries farther than that — nodes
    /// and points alike — are never pushed.
    pub fn knn(&self, query: &Point<D>, k: usize) -> RTreeResult<Vec<KnnNeighbor<D>>> {
        // `k` is outside input: size by what the tree can return.
        let mut out = Vec::with_capacity(k.min(self.len() as usize));
        self.best_first(query, k, Dist2::INFINITY, |n| {
            out.push(n);
            out.len() < k
        })?;
        Ok(out)
    }

    /// The nearest neighbor of `query` no farther than `within`
    /// (**inclusive**: a neighbor at exactly `within` is found), or `None`
    /// when there is none. Ties go to the smallest oid, as in
    /// [`knn`](Self::knn), which is this search with `within` infinite.
    ///
    /// `within` is a warm start: the distance from `query` to any indexed
    /// point bounds its nearest neighbor, and subtrees beyond it are never
    /// read. Such a bound always finds an answer, for every MBR containing
    /// that point scores at most its distance (each axis gap to a containing
    /// rectangle is at most the gap to the point, and rounding is monotone).
    pub fn nearest(&self, query: &Point<D>, within: Dist2) -> RTreeResult<Option<KnnNeighbor<D>>> {
        let mut nearest = None;
        self.best_first(query, 1, within, |n| {
            nearest = Some(n);
            false
        })?;
        Ok(nearest)
    }

    /// Hands the `k` nearest neighbors of `query` within `within`
    /// (inclusive) to `emit` in `(dist2, oid)` order, until it returns
    /// `false`. At equal distance the queue pops nodes before points, so
    /// every point at a distance is queued before the first of them is
    /// output, and points by ascending oid.
    fn best_first(
        &self,
        query: &Point<D>,
        k: usize,
        within: Dist2,
        mut emit: impl FnMut(KnnNeighbor<D>) -> bool,
    ) -> RTreeResult<()> {
        if k == 0 || !self.root().is_valid() {
            return Ok(());
        }
        /// Max-heap order: a node outranks a point at equal distance.
        #[derive(PartialEq, Eq, PartialOrd, Ord)]
        enum Item {
            /// A data point awaiting output: its oid, then its index into
            /// `pending`.
            Point(Reverse<u64>, usize),
            /// An R-tree node awaiting expansion, the latest pushed first.
            Node(usize, PageId),
        }
        let qrect = Rect::point(*query);
        let mut heap: BinaryHeap<(Reverse<Dist2>, Item)> = BinaryHeap::new();
        let mut seq = 0usize; // LIFO among equal-distance nodes
        heap.push((Reverse(Dist2::ZERO), Item::Node(seq, self.root())));
        // The entries of queued Point items.
        let mut pending: Vec<LeafEntry<D>> = Vec::new();
        // The pruning bound: `within`, then the k-th smallest distance of the
        // candidate points seen once there are k. For k > 1 `worst` is a
        // max-heap of the k smallest; k = 1 needs none, for a candidate is
        // within the bound and so is the new one.
        let mut bound = within;
        let mut worst: BinaryHeap<Dist2> = BinaryHeap::new();
        while let Some((Reverse(d), item)) = heap.pop() {
            match item {
                Item::Point(_, idx) => {
                    let entry = pending[idx];
                    if !emit(KnnNeighbor { entry, dist2: d }) {
                        break;
                    }
                }
                Item::Node(_, id) => match self.read_node(id)?.entries() {
                    NodeEntries::Leaf(es) => {
                        for e in es {
                            let dd = min_min_dist2(&qrect, &e.mbr());
                            if dd > bound {
                                continue; // farther than k candidates already seen
                            }
                            if k == 1 {
                                bound = dd;
                            } else {
                                worst.push(dd);
                                if worst.len() > k {
                                    worst.pop();
                                }
                                if worst.len() == k {
                                    bound = worst.peek().copied().unwrap_or(bound);
                                }
                            }
                            heap.push((Reverse(dd), Item::Point(Reverse(e.oid), pending.len())));
                            pending.push(e);
                        }
                    }
                    NodeEntries::Inner(entries) => {
                        for e in entries {
                            let dd = min_min_dist2(&qrect, &e.mbr);
                            if dd > bound {
                                continue; // subtree cannot contain a top-k point
                            }
                            seq += 1;
                            heap.push((Reverse(dd), Item::Node(seq, e.child)));
                        }
                    }
                },
            }
        }
        Ok(())
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
