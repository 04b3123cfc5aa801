//! The K-heap: the bounded max-heap holding the best K pairs found so far
//! (Section 3.8 of the paper).
//!
//! While the heap has empty slots the pruning threshold `T` is infinite;
//! once full, `T` is the distance of the worst retained pair (the heap top),
//! and any newly discovered pair strictly better than `T` replaces the top.

use crate::types::PairResult;
use cpq_geo::{Dist2, Point, SpatialObject};
use std::collections::BinaryHeap;

/// A wrapper ordering pairs for the max-heap.
///
/// The order is **total**: the canonical `(distance, p.oid, q.oid)` key of
/// [`PairResult::sort_key`], shared with the brute-force references and the
/// parallel merge path. Making the tie-break part of the order (rather than
/// keeping first-offered-wins semantics) means the retained K-set is
/// independent of the order in which equal-distance pairs are discovered —
/// brute-force and plane-sweep leaf scanning enumerate pairs in different
/// orders and must produce identical results even on data with duplicate
/// coordinates.
struct ByDist<const D: usize, O: SpatialObject<D>>(PairResult<D, O>);

impl<const D: usize, O: SpatialObject<D>> ByDist<D, O> {
    #[inline]
    fn key(&self) -> (Dist2, u64, u64) {
        self.0.sort_key()
    }
}

impl<const D: usize, O: SpatialObject<D>> PartialEq for ByDist<D, O> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl<const D: usize, O: SpatialObject<D>> Eq for ByDist<D, O> {}
impl<const D: usize, O: SpatialObject<D>> PartialOrd for ByDist<D, O> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<const D: usize, O: SpatialObject<D>> Ord for ByDist<D, O> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}

/// Most entries a new K-heap allocates up front (3.5 MiB of 2-d point
/// pairs): `K` is outside input and the product of two tree sizes is no
/// bound on memory — `K = 2·10⁹` on two 62,536-point trees asked for 112 GB
/// before the first node was read. Larger heaps grow as pairs arrive.
const MAX_PREALLOC: usize = 1 << 16;

/// Bounded max-heap of the K closest pairs discovered so far.
pub struct KHeap<const D: usize, O: SpatialObject<D> = Point<D>> {
    k: usize,
    heap: BinaryHeap<ByDist<D, O>>,
}

impl<const D: usize, O: SpatialObject<D>> KHeap<D, O> {
    /// Creates a K-heap with capacity `k` (`k >= 1`).
    pub fn new(k: usize) -> Self {
        Self::bounded(k, u64::MAX)
    }

    /// [`new`](Self::new) for a caller that knows at most `max_pairs` pairs
    /// will ever be offered: preallocates for `min(k, max_pairs,`
    /// [`MAX_PREALLOC`]`)` entries and grows on demand past that, so an
    /// absurd `K` from outside costs no memory before a pair is offered —
    /// whatever the trees' sizes. Retention is unchanged — the capacity
    /// stays `k`.
    pub fn bounded(k: usize, max_pairs: u64) -> Self {
        assert!(k >= 1, "K must be at least 1");
        let prealloc = usize::try_from(max_pairs)
            .map_or(k, |m| k.min(m))
            .min(MAX_PREALLOC);
        KHeap {
            k,
            heap: BinaryHeap::with_capacity(prealloc + 1),
        }
    }

    /// Capacity `K`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of pairs currently held.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` when no pairs are held.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// `true` once K pairs are held.
    pub fn is_full(&self) -> bool {
        self.heap.len() >= self.k
    }

    /// The pruning threshold `T`: infinite while the heap has empty slots,
    /// the worst retained distance once full.
    pub fn threshold(&self) -> Dist2 {
        if self.is_full() {
            // analyze: allow(panic-path) — `is_full` implies k >= 1 entries.
            self.heap.peek().expect("full heap has a top").0.dist2
        } else {
            Dist2::INFINITY
        }
    }

    /// Offers a pair: inserted while slots remain; once full it replaces the
    /// top only when strictly smaller in the total `(distance, oids)` order —
    /// in particular an equal-distance, equal-id pair never replaces.
    /// Returns `true` when retained.
    ///
    /// The full-heap path compares against the top in place
    /// ([`BinaryHeap::peek_mut`]) instead of a `pop` + `push`, so a rejected
    /// offer costs one comparison and an accepted one a single sift-down.
    pub fn offer(&mut self, pair: PairResult<D, O>) -> bool {
        if self.heap.len() < self.k {
            self.heap.push(ByDist(pair));
            return true;
        }
        // analyze: allow(panic-path) — the branch above handled the not-full
        // case, so the heap holds k >= 1 entries.
        let mut top = self.heap.peek_mut().expect("K >= 1: full heap has a top");
        let cand = ByDist(pair);
        if cand < *top {
            *top = cand;
            true
        } else {
            false
        }
    }

    /// Consumes the heap, returning pairs sorted by ascending distance
    /// (ties by object ids, matching the retention order).
    pub fn into_sorted(self) -> Vec<PairResult<D, O>> {
        let mut v: Vec<ByDist<D, O>> = self.heap.into_vec();
        v.sort_by_key(|a| a.key());
        v.into_iter().map(|b| b.0).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpq_geo::Point;
    use cpq_rtree::LeafEntry;

    fn pair(x: f64) -> PairResult<2> {
        PairResult::new(
            LeafEntry::new(Point([0.0, 0.0]), 0),
            LeafEntry::new(Point([x, 0.0]), 1),
        )
    }

    #[test]
    fn threshold_infinite_until_full() {
        let mut h = KHeap::new(3);
        assert!(h.threshold().is_infinite());
        h.offer(pair(5.0));
        h.offer(pair(1.0));
        assert!(h.threshold().is_infinite());
        h.offer(pair(3.0));
        assert_eq!(h.threshold().get(), 25.0);
    }

    #[test]
    fn keeps_the_k_best() {
        let mut h = KHeap::new(2);
        for x in [9.0, 1.0, 5.0, 2.0, 7.0] {
            h.offer(pair(x));
        }
        let out = h.into_sorted();
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].dist2.get(), 1.0);
        assert_eq!(out[1].dist2.get(), 4.0);
    }

    #[test]
    fn rejects_pairs_not_better_than_top() {
        let mut h = KHeap::new(1);
        assert!(h.offer(pair(2.0)));
        assert!(!h.offer(pair(2.0)), "equal distance must not replace");
        assert!(!h.offer(pair(3.0)));
        assert!(h.offer(pair(1.0)));
        assert_eq!(h.into_sorted()[0].dist2.get(), 1.0);
    }

    #[test]
    fn sorted_output_ascending() {
        let mut h = KHeap::new(5);
        for x in [4.0, 2.0, 8.0, 6.0, 1.0] {
            h.offer(pair(x));
        }
        let out = h.into_sorted();
        let d: Vec<f64> = out.iter().map(|p| p.dist2.get()).collect();
        assert_eq!(d, vec![1.0, 4.0, 16.0, 36.0, 64.0]);
    }

    #[test]
    fn equal_distance_ties_are_canonical_by_oid() {
        let with_oids = |x: f64, a: u64, b: u64| {
            PairResult::new(
                LeafEntry::new(Point([0.0, 0.0]), a),
                LeafEntry::new(Point([x, 0.0]), b),
            )
        };
        // Same distance, different ids: the retained pair must be the one
        // with the smaller id key, in either offer order.
        for order in [[(5, 6), (0, 1)], [(0, 1), (5, 6)]] {
            let mut h = KHeap::new(1);
            for (a, b) in order {
                h.offer(with_oids(2.0, a, b));
            }
            let out = h.into_sorted();
            assert_eq!((out[0].p.oid, out[0].q.oid), (0, 1));
        }
    }

    #[test]
    fn huge_k_preallocates_for_the_pairs_that_exist() {
        let mut h = KHeap::bounded(usize::MAX, 2);
        assert!(h.offer(pair(2.0)));
        assert!(h.offer(pair(1.0)));
        assert!(h.threshold().is_infinite(), "capacity is still K");
        assert_eq!(h.into_sorted().len(), 2);
    }

    #[test]
    fn huge_k_with_no_pair_bound_constructs_and_grows_on_demand() {
        let mut h = KHeap::<2>::new(1 << 40);
        let n = MAX_PREALLOC + 10;
        for i in 0..n {
            assert!(h.offer(pair(i as f64)));
        }
        assert!(h.threshold().is_infinite(), "capacity is still K");
        let out = h.into_sorted();
        assert_eq!(out.len(), n, "retains what it is offered");
        assert!(out.windows(2).all(|w| w[0].dist2 < w[1].dist2));
    }

    #[test]
    #[should_panic]
    fn zero_k_rejected() {
        let _ = KHeap::<2>::new(0);
    }
}
