//! Result and statistics types shared by all query algorithms.

use cpq_geo::{Dist2, Point, SpatialObject};
use cpq_rtree::LeafEntry;

/// One closest pair: an object from `P`, an object from `Q`, and their
/// distance (exact for points; MBR `MINMINDIST` for extended objects —
/// identical for the paper's point data).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairResult<const D: usize, O: SpatialObject<D> = Point<D>> {
    /// The object from the first data set.
    pub p: LeafEntry<D, O>,
    /// The object from the second data set.
    pub q: LeafEntry<D, O>,
    /// Squared distance between them.
    pub dist2: Dist2,
}

impl<const D: usize, O: SpatialObject<D>> PairResult<D, O> {
    /// Creates a pair result, computing the distance.
    pub fn new(p: LeafEntry<D, O>, q: LeafEntry<D, O>) -> Self {
        let dist2 = cpq_geo::min_min_dist2(&p.mbr(), &q.mbr());
        PairResult { p, q, dist2 }
    }

    /// Creates a pair result from an already-computed distance (both leaf
    /// scans test it against the threshold before they build the pair and
    /// must not pay for it twice).
    ///
    /// `dist2` must equal the value [`new`](Self::new) would compute; the
    /// brute kernel's rows and the sweep's threshold-aware kernel accumulate
    /// axis contributions in the same order as the full kernel, so the
    /// values are bitwise identical.
    pub fn with_dist2(p: LeafEntry<D, O>, q: LeafEntry<D, O>, dist2: Dist2) -> Self {
        debug_assert_eq!(dist2, cpq_geo::min_min_dist2(&p.mbr(), &q.mbr()));
        PairResult { p, q, dist2 }
    }

    /// The Euclidean (non-squared) distance.
    pub fn distance(&self) -> f64 {
        self.dist2.sqrt()
    }

    /// The canonical result ordering key: distance first, then the two
    /// object ids.
    ///
    /// This is **the** tie-break every result path shares — the K-heap's
    /// retention order, the brute-force references' sort, and the parallel
    /// executor's merge of per-worker K-heaps. Because the key is a total
    /// order over distinct pairs, the retained K-set (and its sorted output)
    /// is independent of discovery order, which is what makes brute-force,
    /// plane-sweep, and parallel execution bit-identical even on data with
    /// duplicate coordinates. Compare with [`pair_cmp`].
    #[inline]
    pub fn sort_key(&self) -> (Dist2, u64, u64) {
        (self.dist2, self.p.oid, self.q.oid)
    }
}

/// Compares two results in the canonical `(distance, p.oid, q.oid)` order
/// (see [`PairResult::sort_key`]); pass to `sort_by`/`sort_unstable_by`.
#[inline]
pub fn pair_cmp<const D: usize, O: SpatialObject<D>>(
    a: &PairResult<D, O>,
    b: &PairResult<D, O>,
) -> std::cmp::Ordering {
    a.sort_key().cmp(&b.sort_key())
}

/// Work counters reported by every query run.
///
/// `disk_accesses_*` are buffer-pool misses during the query — exactly the
/// metric the paper plots. The remaining counters quantify CPU-side work
/// and the memory footprint of the auxiliary structures, which Section 3.9
/// argues distinguish the HEAP algorithm from the incremental approach.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CpqStats {
    /// Buffer misses on the `P` tree.
    pub disk_accesses_p: u64,
    /// Buffer misses on the `Q` tree.
    pub disk_accesses_q: u64,
    /// Node pairs processed (recursive calls or heap pops).
    pub node_pairs_processed: u64,
    /// Candidate pairs pruned by `MINMINDIST > T`.
    pub pairs_pruned: u64,
    /// Point-to-point distance computations at leaf level.
    pub dist_computations: u64,
    /// Insertions into the main priority structure (HEAP / incremental).
    pub queue_inserts: u64,
    /// Largest size reached by the main priority structure.
    pub queue_peak: usize,
}

impl CpqStats {
    /// Total disk accesses across both trees (the paper's y-axis).
    pub fn disk_accesses(&self) -> u64 {
        self.disk_accesses_p + self.disk_accesses_q
    }
}

/// The result of a (K-)closest-pair query: the pairs, closest first, plus
/// work counters.
#[derive(Debug, Clone)]
pub struct QueryOutcome<const D: usize, O: SpatialObject<D> = Point<D>> {
    /// Result pairs sorted by ascending distance. For 1-CPQ this holds one
    /// pair (or none when either data set is empty).
    pub pairs: Vec<PairResult<D, O>>,
    /// Work counters for this run.
    pub stats: CpqStats,
}

impl<const D: usize, O: SpatialObject<D>> QueryOutcome<D, O> {
    /// The closest pair, when any.
    pub fn best(&self) -> Option<&PairResult<D, O>> {
        self.pairs.first()
    }
}

/// Outcome of one [`execute`](crate::execute) run, which a
/// [`CancelToken`](crate::CancelToken) may have interrupted.
#[derive(Debug, Clone)]
pub struct QueryRun<const D: usize, O: SpatialObject<D> = Point<D>> {
    /// The result pairs and work counters. When the run was interrupted,
    /// `outcome.pairs` holds the best pairs discovered up to that point —
    /// a valid (possibly non-final) partial answer, still sorted by
    /// ascending distance.
    pub outcome: QueryOutcome<D, O>,
    /// `true` when the run finished normally; `false` when the cancel token
    /// tripped (deadline expiry or explicit cancellation) first.
    pub completed: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpq_geo::Point;

    #[test]
    fn pair_result_computes_distance() {
        let r = PairResult::new(
            LeafEntry::new(Point([0.0, 0.0]), 1),
            LeafEntry::new(Point([3.0, 4.0]), 2),
        );
        assert_eq!(r.dist2.get(), 25.0);
        assert_eq!(r.distance(), 5.0);
    }

    #[test]
    fn stats_total() {
        let s = CpqStats {
            disk_accesses_p: 3,
            disk_accesses_q: 4,
            ..Default::default()
        };
        assert_eq!(s.disk_accesses(), 7);
    }

    #[test]
    fn canonical_order_is_distance_then_p_oid_then_q_oid() {
        let mk = |x: f64, a: u64, b: u64| {
            PairResult::new(
                LeafEntry::new(Point([0.0, 0.0]), a),
                LeafEntry::new(Point([x, 0.0]), b),
            )
        };
        // Deliberately shuffled: two distance ties (one resolved by p.oid,
        // one by q.oid) plus a strictly farther pair.
        let mut v = [mk(2.0, 7, 1), mk(3.0, 0, 0), mk(2.0, 4, 9), mk(2.0, 4, 2)];
        v.sort_by(pair_cmp);
        let keys: Vec<(u64, u64)> = v.iter().map(|r| (r.p.oid, r.q.oid)).collect();
        assert_eq!(keys, vec![(4, 2), (4, 9), (7, 1), (0, 0)]);
        assert_eq!(v[0].sort_key(), (v[0].dist2, 4, 2));
        // The order is total: equal keys mean the same logical pair.
        assert_eq!(pair_cmp(&v[1], &v[1]), std::cmp::Ordering::Equal);
        assert!(pair_cmp(&v[0], &v[3]).is_lt());
    }
}
