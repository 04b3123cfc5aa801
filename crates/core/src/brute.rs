//! Brute-force reference implementations, used by the test-suite and the
//! benchmark harness to verify every tree-based algorithm.

use crate::spec::Constraint;
use crate::types::{pair_cmp, PairResult};
use cpq_geo::Point;
use cpq_rtree::LeafEntry;

/// The `K` closest pairs between two object slices, by exhaustive scan.
/// Pairs are returned sorted in the canonical `(distance, p.oid, q.oid)`
/// order ([`pair_cmp`]) — the same total order the tree algorithms' K-heap
/// retains, so references and engine agree bit-for-bit on distance ties.
pub fn k_closest_pairs_brute<const D: usize>(
    ps: &[(Point<D>, u64)],
    qs: &[(Point<D>, u64)],
    k: usize,
) -> Vec<PairResult<D>> {
    let mut all: Vec<PairResult<D>> = Vec::with_capacity(ps.len() * qs.len());
    for &(p, poid) in ps {
        for &(q, qoid) in qs {
            all.push(PairResult::new(
                LeafEntry::new(p, poid),
                LeafEntry::new(q, qoid),
            ));
        }
    }
    all.sort_by(pair_cmp);
    all.truncate(k);
    all
}

/// The `K` closest pairs **within** one set (unordered pairs of distinct
/// points), sorted ascending; results have `p.oid < q.oid`.
pub fn self_k_closest_pairs_brute<const D: usize>(
    ps: &[(Point<D>, u64)],
    k: usize,
) -> Vec<PairResult<D>> {
    let mut all: Vec<PairResult<D>> = Vec::new();
    for (i, &(p, poid)) in ps.iter().enumerate() {
        for &(q, qoid) in &ps[i + 1..] {
            let (a, b) = if poid < qoid {
                ((p, poid), (q, qoid))
            } else {
                ((q, qoid), (p, poid))
            };
            all.push(PairResult::new(
                LeafEntry::new(a.0, a.1),
                LeafEntry::new(b.0, b.1),
            ));
        }
    }
    all.sort_by(pair_cmp);
    all.truncate(k);
    all
}

/// Constrained variant of [`k_closest_pairs_brute`]: only pairs admitted by
/// `constraint` (windows and/or colored) qualify. The oracle applies the
/// **same** [`Constraint::admits_pair`] predicate the tree engines gate
/// their leaf scans with, so parity failures can only come from pruning
/// bugs, never predicate drift.
pub fn k_closest_pairs_brute_constrained<const D: usize>(
    ps: &[(Point<D>, u64)],
    qs: &[(Point<D>, u64)],
    k: usize,
    constraint: &Constraint<D>,
) -> Vec<PairResult<D>> {
    let mut all: Vec<PairResult<D>> = Vec::new();
    for &(p, poid) in ps {
        for &(q, qoid) in qs {
            if !constraint.admits_pair(&p.mbr(), poid, &q.mbr(), qoid) {
                continue;
            }
            all.push(PairResult::new(
                LeafEntry::new(p, poid),
                LeafEntry::new(q, qoid),
            ));
        }
    }
    all.sort_by(pair_cmp);
    all.truncate(k);
    all
}

/// Constrained variant of [`self_k_closest_pairs_brute`]. The constraint
/// must be symmetric (`window_p == window_q`): unordered pairs have no
/// stable side assignment.
pub fn self_k_closest_pairs_brute_constrained<const D: usize>(
    ps: &[(Point<D>, u64)],
    k: usize,
    constraint: &Constraint<D>,
) -> Vec<PairResult<D>> {
    assert!(
        constraint.is_symmetric(),
        "self-join constraints must use one symmetric window"
    );
    let mut all: Vec<PairResult<D>> = Vec::new();
    for (i, &(p, poid)) in ps.iter().enumerate() {
        for &(q, qoid) in &ps[i + 1..] {
            let (a, b) = if poid < qoid {
                ((p, poid), (q, qoid))
            } else {
                ((q, qoid), (p, poid))
            };
            if !constraint.admits_pair(&a.0.mbr(), a.1, &b.0.mbr(), b.1) {
                continue;
            }
            all.push(PairResult::new(
                LeafEntry::new(a.0, a.1),
                LeafEntry::new(b.0, b.1),
            ));
        }
    }
    all.sort_by(pair_cmp);
    all.truncate(k);
    all
}

/// The all-nearest-neighbor join by exhaustive scan: for each point of `ps`
/// its nearest point in `qs`, sorted by ascending distance.
pub fn semi_closest_pairs_brute<const D: usize>(
    ps: &[(Point<D>, u64)],
    qs: &[(Point<D>, u64)],
) -> Vec<PairResult<D>> {
    let mut out: Vec<PairResult<D>> = ps
        .iter()
        .map(|&(p, poid)| {
            #[expect(clippy::expect_used, reason = "an empty `qs` is a caller bug")]
            let (q, qoid) = qs
                .iter()
                .min_by(|a, b| {
                    cpq_geo::min_min_dist2(&p.mbr(), &a.0.mbr())
                        .cmp(&cpq_geo::min_min_dist2(&p.mbr(), &b.0.mbr()))
                })
                .copied()
                .expect("qs must be non-empty");
            PairResult::new(LeafEntry::new(p, poid), LeafEntry::new(q, qoid))
        })
        .collect();
    out.sort_by(pair_cmp);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pts(v: &[[f64; 2]]) -> Vec<(Point<2>, u64)> {
        v.iter()
            .enumerate()
            .map(|(i, &c)| (Point(c), i as u64))
            .collect()
    }

    #[test]
    fn brute_pairs_ordered_and_truncated() {
        let ps = pts(&[[0.0, 0.0], [10.0, 0.0]]);
        let qs = pts(&[[1.0, 0.0], [20.0, 0.0]]);
        let got = k_closest_pairs_brute(&ps, &qs, 2);
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].dist2.get(), 1.0); // (0,0)-(1,0)
        assert_eq!(got[1].dist2.get(), 81.0); // (10,0)-(1,0)
    }

    #[test]
    fn self_brute_excludes_self_pairs() {
        let ps = pts(&[[0.0, 0.0], [1.0, 0.0], [5.0, 0.0]]);
        let got = self_k_closest_pairs_brute(&ps, 10);
        assert_eq!(got.len(), 3); // C(3,2)
        assert_eq!(got[0].dist2.get(), 1.0);
        assert!(got.iter().all(|r| r.p.oid < r.q.oid));
    }

    #[test]
    fn semi_brute_one_pair_per_p_point() {
        let ps = pts(&[[0.0, 0.0], [9.0, 0.0]]);
        let qs = pts(&[[1.0, 0.0], [10.0, 0.0]]);
        let got = semi_closest_pairs_brute(&ps, &qs);
        assert_eq!(got.len(), 2);
        assert!(got.iter().all(|r| r.dist2.get() == 1.0));
    }
}
