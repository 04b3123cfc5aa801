//! MBR-to-MBR distance metrics (Section 2.3 of the paper).
//!
//! For two MBRs `M_P`, `M_Q` and any pair of contained points `(p, q)`:
//!
//! ```text
//! MINMINDIST(M_P, M_Q) <= dist(p, q) <= MAXMAXDIST(M_P, M_Q)      (Ineq. 1)
//! ```
//!
//! and there exists at least one contained pair with
//!
//! ```text
//! dist(p, q) <= MINMAXDIST(M_P, M_Q)                              (Ineq. 2)
//! ```
//!
//! because each of the `2·D` facets of a *minimum* bounding rectangle touches
//! at least one data point.
//!
//! All functions return **squared** Euclidean distances wrapped in
//! [`Dist2`]; see the crate docs for why.

use crate::dist::Dist2;
use crate::point::Point;
use crate::rect::Rect;

/// Squared Euclidean distance between two points.
#[inline]
pub fn pt_dist2<const D: usize>(a: &Point<D>, b: &Point<D>) -> Dist2 {
    Dist2::new(a.dist2(b))
}

/// Squared point distance computed under a live threshold `t`: accumulates
/// per-dimension contributions and bails out as soon as the partial sum alone
/// exceeds `t`, returning `None`.
///
/// `Some(d)` therefore always satisfies `d <= t`, and for `t = Dist2::INFINITY`
/// the function degenerates to [`pt_dist2`]. Pruning with a threshold obtained
/// from `K` already-collected pairs is lossless: a pair rejected here is
/// `> t` and can never displace a kept pair (offers must be strictly
/// smaller).
#[inline]
pub fn pt_dist2_within<const D: usize>(a: &Point<D>, b: &Point<D>, t: Dist2) -> Option<Dist2> {
    let bound = t.get();
    let mut acc = 0.0;
    for d in 0..D {
        let delta = a.coord(d) - b.coord(d);
        acc += delta * delta;
        if acc > bound {
            return None;
        }
    }
    Some(Dist2::new(acc))
}

/// `MINMINDIST` under a live threshold `t`: per-dimension accumulation with
/// the same early exit as [`pt_dist2_within`]. `None` means
/// `MINMINDIST(a, b) > t`, i.e. the pair of MBRs is prunable.
#[inline]
pub fn min_min_dist2_within<const D: usize>(a: &Rect<D>, b: &Rect<D>, t: Dist2) -> Option<Dist2> {
    let bound = t.get();
    let mut acc = 0.0;
    for d in 0..D {
        let gap = axis_gap(a, b, d);
        acc += gap * gap;
        if acc > bound {
            return None;
        }
    }
    Some(Dist2::new(acc))
}

/// Separation between `a` and `b` along a single `axis`: the (non-squared)
/// contribution of that axis to `MINMINDIST`, zero when the extents overlap.
///
/// This is the plane-sweep break test: with entries sorted by their lower
/// coordinate on `axis`, once `later.lo - earlier.hi` exceeds the (square
/// root of the) pruning threshold, every later entry is at least that far
/// from `earlier` and the inner scan can stop.
#[inline]
pub fn axis_gap<const D: usize>(a: &Rect<D>, b: &Rect<D>, axis: usize) -> f64 {
    (b.lo().coord(axis) - a.hi().coord(axis))
        .max(a.lo().coord(axis) - b.hi().coord(axis))
        .max(0.0)
}

/// `MINMINDIST`: squared minimum distance between any point of `a` and any
/// point of `b`. Zero when the rectangles intersect.
///
/// Per-dimension gap, summed in squares — the classical box-to-box MINDIST
/// of Roussopoulos et al. generalized to two boxes.
#[inline]
pub fn min_min_dist2<const D: usize>(a: &Rect<D>, b: &Rect<D>) -> Dist2 {
    let mut acc = 0.0;
    for d in 0..D {
        let gap = axis_gap(a, b, d);
        acc += gap * gap;
    }
    Dist2::new(acc)
}

/// `MAXDIST`: squared maximum distance between any point of `a` and any
/// point of `b` (the maximum is attained at a pair of corners).
#[inline]
pub fn max_dist2<const D: usize>(a: &Rect<D>, b: &Rect<D>) -> Dist2 {
    let mut acc = 0.0;
    for d in 0..D {
        let span = (b.hi().coord(d) - a.lo().coord(d))
            .abs()
            .max((a.hi().coord(d) - b.lo().coord(d)).abs());
        acc += span * span;
    }
    Dist2::new(acc)
}

/// `MAXMAXDIST`: alias of [`max_dist2`] in the paper's terminology — the
/// upper bound of Inequality 1.
#[inline]
pub fn max_max_dist2<const D: usize>(a: &Rect<D>, b: &Rect<D>) -> Dist2 {
    max_dist2(a, b)
}

/// `MINMAXDIST` between two MBRs: the minimum over all facet pairs
/// `(r_i, s_j)` — `r_i` a facet of `a`, `s_j` a facet of `b` — of
/// `MAXDIST(r_i, s_j)`.
///
/// Guarantee (Inequality 2): at least one pair of data points, one enclosed
/// by each MBR, lies within this distance, because every facet of a minimum
/// bounding rectangle touches at least one data point and every point of a
/// facet is within `MAXDIST(r_i, s_j)` of every point of the other facet.
///
/// In 2-d this is the paper's `min_{i,j} MAXDIST(r_i, s_j)` over the 4×4
/// edge pairs. Facets are represented as degenerate rectangles so a single
/// [`max_dist2`] kernel serves every dimension.
///
/// Degenerate inputs: when `a` is a point, its facets all equal the point
/// itself and the function reduces to the Roussopoulos point-to-MBR
/// MINMAXDIST; when both are points it equals their distance.
pub fn min_max_dist2<const D: usize>(a: &Rect<D>, b: &Rect<D>) -> Dist2 {
    let mut best = Dist2::INFINITY;
    for da in 0..D {
        for va in [a.lo().coord(da), a.hi().coord(da)] {
            let fa = a.facet(da, va);
            for db in 0..D {
                for vb in [b.lo().coord(db), b.hi().coord(db)] {
                    let fb = b.facet(db, vb);
                    let d = max_dist2(&fa, &fb);
                    if d < best {
                        best = d;
                    }
                }
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(lo: [f64; 2], hi: [f64; 2]) -> Rect<2> {
        Rect::from_corners(lo, hi)
    }

    #[test]
    fn minmindist_disjoint_axis_aligned() {
        // Unit squares separated by 3 along x.
        let a = r([0.0, 0.0], [1.0, 1.0]);
        let b = r([4.0, 0.0], [5.0, 1.0]);
        assert_eq!(min_min_dist2(&a, &b).get(), 9.0);
    }

    #[test]
    fn minmindist_diagonal_gap() {
        let a = r([0.0, 0.0], [1.0, 1.0]);
        let b = r([4.0, 5.0], [6.0, 7.0]);
        // gap = (3, 4) -> 25
        assert_eq!(min_min_dist2(&a, &b).get(), 25.0);
    }

    #[test]
    fn minmindist_zero_when_intersecting() {
        let a = r([0.0, 0.0], [2.0, 2.0]);
        let b = r([1.0, 1.0], [3.0, 3.0]);
        assert_eq!(min_min_dist2(&a, &b), Dist2::ZERO);
        // Touching also yields zero.
        let c = r([2.0, 0.0], [3.0, 2.0]);
        assert_eq!(min_min_dist2(&a, &c), Dist2::ZERO);
    }

    #[test]
    fn maxmaxdist_attained_at_far_corners() {
        let a = r([0.0, 0.0], [1.0, 1.0]);
        let b = r([4.0, 0.0], [5.0, 1.0]);
        // far corners: (0,0)..(5,1) or (0,1)..(5,0): 25 + 1
        assert_eq!(max_max_dist2(&a, &b).get(), 26.0);
    }

    #[test]
    fn maxmaxdist_of_nested_rects() {
        let outer = r([0.0, 0.0], [10.0, 10.0]);
        let inner = r([4.0, 4.0], [5.0, 5.0]);
        // farthest: corner (0,0)-ish to (5,5) vs (10,10) to (4,4): 36+36 = 72
        assert_eq!(max_max_dist2(&outer, &inner).get(), 72.0);
    }

    #[test]
    fn minmaxdist_two_separated_squares() {
        // Unit squares [0,1]^2 and [4,5]x[0,1].
        // Facet pair: right edge of a (x=1) and left edge of b (x=4):
        // max over that pair = dx=3, dy=1 -> 10. That is the minimum.
        let a = r([0.0, 0.0], [1.0, 1.0]);
        let b = r([4.0, 0.0], [5.0, 1.0]);
        assert_eq!(min_max_dist2(&a, &b).get(), 10.0);
    }

    #[test]
    fn point_point_degenerate_all_metrics_agree() {
        let a = Rect::point(Point([1.0, 2.0]));
        let b = Rect::point(Point([4.0, 6.0]));
        assert_eq!(min_min_dist2(&a, &b).get(), 25.0);
        assert_eq!(min_max_dist2(&a, &b).get(), 25.0);
        assert_eq!(max_max_dist2(&a, &b).get(), 25.0);
    }

    #[test]
    fn metric_sandwich_on_example() {
        let a = r([0.0, 0.0], [2.0, 3.0]);
        let b = r([5.0, 1.0], [7.0, 6.0]);
        let mn = min_min_dist2(&a, &b);
        let mm = min_max_dist2(&a, &b);
        let mx = max_max_dist2(&a, &b);
        assert!(mn <= mm && mm <= mx);
    }

    #[test]
    fn works_in_3d() {
        let a = Rect::<3>::from_corners([0.0; 3], [1.0; 3]);
        let b = Rect::<3>::from_corners([3.0, 0.0, 0.0], [4.0, 1.0, 1.0]);
        assert_eq!(min_min_dist2(&a, &b).get(), 4.0);
        // MAXMAX: dx=4, dy=1, dz=1 -> 18
        assert_eq!(max_max_dist2(&a, &b).get(), 18.0);
        // MINMAX: facet x=1 of a vs facet x=3 of b: dx=2, dy,dz max 1 -> 6
        assert_eq!(min_max_dist2(&a, &b).get(), 6.0);
    }

    #[test]
    fn within_kernels_agree_with_full_kernels_under_infinity() {
        let p = Point([1.0, 2.0]);
        let q = Point([4.0, 6.0]);
        assert_eq!(
            pt_dist2_within(&p, &q, Dist2::INFINITY),
            Some(pt_dist2(&p, &q))
        );
        let a = r([0.0, 0.0], [1.0, 1.0]);
        let b = r([4.0, 5.0], [6.0, 7.0]);
        assert_eq!(
            min_min_dist2_within(&a, &b, Dist2::INFINITY),
            Some(min_min_dist2(&a, &b))
        );
    }

    #[test]
    fn within_kernels_reject_above_threshold_and_keep_equal() {
        let p = Point([0.0, 0.0]);
        let q = Point([3.0, 4.0]); // dist2 = 25
        assert_eq!(pt_dist2_within(&p, &q, Dist2::new(24.9)), None);
        assert_eq!(
            pt_dist2_within(&p, &q, Dist2::new(25.0)).unwrap().get(),
            25.0
        );
        // Early exit on the first axis alone: 3^2 = 9 > 8.
        assert_eq!(pt_dist2_within(&p, &q, Dist2::new(8.0)), None);
        let a = r([0.0, 0.0], [1.0, 1.0]);
        let b = r([4.0, 5.0], [6.0, 7.0]); // minmin2 = 25
        assert_eq!(min_min_dist2_within(&a, &b, Dist2::new(24.0)), None);
        assert_eq!(
            min_min_dist2_within(&a, &b, Dist2::new(25.0))
                .unwrap()
                .get(),
            25.0
        );
    }

    #[test]
    fn axis_gap_is_the_per_axis_minmindist_contribution() {
        let a = r([0.0, 0.0], [1.0, 1.0]);
        let b = r([4.0, 5.0], [6.0, 7.0]);
        assert_eq!(axis_gap(&a, &b, 0), 3.0);
        assert_eq!(axis_gap(&a, &b, 1), 4.0);
        // Symmetric, and zero on overlap.
        assert_eq!(axis_gap(&b, &a, 0), 3.0);
        let c = r([0.5, -2.0], [2.0, -1.0]);
        assert_eq!(axis_gap(&a, &c, 0), 0.0);
        assert_eq!(axis_gap(&a, &c, 1), 1.0);
    }

    #[test]
    fn intersecting_rects_have_positive_minmaxdist() {
        // Even fully overlapping MBRs have MINMAXDIST > 0 in general:
        // it bounds a *witness pair*, not the minimum.
        let a = r([0.0, 0.0], [2.0, 2.0]);
        let b = r([0.0, 0.0], [2.0, 2.0]);
        let mm = min_max_dist2(&a, &b);
        // facet pair: same edge on both (e.g. x=0 facets): max dist across the
        // edge extent = 2 -> squared 4.
        assert_eq!(mm.get(), 4.0);
    }
}
