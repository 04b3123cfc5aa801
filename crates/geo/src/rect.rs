//! Axis-aligned rectangles (minimum bounding rectangles, MBRs).

use crate::point::Point;

/// An axis-aligned `D`-dimensional rectangle, the MBR of R-tree entries.
///
/// Invariant: `lo[d] <= hi[d]` for every dimension `d`. Degenerate
/// rectangles (`lo == hi`) are valid and represent points; the closest-pair
/// metrics treat them uniformly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rect<const D: usize> {
    lo: Point<D>,
    hi: Point<D>,
}

impl<const D: usize> Rect<D> {
    /// Creates a rectangle from its lower and upper corners.
    ///
    /// # Panics
    /// Panics (debug builds) if any `lo[d] > hi[d]`.
    #[inline]
    pub fn new(lo: Point<D>, hi: Point<D>) -> Self {
        debug_assert!(
            (0..D).all(|d| lo.coord(d) <= hi.coord(d)),
            "rect corners out of order: {lo:?} > {hi:?}"
        );
        Rect { lo, hi }
    }

    /// Creates a rectangle from corner arrays.
    #[inline]
    pub fn from_corners(lo: [f64; D], hi: [f64; D]) -> Self {
        Self::new(Point(lo), Point(hi))
    }

    /// The degenerate rectangle covering exactly one point.
    #[inline]
    pub fn point(p: Point<D>) -> Self {
        Rect { lo: p, hi: p }
    }

    /// The smallest rectangle enclosing both corners, regardless of order.
    #[inline]
    pub fn spanning(a: Point<D>, b: Point<D>) -> Self {
        Rect {
            lo: a.component_min(&b),
            hi: a.component_max(&b),
        }
    }

    /// Rectangle enclosing all points of a non-empty iterator.
    ///
    /// Returns `None` for an empty iterator.
    pub fn bounding<I: IntoIterator<Item = Point<D>>>(points: I) -> Option<Self> {
        let mut it = points.into_iter();
        let first = it.next()?;
        let mut r = Rect::point(first);
        for p in it {
            r = r.union_point(&p);
        }
        Some(r)
    }

    /// Lower corner.
    #[inline]
    pub fn lo(&self) -> Point<D> {
        self.lo
    }

    /// Upper corner.
    #[inline]
    pub fn hi(&self) -> Point<D> {
        self.hi
    }

    /// Center point.
    #[inline]
    pub fn center(&self) -> Point<D> {
        let mut c = [0.0; D];
        for (d, cd) in c.iter_mut().enumerate() {
            *cd = 0.5 * (self.lo.coord(d) + self.hi.coord(d));
        }
        Point(c)
    }

    /// Extent along dimension `d`.
    #[inline]
    pub fn extent(&self, d: usize) -> f64 {
        self.hi.coord(d) - self.lo.coord(d)
    }

    /// `D`-dimensional volume ("area" in the paper's 2-d setting).
    #[inline]
    pub fn area(&self) -> f64 {
        let mut a = 1.0;
        for d in 0..D {
            a *= self.extent(d);
        }
        a
    }

    /// Sum of edge lengths (the R*-tree "margin" criterion).
    #[inline]
    pub fn margin(&self) -> f64 {
        let mut m = 0.0;
        for d in 0..D {
            m += self.extent(d);
        }
        m
    }

    /// `true` when `p` lies inside or on the boundary.
    #[inline]
    pub fn contains_point(&self, p: &Point<D>) -> bool {
        (0..D).all(|d| self.lo.coord(d) <= p.coord(d) && p.coord(d) <= self.hi.coord(d))
    }

    /// `true` when `other` lies fully inside (or on the boundary of) `self`.
    #[inline]
    pub fn contains_rect(&self, other: &Rect<D>) -> bool {
        (0..D)
            .all(|d| self.lo.coord(d) <= other.lo.coord(d) && other.hi.coord(d) <= self.hi.coord(d))
    }

    /// `true` when the rectangles share at least one point (boundaries count).
    #[inline]
    pub fn intersects(&self, other: &Rect<D>) -> bool {
        (0..D)
            .all(|d| self.lo.coord(d) <= other.hi.coord(d) && other.lo.coord(d) <= self.hi.coord(d))
    }

    /// The intersection rectangle, or `None` when disjoint.
    pub fn intersection(&self, other: &Rect<D>) -> Option<Rect<D>> {
        if !self.intersects(other) {
            return None;
        }
        Some(Rect {
            lo: self.lo.component_max(&other.lo),
            hi: self.hi.component_min(&other.hi),
        })
    }

    /// Volume of the intersection (0 when disjoint). Used by tie-break
    /// strategy T5 of the paper (Section 3.6).
    #[inline]
    pub fn intersection_area(&self, other: &Rect<D>) -> f64 {
        let mut a = 1.0;
        for d in 0..D {
            let lo = self.lo.coord(d).max(other.lo.coord(d));
            let hi = self.hi.coord(d).min(other.hi.coord(d));
            if hi <= lo {
                return 0.0;
            }
            a *= hi - lo;
        }
        a
    }

    /// Smallest rectangle enclosing both rectangles.
    #[inline]
    pub fn union(&self, other: &Rect<D>) -> Rect<D> {
        Rect {
            lo: self.lo.component_min(&other.lo),
            hi: self.hi.component_max(&other.hi),
        }
    }

    /// Smallest rectangle enclosing `self` and the point `p`.
    #[inline]
    pub fn union_point(&self, p: &Point<D>) -> Rect<D> {
        Rect {
            lo: self.lo.component_min(p),
            hi: self.hi.component_max(p),
        }
    }

    /// Volume increase needed to also cover `other`
    /// (the classic R-tree `ChooseSubtree` criterion).
    #[inline]
    pub fn enlargement(&self, other: &Rect<D>) -> f64 {
        self.union(other).area() - self.area()
    }

    /// The facet (face) of the rectangle along dimension `dim` fixed at
    /// coordinate `value`, as a degenerate rectangle of one lower effective
    /// dimension. `value` must be one of `lo[dim]` / `hi[dim]`.
    ///
    /// Facets are how `MINMAXDIST` between two MBRs is computed: every facet
    /// of an MBR touches at least one data point.
    #[inline]
    pub fn facet(&self, dim: usize, value: f64) -> Rect<D> {
        let mut lo = self.lo.0;
        let mut hi = self.hi.0;
        lo[dim] = value;
        hi[dim] = value;
        Rect {
            lo: Point(lo),
            hi: Point(hi),
        }
    }

    /// Translates the rectangle.
    #[inline]
    pub fn translated(&self, delta: &[f64; D]) -> Rect<D> {
        Rect {
            lo: self.lo.translated(delta),
            hi: self.hi.translated(delta),
        }
    }

    /// `true` when both corners are finite.
    #[inline]
    pub fn is_finite(&self) -> bool {
        self.lo.is_finite() && self.hi.is_finite()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(lo: [f64; 2], hi: [f64; 2]) -> Rect<2> {
        Rect::from_corners(lo, hi)
    }

    #[test]
    fn area_and_margin() {
        let a = r([0.0, 0.0], [2.0, 3.0]);
        assert_eq!(a.area(), 6.0);
        assert_eq!(a.margin(), 5.0);
    }

    #[test]
    fn containment() {
        let outer = r([0.0, 0.0], [10.0, 10.0]);
        let inner = r([1.0, 1.0], [2.0, 2.0]);
        assert!(outer.contains_rect(&inner));
        assert!(!inner.contains_rect(&outer));
        assert!(outer.contains_point(&Point([0.0, 10.0])));
        assert!(!outer.contains_point(&Point([-0.1, 5.0])));
    }

    #[test]
    fn intersection_cases() {
        let a = r([0.0, 0.0], [2.0, 2.0]);
        let b = r([1.0, 1.0], [3.0, 3.0]);
        let c = r([5.0, 5.0], [6.0, 6.0]);
        assert!(a.intersects(&b));
        assert_eq!(a.intersection(&b), Some(r([1.0, 1.0], [2.0, 2.0])));
        assert_eq!(a.intersection_area(&b), 1.0);
        assert!(!a.intersects(&c));
        assert_eq!(a.intersection(&c), None);
        assert_eq!(a.intersection_area(&c), 0.0);
    }

    #[test]
    fn touching_rects_intersect_with_zero_area() {
        let a = r([0.0, 0.0], [1.0, 1.0]);
        let b = r([1.0, 0.0], [2.0, 1.0]);
        assert!(a.intersects(&b));
        assert_eq!(a.intersection_area(&b), 0.0);
    }

    #[test]
    fn union_and_enlargement() {
        let a = r([0.0, 0.0], [1.0, 1.0]);
        let b = r([2.0, 2.0], [3.0, 3.0]);
        let u = a.union(&b);
        assert_eq!(u, r([0.0, 0.0], [3.0, 3.0]));
        assert_eq!(a.enlargement(&b), 9.0 - 1.0);
    }

    #[test]
    fn bounding_over_points() {
        let pts = vec![Point([1.0, 5.0]), Point([-1.0, 2.0]), Point([3.0, 3.0])];
        let b = Rect::bounding(pts).unwrap();
        assert_eq!(b, r([-1.0, 2.0], [3.0, 5.0]));
        assert_eq!(Rect::<2>::bounding(Vec::new()), None);
    }

    #[test]
    fn facets_are_degenerate_along_their_dim() {
        let a = r([0.0, 0.0], [2.0, 3.0]);
        let left = a.facet(0, 0.0);
        assert_eq!(left.lo().coord(0), 0.0);
        assert_eq!(left.hi().coord(0), 0.0);
        assert_eq!(left.extent(1), 3.0);
    }

    #[test]
    fn spanning_reorders_corners() {
        let s = Rect::spanning(Point([3.0, 0.0]), Point([1.0, 2.0]));
        assert_eq!(s, r([1.0, 0.0], [3.0, 2.0]));
    }

    #[test]
    fn degenerate_point_rect() {
        let p = Rect::point(Point([1.0, 1.0]));
        assert_eq!(p.lo(), p.hi());
        assert_eq!(p.area(), 0.0);
        assert!(p.contains_point(&Point([1.0, 1.0])));
    }
}
