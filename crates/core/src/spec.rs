//! Query constraints: range-restricted (windowed) and colored K-CPQ, plus
//! the [`QuerySpec`] description type every executor takes.
//!
//! A [`Constraint`] narrows which point pairs qualify as results:
//!
//! * **Windows** — each side of the pair must lie inside its side's query
//!   rectangle (the classical *range closest pair* of Xue et al. and Chan
//!   et al. uses one shared rectangle; the per-side form generalizes it).
//!   Containment is boundary-inclusive and, for extended objects, requires
//!   the whole object MBR inside the window.
//! * **Colored** — the two points must carry *distinct* colors (categories),
//!   read from the oid's color channel ([`cpq_geo::color_of`]).
//!
//! Soundness of windowed pruning: clipping a node MBR to `MBR ∩ window`
//! before `MINMINDIST` scoring is exact, because every qualifying point of
//! the subtree lies inside both the MBR and the window. A side whose MBR
//! misses its window entirely contains no qualifying points and is dropped
//! outright. The MINMAX/MAXMAX bounds of Inequality 2, by contrast, are
//! **disabled** under any active constraint: their witness pairs may fall
//! outside a window or share a color, and subtree cardinalities count
//! non-qualifying points — the same reasoning that already disables them
//! for self-joins.

use cpq_geo::{color_of, Rect};
use cpq_rtree::{RTreeError, RTreeResult};

/// A result-pair constraint: per-side windows and/or the colored filter.
/// The default value is unconstrained (plain K-CPQ).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Constraint<const D: usize> {
    /// Window the `P`-side point must lie inside (`None` = unconstrained).
    pub window_p: Option<Rect<D>>,
    /// Window the `Q`-side point must lie inside (`None` = unconstrained).
    pub window_q: Option<Rect<D>>,
    /// Require the pair to span two distinct colors (oid color channel).
    pub colored: bool,
}

impl<const D: usize> Constraint<D> {
    /// The unconstrained query (plain K-CPQ).
    pub fn none() -> Self {
        Self::default()
    }

    /// The classical range closest pair: both points inside one rectangle.
    pub fn window(w: Rect<D>) -> Self {
        Constraint {
            window_p: Some(w),
            window_q: Some(w),
            ..Self::default()
        }
    }

    /// Per-side windows (either side may be unconstrained).
    pub fn windows(window_p: Option<Rect<D>>, window_q: Option<Rect<D>>) -> Self {
        Constraint {
            window_p,
            window_q,
            ..Self::default()
        }
    }

    /// The colored filter alone: pairs must span distinct categories.
    pub fn colored() -> Self {
        Constraint {
            colored: true,
            ..Self::default()
        }
    }

    /// This constraint with the colored filter switched on.
    pub fn with_colored(mut self) -> Self {
        self.colored = true;
        self
    }

    /// `true` when any filter is active (windowed or colored). Inactive
    /// constraints leave the engine's behavior bit-identical to the plain
    /// entry points.
    pub fn is_active(&self) -> bool {
        self.window_p.is_some() || self.window_q.is_some() || self.colored
    }

    /// `true` when both sides see the same window (required for self-joins,
    /// whose unordered pairs have no stable side assignment).
    pub fn is_symmetric(&self) -> bool {
        self.window_p == self.window_q
    }

    /// Clips a `P`-side MBR against the `P` window: the tightened lower-
    /// bound rectangle, or `None` when no qualifying point can exist there.
    #[inline]
    pub fn clip_p(&self, mbr: &Rect<D>) -> Option<Rect<D>> {
        match &self.window_p {
            Some(w) => w.intersection(mbr),
            None => Some(*mbr),
        }
    }

    /// Clips a `Q`-side MBR against the `Q` window (see
    /// [`clip_p`](Self::clip_p)).
    #[inline]
    pub fn clip_q(&self, mbr: &Rect<D>) -> Option<Rect<D>> {
        match &self.window_q {
            Some(w) => w.intersection(mbr),
            None => Some(*mbr),
        }
    }

    /// `true` when a `P`-side object (given by its MBR) qualifies.
    #[inline]
    pub fn admits_p(&self, mbr: &Rect<D>) -> bool {
        match &self.window_p {
            Some(w) => w.contains_rect(mbr),
            None => true,
        }
    }

    /// `true` when a `Q`-side object (given by its MBR) qualifies.
    #[inline]
    pub fn admits_q(&self, mbr: &Rect<D>) -> bool {
        match &self.window_q {
            Some(w) => w.contains_rect(mbr),
            None => true,
        }
    }

    /// `true` when the two oids may pair up under the colored filter.
    #[inline]
    pub(crate) fn admits_colors(&self, oid_p: u64, oid_q: u64) -> bool {
        !self.colored || color_of(oid_p) != color_of(oid_q)
    }

    /// The leaf-level pair admission test: both sides inside their windows
    /// and, under the colored filter, distinct colors. This exact predicate
    /// gates every leaf scan and the brute-force oracle, so they can never
    /// disagree: the plane sweep and the oracle call it per pair, the brute
    /// kernel (`engine::scan_brute`) applies its three conjuncts where each
    /// can be decided — `admits_q` once per `Q` entry, `admits_p` once per
    /// `P` entry, the colors per pair.
    #[inline]
    pub fn admits_pair(&self, mbr_p: &Rect<D>, oid_p: u64, mbr_q: &Rect<D>, oid_q: u64) -> bool {
        self.admits_p(mbr_p) && self.admits_q(mbr_q) && self.admits_colors(oid_p, oid_q)
    }
}

/// A declarative description of one K-CPQ: what is asked, not how to run
/// it. [`execute`](crate::execute), the sharded coordinator, the continuous
/// maintainer and the service dispatch all take this one type.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuerySpec<const D: usize> {
    /// Number of closest pairs requested.
    pub k: usize,
    /// Self-join (`P ≡ Q`, unordered pairs) vs. cross-tree query.
    pub self_join: bool,
    /// The result-pair constraint (may be inactive).
    pub constraint: Constraint<D>,
}

impl<const D: usize> QuerySpec<D> {
    /// An unconstrained cross-tree K-CPQ.
    pub fn cross(k: usize) -> Self {
        QuerySpec {
            k,
            self_join: false,
            constraint: Constraint::none(),
        }
    }

    /// An unconstrained self-join K-CPQ.
    pub fn self_join(k: usize) -> Self {
        QuerySpec {
            k,
            self_join: true,
            constraint: Constraint::none(),
        }
    }

    /// This spec with the given constraint.
    pub fn with_constraint(mut self, constraint: Constraint<D>) -> Self {
        self.constraint = constraint;
        self
    }

    /// The check every executor runs where a spec enters it. Self-join
    /// constraints must be **symmetric** (`window_p == window_q`): an
    /// unordered pair has no stable side assignment, so per-side windows
    /// would make the result depend on the internal `p.oid < q.oid`
    /// orientation. Use [`Constraint::window`] (one rectangle for both
    /// sides) or [`Constraint::colored`].
    /// A window with a NaN or infinite corner is refused like a non-finite
    /// object at `insert`: a NaN bound compares false with everything, so
    /// the query would silently answer nothing.
    pub fn validate(&self) -> RTreeResult<()> {
        if self.self_join && !self.constraint.is_symmetric() {
            return Err(RTreeError::InvalidParams(
                "self-join constraints must use one symmetric window".into(),
            ));
        }
        let windows = [self.constraint.window_p, self.constraint.window_q];
        if windows.iter().flatten().any(|w| !w.is_finite()) {
            return Err(RTreeError::InvalidParams(
                "query windows must have finite corners".into(),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpq_geo::pack_color;

    fn r(lo: [f64; 2], hi: [f64; 2]) -> Rect<2> {
        Rect::from_corners(lo, hi)
    }

    #[test]
    fn default_is_inactive_and_admits_everything() {
        let c: Constraint<2> = Constraint::none();
        assert!(!c.is_active());
        assert!(c.is_symmetric());
        let m = r([0.0, 0.0], [1.0, 1.0]);
        assert!(c.admits_pair(&m, 1, &m, 1));
        assert_eq!(c.clip_p(&m), Some(m));
    }

    #[test]
    fn window_clips_and_admits_boundary_inclusively() {
        let c = Constraint::window(r([0.0, 0.0], [10.0, 10.0]));
        assert!(c.is_active());
        // A point on the window edge qualifies.
        let edge = r([10.0, 5.0], [10.0, 5.0]);
        assert!(c.admits_p(&edge));
        // Clipping an overlapping MBR tightens it.
        let m = r([5.0, 5.0], [20.0, 20.0]);
        assert_eq!(c.clip_p(&m), Some(r([5.0, 5.0], [10.0, 10.0])));
        // A disjoint MBR clips to nothing.
        assert_eq!(c.clip_p(&r([11.0, 11.0], [12.0, 12.0])), None);
    }

    #[test]
    fn zero_area_window_still_admits_its_own_point() {
        let c = Constraint::window(r([3.0, 4.0], [3.0, 4.0]));
        assert!(c.admits_p(&r([3.0, 4.0], [3.0, 4.0])));
        assert!(!c.admits_p(&r([3.0, 4.1], [3.0, 4.1])));
    }

    #[test]
    fn colored_filter_requires_distinct_colors() {
        let c: Constraint<2> = Constraint::colored();
        let m = r([0.0, 0.0], [1.0, 1.0]);
        assert!(!c.admits_pair(&m, pack_color(1, 3), &m, pack_color(2, 3)));
        assert!(c.admits_pair(&m, pack_color(1, 3), &m, pack_color(1, 4)));
        // Plain sequential oids are all color 0: nothing qualifies.
        assert!(!c.admits_pair(&m, 7, &m, 8));
    }

    #[test]
    fn asymmetric_self_join_spec_is_invalid() {
        let lopsided = Constraint::windows(Some(r([0.0, 0.0], [1.0, 1.0])), None);
        assert!(QuerySpec::cross(3)
            .with_constraint(lopsided)
            .validate()
            .is_ok());
        assert!(QuerySpec::self_join(3)
            .with_constraint(lopsided)
            .validate()
            .is_err());
    }

    #[test]
    fn non_finite_window_is_invalid() {
        // `Rect::new` asserts corner order in debug builds, which a NaN
        // fails, so the NaN window is the degenerate one.
        let nan = Rect::point(cpq_geo::Point([f64::NAN, 0.0]));
        let unbounded = r([0.0, 0.0], [f64::INFINITY, 1.0]);
        for w in [nan, unbounded] {
            for c in [Constraint::window(w), Constraint::windows(None, Some(w))] {
                let spec = QuerySpec::cross(3).with_constraint(c);
                assert!(spec.validate().is_err(), "{w:?}");
            }
        }
        let widest = Constraint::window(r([f64::MIN; 2], [f64::MAX; 2]));
        assert!(QuerySpec::self_join(3)
            .with_constraint(widest)
            .validate()
            .is_ok());
    }

    #[test]
    fn per_side_windows_are_independent() {
        let c = Constraint::windows(Some(r([0.0, 0.0], [1.0, 1.0])), None);
        assert!(!c.is_symmetric());
        assert!(c.admits_q(&r([50.0, 50.0], [60.0, 60.0])));
        assert!(!c.admits_p(&r([50.0, 50.0], [60.0, 60.0])));
    }
}
