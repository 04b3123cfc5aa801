//! `D`-dimensional points with `f64` coordinates.

use crate::rect::Rect;

/// A point in `D`-dimensional Euclidean space.
///
/// Coordinates are `f64`; the type is `Copy` and deliberately tiny so it can
/// be passed by value everywhere without aliasing concerns.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Point<const D: usize>(pub [f64; D]);

impl<const D: usize> Point<D> {
    /// The origin (all coordinates zero).
    pub const ORIGIN: Self = Point([0.0; D]);

    /// Creates a point from its coordinate array.
    #[inline]
    pub const fn new(coords: [f64; D]) -> Self {
        Point(coords)
    }

    /// Returns the coordinate along dimension `d`.
    #[inline]
    pub fn coord(&self, d: usize) -> f64 {
        self.0[d]
    }

    /// Returns the coordinates as a slice.
    #[inline]
    pub fn coords(&self) -> &[f64; D] {
        &self.0
    }

    /// Squared Euclidean distance to `other`.
    #[inline]
    pub fn dist2(&self, other: &Self) -> f64 {
        let mut acc = 0.0;
        for d in 0..D {
            let diff = self.0[d] - other.0[d];
            acc += diff * diff;
        }
        acc
    }

    /// Euclidean distance to `other`.
    #[inline]
    pub fn dist(&self, other: &Self) -> f64 {
        self.dist2(other).sqrt()
    }

    /// Component-wise minimum of two points (lower corner of their bounding box).
    #[inline]
    pub fn component_min(&self, other: &Self) -> Self {
        let mut out = [0.0; D];
        for (d, o) in out.iter_mut().enumerate() {
            *o = self.0[d].min(other.0[d]);
        }
        Point(out)
    }

    /// Component-wise maximum of two points (upper corner of their bounding box).
    #[inline]
    pub fn component_max(&self, other: &Self) -> Self {
        let mut out = [0.0; D];
        for (d, o) in out.iter_mut().enumerate() {
            *o = self.0[d].max(other.0[d]);
        }
        Point(out)
    }

    /// Translates the point by `offset` along every dimension given in `delta`.
    #[inline]
    pub fn translated(&self, delta: &[f64; D]) -> Self {
        let mut out = self.0;
        for d in 0..D {
            out[d] += delta[d];
        }
        Point(out)
    }

    /// `true` when every coordinate is finite (not NaN / ±inf).
    #[inline]
    pub fn is_finite(&self) -> bool {
        self.0.iter().all(|c| c.is_finite())
    }

    /// The degenerate MBR of the point: distances between two points are
    /// the `MINMINDIST` of their MBRs, bit for bit.
    #[inline]
    pub fn mbr(&self) -> Rect<D> {
        Rect::point(*self)
    }

    /// Writes the `D` coordinates little-endian into `buf[..8 * D]`: the
    /// object encoding of leaf pages and WAL records.
    pub fn encode(&self, buf: &mut [u8]) {
        for (d, c) in self.0.iter().enumerate() {
            buf[d * 8..d * 8 + 8].copy_from_slice(&c.to_le_bytes());
        }
    }

    /// Reads a point [`encode`](Self::encode) wrote to `buf[..8 * D]`.
    #[expect(clippy::expect_used, reason = "8-byte window of a checked buffer")]
    pub fn decode(buf: &[u8]) -> Self {
        let mut out = [0.0; D];
        for (d, c) in out.iter_mut().enumerate() {
            *c = f64::from_le_bytes(buf[d * 8..d * 8 + 8].try_into().expect("8-byte slice"));
        }
        Point(out)
    }
}

impl<const D: usize> From<[f64; D]> for Point<D> {
    fn from(coords: [f64; D]) -> Self {
        Point(coords)
    }
}

impl<const D: usize> Default for Point<D> {
    fn default() -> Self {
        Self::ORIGIN
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dist2_matches_hand_computation() {
        let a = Point([0.0, 0.0]);
        let b = Point([3.0, 4.0]);
        assert_eq!(a.dist2(&b), 25.0);
        assert_eq!(a.dist(&b), 5.0);
    }

    #[test]
    fn dist_is_symmetric_and_zero_on_self() {
        let a = Point([1.5, -2.5, 7.0]);
        let b = Point([0.25, 9.0, -3.5]);
        assert_eq!(a.dist2(&b), b.dist2(&a));
        assert_eq!(a.dist2(&a), 0.0);
    }

    #[test]
    fn component_min_max() {
        let a = Point([1.0, 5.0]);
        let b = Point([3.0, 2.0]);
        assert_eq!(a.component_min(&b), Point([1.0, 2.0]));
        assert_eq!(a.component_max(&b), Point([3.0, 5.0]));
    }

    #[test]
    fn translation_moves_every_coordinate() {
        let p = Point([1.0, 2.0]).translated(&[0.5, -1.0]);
        assert_eq!(p, Point([1.5, 1.0]));
    }

    #[test]
    fn finiteness_detects_nan() {
        assert!(Point([0.0, 1.0]).is_finite());
        assert!(!Point([f64::NAN, 1.0]).is_finite());
        assert!(!Point([f64::INFINITY, 1.0]).is_finite());
    }

    #[test]
    fn works_in_higher_dimensions() {
        let a: Point<4> = Point([1.0, 1.0, 1.0, 1.0]);
        let b: Point<4> = Point([2.0, 2.0, 2.0, 2.0]);
        assert_eq!(a.dist2(&b), 4.0);
    }
}
