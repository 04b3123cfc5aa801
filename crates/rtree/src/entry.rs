//! Node entries: leaf entries hold data points, inner entries hold child
//! pointers with MBRs and subtree cardinalities.

use cpq_geo::{Point, Rect};
use cpq_storage::PageId;

/// An entry of a leaf node: one indexed point, the tree's one object type
/// (the paper's setting).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LeafEntry<const D: usize> {
    /// The indexed point.
    pub object: Point<D>,
    /// Opaque object identifier supplied by the application (e.g. row id).
    pub oid: u64,
}

impl<const D: usize> LeafEntry<D> {
    /// Creates a leaf entry.
    pub fn new(object: Point<D>, oid: u64) -> Self {
        LeafEntry { object, oid }
    }

    /// MBR of the point (degenerate).
    #[inline]
    pub fn mbr(&self) -> Rect<D> {
        self.object.mbr()
    }

    /// The indexed point.
    #[inline]
    pub fn point(&self) -> Point<D> {
        self.object
    }
}

/// An entry of an inner node: child pointer, its MBR, and the number of data
/// objects stored in the child's subtree.
///
/// The cardinality is not part of the classical R*-tree; it is the aggregate
/// needed by the MAXMAXDIST-based K-closest-pair pruning bound (Section 3.8
/// of the paper, detailed in its technical-report companion) and costs four
/// bytes per entry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InnerEntry<const D: usize> {
    /// Minimum bounding rectangle of the child's subtree.
    pub mbr: Rect<D>,
    /// Page of the child node.
    pub child: PageId,
    /// Number of data objects in the child's subtree.
    pub count: u64,
}

impl<const D: usize> InnerEntry<D> {
    /// Creates an inner entry.
    pub fn new(mbr: Rect<D>, child: PageId, count: u64) -> Self {
        InnerEntry { mbr, child, count }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leaf_entry_mbr_is_degenerate_for_points() {
        let e = LeafEntry::new(Point([1.0, 2.0]), 7);
        assert_eq!(e.mbr().lo(), e.mbr().hi());
        assert!(e.mbr().contains_point(&Point([1.0, 2.0])));
        assert_eq!(e.point(), Point([1.0, 2.0]));
    }
}
