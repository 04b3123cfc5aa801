//! The owned form of an R-tree node, which the update path builds, edits
//! and encodes. Readers see a node through its page
//! ([`NodeView`](crate::NodeView)) instead.

use crate::entry::{InnerEntry, LeafEntry};
use cpq_geo::Rect;

/// An owned R-tree node.
///
/// Leaves sit at level 0; an inner node at level `l` has children at level
/// `l - 1`. The root is the single node at level `height - 1`.
#[derive(Debug, Clone, PartialEq)]
pub enum Node<const D: usize> {
    /// A leaf node holding data objects.
    Leaf(Vec<LeafEntry<D>>),
    /// An inner (directory) node holding child entries.
    Inner {
        /// Level of this node (`>= 1`).
        level: u8,
        /// Child entries.
        entries: Vec<InnerEntry<D>>,
    },
}

impl<const D: usize> Node<D> {
    /// Level of the node; leaves are level 0.
    #[inline]
    pub fn level(&self) -> u8 {
        match self {
            Node::Leaf(_) => 0,
            Node::Inner { level, .. } => *level,
        }
    }

    /// Number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        match self {
            Node::Leaf(es) => es.len(),
            Node::Inner { entries, .. } => entries.len(),
        }
    }

    /// `true` when the node holds no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// MBR of all entries, or `None` for an empty node.
    pub fn mbr(&self) -> Option<Rect<D>> {
        match self {
            Node::Leaf(es) => {
                let mut it = es.iter();
                let first = it.next()?.mbr();
                Some(it.fold(first, |acc, e| acc.union(&e.mbr())))
            }
            Node::Inner { entries, .. } => {
                let mut it = entries.iter();
                let first = it.next()?.mbr;
                Some(it.fold(first, |acc, e| acc.union(&e.mbr)))
            }
        }
    }

    /// Number of data objects in the subtree rooted at this node.
    ///
    /// For leaves this is the entry count; for inner nodes the sum of the
    /// children's cached cardinalities.
    pub fn subtree_count(&self) -> u64 {
        match self {
            Node::Leaf(es) => es.len() as u64,
            Node::Inner { entries, .. } => entries.iter().map(|e| e.count).sum(),
        }
    }

    /// Inner entries; panics on leaves.
    #[inline]
    pub fn inner_entries(&self) -> &[InnerEntry<D>] {
        match self {
            Node::Inner { entries, .. } => entries,
            Node::Leaf(_) => panic!("inner_entries() on leaf node"),
        }
    }

    /// Mutable inner entries; panics on leaves.
    #[inline]
    pub fn inner_entries_mut(&mut self) -> &mut Vec<InnerEntry<D>> {
        match self {
            Node::Inner { entries, .. } => entries,
            Node::Leaf(_) => panic!("inner_entries_mut() on leaf node"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpq_geo::Point;
    use cpq_storage::PageId;

    #[test]
    fn leaf_mbr_and_count() {
        let node = Node::Leaf(vec![
            LeafEntry::new(Point([0.0, 0.0]), 1),
            LeafEntry::new(Point([2.0, 3.0]), 2),
        ]);
        assert_eq!(node.level(), 0);
        assert_eq!(node.len(), 2);
        assert_eq!(node.subtree_count(), 2);
        assert_eq!(node.mbr(), Some(Rect::from_corners([0.0, 0.0], [2.0, 3.0])));
    }

    #[test]
    fn inner_mbr_and_count() {
        let node: Node<2> = Node::Inner {
            level: 1,
            entries: vec![
                InnerEntry::new(Rect::from_corners([0.0, 0.0], [1.0, 1.0]), PageId(1), 10),
                InnerEntry::new(Rect::from_corners([4.0, 4.0], [5.0, 5.0]), PageId(2), 11),
            ],
        };
        assert_eq!(node.level(), 1);
        assert_eq!(node.subtree_count(), 21);
        assert_eq!(node.mbr(), Some(Rect::from_corners([0.0, 0.0], [5.0, 5.0])));
    }

    #[test]
    fn empty_leaf_has_no_mbr() {
        let node: Node<2> = Node::Leaf(Vec::new());
        assert!(node.is_empty());
        assert_eq!(node.mbr(), None);
    }
}
