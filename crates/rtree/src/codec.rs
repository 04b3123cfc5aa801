//! Node ⟷ page serialization.
//!
//! Layout (little-endian):
//!
//! ```text
//! offset 0   u8   node kind: 0 = leaf, 1 = inner
//! offset 1   u8   level (0 for leaves)
//! offset 2   u16  entry count
//! offset 4   entries …
//!
//! leaf entry   : D × f64 point coordinates, u64 oid (8·D + 8 bytes)
//! inner entry  : 2·D × f64 MBR corners, u32 child, u32 count (16·D + 8 bytes)
//! ```
//!
//! Subtree cardinalities are stored as `u32` on disk (4 G objects per
//! subtree is far beyond any experiment here) and widened to `u64` when an
//! entry is read.
//!
//! The page is the node: writers encode a [`Node`] into a page, readers see
//! the page through a [`NodeView`], which reads each entry from the page's
//! bytes in place. [`check_node`] is the one check a page passes before it
//! is read that way, once per residency in the buffer pool.

use crate::entry::{InnerEntry, LeafEntry};
use crate::error::{RTreeError, RTreeResult};
use crate::node::Node;
use cpq_geo::{Point, Rect};
use cpq_storage::{PageBytes, PageId};
use std::marker::PhantomData;
use std::slice::ChunksExact;

const KIND_LEAF: u8 = 0;
const KIND_INNER: u8 = 1;
/// Bytes of fixed header per node page.
pub const NODE_HEADER_LEN: usize = 4;

/// Size in bytes of one serialized leaf entry.
pub const fn leaf_entry_size(d: usize) -> usize {
    8 * d + 8
}

/// Size in bytes of one serialized inner entry.
pub const fn inner_entry_size(d: usize) -> usize {
    16 * d + 8
}

/// Encodes `node` into `buf` (a full page). Unused tail bytes are zeroed.
pub fn encode_node<const D: usize>(node: &Node<D>, buf: &mut [u8]) -> RTreeResult<()> {
    buf.fill(0);
    let osz = 8 * D;
    let needed = NODE_HEADER_LEN
        + match node {
            Node::Leaf(es) => es.len() * leaf_entry_size(D),
            Node::Inner { entries, .. } => entries.len() * inner_entry_size(D),
        };
    if needed > buf.len() {
        return Err(RTreeError::InvalidParams(format!(
            "node with {} entries needs {needed} bytes, page holds {}",
            node.len(),
            buf.len()
        )));
    }
    match node {
        Node::Leaf(es) => {
            buf[0] = KIND_LEAF;
            buf[1] = 0;
            buf[2..4].copy_from_slice(&(es.len() as u16).to_le_bytes());
            let mut off = NODE_HEADER_LEN;
            for e in es {
                e.object.encode(&mut buf[off..off + osz]);
                off += osz;
                buf[off..off + 8].copy_from_slice(&e.oid.to_le_bytes());
                off += 8;
            }
        }
        Node::Inner { level, entries } => {
            buf[0] = KIND_INNER;
            buf[1] = *level;
            buf[2..4].copy_from_slice(&(entries.len() as u16).to_le_bytes());
            let mut off = NODE_HEADER_LEN;
            for e in entries {
                for d in 0..D {
                    buf[off..off + 8].copy_from_slice(&e.mbr.lo().coord(d).to_le_bytes());
                    off += 8;
                }
                for d in 0..D {
                    buf[off..off + 8].copy_from_slice(&e.mbr.hi().coord(d).to_le_bytes());
                    off += 8;
                }
                buf[off..off + 4].copy_from_slice(&e.child.0.to_le_bytes());
                off += 4;
                let count: u32 = e.count.try_into().map_err(|_| {
                    RTreeError::InvalidParams(format!("subtree count {} exceeds u32", e.count))
                })?;
                buf[off..off + 4].copy_from_slice(&count.to_le_bytes());
                off += 4;
            }
        }
    }
    Ok(())
}

#[inline]
#[expect(clippy::expect_used, reason = "8-byte window; callers check lengths")]
fn read_f64(buf: &[u8], off: usize) -> f64 {
    f64::from_le_bytes(buf[off..off + 8].try_into().expect("8-byte slice"))
}

#[inline]
#[expect(clippy::expect_used, reason = "4-byte window; callers check lengths")]
fn read_u32(buf: &[u8], off: usize) -> u32 {
    u32::from_le_bytes(buf[off..off + 4].try_into().expect("4-byte slice"))
}

#[inline]
#[expect(clippy::expect_used, reason = "8-byte window; callers check lengths")]
fn read_u64(buf: &[u8], off: usize) -> u64 {
    u64::from_le_bytes(buf[off..off + 8].try_into().expect("8-byte slice"))
}

/// Checks that the page `buf`, read from `page`, holds a node of
/// dimension `D`: a known kind, a level that fits it, an entry count that
/// fits the page, and inner MBRs with their corners in order. What passes
/// is what [`NodeView`] reads without further checks.
pub fn check_node<const D: usize>(page: PageId, buf: &[u8]) -> RTreeResult<()> {
    let corrupt = |reason: String| Err(RTreeError::CorruptNode { page, reason });
    if buf.len() < NODE_HEADER_LEN {
        return corrupt("page shorter than node header".into());
    }
    let (kind, level, count) = (buf[0], buf[1], header_count(buf));
    match kind {
        KIND_LEAF => {
            if level != 0 {
                return corrupt(format!("leaf with nonzero level {level}"));
            }
            if NODE_HEADER_LEN + count * leaf_entry_size(D) > buf.len() {
                return corrupt(format!("leaf entry count {count} exceeds page"));
            }
            Ok(())
        }
        KIND_INNER => {
            if level == 0 {
                return corrupt("inner node with level 0".into());
            }
            let esz = inner_entry_size(D);
            if NODE_HEADER_LEN + count * esz > buf.len() {
                return corrupt(format!("inner entry count {count} exceeds page"));
            }
            let entries = &buf[NODE_HEADER_LEN..NODE_HEADER_LEN + count * esz];
            for e in entries.chunks_exact(esz) {
                if (0..D).any(|d| read_f64(e, 8 * d) > read_f64(e, 8 * (D + d))) {
                    return corrupt("inner entry MBR corners out of order".into());
                }
            }
            Ok(())
        }
        other => corrupt(format!("unknown node kind {other}")),
    }
}

/// The entry count of a node page's header.
#[inline]
#[expect(clippy::expect_used, reason = "fixed-width field of a checked page")]
fn header_count(buf: &[u8]) -> usize {
    u16::from_le_bytes(buf[2..4].try_into().expect("2-byte slice")) as usize
}

/// An entry type with a fixed size on a node page, read from its bytes.
pub trait PageEntry: Copy {
    /// Bytes of one entry on the page.
    const SIZE: usize;
    /// Reads the entry from the first [`SIZE`](Self::SIZE) bytes of `buf`;
    /// panics when `buf` is shorter.
    fn read(buf: &[u8]) -> Self;
}

impl<const D: usize> PageEntry for LeafEntry<D> {
    const SIZE: usize = leaf_entry_size(D);

    #[inline]
    fn read(buf: &[u8]) -> Self {
        let buf = &buf[..Self::SIZE];
        LeafEntry::new(Point::decode(buf), read_u64(buf, 8 * D))
    }
}

impl<const D: usize> PageEntry for InnerEntry<D> {
    const SIZE: usize = inner_entry_size(D);

    #[inline]
    fn read(buf: &[u8]) -> Self {
        let buf = &buf[..Self::SIZE];
        let lo = std::array::from_fn(|d| read_f64(buf, 8 * d));
        let hi = std::array::from_fn(|d| read_f64(buf, 8 * (D + d)));
        InnerEntry::new(
            Rect::from_corners(lo, hi),
            PageId(read_u32(buf, 16 * D)),
            u64::from(read_u32(buf, 16 * D + 4)),
        )
    }
}

/// The entries of one node, read from its page in place: each is decoded
/// from its bytes when it is visited, and nothing is copied beforehand.
#[derive(Clone, Copy)]
pub struct Entries<'a, E> {
    bytes: &'a [u8],
    kind: PhantomData<E>,
}

impl<'a, E: PageEntry> Entries<'a, E> {
    /// Number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.bytes.len() / E::SIZE
    }

    /// `true` when there are none.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Entry `i`; panics when `i >= len()`.
    #[inline]
    pub fn get(&self, i: usize) -> E {
        E::read(&self.bytes[i * E::SIZE..])
    }

    /// The entries in page order.
    #[inline]
    pub fn iter(&self) -> EntryIter<'a, E> {
        EntryIter {
            chunks: self.bytes.chunks_exact(E::SIZE),
            kind: PhantomData,
        }
    }
}

/// The iterator of [`Entries::iter`]: each entry read as it is reached.
#[derive(Clone)]
pub struct EntryIter<'a, E> {
    chunks: ChunksExact<'a, u8>,
    kind: PhantomData<E>,
}

impl<E: PageEntry> Iterator for EntryIter<'_, E> {
    type Item = E;

    #[inline]
    fn next(&mut self) -> Option<E> {
        self.chunks.next().map(E::read)
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        self.chunks.size_hint()
    }
}

impl<E: PageEntry> DoubleEndedIterator for EntryIter<'_, E> {
    #[inline]
    fn next_back(&mut self) -> Option<E> {
        self.chunks.next_back().map(E::read)
    }
}

impl<E: PageEntry> ExactSizeIterator for EntryIter<'_, E> {}

impl<'a, E: PageEntry> IntoIterator for Entries<'a, E> {
    type Item = E;
    type IntoIter = EntryIter<'a, E>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// The entries of a node by kind, for a `match` over both.
#[derive(Clone, Copy)]
pub enum NodeEntries<'a, const D: usize> {
    /// A leaf's data entries.
    Leaf(Entries<'a, LeafEntry<D>>),
    /// An inner node's child entries.
    Inner(Entries<'a, InnerEntry<D>>),
}

/// A node, read from the page that stores it: what
/// [`RTree::read_node`](crate::RTree::read_node) returns. It shares the
/// buffer pool frame's bytes, so cloning it costs one reference count and
/// no node is ever held twice in memory; entries are decoded from the bytes
/// as they are visited. Only pages that passed the node-format check
/// become views.
#[derive(Clone)]
pub struct NodeView<const D: usize> {
    page: PageBytes,
}

impl<const D: usize> NodeView<D> {
    /// Wraps a page that passed [`check_node`] for dimension `D`.
    pub(crate) fn new(page: PageBytes) -> Self {
        NodeView { page }
    }

    /// Level of the node; leaves are level 0.
    #[inline]
    pub fn level(&self) -> u8 {
        self.page[1]
    }

    /// `true` for leaf nodes.
    #[inline]
    pub fn is_leaf(&self) -> bool {
        self.page[0] == KIND_LEAF
    }

    /// Number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        header_count(&self.page)
    }

    /// `true` when the node holds no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    #[inline]
    fn entries_of<E: PageEntry>(&self) -> Entries<'_, E> {
        Entries {
            bytes: &self.page[NODE_HEADER_LEN..NODE_HEADER_LEN + self.len() * E::SIZE],
            kind: PhantomData,
        }
    }

    /// The entries, by node kind.
    #[inline]
    pub fn entries(&self) -> NodeEntries<'_, D> {
        if self.is_leaf() {
            NodeEntries::Leaf(self.entries_of())
        } else {
            NodeEntries::Inner(self.entries_of())
        }
    }

    /// Leaf entries; panics on inner nodes.
    #[inline]
    pub fn leaf_entries(&self) -> Entries<'_, LeafEntry<D>> {
        assert!(self.is_leaf(), "leaf_entries() on inner node");
        self.entries_of()
    }

    /// Inner entries; panics on leaves.
    #[inline]
    pub fn inner_entries(&self) -> Entries<'_, InnerEntry<D>> {
        assert!(!self.is_leaf(), "inner_entries() on leaf node");
        self.entries_of()
    }

    /// MBR of all entries, or `None` for an empty node.
    pub fn mbr(&self) -> Option<Rect<D>> {
        match self.entries() {
            NodeEntries::Leaf(es) => {
                let mut it = es.iter();
                let first = it.next()?.mbr();
                Some(it.fold(first, |acc, e| acc.union(&e.mbr())))
            }
            NodeEntries::Inner(es) => {
                let mut it = es.iter();
                let first = it.next()?.mbr;
                Some(it.fold(first, |acc, e| acc.union(&e.mbr)))
            }
        }
    }

    /// Number of data objects in the subtree rooted at this node: the entry
    /// count of a leaf, the sum of the children's cardinalities otherwise.
    pub fn subtree_count(&self) -> u64 {
        match self.entries() {
            NodeEntries::Leaf(es) => es.len() as u64,
            NodeEntries::Inner(es) => es.iter().map(|e| e.count).sum(),
        }
    }

    /// An owned copy of the node, for the update path to modify.
    pub(crate) fn to_node(&self) -> Node<D> {
        match self.entries() {
            NodeEntries::Leaf(es) => Node::Leaf(es.iter().collect()),
            NodeEntries::Inner(es) => Node::Inner {
                level: self.level(),
                entries: es.iter().collect(),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The owned node a page reads as, after its check.
    fn decode<const D: usize>(buf: &[u8]) -> RTreeResult<Node<D>> {
        check_node::<D>(PageId(0), buf)?;
        Ok(NodeView::new(PageBytes::from(buf)).to_node())
    }

    #[test]
    fn leaf_roundtrip() {
        let node = Node::Leaf(vec![
            LeafEntry::new(Point([1.5, -2.5]), 42),
            LeafEntry::new(Point([0.0, 7.25]), u64::MAX),
        ]);
        let mut buf = vec![0u8; 1024];
        encode_node(&node, &mut buf).unwrap();
        let back: Node<2> = decode(&buf).unwrap();
        assert_eq!(node, back);
    }

    #[test]
    fn inner_roundtrip() {
        let node: Node<2> = Node::Inner {
            level: 3,
            entries: vec![
                InnerEntry::new(
                    Rect::from_corners([0.0, 0.0], [1.0, 1.0]),
                    PageId(17),
                    12345,
                ),
                InnerEntry::new(Rect::from_corners([-5.0, -5.0], [5.0, 5.0]), PageId(99), 1),
            ],
        };
        let mut buf = vec![0u8; 1024];
        encode_node(&node, &mut buf).unwrap();
        let back: Node<2> = decode(&buf).unwrap();
        assert_eq!(node, back);
    }

    #[test]
    fn three_d_roundtrip() {
        let node: Node<3> = Node::Leaf(vec![LeafEntry::new(Point([1.0, 2.0, 3.0]), 5)]);
        let mut buf = vec![0u8; 256];
        encode_node(&node, &mut buf).unwrap();
        let back: Node<3> = decode(&buf).unwrap();
        assert_eq!(node, back);
    }

    #[test]
    fn oversized_node_rejected() {
        let node = Node::Leaf(vec![LeafEntry::new(Point([0.0, 0.0]), 0); 100]);
        let mut buf = vec![0u8; 64];
        assert!(encode_node(&node, &mut buf).is_err());
    }

    #[test]
    fn corrupt_pages_rejected() {
        // Unknown kind.
        let mut buf = vec![0u8; 64];
        buf[0] = 9;
        assert!(check_node::<2>(PageId(0), &buf).is_err());
        // Leaf with nonzero level.
        buf[0] = 0;
        buf[1] = 2;
        assert!(check_node::<2>(PageId(0), &buf).is_err());
        // Inner with level 0.
        buf[0] = 1;
        buf[1] = 0;
        assert!(check_node::<2>(PageId(0), &buf).is_err());
        // Entry count beyond page.
        buf[0] = 0;
        buf[1] = 0;
        buf[2..4].copy_from_slice(&1000u16.to_le_bytes());
        assert!(check_node::<2>(PageId(0), &buf).is_err());
        // An inner entry whose MBR corners are out of order on one axis.
        let node: Node<2> = Node::Inner {
            level: 1,
            entries: vec![InnerEntry::new(
                Rect::from_corners([0.0, 0.0], [1.0, 1.0]),
                PageId(1),
                1,
            )],
        };
        let mut buf = vec![0u8; 64];
        encode_node(&node, &mut buf).unwrap();
        assert!(check_node::<2>(PageId(0), &buf).is_ok());
        buf[NODE_HEADER_LEN + 8..NODE_HEADER_LEN + 16].copy_from_slice(&2.0f64.to_le_bytes());
        assert!(check_node::<2>(PageId(0), &buf).is_err());
    }

    #[test]
    fn a_view_reads_what_was_encoded() {
        let node: Node<2> = Node::Inner {
            level: 2,
            entries: (0..5)
                .map(|i| {
                    let lo = [i as f64, -(i as f64)];
                    InnerEntry::new(Rect::from_corners(lo, [lo[0] + 1.5, 0.0]), PageId(i), 7)
                })
                .collect(),
        };
        let mut buf = vec![0u8; 1024];
        encode_node(&node, &mut buf).unwrap();
        check_node::<2>(PageId(0), &buf).unwrap();
        let view = NodeView::<2>::new(PageBytes::from(&buf[..]));
        assert_eq!((view.level(), view.is_leaf(), view.len()), (2, false, 5));
        assert_eq!(view.mbr(), node.mbr());
        assert_eq!(view.subtree_count(), 35);
        let entries = view.inner_entries();
        assert_eq!(entries.get(3), node.inner_entries()[3]);
        let back: Vec<_> = entries.iter().rev().collect();
        assert!(back.iter().rev().eq(node.inner_entries()));
    }

    #[test]
    fn empty_leaf_roundtrip() {
        let node: Node<2> = Node::Leaf(Vec::new());
        let mut buf = vec![0u8; 64];
        encode_node(&node, &mut buf).unwrap();
        let back: Node<2> = decode(&buf).unwrap();
        assert_eq!(node, back);
    }
}
