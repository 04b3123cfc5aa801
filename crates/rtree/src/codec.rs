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
//! subtree is far beyond any experiment here) and widened to `u64` in
//! memory.

use crate::entry::{InnerEntry, LeafEntry};
use crate::error::{RTreeError, RTreeResult};
use crate::node::Node;
use cpq_geo::{Point, Rect};
use cpq_storage::PageId;

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

fn read_f64(buf: &[u8], off: usize) -> f64 {
    // analyze: allow(panic-path) — fixed 8-byte window; callers check the
    // page length, so the conversion cannot fail.
    f64::from_le_bytes(buf[off..off + 8].try_into().expect("8-byte slice"))
}

/// Decodes a node from the page `buf` that was read from `page`.
pub fn decode_node<const D: usize>(page: PageId, buf: &[u8]) -> RTreeResult<Node<D>> {
    if buf.len() < NODE_HEADER_LEN {
        return Err(RTreeError::CorruptNode {
            page,
            reason: "page shorter than node header".into(),
        });
    }
    let kind = buf[0];
    let level = buf[1];
    // analyze: allow(panic-path) — fixed-width header field of a
    // length-checked page.
    let count = u16::from_le_bytes(buf[2..4].try_into().expect("2-byte slice")) as usize;
    match kind {
        KIND_LEAF => {
            if level != 0 {
                return Err(RTreeError::CorruptNode {
                    page,
                    reason: format!("leaf with nonzero level {level}"),
                });
            }
            let osz = 8 * D;
            if NODE_HEADER_LEN + count * leaf_entry_size(D) > buf.len() {
                return Err(RTreeError::CorruptNode {
                    page,
                    reason: format!("leaf entry count {count} exceeds page"),
                });
            }
            let mut entries = Vec::with_capacity(count);
            let mut off = NODE_HEADER_LEN;
            for _ in 0..count {
                let object = Point::decode(&buf[off..off + osz]);
                off += osz;
                // analyze: allow(panic-path) — fixed-width field of a length-checked
                // entry region.
                let oid = u64::from_le_bytes(buf[off..off + 8].try_into().expect("8-byte slice"));
                off += 8;
                entries.push(LeafEntry::new(object, oid));
            }
            Ok(Node::Leaf(entries))
        }
        KIND_INNER => {
            if level == 0 {
                return Err(RTreeError::CorruptNode {
                    page,
                    reason: "inner node with level 0".into(),
                });
            }
            let esz = inner_entry_size(D);
            if NODE_HEADER_LEN + count * esz > buf.len() {
                return Err(RTreeError::CorruptNode {
                    page,
                    reason: format!("inner entry count {count} exceeds page"),
                });
            }
            let mut entries = Vec::with_capacity(count);
            let mut off = NODE_HEADER_LEN;
            for _ in 0..count {
                let mut lo = [0.0; D];
                for c in lo.iter_mut() {
                    *c = read_f64(buf, off);
                    off += 8;
                }
                let mut hi = [0.0; D];
                for c in hi.iter_mut() {
                    *c = read_f64(buf, off);
                    off += 8;
                }
                let child = PageId(u32::from_le_bytes(
                    // analyze: allow(panic-path) — fixed-width field of a length-checked
                    // entry region.
                    buf[off..off + 4].try_into().expect("4-byte slice"),
                ));
                off += 4;
                // analyze: allow(panic-path) — fixed-width field of a length-checked
                // entry region.
                let cnt = u32::from_le_bytes(buf[off..off + 4].try_into().expect("4-byte slice"));
                off += 4;
                if (0..D).any(|d| lo[d] > hi[d]) {
                    return Err(RTreeError::CorruptNode {
                        page,
                        reason: "inner entry MBR corners out of order".into(),
                    });
                }
                entries.push(InnerEntry::new(
                    Rect::from_corners(lo, hi),
                    child,
                    cnt as u64,
                ));
            }
            Ok(Node::Inner { level, entries })
        }
        other => Err(RTreeError::CorruptNode {
            page,
            reason: format!("unknown node kind {other}"),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leaf_roundtrip() {
        let node = Node::Leaf(vec![
            LeafEntry::new(Point([1.5, -2.5]), 42),
            LeafEntry::new(Point([0.0, 7.25]), u64::MAX),
        ]);
        let mut buf = vec![0u8; 1024];
        encode_node(&node, &mut buf).unwrap();
        let back: Node<2> = decode_node(PageId(0), &buf).unwrap();
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
        let back: Node<2> = decode_node(PageId(0), &buf).unwrap();
        assert_eq!(node, back);
    }

    #[test]
    fn three_d_roundtrip() {
        let node: Node<3> = Node::Leaf(vec![LeafEntry::new(Point([1.0, 2.0, 3.0]), 5)]);
        let mut buf = vec![0u8; 256];
        encode_node(&node, &mut buf).unwrap();
        let back: Node<3> = decode_node(PageId(0), &buf).unwrap();
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
        assert!(decode_node::<2>(PageId(0), &buf).is_err());
        // Leaf with nonzero level.
        buf[0] = 0;
        buf[1] = 2;
        assert!(decode_node::<2>(PageId(0), &buf).is_err());
        // Inner with level 0.
        buf[0] = 1;
        buf[1] = 0;
        assert!(decode_node::<2>(PageId(0), &buf).is_err());
        // Entry count beyond page.
        buf[0] = 0;
        buf[1] = 0;
        buf[2..4].copy_from_slice(&1000u16.to_le_bytes());
        assert!(decode_node::<2>(PageId(0), &buf).is_err());
    }

    #[test]
    fn empty_leaf_roundtrip() {
        let node: Node<2> = Node::empty_leaf();
        let mut buf = vec![0u8; 64];
        encode_node(&node, &mut buf).unwrap();
        let back: Node<2> = decode_node(PageId(0), &buf).unwrap();
        assert_eq!(node, back);
    }
}
