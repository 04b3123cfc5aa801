//! Page identifiers, page contents and sizing constants.

use crate::error::{StorageError, StorageResult};
use cpq_check::sync::Arc;
use std::fmt;

/// Immutable page contents, cheaply cloneable (one atomic increment per
/// clone, like the `bytes::Bytes` it replaces — dropped so the workspace
/// builds without registry access).
///
/// A page's bytes may be shorter than the page size: every byte past
/// their end reads as zero. A writer hands over only the bytes it
/// encoded, an in-memory file keeps just those, and the resident page is
/// that prefix. [`zero_extend`] is the one place that turns a prefix back
/// into a whole page.
pub type PageBytes = Arc<[u8]>;

/// Copies `page` into the front of `buf` and zeroes the rest of `buf`:
/// the whole page of `buf.len()` bytes that `page` stands for. Panics when
/// `page` is longer than `buf`; a page file refuses such a page on write.
#[inline]
pub fn zero_extend(page: &[u8], buf: &mut [u8]) {
    let (head, tail) = buf.split_at_mut(page.len());
    head.copy_from_slice(page);
    tail.fill(0);
}

/// Refuses `len` bytes as a page of `page_size` bytes when they do not
/// fit: a page may be shorter than the page size, never longer.
pub(crate) fn check_fits(len: usize, page_size: usize) -> StorageResult<()> {
    if len > page_size {
        return Err(StorageError::WrongBufferSize {
            expected: page_size,
            actual: len,
        });
    }
    Ok(())
}

/// Page size used throughout the paper's experiments: 1 KiB, which yields an
/// R*-tree node capacity of `M = 21` (Section 4).
pub const DEFAULT_PAGE_SIZE: usize = 1024;

/// Identifier of a page within a [`PageFile`](crate::PageFile).
///
/// Page ids are dense small integers — an index into the file — so they
/// also serve directly as R-tree child "pointers" on disk.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageId(pub u32);

impl PageId {
    /// Sentinel for "no page" (e.g. an empty tree's root pointer).
    pub const INVALID: PageId = PageId(u32::MAX);

    /// `true` unless this is the [`INVALID`](Self::INVALID) sentinel.
    #[inline]
    pub fn is_valid(self) -> bool {
        self != Self::INVALID
    }

    /// The raw index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for PageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_valid() {
            write!(f, "PageId({})", self.0)
        } else {
            write!(f, "PageId(INVALID)")
        }
    }
}

impl fmt::Display for PageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn invalid_sentinel() {
        assert!(!PageId::INVALID.is_valid());
        assert!(PageId(0).is_valid());
        assert_eq!(format!("{}", PageId::INVALID), "PageId(INVALID)");
        assert_eq!(format!("{}", PageId(7)), "PageId(7)");
    }

    #[test]
    fn ordering_follows_index() {
        assert!(PageId(1) < PageId(2));
        assert_eq!(PageId(3).index(), 3);
    }
}
