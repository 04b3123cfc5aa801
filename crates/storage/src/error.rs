//! Storage error type.

use crate::page::PageId;
use std::fmt;
use std::io;

/// Result alias used throughout the storage layer.
pub type StorageResult<T> = Result<T, StorageError>;

/// Errors raised by page files and buffer pools.
#[derive(Debug)]
pub enum StorageError {
    /// A page id beyond the end of the file was referenced.
    PageOutOfBounds(PageId),
    /// The referenced page has been freed and not reallocated.
    PageFreed(PageId),
    /// A read buffer that is not exactly the page size, or a page longer
    /// than it, was supplied.
    WrongBufferSize {
        /// Expected page size in bytes.
        expected: usize,
        /// Actual buffer length supplied by the caller.
        actual: usize,
    },
    /// The on-disk file header is missing or malformed.
    CorruptHeader(String),
    /// A page's stored checksum does not match its contents — the bytes
    /// rotted on disk (or were tampered with) between write and read.
    Corrupt {
        /// The page whose checksum failed.
        page: PageId,
        /// The checksum stored alongside the page.
        stored: u32,
        /// The checksum computed from the bytes actually read.
        computed: u32,
    },
    /// Underlying I/O failure (file-backed stores only).
    Io(io::Error),
}

impl StorageError {
    /// A structural copy of the error.
    ///
    /// `StorageError` cannot implement `Clone` because [`io::Error`] does
    /// not; `io::Error` payloads are flattened to their kind plus rendered
    /// message. The I/O scheduler uses this to deliver one physical-read
    /// failure to every request that was deduplicated onto it.
    pub fn duplicate(&self) -> StorageError {
        match self {
            StorageError::PageOutOfBounds(id) => StorageError::PageOutOfBounds(*id),
            StorageError::PageFreed(id) => StorageError::PageFreed(*id),
            StorageError::WrongBufferSize { expected, actual } => StorageError::WrongBufferSize {
                expected: *expected,
                actual: *actual,
            },
            StorageError::CorruptHeader(msg) => StorageError::CorruptHeader(msg.clone()),
            StorageError::Corrupt {
                page,
                stored,
                computed,
            } => StorageError::Corrupt {
                page: *page,
                stored: *stored,
                computed: *computed,
            },
            StorageError::Io(e) => StorageError::Io(io::Error::new(e.kind(), e.to_string())),
        }
    }
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::PageOutOfBounds(id) => write!(f, "page {id} is out of bounds"),
            StorageError::PageFreed(id) => write!(f, "page {id} has been freed"),
            StorageError::WrongBufferSize { expected, actual } => {
                write!(
                    f,
                    "buffer size {actual} does not match page size {expected}"
                )
            }
            StorageError::CorruptHeader(msg) => write!(f, "corrupt file header: {msg}"),
            StorageError::Corrupt {
                page,
                stored,
                computed,
            } => write!(
                f,
                "page {page} is corrupt: stored checksum {stored:#010x}, computed {computed:#010x}"
            ),
            StorageError::Io(e) => write!(f, "I/O error: {e}"),
        }
    }
}

impl std::error::Error for StorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StorageError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for StorageError {
    fn from(e: io::Error) -> Self {
        StorageError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = StorageError::PageOutOfBounds(PageId(9));
        assert!(e.to_string().contains("out of bounds"));
        let e = StorageError::WrongBufferSize {
            expected: 1024,
            actual: 10,
        };
        assert!(e.to_string().contains("1024"));
    }

    #[test]
    fn duplicate_preserves_shape() {
        let e = StorageError::Io(io::Error::new(io::ErrorKind::TimedOut, "slow disk"));
        match e.duplicate() {
            StorageError::Io(d) => {
                assert_eq!(d.kind(), io::ErrorKind::TimedOut);
                assert!(d.to_string().contains("slow disk"));
            }
            other => panic!("expected Io, got {other:?}"),
        }
        let e = StorageError::Corrupt {
            page: PageId(3),
            stored: 1,
            computed: 2,
        };
        assert!(matches!(
            e.duplicate(),
            StorageError::Corrupt {
                page: PageId(3),
                ..
            }
        ));
    }

    #[test]
    fn io_error_converts() {
        let io = io::Error::new(io::ErrorKind::NotFound, "gone");
        let e: StorageError = io.into();
        assert!(matches!(e, StorageError::Io(_)));
        assert!(std::error::Error::source(&e).is_some());
    }
}
