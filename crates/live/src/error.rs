//! Error type shared by the live-update subsystem.

use cpq_rtree::RTreeError;
use cpq_storage::StorageError;
use std::fmt;
use std::io;

/// Errors from the WAL, recovery, or live-tree layers.
#[derive(Debug)]
pub enum LiveError {
    /// An operating-system I/O failure on a WAL segment or directory.
    Io(io::Error),
    /// A failure in the paged store backing the tree.
    Storage(StorageError),
    /// A failure inside the R*-tree itself.
    Tree(RTreeError),
    /// Recovery found no usable checkpoint (every segment's leading
    /// checkpoint record was torn or missing).
    NoCheckpoint,
    /// A recovery-time consistency failure that is *not* a benign torn
    /// tail (e.g. a committed operation references an impossible page).
    Recovery(String),
    /// A caller-contract violation (e.g. updates after close).
    Invalid(String),
    /// An update committed, but maintaining the watcher after it failed,
    /// so [`LiveSet::apply`](crate::LiveSet::apply) uninstalled it.
    Unwatched(Box<LiveError>),
}

/// Convenient alias.
pub type LiveResult<T> = Result<T, LiveError>;

impl fmt::Display for LiveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LiveError::Io(e) => write!(f, "wal i/o error: {e}"),
            LiveError::Storage(e) => write!(f, "storage error: {e}"),
            LiveError::Tree(e) => write!(f, "rtree error: {e}"),
            LiveError::NoCheckpoint => write!(f, "recovery found no usable checkpoint"),
            LiveError::Recovery(m) => write!(f, "recovery error: {m}"),
            LiveError::Invalid(m) => write!(f, "invalid live-tree usage: {m}"),
            LiveError::Unwatched(e) => write!(f, "update committed, watcher uninstalled: {e}"),
        }
    }
}

impl std::error::Error for LiveError {}

impl From<io::Error> for LiveError {
    fn from(e: io::Error) -> Self {
        LiveError::Io(e)
    }
}

impl From<StorageError> for LiveError {
    fn from(e: StorageError) -> Self {
        LiveError::Storage(e)
    }
}

impl From<RTreeError> for LiveError {
    fn from(e: RTreeError) -> Self {
        LiveError::Tree(e)
    }
}
