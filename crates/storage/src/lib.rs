//! Paged storage engine with buffer management and disk-access accounting.
//!
//! The experiments of *Corral et al. (SIGMOD 2000)* measure query cost in
//! **disk accesses**: the number of R-tree node pages fetched from secondary
//! storage, optionally filtered through an LRU buffer of `B` pages split in
//! two equal halves, one per R-tree (Section 4.3.3). This crate provides the
//! substrate that makes those numbers measurable and reproducible:
//!
//! * [`PageFile`] — an abstraction over a flat array of fixed-size pages,
//!   with an in-memory simulated disk ([`MemPageFile`], used by experiments:
//!   only the *counts* matter, not real seek latency) and a real file-backed
//!   implementation ([`DiskPageFile`]).
//! * [`BufferPool`] — a page cache in front of a `PageFile` with a pluggable
//!   [`ReplacementPolicy`]: [`LruPolicy`] (the paper's policy), plus
//!   [`FifoPolicy`] and [`ClockPolicy`] for ablation studies.
//! * [`BufferStats`] / [`IoStats`] — the counters the benchmark harness
//!   reports. A *disk access* is a buffer miss (with `capacity = 0`, every
//!   logical read misses, which reproduces the paper's "zero buffer"
//!   configuration).
//!
//! The pool uses interior mutability (bookkeeping behind a `Mutex`, the page
//! file behind a `RwLock` so miss I/O from concurrent readers overlaps) so
//! query algorithms can hold shared references to two trees and still fault
//! pages in through either. Page contents are returned as [`PageBytes`]
//! (`Arc<[u8]>`), cheap to clone and immutable; an in-memory file and the
//! frame caching its page share one allocation. A frame also remembers
//! whether its bytes passed a caller's check ([`BufferPool::read_checked`]),
//! so a resident page is checked once, not on every hit, and readers use
//! the frame's bytes in place: no second, decoded copy of a page is kept.
//!
//! For failure testing, [`FailingPageFile`] wraps any page file and injects
//! read errors, CRC corruption, or artificial latency under the control of a
//! shared [`FailureControl`].
//!
//! For real disks, [`SchedPageFile`] moves reads onto a small pool of I/O
//! threads behind a request scheduler: in-flight dedup (N concurrent misses
//! for one page cost one physical read), offset-ordered coalescing of
//! contiguous page runs into single span reads, and low-priority speculative
//! prefetch with a completion-flag handoff ([`SchedHandle`], [`SchedStats`]).

// A direct `std::sync` lock, condvar or modeled atomic would drop this
// crate out of the model checker; clippy.toml lists them.
#![cfg_attr(cpq_model, deny(clippy::disallowed_types))]

mod buffer;
mod crc32;
mod error;
mod failing;
mod file;
mod page;
mod sched;
mod stats;

pub use buffer::{BufferPool, BufferStats, ClockPolicy, FifoPolicy, LruPolicy, ReplacementPolicy};
pub use crc32::crc32;
pub use error::{StorageError, StorageResult};
pub use failing::{FailingPageFile, FailureControl};
pub use file::{DiskPageFile, MemPageFile, PageFile};
pub use page::{PageBytes, PageId, DEFAULT_PAGE_SIZE};
pub use sched::{SchedConfig, SchedHandle, SchedPageFile, SchedStats};
pub use stats::IoStats;
