//! `cpq-live`: mutable R*-trees under concurrency — write-ahead logging
//! with replay-and-sweep crash recovery, epoch/copy-on-write snapshots for
//! wait-free readers, and continuous K-CPQ maintenance over streaming
//! points.
//!
//! The paper (Corral et al., SIGMOD 2000) treats its R*-trees as static:
//! bulk-build once, query forever. This crate removes that assumption
//! without touching any query algorithm:
//!
//! * [`wal`] — segmented write-ahead log with LSN-stamped, CRC-framed
//!   records (one logical record per update, no page images) behind one
//!   lock, fail-stop on a failed write, and sharp checkpoints that
//!   truncate the log.
//! * [`epoch`] — epoch-based snapshot publication. Writers are
//!   copy-on-write (see `RTree::cow_enable`): each update clones its
//!   root-to-leaf path into fresh pages and publishes a new `(root,
//!   height, len)` descriptor atomically, so readers pin an epoch and run
//!   the PR-4/PR-7 executors unmodified on a consistent tree. Superseded
//!   pages return to the pool only when no pinned epoch (a durable
//!   tree's last checkpoint holds one) can reach them.
//! * [`recovery`] — analysis over the segment chain, replay of the
//!   committed ops on the checkpoint's intact pages, and an
//!   unreachable-page sweep in place of undo.
//! * [`tree`] — [`LiveTree`] ties the three together; [`LiveSet`] holds
//!   the P/Q pair and routes [`UpdateOp`] batches. Every tree comes from
//!   [`LiveTree::create`], in memory or in a directory [`recover`] reads,
//!   around a hook that wraps its page file (a fault injector in tests).
//! * [`continuous`] — [`ContinuousCpq`] maintains a K-CPQ result set
//!   incrementally across updates, bit-identical to recomputing from
//!   scratch at every step.
//! * [`harness`] — the crash-injection harness used by the recovery
//!   tests: kill the log at every record boundary, recover, compare.
//!
//! Concurrent model-check site #7 (epoch publish/reclaim, in [`epoch`])
//! lives here; run it with `RUSTFLAGS="--cfg cpq_model"`.

// A direct `std::sync` lock, condvar or modeled atomic would drop this
// crate out of the model checker; clippy.toml lists them.
#![cfg_attr(cpq_model, deny(clippy::disallowed_types))]

pub mod continuous;
pub mod epoch;
pub mod error;
pub mod harness;
pub mod recovery;
pub mod tree;
pub mod wal;

pub use continuous::{ContinuousCpq, ContinuousStats};
pub use epoch::{EpochRegistry, EpochStats};
pub use error::{LiveError, LiveResult};
pub use recovery::{recover, RecoveryReport};
pub use tree::{ApplyReport, LiveConfig, LiveSet, LiveStats, LiveTree, Side, Snapshot, UpdateOp};
pub use wal::{Lsn, OpKind, RecordBody, Wal, WalConfig, WalStats};
