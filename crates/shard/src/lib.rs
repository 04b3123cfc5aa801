//! Spatially sharded R*-trees with scatter-gather K-CPQ.
//!
//! Each dataset is cut into `S` shards by sort-tile-recursive slabs of its
//! objects' centers, every shard gets its own R*-tree over its own
//! [`BufferPool`](cpq_storage::BufferPool) (its own page file, in a
//! deployment its own machine), and a K-CPQ runs as **scatter-gather**:
//!
//! * The coordinator enumerates all shard pairs, computes each pair's
//!   inter-shard `MINMINDIST` from the shard MBRs ([`ShardedTree::mbrs`]),
//!   and descends them in a **best-first priority queue** — exactly the
//!   paper's branch-and-bound lifted one level, from node pairs to shard
//!   pairs.
//! * A worker pool pops shard pairs and runs each as an ordinary
//!   (cancellable, sequential) engine subquery via [`cpq_core::execute`]
//!   under [`cpq_core::ExecCtx::with_scatter`], all sharing one
//!   [`SharedBound`](cpq_core::SharedBound) — the AtomicU64 f64-bits
//!   CAS-min bound of `crates/core/src/parallel.rs`, propagated across
//!   shards instead of threads.
//! * Once the queue's best remaining `MINMINDIST` exceeds the bound, every
//!   remaining shard pair is **pruned without being opened** — on
//!   clustered data that is the majority of the quadratic pair count.
//! * Partial results merge by the canonical total order
//!   ([`cpq_core::pair_cmp`]), which makes the merged top-K **bit-identical
//!   to the unsharded engine** (the workspace's `tests/differential.rs`
//!   gates on it, wire codec armed, against the brute-force oracle).
//!
//! The shard-pair protocol ([`proto`]) — subquery, bound update, partial
//! result — is a set of explicit serializable types with a std-only byte
//! codec: the future RPC boundary. The in-process
//! coordinator can round-trip every subquery and result through the codec
//! (`ShardConfig::wire_codec`) to prove the boundary is already real.

// A direct `std::sync` lock, condvar or modeled atomic would drop this
// crate out of the model checker; clippy.toml lists them.
#![cfg_attr(cpq_model, deny(clippy::disallowed_types))]

mod build;
mod coord;
mod merge;
pub mod proto;
mod scatter;

pub use build::{ShardedPair, ShardedTree};
pub use coord::{
    execute_sharded, k_closest_pairs_sharded, ShardConfig, ShardError, ShardReport, ShardRun,
};
pub use merge::merge_top_k;
pub use proto::{BoundUpdate, PartialResult, ProtoError, ShardSubquery, WirePair};
