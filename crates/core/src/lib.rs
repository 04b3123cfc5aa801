//! K Closest Pair Query (K-CPQ) algorithms over R*-trees — the primary
//! contribution of *Corral, Manolopoulos, Theodoridis, Vassilakopoulos:
//! "Closest Pair Queries in Spatial Databases"* (SIGMOD 2000).
//!
//! Given two point sets `P` and `Q`, each indexed by an R*-tree, find the
//! `K` pairs `(p, q) ∈ P × Q` with the smallest Euclidean distances.
//! Points are the one object type: every executor, result and oracle here
//! is generic over the dimension `D` only. This crate implements:
//!
//! * the paper's **five algorithms** — [`Algorithm::Naive`],
//!   [`Algorithm::Exhaustive`] (EXH), [`Algorithm::Simple`] (SIM),
//!   [`Algorithm::SortedDistances`] (STD), and the iterative
//!   [`Algorithm::Heap`] (HEAP) — all through one entry point,
//!   [`execute`], which takes a [`QuerySpec`] (K, cross or self-join,
//!   [`Constraint`]) and an [`ExecCtx`] (cancel token, probe, scatter
//!   hookup); [`k_closest_pairs`] / [`closest_pair`] are its one-line
//!   wrappers for the paper's plain query;
//! * the 1-CP **special case** (`K = 1`) with extra MINMAXDIST pruning, and
//!   the MAXMAXDIST cardinality bound for `K > 1` ([`KPruning`]);
//! * **tie-break strategies** T1–T5 ([`TieStrategy`], Section 3.6);
//! * **fix-at-leaves / fix-at-root** treatment of trees with different
//!   heights ([`HeightStrategy`], Section 3.7);
//! * the **incremental distance join** of Hjaltason & Samet (SIGMOD 1998)
//!   with the EVN / SML traversal policies of Figure 10 ([`distance_join`],
//!   [`k_closest_pairs_incremental`]) — the related work the paper compares
//!   against;
//! * the future-work extensions **Self-CPQ** ([`self_closest_pairs`]) and
//!   **Semi-CPQ** ([`semi_closest_pairs`]);
//! * brute-force references ([`brute`]) used throughout the test-suite.
//!
//! Every run reports [`CpqStats`], whose `disk_accesses()` is the metric all
//! of the paper's figures plot.
//!
//! # Example
//!
//! ```
//! use cpq_core::{k_closest_pairs, Algorithm, CpqConfig};
//! use cpq_geo::Point;
//! use cpq_rtree::{RTree, RTreeParams};
//! use cpq_storage::{BufferPool, MemPageFile};
//!
//! let pool = || BufferPool::with_lru(Box::new(MemPageFile::new(1024)), 16);
//! let mut tp = RTree::new(pool(), RTreeParams::paper()).unwrap();
//! let mut tq = RTree::new(pool(), RTreeParams::paper()).unwrap();
//! for i in 0..100 {
//!     tp.insert(Point([i as f64, 0.0]), i).unwrap();
//!     tq.insert(Point([i as f64, 3.0]), i).unwrap();
//! }
//! let out = k_closest_pairs(&tp, &tq, 5, Algorithm::Heap, &CpqConfig::paper()).unwrap();
//! assert_eq!(out.pairs.len(), 5);
//! assert_eq!(out.pairs[0].distance(), 3.0);
//! ```

// A direct `std::sync` lock, condvar or modeled atomic would drop this
// crate out of the model checker; clippy.toml lists them.
#![cfg_attr(cpq_model, deny(clippy::disallowed_types))]

mod api;
mod bound;
pub mod brute;
mod cancel;
mod config;
pub mod costmodel;
mod engine;
mod heap_alg;
mod incremental;
mod kheap;
mod parallel;
mod recursive;
mod semi;
mod sorting;
mod spec;
mod ties;
mod types;

pub use api::{
    closest_pair, execute, k_closest_pairs, k_closest_pairs_constrained,
    k_closest_pairs_instrumented, self_closest_pairs, self_closest_pairs_constrained, Algorithm,
    ExecCtx,
};
pub use bound::SharedBound;
pub use cancel::CancelToken;
// Re-exported so instrumented callers need not name `cpq-obs` directly.
pub use config::{CpqConfig, HeightStrategy, KPruning, LeafScan};
pub use cpq_obs::{NullProbe, Probe, ProbeSide, ProfileProbe, QueryProfile};
pub use incremental::{distance_join, k_closest_pairs_incremental, DistanceJoin, Traversal};
pub use kheap::KHeap;
pub use semi::semi_closest_pairs;
pub use sorting::SortAlgorithm;
pub use spec::{Constraint, QuerySpec};
pub use ties::TieStrategy;
pub use types::{pair_cmp, CpqStats, PairResult, QueryOutcome, QueryRun};
