//! `cpq` — K Closest Pair Queries in Spatial Databases.
//!
//! A from-scratch Rust reproduction of *Corral, Manolopoulos, Theodoridis,
//! Vassilakopoulos: "Closest Pair Queries in Spatial Databases"*
//! (SIGMOD 2000): the EXH / SIM / STD / HEAP closest-pair algorithms over
//! R*-trees, the incremental distance join of Hjaltason & Samet they compare
//! against, and every substrate (paged storage, LRU buffering, the R*-tree
//! itself) needed to reproduce the paper's disk-access experiments.
//!
//! This facade crate re-exports the component crates under stable paths:
//!
//! * [`geo`] — points, MBRs, MINMINDIST / MINMAXDIST / MAXMAXDIST metrics;
//! * [`storage`] — page files, buffer pools, I/O accounting;
//! * [`rtree`] — the R*-tree access method;
//! * [`core`] — the closest-pair query algorithms (the paper's contribution);
//! * [`datasets`] — deterministic workload generators;
//! * [`service`] — the concurrent query-serving subsystem (worker pool,
//!   admission control, deadlines);
//! * [`shard`] — spatially sharded trees with scatter-gather K-CPQ and the
//!   shard-pair wire protocol;
//! * [`live`] — mutable trees: copy-on-write updates behind epoch-pinned
//!   snapshots, WAL crash recovery, continuous K-CPQ over streams;
//! * [`obs`] — observability: metrics registry, per-query work profiles,
//!   slow-query forensics, Prometheus exposition.
//!
//! See `examples/quickstart.rs` for a five-minute tour.

pub mod shell;

pub use cpq_core as core;
pub use cpq_datasets as datasets;
pub use cpq_geo as geo;
pub use cpq_live as live;
pub use cpq_obs as obs;
pub use cpq_rtree as rtree;
pub use cpq_service as service;
pub use cpq_shard as shard;
pub use cpq_storage as storage;
