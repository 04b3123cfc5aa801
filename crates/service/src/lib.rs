//! # cpq-service — a concurrent closest-pair query-serving subsystem
//!
//! The engine crates answer *one* query at a time; this crate turns them
//! into a long-lived, embeddable service that answers a *stream* of
//! queries on a fixed pool of worker threads over shared read-only
//! R*-trees and buffer pools:
//!
//! ```text
//!  clients                 CpqService
//!  ───────      ┌────────────────────────────────┐
//!  submit ──────►  AdmissionQueue (bounded MPMC) │
//!    │ full     │     │        │        │        │
//!    ▼          │  worker-0 worker-1 … worker-N  │
//!  Rejected     │     └───┬────┴────┬───┘        │
//!               │   RTree P,Q  (read-only,       │
//!               │   shared BufferPools)          │
//!               └─────────┬──────────────────────┘
//!                         ▼
//!                  QueryTicket.wait() → QueryResponse
//! ```
//!
//! Per-request `K`, algorithm, join kind, and deadline; shed-on-full
//! admission control; cooperative deadline cancellation at node-visit
//! granularity with partial results; latency and queue wait on every
//! response; and a lock-free ledger of queries by outcome, and of sheds.
//! Everything is `std`-only.
//!
//! ## Quick start
//!
//! ```
//! use cpq_service::{CpqService, QueryRequest, QueryStatus, ServiceConfig, TreePair};
//! use cpq_core::Algorithm;
//! use cpq_rtree::{RTree, RTreeParams};
//! use cpq_storage::{BufferPool, MemPageFile};
//! use cpq_geo::Point;
//!
//! let build = || {
//!     let pool = BufferPool::with_lru(Box::new(MemPageFile::new(1024)), 32);
//!     RTree::<2>::new(pool, RTreeParams::paper()).unwrap()
//! };
//! let (mut p, mut q) = (build(), build());
//! for i in 0..100u64 {
//!     let x = i as f64;
//!     p.insert(Point([x, 0.0]), i).unwrap();
//!     q.insert(Point([x, 3.0]), i).unwrap();
//! }
//!
//! let service = CpqService::start(
//!     TreePair::new(p, q),
//!     ServiceConfig { workers: 2, ..ServiceConfig::default() },
//! );
//! let resp = service
//!     .execute(QueryRequest::cross(5, Algorithm::Heap))
//!     .unwrap();
//! assert_eq!(resp.status, QueryStatus::Completed);
//! assert_eq!(resp.pairs.len(), 5);
//! let stats = service.shutdown();
//! assert_eq!(stats.completed, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod http;
mod obs;
mod planner;
mod queue;
mod request;
mod service;
mod stats;

pub use http::MetricsServer;
pub use obs::{ObsConfig, ServiceObs};
pub use planner::{plan, PlannerInputs, QueryPlan};
pub use queue::AdmissionQueue;
pub use request::{QueryKind, QueryRequest, QueryResponse, QueryStatus, Rejected};
pub use service::{CpqService, QueryTicket, ServiceConfig, Source, TreePair};
pub use stats::StatsSummary;

// Re-exported so embedders can drive cancellation themselves, and build
// the windowed/colored constraints requests carry (and read a request back
// as the spec the executors take), without depending on cpq-core directly.
pub use cpq_core::{CancelToken, Constraint, QuerySpec};
// Re-exported so embedders can consume slow-query profiles without
// depending on cpq-obs directly.
pub use cpq_obs::QueryProfile;
// Re-exported so embedders can build the sharded replicas a
// `Source::Sharded` service routes scatter requests to without
// depending on cpq-shard directly.
pub use cpq_shard::{ShardConfig, ShardReport, ShardedPair, ShardedTree};
// Re-exported so embedders can build, mutate, and recover the live set a
// `Source::Live` service serves — and drive continuous K-CPQ
// watches — without depending on cpq-live directly.
pub use cpq_live::{
    ApplyReport, LiveConfig, LiveError, LiveResult, LiveSet, LiveStats, LiveTree, Side, UpdateOp,
};

// Compile-time thread-safety contract of the subsystem. Service handles
// are shared across client threads and worker threads; if a refactor ever
// introduces an un-Sync field (an `Rc`, a bare `Cell`, …) these stop
// compiling rather than letting the API silently lose its guarantee.
#[cfg(test)]
mod thread_safety {
    use super::*;

    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn service_types_are_send_sync() {
        assert_send_sync::<CpqService<2>>();
        assert_send_sync::<TreePair<2>>();
        assert_send_sync::<AdmissionQueue<QueryRequest>>();
        assert_send_sync::<QueryRequest>();
        assert_send_sync::<QueryResponse<2>>();
        assert_send_sync::<StatsSummary>();
        assert_send_sync::<CancelToken>();
        // Tickets move to whichever thread awaits them (Send), but a
        // single ticket is owned by one waiter, so Sync is not required
        // (mpsc::Receiver is !Sync by design).
        fn assert_send<T: Send>() {}
        assert_send::<QueryTicket<2>>();
    }
}
