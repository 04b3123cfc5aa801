//! # cpq-obs — observability primitives for the CPQ stack
//!
//! The paper's evaluation observes a single quantity (disk accesses) in
//! offline figure runs; a serving deployment needs to observe a *stream* of
//! queries live. This crate supplies the building blocks, all `std`-only and
//! dependency-free so every other crate in the workspace can use them:
//!
//! * **[`Registry`]** — a metrics registry of [`Counter`]s, [`Gauge`]s and
//!   log-bucketed [`Histogram`]s. Updates are lock-free atomic operations on
//!   pre-registered handles; a mutex is taken only at registration and
//!   render time. [`Registry::render_prometheus`] emits the Prometheus
//!   text exposition format (version 0.0.4).
//! * **[`Probe`]** — the per-query instrumentation trait the `cpq-core`
//!   engine threads through its entry points. [`NullProbe`] has empty
//!   inlined methods and `ENABLED = false`, so the uninstrumented hot path
//!   compiles to exactly the code it had before this crate existed;
//!   [`ProfileProbe`] accumulates a full [`QueryProfile`].
//! * **[`QueryProfile`]** — the structured work profile of one query:
//!   per-tree-level node accesses, buffer hits/misses, distance
//!   computations, pruned and processed node pairs, heap high-watermark,
//!   scatter and planner counters, and queue-wait / per-phase timings.
//!   Serializes to one JSON line for the slow-query log.
//! * **[`SlowQueryLog`]** — the most recent full profiles of queries over
//!   a latency threshold, drained as JSONL.
//! * **[`lint_exposition`]** — a small exposition-format linter used by the
//!   CI metrics smoke test to reject malformed `/metrics` output.

// A direct `std::sync` lock, condvar or modeled atomic would drop this
// crate out of the model checker; clippy.toml lists them.
#![cfg_attr(cpq_model, deny(clippy::disallowed_types))]

mod lint;
mod metrics;
mod probe;
mod profile;
mod slowlog;

pub use lint::{lint_exposition, LintError};
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, Registry};
pub use probe::{NullProbe, Probe, ProbeSide, ProfileProbe};
pub use profile::QueryProfile;
pub use slowlog::SlowQueryLog;
