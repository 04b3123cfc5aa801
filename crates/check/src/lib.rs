//! # cpq-check — an in-repo concurrency model checker and lint pass
//!
//! Every correctness claim this workspace makes about its concurrent
//! subsystems — the service admission queue, the buffer-pool disk-access
//! ledger, the scatter dispatch queue, the live trees' epoch and WAL
//! protocols, and the parallel K-CPQ descent's shared bound — used to rest on stress tests that sample whatever
//! schedules the OS happens to produce. The paper's cost metric is *exact*
//! disk-access counts, so a single lost update silently falsifies every
//! figure. This crate lets the workspace **prove** those invariants under
//! adversarial interleavings instead of hoping for them, without any
//! registry dependency (loom/shuttle are unavailable offline).
//!
//! ## The shim
//!
//! [`sync`] and [`thread`] mirror the `std::sync` / `std::thread` surface
//! the workspace uses. In a normal build they are *pure re-exports of std*
//! — zero cost, zero behavior change, proven by the existing parity and
//! divergence gates. Under `RUSTFLAGS="--cfg cpq_model"` the same paths
//! resolve to modeled types that route every acquire/release/load/store/CAS
//! through a cooperative scheduler, so a test harness can explore *chosen*
//! thread interleavings deterministically:
//!
//! * **Bounded DFS** ([`model`], [`model_dfs`]) — exhaustively enumerates
//!   schedules (optionally preemption-bounded, CHESS-style) for small
//!   models; completing the search is a proof over the explored bound.
//! * **PCT-style randomized schedules** ([`model_pct`]) — seeded
//!   priority-based schedules for models too big to enumerate; any failing
//!   seed replays bit-identically, and is pinned as a regression test.
//! * **Deadlock detection** — a step where no thread is schedulable but
//!   some are still alive fails the model with every thread's blocked
//!   state and the schedule that led there.
//! * **Double-panic detection** — the first assertion failure is captured
//!   with its schedule; any further non-teardown panic is appended to the
//!   report rather than aborting the process.
//!
//! The model is an *interleaving-level* checker: it explores every ordering
//! of shim operations but does not model weak-memory reordering below that
//! granularity (every modeled atomic op is sequentially consistent at its
//! schedule point). Protocol bugs — lost updates, lost wakeups, torn
//! publishes, double executions, deadlocks — live at exactly this
//! granularity; `Ordering` *strength* arguments are enforced socially by
//! the `cpq_analyze` rule that every `Ordering::` use carries a written
//! justification, and semantically by its `atomics-pairing` pass.
//!
//! ## Ground rules for model closures
//!
//! * Create all shared state *inside* the closure — each schedule runs it
//!   afresh, and modeled lock/queue state resets per run.
//! * Share mutable state across model threads only through shim types (or
//!   plain `std` primitives used purely for result collection — they add
//!   no schedule points but are safe).
//! * Keep closures deterministic: no wall-clock reads, no ambient RNG, no
//!   iteration-order-dependent asserts.
//! * Do not call `std::thread::scope`/`spawn` *inside* a model — unmanaged
//!   threads bypass the scheduler. Use [`thread::spawn`] from the shim.
//!
//! ## Static analysis
//!
//! The workspace's static invariants — ordering-justification comments,
//! `#![forbid(unsafe_code)]` everywhere, no `unwrap()`/`expect()`/
//! `thread::sleep` in non-test library code outside the waived
//! allowances, and no direct `std::sync` imports in the shim-migrated
//! crates — are enforced in CI by the `cpq-analyze` crate's pass
//! registry (which superseded the line-level `cpq_lint` scanner that
//! used to live in this crate). See `DESIGN.md` §12 and §17.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod sync;
pub mod thread;

#[cfg(cpq_model)]
mod model;

#[cfg(cpq_model)]
pub use model::{
    model, model_dfs, model_pct, replay, try_model_dfs, try_model_pct, try_replay, DfsOptions,
    ModelFailure, ModelReport, PctOptions,
};
