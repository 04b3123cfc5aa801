//! The `std::sync` shim surface.
//!
//! Normal builds re-export `std::sync` unchanged — importing from
//! `cpq_check::sync` instead of `std::sync` is a zero-cost, zero-behavior
//! text substitution. Under `--cfg cpq_model` the lock, condvar, and atomic
//! types are replaced by modeled equivalents that yield to the cooperative
//! scheduler at every visible operation; types with no scheduling relevance
//! (`Arc`, `mpsc`, …) stay std in both modes. The migrated crates deny
//! `clippy::disallowed_types` under `--cfg cpq_model`, and the workspace
//! `clippy.toml` lists exactly the types the model arm below replaces, so a
//! direct `std::sync` import of one of them fails the model-cfg clippy gate.
//!
//! [`lock()`], [`read()`], [`write()`] and [`wait()`] are the workspace's one
//! poison rule: a panic while holding a lock is a bug, so a later holder
//! re-raises it rather than recovering the data.

#[cfg(not(cpq_model))]
pub use std::sync::{
    mpsc, Arc, Barrier, Condvar, LockResult, Mutex, MutexGuard, Once, OnceLock, PoisonError,
    RwLock, RwLockReadGuard, RwLockWriteGuard, TryLockError, TryLockResult, WaitTimeoutResult,
    Weak,
};

/// Atomic types and memory orderings (std's, re-exported).
#[cfg(not(cpq_model))]
pub mod atomic {
    pub use std::sync::atomic::*;
}

#[cfg(cpq_model)]
pub use crate::model::shim::{
    Condvar, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard, WaitTimeoutResult,
};

#[cfg(cpq_model)]
pub use std::sync::{
    mpsc, Arc, Barrier, LockResult, Once, OnceLock, PoisonError, TryLockError, TryLockResult, Weak,
};

/// Atomic types: modeled integers/bools plus std's `Ordering`.
///
/// The modeled types accept and record the requested `Ordering` but execute
/// sequentially consistently at their schedule point — the model explores
/// interleavings of operations, not hardware-level reorderings below them.
#[cfg(cpq_model)]
pub mod atomic {
    pub use crate::model::shim::{AtomicBool, AtomicU64, AtomicUsize};
    pub use std::sync::atomic::{
        AtomicI16, AtomicI32, AtomicI64, AtomicI8, AtomicIsize, AtomicU16, AtomicU32, AtomicU8,
        Ordering,
    };
}

pub use poison::{lock, read, wait, write};

#[expect(
    clippy::expect_used,
    reason = "a poisoned lock means a peer thread panicked while holding it; \
              re-raising that panic is the workspace's one poison rule"
)]
mod poison {
    use super::{Condvar, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

    /// Locks `m`, re-raising the panic of a thread that poisoned it. The
    /// panic names the caller's line.
    #[track_caller]
    pub fn lock<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
        m.lock().expect("mutex poisoned by a panicking holder")
    }

    /// Takes `l` shared, re-raising the panic of a thread that poisoned it.
    #[track_caller]
    pub fn read<T: ?Sized>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
        l.read().expect("rwlock poisoned by a panicking writer")
    }

    /// Takes `l` exclusive, re-raising the panic of a thread that poisoned it.
    #[track_caller]
    pub fn write<T: ?Sized>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
        l.write().expect("rwlock poisoned by a panicking writer")
    }

    /// Waits on `cv`, re-raising the panic of a thread that poisoned the
    /// guard's mutex meanwhile.
    #[track_caller]
    pub fn wait<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        cv.wait(guard)
            .expect("mutex poisoned by a panicking holder")
    }
}
