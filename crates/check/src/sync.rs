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
//! [`lock()`], [`read()`], [`write()`], [`wait()`] and [`wait_timeout()`]
//! take every lock in the workspace's libraries, and carry two rules:
//!
//! * **poison**: a panic while holding a lock is a bug, so a later holder
//!   re-raises it rather than recovering the data;
//! * **lock order** (debug builds outside the model): each thread records
//!   the locks it holds, and every acquire adds a held -> acquired edge
//!   between lock *classes* (the `type_name` of the guarded value) to one
//!   process-wide graph. An edge that closes a cycle panics before the
//!   lock is taken, naming both classes, the caller's line and the line
//!   where the reverse order was first taken: two threads taking those
//!   locks in the two orders can deadlock, whether or not this run's
//!   schedule did. Taking a lock the thread already holds panics too; std's
//!   locks are not re-entrant.
//!
//! Both rules name the caller's line (`#[track_caller]`). The helpers return
//! a [`Guard`]; in release builds it is the bare std guard.

use std::ops::{Deref, DerefMut};

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

/// A held lock: the guard std (or the model) returns, wrapped so that debug
/// builds can check the order locks are taken in (the `order` module).
/// Derefs to the guarded value; dropping it releases the lock.
pub struct Guard<G> {
    inner: G,
    held: order::Held,
}

impl<G: Deref> Deref for Guard<G> {
    type Target = G::Target;

    #[inline(always)]
    fn deref(&self) -> &G::Target {
        &self.inner
    }
}

impl<G: DerefMut> DerefMut for Guard<G> {
    #[inline(always)]
    fn deref_mut(&mut self) -> &mut G::Target {
        &mut self.inner
    }
}

/// The lock-order check runs in debug builds (which tier 1 tests) and
/// nowhere else: release builds, and so the benchmark, get this zero-sized
/// stand-in, and the model checker explores lock orders itself.
#[cfg(not(all(debug_assertions, not(cpq_model))))]
mod order {
    pub struct Held;

    impl Held {
        #[inline(always)]
        pub fn acquire(_addr: usize, _class: &'static str) -> Held {
            Held
        }

        #[inline(always)]
        pub fn retake(self) -> Held {
            self
        }
    }
}

#[cfg(all(debug_assertions, not(cpq_model)))]
mod order;

pub use poison::{lock, read, wait, wait_timeout, write};

#[expect(
    clippy::expect_used,
    reason = "a poisoned lock means a peer thread panicked while holding it; \
              re-raising that panic is the workspace's one poison rule"
)]
mod poison {
    use super::order::Held;
    use super::{Condvar, Guard, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};
    use std::any::type_name;
    use std::ptr;
    use std::time::Duration;

    // Each helper checks the order before it blocks on the lock: a struct
    // expression evaluates its fields in the order they are written.

    /// Locks `m`, re-raising the panic of a thread that poisoned it. The
    /// panic names the caller's line.
    #[track_caller]
    pub fn lock<T: ?Sized>(m: &Mutex<T>) -> Guard<MutexGuard<'_, T>> {
        Guard {
            held: Held::acquire(ptr::from_ref(m).addr(), type_name::<T>()),
            inner: m.lock().expect("mutex poisoned by a panicking holder"),
        }
    }

    /// Takes `l` shared, re-raising the panic of a thread that poisoned it.
    #[track_caller]
    pub fn read<T: ?Sized>(l: &RwLock<T>) -> Guard<RwLockReadGuard<'_, T>> {
        Guard {
            held: Held::acquire(ptr::from_ref(l).addr(), type_name::<T>()),
            inner: l.read().expect("rwlock poisoned by a panicking writer"),
        }
    }

    /// Takes `l` exclusive, re-raising the panic of a thread that poisoned it.
    #[track_caller]
    pub fn write<T: ?Sized>(l: &RwLock<T>) -> Guard<RwLockWriteGuard<'_, T>> {
        Guard {
            held: Held::acquire(ptr::from_ref(l).addr(), type_name::<T>()),
            inner: l.write().expect("rwlock poisoned by a panicking writer"),
        }
    }

    /// Waits on `cv`, re-raising the panic of a thread that poisoned the
    /// guard's mutex meanwhile. The wait re-takes the mutex, so it is
    /// checked again against the locks the caller holds.
    #[track_caller]
    pub fn wait<'a, T>(cv: &Condvar, guard: Guard<MutexGuard<'a, T>>) -> Guard<MutexGuard<'a, T>> {
        let Guard { inner, held } = guard;
        Guard {
            held: held.retake(),
            inner: cv
                .wait(inner)
                .expect("mutex poisoned by a panicking holder"),
        }
    }

    /// [`wait`], for at most `dur`. Whether it timed out is not returned:
    /// no caller needs it.
    #[track_caller]
    pub fn wait_timeout<'a, T>(
        cv: &Condvar,
        guard: Guard<MutexGuard<'a, T>>,
        dur: Duration,
    ) -> Guard<MutexGuard<'a, T>> {
        let Guard { inner, held } = guard;
        Guard {
            held: held.retake(),
            inner: cv
                .wait_timeout(inner, dur)
                .expect("mutex poisoned by a panicking holder")
                .0,
        }
    }
}
