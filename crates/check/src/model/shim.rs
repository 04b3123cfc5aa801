//! Modeled replacements for the `std::sync` / `std::thread` types the
//! workspace uses, active under `--cfg cpq_model`.
//!
//! Every type wraps its std counterpart (the *inner* primitive still
//! provides real mutual exclusion and atomicity) plus a model object id.
//! When the calling thread belongs to a model execution, each visible
//! operation first goes through the scheduler — acquiring a contended lock
//! parks the model thread, a condvar wait parks it until a modeled notify,
//! an atomic access is a schedule point executed sequentially consistently
//! under the scheduler's gate. When no execution is ambient (ordinary test
//! code, or a thread unwinding from a panic), every operation falls back
//! to plain std behavior.
//!
//! This file *implements* the modeled atomics: callers' orderings are
//! accepted and deliberately executed SeqCst under the scheduler gate (the
//! model explores interleavings, not hardware reorderings), so per-site
//! ordering justifications are meaningless here; `cpq-analyze` skips this
//! crate.
//!
//! Mixing model and non-model threads on the *same* lock or condvar is
//! not supported: a modeled notify does not reach a std waiter. Model
//! closures follow the ground rules in the crate docs, so this never
//! arises in practice.

use std::fmt;
use std::sync::atomic::Ordering;
use std::sync::{
    Arc, Condvar as StdCondvar, LockResult, Mutex as StdMutex, MutexGuard as StdMutexGuard,
    RwLock as StdRwLock, RwLockReadGuard as StdRwLockReadGuard,
    RwLockWriteGuard as StdRwLockWriteGuard, TryLockError, TryLockResult,
};
use std::time::Duration;

use super::exec::{
    adopt_os_handle, current, next_object_id, spawn_model_thread, Ctx, Exec, Op, Run,
};

/// The ambient model context, or `None` when the operation should fall
/// back to std: the thread is not a model thread, or it is unwinding from
/// a panic (parking during unwind would self-deadlock; guard bookkeeping
/// on that path goes through `Exec::direct` instead).
fn model_ctx() -> Option<Ctx> {
    if std::thread::panicking() {
        return None;
    }
    current()
}

fn relock<T: ?Sized>(m: &StdMutex<T>) -> StdMutexGuard<'_, T> {
    // Poison on the inner std primitive is not an error channel here: the
    // model reports panics through the scheduler, and fallback mode keeps
    // std behavior close enough for tests.
    m.lock().unwrap_or_else(|p| p.into_inner())
}

// ---------------------------------------------------------------------------
// Mutex
// ---------------------------------------------------------------------------

/// Modeled `std::sync::Mutex`: contended acquisition parks the model
/// thread; acquisition and release are schedule points.
pub struct Mutex<T: ?Sized> {
    id: u64,
    inner: StdMutex<T>,
}

impl<T> Mutex<T> {
    /// Create a new modeled mutex.
    pub fn new(value: T) -> Mutex<T> {
        Mutex {
            id: next_object_id(),
            inner: StdMutex::new(value),
        }
    }

    /// Consume the mutex, returning the inner value.
    pub fn into_inner(self) -> LockResult<T> {
        self.inner.into_inner()
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquire the lock (a schedule point; parks while contended).
    /// Never returns `Err`: the model reports poisoning through the
    /// scheduler, and fallback mode recovers the inner value.
    pub fn lock(&self) -> LockResult<MutexGuard<'_, T>> {
        let ctx = model_ctx();
        if let Some(ctx) = &ctx {
            let id = self.id;
            ctx.exec.op(ctx.tid, move |st, tid| st.mutex_lock(id, tid));
        }
        Ok(MutexGuard {
            lock: self,
            inner: Some(relock(&self.inner)),
            ctx,
        })
    }

    /// Attempt the lock without parking (still a schedule point).
    pub fn try_lock(&self) -> TryLockResult<MutexGuard<'_, T>> {
        let ctx = model_ctx();
        if let Some(ctx) = &ctx {
            let id = self.id;
            let acquired = ctx
                .exec
                .op(ctx.tid, move |st, tid| st.mutex_try_lock(id, tid));
            if !acquired {
                return Err(TryLockError::WouldBlock);
            }
            return Ok(MutexGuard {
                lock: self,
                inner: Some(relock(&self.inner)),
                ctx: Some(ctx.clone()),
            });
        }
        match self.inner.try_lock() {
            Ok(g) => Ok(MutexGuard {
                lock: self,
                inner: Some(g),
                ctx: None,
            }),
            Err(TryLockError::WouldBlock) => Err(TryLockError::WouldBlock),
            Err(TryLockError::Poisoned(p)) => Ok(MutexGuard {
                lock: self,
                inner: Some(p.into_inner()),
                ctx: None,
            }),
        }
    }

    /// Mutable access without locking (exclusivity via `&mut`).
    pub fn get_mut(&mut self) -> LockResult<&mut T> {
        self.inner.get_mut()
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.inner.try_lock() {
            Ok(v) => f.debug_struct("Mutex").field("data", &&*v).finish(),
            Err(_) => f.debug_struct("Mutex").field("data", &"<locked>").finish(),
        }
    }
}

/// Guard for [`Mutex`]; release is a schedule point.
pub struct MutexGuard<'a, T: ?Sized> {
    lock: &'a Mutex<T>,
    inner: Option<StdMutexGuard<'a, T>>,
    /// `Some` when acquisition went through the scheduler, so release must
    /// update the model state too.
    ctx: Option<Ctx>,
}

impl<'a, T: ?Sized> MutexGuard<'a, T> {
    /// Release the real lock and detach from the model *without* a modeled
    /// unlock — used by condvar waits, whose "release" is part of the
    /// atomic wait-begin transition.
    fn dismantle(mut self) -> &'a Mutex<T> {
        self.inner = None;
        self.ctx = None;
        self.lock
    }

    /// Move the inner std guard out for a fallback condvar wait.
    fn take_inner(mut self) -> StdMutexGuard<'a, T> {
        self.ctx = None;
        self.inner.take().expect("guard still holds the inner lock")
    }
}

impl<T: ?Sized> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner
            .as_ref()
            .expect("guard still holds the inner lock")
    }
}

impl<T: ?Sized> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner
            .as_mut()
            .expect("guard still holds the inner lock")
    }
}

impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        // Release the real lock first; the gate keeps other model threads
        // parked until our next schedule point, so no one observes the
        // window between the real and the modeled release.
        self.inner = None;
        if let Some(ctx) = self.ctx.take() {
            let id = self.lock.id;
            if std::thread::panicking() {
                ctx.exec.direct(|st| st.mutex_unlock(id));
            } else {
                ctx.exec.op(ctx.tid, move |st, _| {
                    st.mutex_unlock(id);
                    Op::Done(())
                });
            }
        }
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for MutexGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

// ---------------------------------------------------------------------------
// Condvar
// ---------------------------------------------------------------------------

/// Result of a modeled `wait_timeout`; mirrors the std API surface.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitTimeoutResult(bool);

impl WaitTimeoutResult {
    /// `true` when the wait ended by timing out rather than by a notify.
    pub fn timed_out(&self) -> bool {
        self.0
    }
}

/// Modeled `std::sync::Condvar` with the exact std wait/notify contract:
/// the mutex release and wait registration are one atomic transition, and
/// a notify wakes only threads already parked.
///
/// `wait_timeout` waiters are always *eligible* to wake spuriously — a
/// real timeout can fire under any schedule — which both keeps periodic
/// wakeup loops live and lets the checker explore timeout paths.
pub struct Condvar {
    id: u64,
    inner: StdCondvar,
}

impl Condvar {
    /// Create a new modeled condvar.
    pub fn new() -> Condvar {
        Condvar {
            id: next_object_id(),
            inner: StdCondvar::new(),
        }
    }

    /// Park until notified, releasing (and then reacquiring) the mutex.
    pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> LockResult<MutexGuard<'a, T>> {
        match guard.ctx.clone() {
            Some(ctx) => {
                let mutex = guard.dismantle();
                let cv_id = self.id;
                let mutex_id = mutex.id;
                let mut registered = false;
                ctx.exec.op(ctx.tid, move |st, tid| {
                    if !registered {
                        registered = true;
                        return st.cond_wait_begin(cv_id, mutex_id, tid, false);
                    }
                    st.cond_wait_finish(cv_id, tid);
                    Op::Done(())
                });
                mutex.lock()
            }
            None => {
                let lock = guard.lock;
                let std_guard = guard.take_inner();
                let woken = self
                    .inner
                    .wait(std_guard)
                    .unwrap_or_else(|p| p.into_inner());
                Ok(MutexGuard {
                    lock,
                    inner: Some(woken),
                    ctx: None,
                })
            }
        }
    }

    /// Park until notified or (nondeterministically, under the model) a
    /// timeout; the boolean in the result reports which.
    pub fn wait_timeout<'a, T>(
        &self,
        guard: MutexGuard<'a, T>,
        dur: Duration,
    ) -> LockResult<(MutexGuard<'a, T>, WaitTimeoutResult)> {
        match guard.ctx.clone() {
            Some(ctx) => {
                let mutex = guard.dismantle();
                let cv_id = self.id;
                let mutex_id = mutex.id;
                let mut registered = false;
                let timed_out = ctx.exec.op(ctx.tid, move |st, tid| {
                    if !registered {
                        registered = true;
                        return match st.cond_wait_begin(cv_id, mutex_id, tid, true) {
                            Op::Block(run) => Op::Block(run),
                            Op::Done(()) => Op::Done(false),
                        };
                    }
                    Op::Done(st.cond_wait_finish(cv_id, tid))
                });
                let reacquired = match mutex.lock() {
                    Ok(g) => g,
                    Err(p) => p.into_inner(),
                };
                Ok((reacquired, WaitTimeoutResult(timed_out)))
            }
            None => {
                let lock = guard.lock;
                let std_guard = guard.take_inner();
                let (woken, res) = self
                    .inner
                    .wait_timeout(std_guard, dur)
                    .unwrap_or_else(|p| p.into_inner());
                Ok((
                    MutexGuard {
                        lock,
                        inner: Some(woken),
                        ctx: None,
                    },
                    WaitTimeoutResult(res.timed_out()),
                ))
            }
        }
    }

    /// Wake one parked waiter (a schedule point under the model).
    pub fn notify_one(&self) {
        match model_ctx() {
            Some(ctx) => {
                let id = self.id;
                ctx.exec.op(ctx.tid, move |st, _| {
                    st.cond_notify(id, false);
                    Op::Done(())
                });
            }
            None => self.inner.notify_one(),
        }
    }

    /// Wake every parked waiter (a schedule point under the model).
    pub fn notify_all(&self) {
        match model_ctx() {
            Some(ctx) => {
                let id = self.id;
                ctx.exec.op(ctx.tid, move |st, _| {
                    st.cond_notify(id, true);
                    Op::Done(())
                });
            }
            None => self.inner.notify_all(),
        }
    }
}

impl Default for Condvar {
    fn default() -> Self {
        Condvar::new()
    }
}

impl fmt::Debug for Condvar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Condvar").finish_non_exhaustive()
    }
}

// ---------------------------------------------------------------------------
// RwLock
// ---------------------------------------------------------------------------

/// Modeled `std::sync::RwLock`: readers share, a writer excludes; both
/// directions park while contended and every transition is a schedule
/// point. Writer preference is not modeled — any eligible waiter may be
/// scheduled, which is a superset of real acquisition orders.
pub struct RwLock<T: ?Sized> {
    id: u64,
    inner: StdRwLock<T>,
}

impl<T> RwLock<T> {
    /// Create a new modeled rwlock.
    pub fn new(value: T) -> RwLock<T> {
        RwLock {
            id: next_object_id(),
            inner: StdRwLock::new(value),
        }
    }

    /// Consume the lock, returning the inner value.
    pub fn into_inner(self) -> LockResult<T> {
        self.inner.into_inner()
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquire a shared read lock (a schedule point; parks while a writer
    /// holds the lock). Never returns `Err` (see [`Mutex::lock`]).
    pub fn read(&self) -> LockResult<RwLockReadGuard<'_, T>> {
        let ctx = model_ctx();
        if let Some(ctx) = &ctx {
            let id = self.id;
            ctx.exec
                .op(ctx.tid, move |st, tid| st.rw_read_lock(id, tid));
        }
        Ok(RwLockReadGuard {
            lock: self,
            inner: Some(self.inner.read().unwrap_or_else(|p| p.into_inner())),
            ctx,
        })
    }

    /// Acquire the exclusive write lock (a schedule point; parks while
    /// readers or a writer hold the lock).
    pub fn write(&self) -> LockResult<RwLockWriteGuard<'_, T>> {
        let ctx = model_ctx();
        if let Some(ctx) = &ctx {
            let id = self.id;
            ctx.exec
                .op(ctx.tid, move |st, tid| st.rw_write_lock(id, tid));
        }
        Ok(RwLockWriteGuard {
            lock: self,
            inner: Some(self.inner.write().unwrap_or_else(|p| p.into_inner())),
            ctx,
        })
    }

    /// Mutable access without locking (exclusivity via `&mut`).
    pub fn get_mut(&mut self) -> LockResult<&mut T> {
        self.inner.get_mut()
    }
}

impl<T: Default> Default for RwLock<T> {
    fn default() -> Self {
        RwLock::new(T::default())
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.inner.try_read() {
            Ok(v) => f.debug_struct("RwLock").field("data", &&*v).finish(),
            Err(_) => f.debug_struct("RwLock").field("data", &"<locked>").finish(),
        }
    }
}

/// Shared-read guard for [`RwLock`]; release is a schedule point.
pub struct RwLockReadGuard<'a, T: ?Sized> {
    lock: &'a RwLock<T>,
    inner: Option<StdRwLockReadGuard<'a, T>>,
    ctx: Option<Ctx>,
}

impl<T: ?Sized> std::ops::Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner
            .as_ref()
            .expect("guard still holds the inner lock")
    }
}

impl<T: ?Sized> Drop for RwLockReadGuard<'_, T> {
    fn drop(&mut self) {
        self.inner = None;
        if let Some(ctx) = self.ctx.take() {
            let id = self.lock.id;
            if std::thread::panicking() {
                ctx.exec.direct(|st| st.rw_read_unlock(id));
            } else {
                ctx.exec.op(ctx.tid, move |st, _| {
                    st.rw_read_unlock(id);
                    Op::Done(())
                });
            }
        }
    }
}

/// Exclusive-write guard for [`RwLock`]; release is a schedule point.
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    lock: &'a RwLock<T>,
    inner: Option<StdRwLockWriteGuard<'a, T>>,
    ctx: Option<Ctx>,
}

impl<T: ?Sized> std::ops::Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner
            .as_ref()
            .expect("guard still holds the inner lock")
    }
}

impl<T: ?Sized> std::ops::DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner
            .as_mut()
            .expect("guard still holds the inner lock")
    }
}

impl<T: ?Sized> Drop for RwLockWriteGuard<'_, T> {
    fn drop(&mut self) {
        self.inner = None;
        if let Some(ctx) = self.ctx.take() {
            let id = self.lock.id;
            if std::thread::panicking() {
                ctx.exec.direct(|st| st.rw_write_unlock(id));
            } else {
                ctx.exec.op(ctx.tid, move |st, _| {
                    st.rw_write_unlock(id);
                    Op::Done(())
                });
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Atomics
// ---------------------------------------------------------------------------

/// Run one atomic operation as a schedule point. The inner std atomic is
/// mutated while the calling thread holds the scheduler gate, so modeled
/// atomics are sequentially consistent at interleaving granularity
/// regardless of the `Ordering` the caller names (the checker explores
/// orderings *of operations*, not hardware reorderings below them).
fn atomic_op<R>(f: impl Fn() -> R) -> R {
    match model_ctx() {
        Some(ctx) => ctx.exec.op(ctx.tid, move |_, _| Op::Done(f())),
        None => f(),
    }
}

macro_rules! modeled_int_atomic {
    ($name:ident, $std:path, $prim:ty) => {
        /// Modeled integer atomic: every operation is a schedule point,
        /// executed sequentially consistently under the scheduler's gate.
        pub struct $name {
            inner: $std,
        }

        impl $name {
            /// Create a new modeled atomic.
            pub fn new(value: $prim) -> Self {
                Self {
                    inner: <$std>::new(value),
                }
            }

            /// Load the value (a schedule point).
            pub fn load(&self, _order: Ordering) -> $prim {
                atomic_op(|| self.inner.load(Ordering::SeqCst))
            }

            /// Store a value (a schedule point).
            pub fn store(&self, value: $prim, _order: Ordering) {
                atomic_op(|| self.inner.store(value, Ordering::SeqCst))
            }

            /// Swap in a value, returning the previous one.
            pub fn swap(&self, value: $prim, _order: Ordering) -> $prim {
                atomic_op(|| self.inner.swap(value, Ordering::SeqCst))
            }

            /// Add, returning the previous value.
            pub fn fetch_add(&self, value: $prim, _order: Ordering) -> $prim {
                atomic_op(|| self.inner.fetch_add(value, Ordering::SeqCst))
            }

            /// Subtract, returning the previous value.
            pub fn fetch_sub(&self, value: $prim, _order: Ordering) -> $prim {
                atomic_op(|| self.inner.fetch_sub(value, Ordering::SeqCst))
            }

            /// Maximum, returning the previous value.
            pub fn fetch_max(&self, value: $prim, _order: Ordering) -> $prim {
                atomic_op(|| self.inner.fetch_max(value, Ordering::SeqCst))
            }

            /// Minimum, returning the previous value.
            pub fn fetch_min(&self, value: $prim, _order: Ordering) -> $prim {
                atomic_op(|| self.inner.fetch_min(value, Ordering::SeqCst))
            }

            /// Compare-and-exchange; one schedule point covering the whole
            /// read-modify-write.
            pub fn compare_exchange(
                &self,
                current: $prim,
                new: $prim,
                _success: Ordering,
                _failure: Ordering,
            ) -> Result<$prim, $prim> {
                atomic_op(|| {
                    self.inner
                        .compare_exchange(current, new, Ordering::SeqCst, Ordering::SeqCst)
                })
            }

            /// Weak compare-and-exchange. The model gives it strong
            /// semantics (no spurious failure): spurious failures only add
            /// retry iterations, never new outcomes, and modeling them
            /// would make every CAS loop an unbounded schedule.
            pub fn compare_exchange_weak(
                &self,
                current: $prim,
                new: $prim,
                success: Ordering,
                failure: Ordering,
            ) -> Result<$prim, $prim> {
                self.compare_exchange(current, new, success, failure)
            }

            /// Mutable access without synchronization (exclusivity via
            /// `&mut`).
            pub fn get_mut(&mut self) -> &mut $prim {
                self.inner.get_mut()
            }

            /// Consume the atomic, returning the value.
            pub fn into_inner(self) -> $prim {
                self.inner.into_inner()
            }
        }

        impl Default for $name {
            fn default() -> Self {
                Self::new(<$prim>::default())
            }
        }

        impl From<$prim> for $name {
            fn from(value: $prim) -> Self {
                Self::new(value)
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                fmt::Debug::fmt(&self.inner.load(Ordering::SeqCst), f)
            }
        }
    };
}

modeled_int_atomic!(AtomicU64, std::sync::atomic::AtomicU64, u64);
modeled_int_atomic!(AtomicUsize, std::sync::atomic::AtomicUsize, usize);

/// Modeled `AtomicBool`: every operation is a schedule point, executed
/// sequentially consistently under the scheduler's gate.
pub struct AtomicBool {
    inner: std::sync::atomic::AtomicBool,
}

impl AtomicBool {
    /// Create a new modeled atomic.
    pub fn new(value: bool) -> Self {
        Self {
            inner: std::sync::atomic::AtomicBool::new(value),
        }
    }

    /// Load the value (a schedule point).
    pub fn load(&self, _order: Ordering) -> bool {
        atomic_op(|| self.inner.load(Ordering::SeqCst))
    }

    /// Store a value (a schedule point).
    pub fn store(&self, value: bool, _order: Ordering) {
        atomic_op(|| self.inner.store(value, Ordering::SeqCst))
    }

    /// Swap in a value, returning the previous one.
    pub fn swap(&self, value: bool, _order: Ordering) -> bool {
        atomic_op(|| self.inner.swap(value, Ordering::SeqCst))
    }

    /// Compare-and-exchange; one schedule point covering the whole
    /// read-modify-write.
    pub fn compare_exchange(
        &self,
        current: bool,
        new: bool,
        _success: Ordering,
        _failure: Ordering,
    ) -> Result<bool, bool> {
        atomic_op(|| {
            self.inner
                .compare_exchange(current, new, Ordering::SeqCst, Ordering::SeqCst)
        })
    }

    /// Weak compare-and-exchange with strong semantics (see the integer
    /// atomics for why).
    pub fn compare_exchange_weak(
        &self,
        current: bool,
        new: bool,
        success: Ordering,
        failure: Ordering,
    ) -> Result<bool, bool> {
        self.compare_exchange(current, new, success, failure)
    }

    /// Logical-or, returning the previous value.
    pub fn fetch_or(&self, value: bool, _order: Ordering) -> bool {
        atomic_op(|| self.inner.fetch_or(value, Ordering::SeqCst))
    }

    /// Logical-and, returning the previous value.
    pub fn fetch_and(&self, value: bool, _order: Ordering) -> bool {
        atomic_op(|| self.inner.fetch_and(value, Ordering::SeqCst))
    }

    /// Mutable access without synchronization (exclusivity via `&mut`).
    pub fn get_mut(&mut self) -> &mut bool {
        self.inner.get_mut()
    }

    /// Consume the atomic, returning the value.
    pub fn into_inner(self) -> bool {
        self.inner.into_inner()
    }
}

impl Default for AtomicBool {
    fn default() -> Self {
        Self::new(false)
    }
}

impl From<bool> for AtomicBool {
    fn from(value: bool) -> Self {
        Self::new(value)
    }
}

impl fmt::Debug for AtomicBool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self.inner.load(Ordering::SeqCst), f)
    }
}

// ---------------------------------------------------------------------------
// Threads
// ---------------------------------------------------------------------------

enum HandleInner<T> {
    Std(std::thread::JoinHandle<T>),
    Model {
        exec: Arc<Exec>,
        tid: usize,
        result: Arc<StdMutex<Option<T>>>,
    },
}

/// Modeled `std::thread::JoinHandle`: joining a model thread is a modeled
/// blocking operation.
pub struct JoinHandle<T>(HandleInner<T>);

impl<T> JoinHandle<T> {
    /// Wait for the thread to finish and return its result; `Err` when the
    /// thread panicked (mirroring std).
    pub fn join(self) -> std::thread::Result<T> {
        match self.0 {
            HandleInner::Std(handle) => handle.join(),
            HandleInner::Model { exec, tid, result } => {
                match model_ctx() {
                    Some(ctx) => {
                        ctx.exec.op(ctx.tid, move |st, _| {
                            if st.join_target_finished(tid) {
                                Op::Done(())
                            } else {
                                Op::Block(Run::BlockedJoin(tid))
                            }
                        });
                    }
                    None => exec.wait_finished(tid),
                }
                match result.lock().unwrap_or_else(|p| p.into_inner()).take() {
                    Some(value) => Ok(value),
                    None => Err(Box::new(format!("model thread {tid} panicked"))),
                }
            }
        }
    }
}

impl<T> fmt::Debug for JoinHandle<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JoinHandle").finish_non_exhaustive()
    }
}

/// Modeled `std::thread::spawn`: inside a model execution the new thread
/// registers with the scheduler and runs only when gated; outside one it
/// is a plain std spawn.
pub fn spawn<F, T>(f: F) -> JoinHandle<T>
where
    F: FnOnce() -> T + Send + 'static,
    T: Send + 'static,
{
    match model_ctx() {
        None => JoinHandle(HandleInner::Std(std::thread::spawn(f))),
        Some(ctx) => {
            let tid = ctx
                .exec
                .op(ctx.tid, |st, _| Op::Done(Exec::register_thread(st)));
            let result = Arc::new(StdMutex::new(None));
            let handle = spawn_model_thread(&ctx.exec, tid, f, Some(Arc::clone(&result)));
            adopt_os_handle(&ctx.exec, handle);
            JoinHandle(HandleInner::Model {
                exec: Arc::clone(&ctx.exec),
                tid,
                result,
            })
        }
    }
}

/// Modeled `std::thread::yield_now`: a pure schedule point under the
/// model, a real yield outside one.
pub fn yield_now() {
    match model_ctx() {
        Some(ctx) => ctx.exec.op(ctx.tid, |_, _| Op::Done(())),
        None => std::thread::yield_now(),
    }
}
