//! Asynchronous page-read scheduler: submission queues, completion-flag
//! handles, in-flight dedup, read coalescing, and speculative prefetch.
//!
//! The paper's cost metric — disk accesses — says *how many* pages a query
//! touches; this module governs *how* those accesses are issued once the
//! disk is real. A [`SchedPageFile`] wraps any [`PageFile`] and moves its
//! read path onto a small pool of I/O threads:
//!
//! * **Demand reads** ([`SchedHandle::demand`]) enqueue the page, then
//!   block on a completion flag. N concurrent demands for one page join a
//!   single in-flight request and cost one physical read.
//! * **Coalescing**: I/O threads drain the queues in file-offset order
//!   (the queues are `BTreeSet`s) and merge contiguous page runs — up to
//!   [`SchedConfig::coalesce_window`] pages — into one
//!   [`PageFile::read_run`] span read.
//! * **Prefetch** ([`SchedHandle::prefetch`]) enqueues low-priority reads
//!   serviced only when the demand queue is idle (though prefetch pages
//!   contiguous with a demand-led run ride along for free). Completed
//!   prefetches wait in a small ready buffer; a demand read that finds its
//!   page there (or joins it mid-flight) skips the stall entirely.
//!
//! # Accounting contract
//!
//! `SchedPageFile::stats().reads` counts **completed demand page
//! requests** — one per successful demand, however it was physically
//! satisfied (its own read, a deduplicated join, or a prefetched buffer
//! hit). This keeps the buffer pool's ledger invariant
//! `misses == io.reads` exact at quiescence even with dedup and prefetch
//! in flight: the pool counts a miss per demand, the scheduler counts a
//! read per demand. Raw device traffic (span reads, pages per span,
//! prefetch outcomes, stall time) is reported separately via
//! [`SchedHandle::stats`] as [`SchedStats`].
//!
//! # Locking
//!
//! One mutex guards the queues/pending/ready maps; the inner file sits
//! behind its own `RwLock` (span reads under the read guard, mutations
//! under the write guard). No path holds both locks at once, and
//! completion flags are leaf locks signalled while holding the state
//! mutex but only ever *waited on* with no other lock held — so the lock
//! graph is acyclic. The protocol (submit / take-batch / complete) is
//! exercised exhaustively under the `cpq-check` model harness (see
//! `model_tests` below and DESIGN.md §13).

use crate::error::{StorageError, StorageResult};
use crate::file::PageFile;
use crate::page::{PageBytes, PageId};
use crate::stats::IoStats;
use cpq_check::sync::atomic::{AtomicU64, Ordering};
use cpq_check::sync::{self, Arc, Condvar, Mutex, RwLock};
use cpq_check::thread;
use std::collections::{BTreeSet, HashMap, VecDeque};
use std::time::Instant;

/// Tuning knobs of the I/O scheduler.
#[derive(Debug, Clone, Copy)]
pub struct SchedConfig {
    /// I/O threads draining the request queues. Clamped to at least 1.
    pub io_threads: usize,
    /// Maximum pages merged into one span read. Clamped to at least 1;
    /// 1 disables coalescing.
    pub coalesce_window: usize,
    /// Completed-but-unclaimed prefetch pages held for future demands
    /// (oldest evicted beyond this), and the cap on queued prefetch
    /// requests. 0 disables prefetch entirely.
    pub prefetch_buffer: usize,
}

impl Default for SchedConfig {
    fn default() -> Self {
        SchedConfig {
            io_threads: 2,
            coalesce_window: 16,
            prefetch_buffer: 64,
        }
    }
}

/// Cumulative scheduler counters (see the module docs for the accounting
/// contract; [`demand_reads`](SchedStats::demand_reads) is what
/// `SchedPageFile::stats().reads` reports).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Successful demand page requests (== buffer-pool misses at
    /// quiescence).
    pub demand_reads: u64,
    /// Total nanoseconds demand callers spent blocked on completions.
    pub demand_stall_ns: u64,
    /// Pages physically read from the inner file.
    pub physical_pages: u64,
    /// Inner-file read calls issued (span reads and single reads alike)
    /// that succeeded.
    pub physical_batches: u64,
    /// Span reads that failed and were degraded to per-page reads to
    /// attribute the failure (a transient mid-span fault is absorbed by
    /// the retry; persistent faults surface on exactly their page).
    pub batch_fallbacks: u64,
    /// Prefetch requests accepted onto the queue.
    pub prefetch_issued: u64,
    /// Demand reads satisfied by a prefetch (ready-buffer hit or a join
    /// onto an in-flight prefetch).
    pub prefetch_hits: u64,
    /// Prefetched pages that were read but never consumed (evicted from
    /// the ready buffer, invalidated by a write, failed, or left over at
    /// shutdown).
    pub prefetch_waste: u64,
    /// Prefetch requests dropped because the queue was at capacity.
    pub prefetch_dropped: u64,
    /// Demand requests that joined an already in-flight demand read.
    pub dedup_joins: u64,
    /// High-water mark of queued requests (demand + prefetch).
    pub max_queue_depth: u64,
}

/// A completion flag: one slot for the result, a condvar for waiters.
/// Results are duplicated to every waiter (dedup joins share one flag).
struct Completion {
    slot: Mutex<Option<StorageResult<PageBytes>>>,
    cv: Condvar,
}

impl Completion {
    fn new() -> Self {
        Completion {
            slot: Mutex::new(None),
            cv: Condvar::new(),
        }
    }

    /// Publishes the result and wakes every waiter. Called exactly once.
    fn set(&self, result: StorageResult<PageBytes>) {
        // completion flag (a panicked setter leaves waiters stuck anyway).
        let mut slot = sync::lock(&self.slot);
        debug_assert!(slot.is_none(), "completion set twice");
        *slot = Some(result);
        self.cv.notify_all();
    }

    /// Blocks until the result is published, then returns a copy of it.
    fn wait(&self) -> StorageResult<PageBytes> {
        let mut slot = sync::lock(&self.slot);
        loop {
            match &*slot {
                Some(Ok(bytes)) => return Ok(bytes.clone()),
                Some(Err(e)) => return Err(e.duplicate()),
                None => slot = sync::wait(&self.cv, slot),
            }
        }
    }
}

/// A submitted demand read: either served immediately from the prefetch
/// ready buffer, or a handle to wait on. Obtained from
/// [`SchedShared::submit`], resolved by [`SchedShared::finish`].
enum DemandTicket {
    /// The page was already prefetched; no wait needed.
    Ready(PageBytes),
    /// The read is queued or in flight; wait on the completion flag.
    Wait(Arc<Completion>),
}

/// Bookkeeping for a page that is queued or being read.
struct Pending {
    done: Arc<Completion>,
    /// At least one demand caller is waiting on this page.
    demanded: bool,
    /// The request entered as a prefetch (used to classify a later demand
    /// join as a prefetch hit rather than a dedup join).
    prefetch_origin: bool,
}

/// State under the scheduler mutex.
struct SchedState {
    /// Queued demand pages, ordered by id == file offset.
    demand_q: BTreeSet<u32>,
    /// Queued prefetch pages, ordered by id == file offset.
    prefetch_q: BTreeSet<u32>,
    /// Every queued or in-flight page.
    pending: HashMap<u32, Pending>,
    /// Completed, unclaimed prefetch results.
    ready: HashMap<u32, PageBytes>,
    /// FIFO eviction order for `ready` (may hold stale ids of pages
    /// already claimed; eviction skips them).
    ready_order: VecDeque<u32>,
    /// Worker-side counters (the two demand-side ones live in atomics on
    /// [`SchedShared`] and are merged in [`SchedHandle::stats`]).
    stats: SchedStats,
    shutdown: bool,
}

impl SchedState {
    fn new() -> Self {
        SchedState {
            demand_q: BTreeSet::new(),
            prefetch_q: BTreeSet::new(),
            pending: HashMap::new(),
            ready: HashMap::new(),
            ready_order: VecDeque::new(),
            stats: SchedStats::default(),
            shutdown: false,
        }
    }

    fn queued(&self) -> usize {
        self.demand_q.len() + self.prefetch_q.len()
    }

    fn note_depth(&mut self) {
        let d = self.queued() as u64;
        if d > self.stats.max_queue_depth {
            self.stats.max_queue_depth = d;
        }
    }

    /// Claims a completed prefetch result, if present.
    fn take_ready(&mut self, page: u32) -> Option<PageBytes> {
        // `ready_order` keeps a stale id; the eviction loop skips it.
        self.ready.remove(&page)
    }

    /// Stores a completed pure-prefetch result, evicting the oldest
    /// beyond `cap` (evictions count as waste: read, never consumed).
    fn stash_ready(&mut self, page: u32, bytes: PageBytes, cap: usize) {
        if cap == 0 {
            self.stats.prefetch_waste += 1;
            return;
        }
        while self.ready.len() >= cap {
            match self.ready_order.pop_front() {
                Some(old) => {
                    if self.ready.remove(&old).is_some() {
                        self.stats.prefetch_waste += 1;
                    }
                }
                None => break,
            }
        }
        self.ready.insert(page, bytes);
        self.ready_order.push_back(page);
    }
}

/// Shared core of the scheduler: protocol state, the inner file, and the
/// demand-side counters. Public protocol methods live on [`SchedHandle`];
/// the worker entry point `service_one` is `pub(crate)` so the model
/// harness can drive the protocol with modeled threads and no I/O pool.
pub(crate) struct SchedShared {
    state: Mutex<SchedState>,
    /// Workers wait here; every enqueue notifies.
    wake: Condvar,
    file: RwLock<Box<dyn PageFile>>,
    cfg: SchedConfig,
    page_size: usize,
    /// Successful demand completions (see the module accounting contract).
    demand_reads: AtomicU64,
    /// Nanoseconds demand callers spent blocked.
    demand_stall_ns: AtomicU64,
}

impl SchedShared {
    fn new(inner: Box<dyn PageFile>, mut cfg: SchedConfig) -> Self {
        cfg.io_threads = cfg.io_threads.max(1);
        cfg.coalesce_window = cfg.coalesce_window.max(1);
        let page_size = inner.page_size();
        SchedShared {
            state: Mutex::new(SchedState::new()),
            wake: Condvar::new(),
            file: RwLock::new(inner),
            cfg,
            page_size,
            demand_reads: AtomicU64::new(0),
            demand_stall_ns: AtomicU64::new(0),
        }
    }

    /// Submits a demand read for `id`.
    fn submit(&self, id: PageId) -> DemandTicket {
        let mut st = sync::lock(&self.state);
        let st = &mut *st;
        if let Some(bytes) = st.take_ready(id.0) {
            st.stats.prefetch_hits += 1;
            // ordering: Relaxed — monotone stat counter, reconciled with
            // the pool ledger only at quiescence.
            self.demand_reads.fetch_add(1, Ordering::Relaxed);
            return DemandTicket::Ready(bytes);
        }
        if let Some(p) = st.pending.get_mut(&id.0) {
            if p.prefetch_origin && !p.demanded {
                // A queued (or in-flight) prefetch covers this demand:
                // promote it to the demand queue if it has not been
                // picked up yet.
                st.stats.prefetch_hits += 1;
                if st.prefetch_q.remove(&id.0) {
                    st.demand_q.insert(id.0);
                }
            } else {
                st.stats.dedup_joins += 1;
            }
            p.demanded = true;
            return DemandTicket::Wait(Arc::clone(&p.done));
        }
        let done = Arc::new(Completion::new());
        st.pending.insert(
            id.0,
            Pending {
                done: Arc::clone(&done),
                demanded: true,
                prefetch_origin: false,
            },
        );
        st.demand_q.insert(id.0);
        st.note_depth();
        self.wake.notify_one();
        DemandTicket::Wait(done)
    }

    /// Resolves a ticket, blocking if needed, and accounts the demand.
    fn finish(&self, ticket: DemandTicket) -> StorageResult<PageBytes> {
        match ticket {
            DemandTicket::Ready(bytes) => Ok(bytes),
            DemandTicket::Wait(done) => {
                let t0 = Instant::now();
                let out = done.wait();
                // ordering: Relaxed — monotone stat counters; see `submit`.
                self.demand_stall_ns
                    .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
                if out.is_ok() {
                    // ordering: Relaxed — see `submit`.
                    self.demand_reads.fetch_add(1, Ordering::Relaxed);
                }
                out
            }
        }
    }

    /// Enqueues low-priority reads for pages not already queued, in
    /// flight, or sitting in the ready buffer.
    fn prefetch(&self, ids: &[PageId]) {
        if self.cfg.prefetch_buffer == 0 {
            return;
        }
        let mut st = sync::lock(&self.state);
        let st = &mut *st;
        if st.shutdown {
            return;
        }
        let mut added = false;
        for &id in ids {
            if st.ready.contains_key(&id.0) || st.pending.contains_key(&id.0) {
                continue;
            }
            if st.prefetch_q.len() >= self.cfg.prefetch_buffer {
                st.stats.prefetch_dropped += 1;
                continue;
            }
            st.pending.insert(
                id.0,
                Pending {
                    done: Arc::new(Completion::new()),
                    demanded: false,
                    prefetch_origin: true,
                },
            );
            st.prefetch_q.insert(id.0);
            st.stats.prefetch_issued += 1;
            added = true;
        }
        if added {
            st.note_depth();
            self.wake.notify_all();
        }
    }

    /// Picks the next batch: the lowest queued demand page (or, with no
    /// demand waiting, the lowest prefetch page), extended forward over
    /// contiguous queued pages of either class up to the coalesce window.
    fn take_batch(&self, st: &mut SchedState) -> Option<(u32, usize)> {
        let first = st
            .demand_q
            .first()
            .copied()
            .or_else(|| st.prefetch_q.first().copied())?;
        st.demand_q.remove(&first);
        st.prefetch_q.remove(&first);
        let mut n = 1usize;
        while n < self.cfg.coalesce_window {
            let Some(next) = first.checked_add(n as u32) else {
                break;
            };
            if st.demand_q.remove(&next) || st.prefetch_q.remove(&next) {
                n += 1;
            } else {
                break;
            }
        }
        Some((first, n))
    }

    /// Services one batch if any is queued; returns whether work was done.
    /// This is the whole worker protocol: take a batch (state lock), read
    /// it (file read guard, state unlocked), publish completions (state
    /// lock again) — never two locks at once.
    pub(crate) fn service_one(&self, scratch: &mut Vec<u8>) -> bool {
        let batch = {
            let mut st = sync::lock(&self.state);
            self.take_batch(&mut st)
        };
        let Some((first, n)) = batch else {
            return false;
        };
        let ps = self.page_size;
        if scratch.len() < n * ps {
            scratch.resize(n * ps, 0);
        }
        let run = {
            let file = sync::read(&self.file);
            file.read_run(PageId(first), n, &mut scratch[..n * ps])
        };
        let mut results: Vec<(u32, StorageResult<PageBytes>)> = Vec::with_capacity(n);
        let mut batches_ok = 0u64;
        let mut pages_ok = 0u64;
        let mut fell_back = false;
        match run {
            Ok(()) => {
                batches_ok = 1;
                pages_ok = n as u64;
                for i in 0..n {
                    let bytes = PageBytes::from(&scratch[i * ps..(i + 1) * ps]);
                    results.push((first + i as u32, Ok(bytes)));
                }
            }
            Err(e) if n == 1 => results.push((first, Err(e))),
            Err(_) => {
                // Attribute the failure: re-read page by page so exactly
                // the faulty page(s) fail and the rest are delivered.
                fell_back = true;
                let file = sync::read(&self.file);
                for i in 0..n {
                    let id = PageId(first + i as u32);
                    let res = file
                        .read(id, &mut scratch[..ps])
                        .map(|()| PageBytes::from(&scratch[..ps]));
                    if res.is_ok() {
                        batches_ok += 1;
                        pages_ok += 1;
                    }
                    results.push((id.0, res));
                }
            }
        }
        let mut st = sync::lock(&self.state);
        let st = &mut *st;
        st.stats.physical_batches += batches_ok;
        st.stats.physical_pages += pages_ok;
        if fell_back {
            st.stats.batch_fallbacks += 1;
        }
        for (page, res) in results {
            // A pending entry always exists here: completions remove it
            // under the same lock hold that publishes the flag, and
            // nothing else removes in-flight entries.
            let Some(p) = st.pending.remove(&page) else {
                continue;
            };
            if !p.demanded {
                match &res {
                    Ok(bytes) => st.stash_ready(page, bytes.clone(), self.cfg.prefetch_buffer),
                    Err(_) => st.stats.prefetch_waste += 1,
                }
            }
            p.done.set(res);
        }
        true
    }

    /// Merged counter snapshot (locked worker counters + demand atomics).
    fn stats(&self) -> SchedStats {
        let mut s = sync::lock(&self.state).stats;
        // ordering: Relaxed — stat counters; see `submit`.
        s.demand_reads = self.demand_reads.load(Ordering::Relaxed);
        s.demand_stall_ns = self.demand_stall_ns.load(Ordering::Relaxed);
        s
    }

    /// Drops any completed-but-unclaimed prefetch of `page` (a write or
    /// free made it stale). In-flight reads are not chased — the same
    /// read/write race semantics as the unscheduled pool path.
    fn invalidate(&self, page: u32) {
        let mut st = sync::lock(&self.state);
        if st.take_ready(page).is_some() {
            st.stats.prefetch_waste += 1;
        }
    }
}

/// Worker thread body: service batches, sleep on the wake condvar when
/// both queues are empty, exit on shutdown.
fn worker_loop(shared: Arc<SchedShared>) {
    let mut scratch = Vec::new();
    loop {
        if shared.service_one(&mut scratch) {
            continue;
        }
        let mut st = sync::lock(&shared.state);
        loop {
            if st.shutdown {
                return;
            }
            if st.queued() > 0 {
                break;
            }
            st = sync::wait(&shared.wake, st);
        }
    }
}

/// A cloneable handle onto a [`SchedPageFile`]'s scheduler, for demand
/// submission, prefetch hints, and stats — usable without going through
/// the `PageFile` trait (the buffer pool holds one to get `PageBytes`
/// results without an extra copy).
#[derive(Clone)]
pub struct SchedHandle {
    shared: Arc<SchedShared>,
}

impl SchedHandle {
    /// Blocking demand read: submit + finish.
    pub fn demand(&self, id: PageId) -> StorageResult<PageBytes> {
        let ticket = self.shared.submit(id);
        self.shared.finish(ticket)
    }

    /// Hints that `ids` will likely be demanded soon. Low priority: the
    /// scheduler reads them only in demand-queue idle gaps (or when
    /// contiguous with a demand run). Duplicates of queued, in-flight, or
    /// already-buffered pages are ignored; beyond the queue cap, hints
    /// are dropped (and counted).
    pub fn prefetch(&self, ids: &[PageId]) {
        self.shared.prefetch(ids)
    }

    /// Cumulative scheduler counters.
    pub fn stats(&self) -> SchedStats {
        self.shared.stats()
    }
}

/// A [`PageFile`] whose reads are served by the I/O scheduler (see the
/// module docs). Writes, allocation, and freeing pass through to the
/// inner file under its write lock, invalidating any stale prefetched
/// copy. Dropping it shuts the I/O threads down and fails any requests
/// still pending.
pub struct SchedPageFile {
    shared: Arc<SchedShared>,
    workers: Vec<thread::JoinHandle<()>>,
}

impl SchedPageFile {
    /// Wraps `inner` and starts the I/O threads.
    pub fn new(inner: Box<dyn PageFile>, cfg: SchedConfig) -> Self {
        let shared = Arc::new(SchedShared::new(inner, cfg));
        let workers = (0..shared.cfg.io_threads)
            .map(|_| {
                let shared = Arc::clone(&shared);
                thread::spawn(move || worker_loop(shared))
            })
            .collect();
        SchedPageFile { shared, workers }
    }

    /// A handle for demand/prefetch/stats access that bypasses the
    /// `PageFile` trait (and survives as long as any clone does).
    pub fn handle(&self) -> SchedHandle {
        SchedHandle {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl Drop for SchedPageFile {
    fn drop(&mut self) {
        sync::lock(&self.shared.state).shutdown = true;
        self.shared.wake.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        // Workers are gone; fail anything still pending so no completion
        // flag is ever left unset (prefetches never claimed count as
        // waste, whether still queued/in flight or completed into the
        // ready buffer and never demanded).
        let mut st = sync::lock(&self.shared.state);
        let st = &mut *st;
        st.demand_q.clear();
        st.prefetch_q.clear();
        st.stats.prefetch_waste += st.ready.len() as u64;
        st.ready.clear();
        st.ready_order.clear();
        for (_, p) in st.pending.drain() {
            if !p.demanded {
                st.stats.prefetch_waste += 1;
            }
            p.done.set(Err(StorageError::Io(std::io::Error::other(
                "I/O scheduler shut down",
            ))));
        }
    }
}

impl PageFile for SchedPageFile {
    fn page_size(&self) -> usize {
        self.shared.page_size
    }

    fn num_pages(&self) -> u32 {
        sync::read(&self.shared.file).num_pages()
    }

    fn allocate(&mut self) -> StorageResult<PageId> {
        sync::write(&self.shared.file).allocate()
    }

    fn read(&self, id: PageId, buf: &mut [u8]) -> StorageResult<()> {
        if buf.len() != self.shared.page_size {
            return Err(StorageError::WrongBufferSize {
                expected: self.shared.page_size,
                actual: buf.len(),
            });
        }
        let bytes = self.shared.finish(self.shared.submit(id))?;
        buf.copy_from_slice(&bytes);
        Ok(())
    }

    fn write(&mut self, id: PageId, data: &[u8]) -> StorageResult<()> {
        self.shared.invalidate(id.0);
        sync::write(&self.shared.file).write(id, data)
    }

    fn free(&mut self, id: PageId) -> StorageResult<()> {
        self.shared.invalidate(id.0);
        sync::write(&self.shared.file).free(id)
    }

    fn sync(&mut self) -> StorageResult<()> {
        sync::write(&self.shared.file).sync()
    }

    /// `reads` counts completed demand requests (the module accounting
    /// contract); writes/allocations/frees mirror the inner file.
    fn stats(&self) -> IoStats {
        let inner = sync::read(&self.shared.file).stats();
        IoStats {
            // ordering: Relaxed — stat counter; see `SchedShared::submit`.
            reads: self.shared.demand_reads.load(Ordering::Relaxed),
            ..inner
        }
    }

    fn reset_stats(&mut self) {
        sync::write(&self.shared.file).reset_stats();
        // ordering: Relaxed — reset runs under `&mut self` at quiescence
        // (the pool holds its file write lock), matching the other
        // implementations' reset contract.
        self.shared.demand_reads.store(0, Ordering::Relaxed);
        self.shared.demand_stall_ns.store(0, Ordering::Relaxed);
        sync::lock(&self.shared.state).stats = SchedStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::file::MemPageFile;
    use std::time::Duration;

    fn mem_file(pages: u8, ps: usize) -> Box<MemPageFile> {
        let mut f = MemPageFile::new(ps);
        for i in 0..pages {
            let id = f.allocate().expect("allocate");
            f.write(id, &vec![i; ps]).expect("write");
        }
        Box::new(f)
    }

    /// Polls until `pred(stats)` holds or a generous timeout elapses.
    fn wait_for(handle: &SchedHandle, pred: impl Fn(&SchedStats) -> bool) -> SchedStats {
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let s = handle.stats();
            if pred(&s) || Instant::now() > deadline {
                return s;
            }
            #[expect(clippy::disallowed_methods, reason = "a test polls condvar-less stats")]
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    #[test]
    fn demand_reads_return_bytes_and_count() {
        let mut sf = SchedPageFile::new(mem_file(4, 32), SchedConfig::default());
        let h = sf.handle();
        for i in 0..4u8 {
            let bytes = h.demand(PageId(i as u32)).expect("demand");
            assert!(bytes.iter().all(|&b| b == i));
        }
        assert_eq!(sf.stats().reads, 4);
        let s = h.stats();
        assert_eq!(s.demand_reads, 4);
        assert_eq!(s.physical_pages, 4);
        sf.reset_stats();
        assert_eq!(sf.stats().reads, 0);
        assert_eq!(h.stats().physical_pages, 0);
    }

    #[test]
    fn trait_read_works() {
        let sf = SchedPageFile::new(mem_file(6, 16), SchedConfig::default());
        let mut buf = [0u8; 16];
        sf.read(PageId(2), &mut buf).expect("read");
        assert_eq!(buf, [2u8; 16]);
        assert!(matches!(
            sf.read(PageId(0), &mut [0u8; 4]),
            Err(StorageError::WrongBufferSize { .. })
        ));
    }

    #[test]
    fn prefetch_is_hit_by_later_demand() {
        let sf = SchedPageFile::new(mem_file(8, 16), SchedConfig::default());
        let h = sf.handle();
        h.prefetch(&[PageId(1), PageId(2), PageId(3)]);
        let s = wait_for(&h, |s| s.physical_pages >= 3);
        assert_eq!(s.prefetch_issued, 3);
        // The three contiguous pages should have coalesced into one span.
        assert!(s.physical_pages > s.physical_batches, "stats: {s:?}");
        for i in 1..=3u32 {
            let bytes = h.demand(PageId(i)).expect("demand");
            assert!(bytes.iter().all(|&b| b == i as u8));
        }
        let s = h.stats();
        assert_eq!(s.prefetch_hits, 3);
        assert_eq!(s.demand_reads, 3);
        assert_eq!(
            s.physical_pages, 3,
            "demands were served from the prefetch, not re-read"
        );
    }

    #[test]
    fn prefetch_queue_cap_drops_and_counts() {
        let cfg = SchedConfig {
            io_threads: 1,
            coalesce_window: 4,
            prefetch_buffer: 2,
        };
        let sf = SchedPageFile::new(mem_file(16, 16), cfg);
        let h = sf.handle();
        let ids: Vec<PageId> = (0..16).map(PageId).collect();
        h.prefetch(&ids);
        let s = wait_for(&h, |s| s.prefetch_issued + s.prefetch_dropped >= 16);
        assert!(s.prefetch_dropped > 0, "cap must drop hints: {s:?}");
        assert_eq!(s.prefetch_issued + s.prefetch_dropped, 16);
    }

    #[test]
    fn overlapping_submits_coalesce() {
        let cfg = SchedConfig {
            io_threads: 1,
            ..Default::default()
        };
        let sf = SchedPageFile::new(mem_file(32, 16), cfg);
        let h = sf.handle();
        // Submit a contiguous run before finishing anything: the single
        // worker drains them as coalesced spans.
        let tickets: Vec<DemandTicket> = (0..32).map(|i| h.shared.submit(PageId(i))).collect();
        for (i, t) in tickets.into_iter().enumerate() {
            let bytes = h.shared.finish(t).expect("finish");
            assert!(bytes.iter().all(|&b| b == i as u8));
        }
        let s = h.stats();
        assert_eq!(s.demand_reads, 32);
        assert_eq!(s.physical_pages, 32);
        assert!(
            s.physical_pages > s.physical_batches,
            "contiguous demands must merge: {s:?}"
        );
        assert!(s.max_queue_depth > 1);
    }

    #[test]
    fn concurrent_demands_for_one_page_dedup() {
        let control = crate::failing::FailureControl::new();
        let inner = crate::failing::FailingPageFile::new(mem_file(2, 16), Arc::clone(&control));
        // Slow the read down so every thread's demand lands while the
        // first physical read is still in flight.
        control.slow_reads(Duration::from_millis(20));
        let sf = SchedPageFile::new(Box::new(inner), SchedConfig::default());
        let h = sf.handle();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let h = h.clone();
                scope.spawn(move || {
                    let bytes = h.demand(PageId(1)).expect("demand");
                    assert!(bytes.iter().all(|&b| b == 1));
                });
            }
        });
        control.disarm();
        let s = h.stats();
        assert_eq!(s.demand_reads, 8, "every demand counts");
        assert_eq!(s.physical_pages, 1, "one physical read served all");
        assert_eq!(s.dedup_joins, 7);
        assert!(s.demand_stall_ns > 0);
    }

    #[test]
    fn error_reaches_exactly_the_demanding_waiter() {
        let control = crate::failing::FailureControl::new();
        let inner = crate::failing::FailingPageFile::new(mem_file(4, 16), Arc::clone(&control));
        let sf = SchedPageFile::new(Box::new(inner), SchedConfig::default());
        let h = sf.handle();
        control.fail_read(1);
        // Single-page batch: the injected error is delivered, not retried.
        assert!(h.demand(PageId(0)).is_err());
        // The fault fired; the next demand succeeds (no stuck flags).
        let bytes = h.demand(PageId(0)).expect("recovered");
        assert!(bytes.iter().all(|&b| b == 0));
        let s = h.stats();
        assert_eq!(s.demand_reads, 1, "failed demands are not counted");
    }

    #[test]
    fn corrupt_page_in_coalesced_batch_fails_exactly_itself() {
        let control = crate::failing::FailureControl::new();
        let inner = crate::failing::FailingPageFile::new(mem_file(8, 32), Arc::clone(&control));
        control.corrupt(PageId(3));
        // One I/O thread + a wide window: a contiguous 8-page submit-all run
        // coalesces into one span, which the corrupt page then degrades.
        let cfg = SchedConfig {
            io_threads: 1,
            coalesce_window: 8,
            prefetch_buffer: 8,
        };
        let sf = SchedPageFile::new(Box::new(inner), cfg);
        let h = sf.handle();
        let tickets: Vec<_> = (0..8).map(|i| h.shared.submit(PageId(i))).collect();
        let mut failed = Vec::new();
        for (i, t) in tickets.into_iter().enumerate() {
            match h.shared.finish(t) {
                Ok(bytes) => assert!(bytes.iter().all(|&b| b == i as u8)),
                Err(e) => {
                    assert!(
                        matches!(e, StorageError::Corrupt { page, .. } if page == PageId(3)),
                        "wrong error for page {i}: {e}"
                    );
                    failed.push(i);
                }
            }
        }
        assert_eq!(failed, vec![3], "exactly the corrupt page fails");
        let s = h.stats();
        assert_eq!(s.demand_reads, 7);
        assert!(
            s.batch_fallbacks >= 1,
            "the poisoned span must degrade to per-page reads: {s:?}"
        );
        // The corruption is persistent: it keeps failing, everyone else
        // keeps working, and nothing wedges.
        assert!(h.demand(PageId(3)).is_err());
        assert!(h.demand(PageId(2)).is_ok());
    }

    #[test]
    fn shutdown_fails_pending_cleanly() {
        let control = crate::failing::FailureControl::new();
        let inner = crate::failing::FailingPageFile::new(mem_file(2, 16), Arc::clone(&control));
        control.slow_reads(Duration::from_millis(5));
        let sf = SchedPageFile::new(Box::new(inner), SchedConfig::default());
        let h = sf.handle();
        h.prefetch(&[PageId(0), PageId(1)]);
        drop(sf);
        // The handle outlives the file; demands after shutdown would hang
        // forever if pending flags were left unset — instead everything
        // already queued was failed or completed, and the maps are empty.
        assert_eq!(sync::lock(&h.shared.state).queued(), 0);
    }

    #[test]
    fn shutdown_with_slow_prefetch_leaves_no_waiter_hung() {
        let control = crate::failing::FailureControl::new();
        let inner = crate::failing::FailingPageFile::new(mem_file(8, 32), Arc::clone(&control));
        control.slow_reads(Duration::from_millis(2));
        let cfg = SchedConfig {
            io_threads: 1,
            coalesce_window: 1, // one slow page per batch: queue stays full
            prefetch_buffer: 8,
        };
        let sf = SchedPageFile::new(Box::new(inner), cfg);
        let h = sf.handle();
        h.prefetch(&(0..8).map(PageId).collect::<Vec<_>>());
        // Drop the scheduler while prefetches are queued/in flight: Drop must
        // drain everything (completing or failing it), never hang this test.
        drop(sf);
        assert_eq!(
            sync::lock(&h.shared.state).queued(),
            0,
            "drop drains the queues"
        );
        let s = h.stats();
        assert_eq!(
            s.prefetch_issued,
            s.prefetch_hits + s.prefetch_waste,
            "every issued prefetch is accounted as hit or waste at shutdown: {s:?}"
        );

        // The workers service what is queued before they exit, so above the
        // queues are empty either way. With no worker at all, everything is
        // still queued when Drop runs: Drop itself must clear the queues,
        // fail every pending flag and count each prefetch as waste.
        let sf = SchedPageFile {
            shared: Arc::new(SchedShared::new(mem_file(8, 32), cfg)),
            workers: Vec::new(),
        };
        let h = sf.handle();
        h.prefetch(&(0..8).map(PageId).collect::<Vec<_>>());
        assert_eq!(sync::lock(&h.shared.state).queued(), 8);
        drop(sf);
        let st = sync::lock(&h.shared.state);
        assert_eq!(st.queued(), 0, "drop drains the queues");
        assert!(st.pending.is_empty(), "drop fails every pending flag");
        assert_eq!(st.stats.prefetch_waste, 8);
    }
}

/// Model-checked harness for the scheduler protocol (concurrent site #5).
///
/// Runs only under `RUSTFLAGS="--cfg cpq_model"`. The positive models
/// drive the *real* protocol — `submit` / `finish` / `service_one` — with
/// modeled threads and exhaustive DFS: completion-flag handoff in every
/// submit/complete/wake interleaving, in-flight dedup (one physical read
/// serving two demands), and prefetch promotion. The negative model
/// reintroduces the check-then-act dedup race the state mutex exists to
/// prevent, pinned as a `#[should_panic]` regression.
#[cfg(all(test, cpq_model))]
mod model_tests {
    use super::*;
    use crate::file::MemPageFile;
    use cpq_check::{model_dfs, try_model_dfs, DfsOptions};
    use std::collections::HashSet;

    fn model_shared() -> Arc<SchedShared> {
        let mut f = MemPageFile::new(8);
        for i in 0..2u8 {
            let id = f.allocate().expect("allocate");
            f.write(id, &[i; 8]).expect("write");
        }
        Arc::new(SchedShared::new(
            Box::new(f),
            SchedConfig {
                io_threads: 1,
                coalesce_window: 4,
                prefetch_buffer: 4,
            },
        ))
    }

    #[test]
    fn dfs_completion_handoff_and_dedup() {
        // Two demands for one page submitted up front (the second joins
        // the first — structural dedup), then two waiters, and one
        // service pass, interleaved exhaustively: the completion flag
        // must hand the one physical read to both waiters in every
        // schedule, with the books exact.
        let report = model_dfs(DfsOptions::smoke(), || {
            let shared = model_shared();
            let t1 = shared.submit(PageId(1));
            let t2 = shared.submit(PageId(1));
            let waiters: Vec<_> = [t1, t2]
                .into_iter()
                .map(|t| {
                    let shared = Arc::clone(&shared);
                    thread::spawn(move || {
                        let bytes = shared.finish(t).expect("finish");
                        assert!(bytes.iter().all(|&b| b == 1), "right page delivered");
                    })
                })
                .collect();
            let svc = {
                let shared = Arc::clone(&shared);
                thread::spawn(move || {
                    let mut scratch = Vec::new();
                    assert!(shared.service_one(&mut scratch), "one batch was queued");
                })
            };
            for w in waiters {
                w.join().expect("waiter");
            }
            svc.join().expect("service");
            let s = shared.stats();
            assert_eq!(s.physical_pages, 1, "dedup: one read for two demands");
            assert_eq!(s.demand_reads, 2);
            assert_eq!(s.dedup_joins, 1);
            assert!(
                sync::lock(&shared.state).pending.is_empty(),
                "no stuck flags"
            );
        });
        assert!(report.complete, "DFS must exhaust the interleavings");
        assert!(report.schedules > 1, "explored {}", report.schedules);
    }

    #[test]
    fn dfs_prefetch_promotion_vs_ready_hit() {
        // A prefetch is issued; a demand for the same page races the
        // service pass. Depending on the schedule the demand joins the
        // queued/in-flight prefetch (promotion) or claims the completed
        // ready buffer — both must count one prefetch hit, one demand,
        // one physical read.
        let report = model_dfs(DfsOptions::smoke(), || {
            let shared = model_shared();
            shared.prefetch(&[PageId(0)]);
            let demand = {
                let shared = Arc::clone(&shared);
                thread::spawn(move || {
                    let t = shared.submit(PageId(0));
                    let bytes = shared.finish(t).expect("demand");
                    assert!(bytes.iter().all(|&b| b == 0));
                })
            };
            let svc = {
                let shared = Arc::clone(&shared);
                thread::spawn(move || {
                    let mut scratch = Vec::new();
                    shared.service_one(&mut scratch);
                })
            };
            svc.join().expect("service");
            // The demand may still be queued (it arrived after the
            // service pass and missed the ready buffer only if the page
            // was... it cannot: a completed pure prefetch lands in the
            // ready buffer, so the demand either joined in flight or
            // hits ready). Either way one more service pass drains any
            // residue.
            let mut scratch = Vec::new();
            shared.service_one(&mut scratch);
            demand.join().expect("demand");
            let s = shared.stats();
            assert_eq!(s.prefetch_issued, 1);
            assert_eq!(s.prefetch_hits, 1, "stats: {s:?}");
            assert_eq!(s.demand_reads, 1);
            assert_eq!(s.physical_pages, 1, "the prefetch read served the demand");
            assert!(
                sync::lock(&shared.state).pending.is_empty(),
                "no stuck flags"
            );
        });
        assert!(report.complete);
        assert!(report.schedules > 1);
    }

    /// The deliberately-broken twin: in-flight dedup by check-then-act
    /// with the lock released between the check and the insert — the
    /// race `SchedShared::submit`'s single critical section prevents.
    fn broken_dedup_model() {
        let inflight = Arc::new(Mutex::new(HashSet::<u32>::new()));
        let physical = Arc::new(AtomicU64::new(0));
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let inflight = Arc::clone(&inflight);
                let physical = Arc::clone(&physical);
                thread::spawn(move || {
                    // BUG: the membership check and the insert are two
                    // critical sections; both threads can pass the check
                    // before either inserts.
                    let present = inflight.lock().expect("model lock").contains(&7);
                    if !present {
                        inflight.lock().expect("model lock").insert(7);
                        // ordering: SeqCst — model twin; strongest
                        // ordering so the bug is purely the lost lock.
                        physical.fetch_add(1, Ordering::SeqCst);
                    }
                })
            })
            .collect();
        for r in readers {
            r.join().expect("reader");
        }
        // ordering: SeqCst — model twin readback.
        let reads = physical.load(Ordering::SeqCst);
        assert!(reads <= 1, "duplicate physical read for one page");
    }

    #[test]
    fn broken_dedup_twin_is_found_by_dfs() {
        let failure = try_model_dfs(DfsOptions::smoke(), broken_dedup_model)
            .expect_err("the dedup race must surface under exhaustive DFS");
        assert!(
            failure.message.contains("duplicate physical read"),
            "unexpected failure: {failure}"
        );
    }

    #[test]
    #[should_panic(expected = "duplicate physical read")]
    fn broken_dedup_twin_pinned_regression() {
        let _ = model_dfs(DfsOptions::smoke(), broken_dedup_model);
    }
}
