//! Buffer pool with pluggable page-replacement policies.
//!
//! The paper's experiments put an LRU buffer of `B` pages in front of the two
//! R-trees, `B/2` pages each (Section 4.3.3), and report buffer **misses** as
//! disk accesses. `capacity = 0` disables caching entirely — the "zero
//! buffer" configuration most experiments start from.
//!
//! # Concurrency
//!
//! The pool keeps its bookkeeping (`frames`/`map`/counters) behind a `Mutex`
//! and the page file behind a `RwLock`. Cache hits touch only the state
//! mutex; **miss I/O runs under the file's shared read guard with the state
//! mutex released**, so several threads can overlap physical reads — the
//! property the parallel K-CPQ executor's speculative prefetch relies on.
//! Lock order is always state → file; no path waits on the state mutex while
//! holding the file lock, so the two locks cannot deadlock.
//!
//! # Checked pages
//!
//! A frame keeps one flag beside its bytes: whether a caller's check of them
//! ([`read_checked`](BufferPool::read_checked) — the R-tree's node format)
//! has passed. The check runs at most once per residency, under the state
//! mutex, and the flag lives inside the frame: every path that replaces or
//! drops a frame's bytes (write, free, eviction, `clear`, `set_capacity`)
//! starts a fresh, unchecked frame. A hit on a checked frame hands out its
//! bytes and runs nothing; readers interpret them in place.

use crate::error::{StorageError, StorageResult};
use crate::file::PageFile;
use crate::page::{PageBytes, PageId};
use crate::sched::{SchedConfig, SchedHandle, SchedPageFile, SchedStats};
use crate::stats::IoStats;
use cpq_check::sync::{self, Arc, Mutex, RwLock};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// The hasher of the pool's page map: one multiply by the 64-bit golden
/// ratio per page number, in place of SipHash on every hit. Page ids are
/// dense small integers chosen by the pool's own file, not by outside input,
/// and the product's low bits (the table's bucket) are a permutation of the
/// id's low bits; nothing iterates the map, so its order is never observed.
#[derive(Default)]
struct PageHasher(u64);

impl Hasher for PageHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u32(u32::from(b));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.0 = (self.0.rotate_left(32) ^ u64::from(n)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Page-replacement policy interface.
///
/// The pool calls `evict` only when every frame is occupied, so policies can
/// assume all frames hold pages at that point. Frame indices are dense in
/// `0..frames`, where `frames` grows one at a time up to the pool's capacity
/// as pages are cached — bookkeeping is never sized by the capacity itself,
/// which is outside input.
pub trait ReplacementPolicy: Send {
    /// Sets the number of frames tracked, like `Vec::resize`: frames at
    /// `frames` and above are forgotten (`0` forgets everything), new ones
    /// start unused, the rest keep their history.
    fn resize(&mut self, frames: usize);
    /// A cached page in `frame` was accessed.
    fn on_hit(&mut self, frame: usize);
    /// A page was installed into `frame`.
    fn on_insert(&mut self, frame: usize);
    /// Chooses a victim frame, never a pinned one. Called only when the
    /// pool is full and at least one frame is unpinned.
    fn evict(&mut self, pinned: &[bool]) -> usize;
    /// The page in `frame` was removed outside of eviction (e.g. freed).
    fn on_remove(&mut self, frame: usize);
}

/// Frames in replacement order: an intrusive circular doubly linked list
/// over frame indices, newest at the head. Slot 0 is the sentinel and frame
/// `f` lives in slot `f + 1`; a slot linked to itself is off the list, so
/// unlinking an unlisted frame is a no-op without a branch. Slots are `u32`:
/// every frame holds a distinct page and a file's page count is a `u32`, so
/// the last slot, `frames`, fits.
// Slot indices come from the links themselves, which only ever hold slots
// below `prev.len()` (`resize` unlinks what it truncates).
#[derive(Debug, Default)]
struct FrameList {
    prev: Vec<u32>,
    next: Vec<u32>,
}

impl FrameList {
    /// `ReplacementPolicy::resize`: dropped frames leave the list, new ones
    /// start off it. The sentinel appears with the first call.
    fn resize(&mut self, frames: usize) {
        let slots = frames + 1;
        for slot in slots..self.prev.len() {
            self.unlink(slot);
        }
        self.prev.truncate(slots);
        self.next.truncate(slots);
        let have = self.prev.len() as u32;
        self.prev.extend(have..slots as u32);
        self.next.extend(have..slots as u32);
    }

    fn unlink(&mut self, slot: usize) {
        let (before, after) = (self.prev[slot], self.next[slot]);
        self.next[before as usize] = after;
        self.prev[after as usize] = before;
        self.prev[slot] = slot as u32;
        self.next[slot] = slot as u32;
    }

    /// Makes `frame` the newest, wherever it was (on the list or off it).
    fn move_to_head(&mut self, frame: usize) {
        let slot = frame + 1;
        self.unlink(slot);
        let first = self.next[0];
        self.prev[slot] = 0;
        self.next[slot] = first;
        self.prev[first as usize] = slot as u32;
        self.next[0] = slot as u32;
    }

    fn remove(&mut self, frame: usize) {
        self.unlink(frame + 1);
    }

    /// The oldest unpinned frame: a walk from the tail, one step per pinned
    /// frame passed.
    fn oldest_unpinned(&self, pinned: &[bool]) -> usize {
        let mut slot = self.prev[0] as usize;
        while slot != 0 {
            if !pinned[slot - 1] {
                return slot - 1;
            }
            slot = self.prev[slot] as usize;
        }
        // The pool calls evict only when an unpinned frame exists.
        panic!("evict called with every frame pinned")
    }
}

/// Least-recently-used replacement — the policy used throughout the paper.
///
/// Recency is the order of a `FrameList`: a hit splices the frame at the
/// head, eviction takes the tail — `O(1)` both, and exactly the victim a
/// per-frame access stamp and a minimum scan would choose (the scan this
/// replaced cost ~0.7 us per miss at 512 frames, under the pool mutex).
#[derive(Debug, Default)]
pub struct LruPolicy {
    order: FrameList,
}

impl LruPolicy {
    /// Creates the policy; the pool resizes it on attach.
    pub fn new() -> Self {
        Self::default()
    }
}

impl ReplacementPolicy for LruPolicy {
    fn resize(&mut self, frames: usize) {
        self.order.resize(frames);
    }
    fn on_hit(&mut self, frame: usize) {
        self.order.move_to_head(frame);
    }
    fn on_insert(&mut self, frame: usize) {
        self.order.move_to_head(frame);
    }
    fn evict(&mut self, pinned: &[bool]) -> usize {
        self.order.oldest_unpinned(pinned)
    }
    fn on_remove(&mut self, frame: usize) {
        self.order.remove(frame);
    }
}

/// First-in-first-out replacement (ablation baseline: ignores recency). The
/// same `FrameList` as LRU, in insertion order: a hit moves nothing.
#[derive(Debug, Default)]
pub struct FifoPolicy {
    order: FrameList,
}

impl FifoPolicy {
    /// Creates the policy; the pool resizes it on attach.
    pub fn new() -> Self {
        Self::default()
    }
}

impl ReplacementPolicy for FifoPolicy {
    fn resize(&mut self, frames: usize) {
        self.order.resize(frames);
    }
    fn on_hit(&mut self, _frame: usize) {}
    fn on_insert(&mut self, frame: usize) {
        self.order.move_to_head(frame);
    }
    fn evict(&mut self, pinned: &[bool]) -> usize {
        self.order.oldest_unpinned(pinned)
    }
    fn on_remove(&mut self, frame: usize) {
        self.order.remove(frame);
    }
}

/// Second-chance ("clock") replacement (ablation: approximates LRU with one
/// reference bit per frame).
#[derive(Debug, Default)]
pub struct ClockPolicy {
    referenced: Vec<bool>,
    hand: usize,
}

impl ClockPolicy {
    /// Creates the policy; the pool resizes it on attach.
    pub fn new() -> Self {
        Self::default()
    }
}

impl ReplacementPolicy for ClockPolicy {
    fn resize(&mut self, frames: usize) {
        self.referenced.resize(frames, false);
        if self.hand >= frames {
            self.hand = 0;
        }
    }
    fn on_hit(&mut self, frame: usize) {
        self.referenced[frame] = true;
    }
    fn on_insert(&mut self, frame: usize) {
        self.referenced[frame] = true;
    }
    fn evict(&mut self, pinned: &[bool]) -> usize {
        let n = self.referenced.len();
        assert!(n > 0, "evict called on zero-capacity pool");
        debug_assert!(pinned.iter().any(|&p| !p), "every frame pinned");
        loop {
            let f = self.hand;
            self.hand = (self.hand + 1) % n;
            if pinned[f] {
                continue;
            }
            if self.referenced[f] {
                self.referenced[f] = false;
            } else {
                return f;
            }
        }
    }
    fn on_remove(&mut self, frame: usize) {
        self.referenced[frame] = false;
    }
}

/// Logical-access counters maintained by the buffer pool.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BufferStats {
    /// Logical page reads requested by callers.
    pub logical_reads: u64,
    /// Reads served from cache.
    pub hits: u64,
    /// Reads that had to touch the page file — the paper's *disk accesses*.
    pub misses: u64,
    /// Pages evicted to make room.
    pub evictions: u64,
    /// Logical writes (write-through).
    pub writes: u64,
}

impl BufferStats {
    /// Cache hit rate in `[0, 1]`; 0 when no reads happened.
    pub fn hit_rate(&self) -> f64 {
        if self.logical_reads == 0 {
            0.0
        } else {
            self.hits as f64 / self.logical_reads as f64
        }
    }
}

struct Frame {
    page: PageId,
    data: PageBytes,
    /// Whether a [`BufferPool::read_checked`] check has passed on `data`.
    checked: bool,
}

impl Frame {
    fn new(page: PageId, data: PageBytes) -> Self {
        Frame {
            page,
            data,
            checked: false,
        }
    }

    /// This frame's bytes, running `check` on them first unless a check
    /// already passed on them. A pool's pages are checked by one rule (the
    /// R-tree's node format): the flag does not say which check passed.
    fn checked<E>(&mut self, check: impl FnOnce(&[u8]) -> Result<(), E>) -> Result<PageBytes, E> {
        if !self.checked {
            check(&self.data)?;
            self.checked = true;
        }
        Ok(self.data.clone())
    }
}

struct State {
    capacity: usize,
    /// Frames handed out so far — at most `capacity`, grown one at a time
    /// by [`complete_miss`](Self::complete_miss): `capacity` is outside
    /// input (the shell's `buffer` command) and must not size an allocation.
    /// `pinned` and the policy's bookkeeping have the same length.
    frames: Vec<Option<Frame>>,
    map: HashMap<PageId, usize, BuildHasherDefault<PageHasher>>,
    /// Frames emptied by `free_page`, reused before a new one is made.
    free_frames: Vec<usize>,
    pinned: Vec<bool>,
    pinned_count: usize,
    policy: Box<dyn ReplacementPolicy>,
    stats: BufferStats,
    /// Moves with every `write_page` and `free_page`. A miss samples it
    /// when it drops the lock for its file read; if it has moved by the
    /// time the miss is accounted, the bytes read may predate a write of
    /// the page, so they are not cached.
    generation: u64,
}

impl State {
    /// Frame `f`, which `map` points at.
    // Frame indices come from `map`, which only points at occupied
    // in-capacity frames (structural invariant of the pool state).
    #[expect(clippy::expect_used, reason = "`map` only points at occupied frames")]
    fn mapped(&mut self, f: usize) -> &mut Frame {
        self.frames[f]
            .as_mut()
            .expect("mapped frame must be occupied")
    }

    /// Serves `id` from cache if resident, counting a hit.
    fn try_hit(&mut self, id: PageId) -> Option<&mut Frame> {
        let f = *self.map.get(&id)?;
        self.stats.logical_reads += 1;
        self.stats.hits += 1;
        self.policy.on_hit(f);
        Some(self.mapped(f))
    }

    /// Accounts one successful miss and installs the page (capacity and
    /// pins permitting) unless a write or free landed since the miss
    /// sampled `generation`. If another thread installed `id` while the
    /// file read ran outside the state lock, the existing frame is kept.
    /// Returns the frame holding `id` when it holds exactly `data` — the
    /// one a check of `data` may mark.
    fn complete_miss(
        &mut self,
        id: PageId,
        data: &PageBytes,
        generation: u64,
    ) -> Option<&mut Frame> {
        self.stats.logical_reads += 1;
        self.stats.misses += 1;
        if generation != self.generation {
            return None;
        }
        let f = self.install(id, data)?;
        Some(self.mapped(f)).filter(|frame| Arc::ptr_eq(&frame.data, data))
    }

    /// The cache half of [`complete_miss`](Self::complete_miss): the frame
    /// that holds `id` afterwards, if any.
    // Frame indices come from the free list, the frame just pushed or the
    // eviction policy, all below `frames.len()` (structural invariant of
    // the pool state).
    fn install(&mut self, id: PageId, data: &PageBytes) -> Option<usize> {
        if self.capacity == 0 {
            return None;
        }
        if let Some(&f) = self.map.get(&id) {
            return Some(f);
        }
        let frame = match self.free_frames.pop() {
            Some(f) => f,
            None if self.frames.len() < self.capacity => {
                self.frames.push(None);
                self.pinned.push(false);
                self.policy.resize(self.frames.len());
                self.frames.len() - 1
            }
            None if self.pinned_count < self.capacity => {
                let victim = self.policy.evict(&self.pinned);
                debug_assert!(!self.pinned[victim], "policy evicted a pinned frame");
                #[expect(clippy::expect_used, reason = "no free frame: the victim is occupied")]
                let old = self.frames[victim]
                    .take()
                    .expect("victim frame must be occupied");
                self.map.remove(&old.page);
                self.stats.evictions += 1;
                victim
            }
            // Every frame pinned: serve the read uncached.
            None => return None,
        };
        self.frames[frame] = Some(Frame::new(id, data.clone()));
        self.map.insert(id, frame);
        self.policy.on_insert(frame);
        Some(frame)
    }

    fn reset_cache(&mut self, capacity: usize) {
        self.capacity = capacity;
        self.map.clear();
        self.frames.clear();
        self.free_frames.clear();
        self.pinned.clear();
        self.pinned_count = 0;
        self.policy.resize(0);
    }
}

/// A page cache in front of a [`PageFile`].
///
/// * Read path: [`read_page`](BufferPool::read_page) returns the page
///   contents as cheaply-cloneable [`PageBytes`]; a miss faults the page in and
///   (capacity permitting) caches it, evicting per the policy. Miss I/O runs
///   under the file's shared read guard with the bookkeeping mutex released,
///   so concurrent misses overlap, and
///   [`read_checked`](BufferPool::read_checked) returns the bytes of a page
///   that passed a caller's check, checking at most once per residency.
/// * Write path: write-through — the file always holds the latest data, and
///   a cached copy is refreshed in place (unchecked again).
/// * Interior mutability: all methods take `&self` so two trees can be read
///   concurrently by one query algorithm.
pub struct BufferPool {
    file: RwLock<Box<dyn PageFile>>,
    state: Mutex<State>,
    /// Present when the pool's file is a [`SchedPageFile`]: miss I/O goes
    /// through the scheduler (dedup, coalescing) and
    /// [`prefetch`](Self::prefetch) becomes live.
    sched: Option<SchedHandle>,
}

impl BufferPool {
    /// Creates a pool over `file` with `capacity` frames and the given policy.
    pub fn new(
        file: Box<dyn PageFile>,
        capacity: usize,
        mut policy: Box<dyn ReplacementPolicy>,
    ) -> Self {
        policy.resize(0);
        BufferPool {
            file: RwLock::new(file),
            state: Mutex::new(State {
                capacity,
                frames: Vec::new(),
                map: HashMap::default(),
                free_frames: Vec::new(),
                pinned: Vec::new(),
                pinned_count: 0,
                policy,
                stats: BufferStats::default(),
                generation: 0,
            }),
            sched: None,
        }
    }

    /// Convenience: LRU pool (the paper's configuration).
    pub fn with_lru(file: Box<dyn PageFile>, capacity: usize) -> Self {
        Self::new(file, capacity, Box::new(LruPolicy::new()))
    }

    /// LRU pool whose miss I/O runs through an I/O scheduler
    /// ([`SchedPageFile`]) wrapped around `inner`: concurrent misses for
    /// one page dedup onto one physical read, contiguous misses coalesce
    /// into span reads, and [`prefetch`](Self::prefetch) hints are served
    /// in idle gaps. The accounting contract is unchanged —
    /// `misses == io.reads` at quiescence (see `crate::sched`).
    pub fn with_lru_scheduled(inner: Box<dyn PageFile>, capacity: usize, cfg: SchedConfig) -> Self {
        let sched_file = SchedPageFile::new(inner, cfg);
        let handle = sched_file.handle();
        let mut pool = Self::with_lru(Box::new(sched_file), capacity);
        pool.sched = Some(handle);
        pool
    }

    /// Scheduler counters (coalesce ratio, prefetch outcomes, stall time),
    /// or `None` for an unscheduled pool.
    pub fn sched_stats(&self) -> Option<SchedStats> {
        self.sched.as_ref().map(|s| s.stats())
    }

    /// Hints that `ids` will likely be read soon. On a scheduled pool the
    /// pages are fetched at low priority in I/O idle gaps (a later miss
    /// claims the buffered result or joins the in-flight read instead of
    /// stalling on a fresh one); on an unscheduled pool this is a no-op.
    /// Prefetch bypasses the cache and its counters entirely — no
    /// `logical_reads`, hit, or miss moves until a real read arrives.
    pub fn prefetch(&self, ids: &[PageId]) {
        if let Some(s) = &self.sched {
            s.prefetch(ids);
        }
    }

    /// Page size of the underlying file.
    pub fn page_size(&self) -> usize {
        sync::read(&self.file).page_size()
    }

    /// Number of pages in the underlying file.
    pub fn num_pages(&self) -> u32 {
        sync::read(&self.file).num_pages()
    }

    /// Current frame capacity.
    pub fn capacity(&self) -> usize {
        sync::lock(&self.state).capacity
    }

    /// Allocates a fresh page in the underlying file.
    pub fn allocate(&self) -> StorageResult<PageId> {
        sync::write(&self.file).allocate()
    }

    /// Reads a page, through the cache.
    ///
    /// A miss whose file read overlaps a `write_page` or `free_page` (of
    /// any page) is counted but not cached, so a later hit never serves
    /// bytes older than a completed write.
    ///
    /// Counters move only when the read *succeeds*: a failed physical read
    /// (out of bounds, freed page, I/O error, corrupt checksum) leaves
    /// `logical_reads`, `hits`, and `misses` all untouched. That preserves
    /// the bookkeeping invariants `logical_reads == hits + misses` and
    /// `misses == io.reads` whenever no read is in flight — counting the
    /// miss up front would let the two sides disagree forever after the
    /// first failed read.
    pub fn read_page(&self, id: PageId) -> StorageResult<PageBytes> {
        let generation = {
            let mut st = sync::lock(&self.state);
            if let Some(frame) = st.try_hit(id) {
                return Ok(frame.data.clone());
            }
            st.generation
        };
        let data = self.fetch(id)?;
        sync::lock(&self.state).complete_miss(id, &data, generation);
        Ok(data)
    }

    /// [`read_page`](Self::read_page) of a page that must pass `check` —
    /// the R-tree's node read.
    ///
    /// The frame remembers that its bytes passed, so `check` runs at most
    /// once per residency: a hit on a checked frame costs what a
    /// `read_page` hit costs. It runs under the state mutex the hit (or the
    /// miss's accounting) already holds, so no write can slip between the
    /// bytes it checks and the frame it marks; `check` must therefore not
    /// call back into this pool. Hits, misses, logical reads, evictions and
    /// the victim are exactly `read_page`'s, the miss counted before
    /// `check` runs: a page that reads but fails its check moves the books
    /// as `read_page` followed by a failed check does, and stays unchecked.
    /// A read the pool cannot cache (zero capacity, every frame pinned, a
    /// write or free during its file read) checks outside the lock.
    pub fn read_checked<E>(
        &self,
        id: PageId,
        check: impl FnOnce(&[u8]) -> Result<(), E>,
    ) -> Result<PageBytes, E>
    where
        E: From<StorageError>,
    {
        let mut st = sync::lock(&self.state);
        if let Some(frame) = st.try_hit(id) {
            return frame.checked(check);
        }
        let generation = st.generation;
        drop(st);
        let data = self.fetch(id)?;
        let mut st = sync::lock(&self.state);
        if let Some(frame) = st.complete_miss(id, &data, generation) {
            return frame.checked(check);
        }
        drop(st);
        check(&data)?;
        Ok(data)
    }

    /// The physical read of one miss, under the shared file guard with the
    /// state unlocked, so concurrent misses (and their latencies) overlap.
    /// A scheduled pool demands through the handle — the result arrives as
    /// `PageBytes` already, no copy out of a caller buffer.
    fn fetch(&self, id: PageId) -> StorageResult<PageBytes> {
        let file = sync::read(&self.file);
        match &self.sched {
            Some(s) => s.demand(id),
            None => file.read_bytes(id),
        }
    }

    /// Writes a page, write-through, refreshing any cached copy (unchecked
    /// until a [`read_checked`](Self::read_checked) checks the new bytes).
    /// `data` may be shorter than the page size (the rest of the page reads
    /// as zero), and a cached copy is then that short; a longer `data` is
    /// refused as [`StorageError::WrongBufferSize`]. As with
    /// [`read_page`](Self::read_page), the `writes` counter moves only on
    /// success, keeping it equal to the file's physical write count.
    pub fn write_page(&self, id: PageId, data: &[u8]) -> StorageResult<()> {
        let mut st = sync::lock(&self.state);
        let stored = sync::write(&self.file).write_shared(id, data)?;
        st.stats.writes += 1;
        st.generation += 1;
        if let Some(&f) = st.map.get(&id) {
            let data = stored.unwrap_or_else(|| PageBytes::from(data));
            *st.mapped(f) = Frame::new(id, data);
            st.policy.on_hit(f);
        }
        Ok(())
    }

    /// Frees a page and drops any cached copy (clearing any pin).
    pub fn free_page(&self, id: PageId) -> StorageResult<()> {
        let mut st = sync::lock(&self.state);
        st.generation += 1;
        if let Some(f) = st.map.remove(&id) {
            st.frames[f] = None;
            st.free_frames.push(f);
            if st.pinned[f] {
                st.pinned[f] = false;
                st.pinned_count -= 1;
            }
            st.policy.on_remove(f);
        }
        sync::write(&self.file).free(id)
    }

    /// Pins a page: it is faulted into the cache (if not resident) and never
    /// evicted until [`unpin_page`](Self::unpin_page), [`clear`](Self::clear)
    /// or [`set_capacity`](Self::set_capacity). Returns `false` when the
    /// pool has no capacity or no unpinned frame to hold it.
    ///
    /// Use case: keeping the upper levels of an R-tree resident, a common
    /// production policy the paper's B/2-LRU experiments do not model (see
    /// EXPERIMENTS.md note 3).
    pub fn pin_page(&self, id: PageId) -> StorageResult<bool> {
        // Fault it in through the normal path first.
        self.read_page(id)?;
        let mut st = sync::lock(&self.state);
        match st.map.get(&id).copied() {
            Some(f) => {
                if !st.pinned[f] {
                    st.pinned[f] = true;
                    st.pinned_count += 1;
                }
                Ok(true)
            }
            None => Ok(false), // capacity 0 or everything pinned
        }
    }

    /// Removes the pin from a page, if it was pinned.
    pub fn unpin_page(&self, id: PageId) {
        let mut st = sync::lock(&self.state);
        if let Some(&f) = st.map.get(&id) {
            if st.pinned[f] {
                st.pinned[f] = false;
                st.pinned_count -= 1;
            }
        }
    }

    /// Number of currently pinned pages.
    pub fn pinned_pages(&self) -> usize {
        sync::lock(&self.state).pinned_count
    }

    /// Buffer-level counters.
    pub fn buffer_stats(&self) -> BufferStats {
        sync::lock(&self.state).stats
    }

    /// Physical counters of the underlying file.
    pub fn io_stats(&self) -> IoStats {
        sync::read(&self.file).stats()
    }

    /// Both counter sets, read under one state-lock critical section.
    ///
    /// Counters move only with successful page operations, so whenever no
    /// miss is in flight the books balance: `logical_reads == hits + misses`
    /// and `misses == io.reads`. Because miss I/O runs outside the state
    /// mutex, a snapshot taken *while* another thread faults a page in may
    /// transiently observe `io.reads` ahead of `misses` (the physical read
    /// has happened, its accounting has not); the gap closes as soon as the
    /// miss completes. Calling [`buffer_stats`](Self::buffer_stats) and
    /// [`io_stats`](Self::io_stats) separately widens that window;
    /// concurrent consumers (the `cpq-service` metrics layer) use this
    /// method instead.
    pub fn stats_snapshot(&self) -> (BufferStats, IoStats) {
        let st = sync::lock(&self.state);
        let io = sync::read(&self.file).stats();
        (st.stats, io)
    }

    /// Flushes the underlying file's buffered state (header, metadata) to
    /// durable storage; no-op for in-memory files.
    pub fn sync(&self) -> StorageResult<()> {
        sync::write(&self.file).sync()
    }

    /// Resets both buffer and file counters.
    pub fn reset_stats(&self) {
        let mut st = sync::lock(&self.state);
        st.stats = BufferStats::default();
        sync::write(&self.file).reset_stats();
    }

    /// Drops every cached page and pin (counters are kept).
    pub fn clear(&self) {
        let mut st = sync::lock(&self.state);
        let capacity = st.capacity;
        st.reset_cache(capacity);
    }

    /// Changes the frame capacity, dropping all cached pages.
    ///
    /// Experiments build trees with a roomy cache, then call this with the
    /// per-tree budget `B/2` (and [`reset_stats`](Self::reset_stats)) before
    /// measuring queries.
    pub fn set_capacity(&self, capacity: usize) {
        sync::lock(&self.state).reset_cache(capacity);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::file::MemPageFile;

    fn pool_with(capacity: usize, policy: Box<dyn ReplacementPolicy>) -> BufferPool {
        let file = MemPageFile::new(64);
        BufferPool::new(Box::new(file), capacity, policy)
    }

    fn fill(pool: &BufferPool, n: usize) -> Vec<PageId> {
        (0..n)
            .map(|i| {
                let id = pool.allocate().unwrap();
                pool.write_page(id, &[i as u8; 64]).unwrap();
                id
            })
            .collect()
    }

    /// The min-stamp policies the [`FrameList`] replaced, kept as the
    /// oracle: a monotone stamp per frame (`0` = unused), eviction scans for
    /// the minimum. LRU restamps on a hit, FIFO does not.
    struct StampOracle {
        restamp_on_hit: bool,
        stamp: Vec<u64>,
        clock: u64,
    }

    impl StampOracle {
        fn boxed(restamp_on_hit: bool) -> Box<dyn ReplacementPolicy> {
            Box::new(StampOracle {
                restamp_on_hit,
                stamp: Vec::new(),
                clock: 0,
            })
        }
    }

    impl ReplacementPolicy for StampOracle {
        fn resize(&mut self, frames: usize) {
            self.stamp.resize(frames, 0);
        }
        fn on_hit(&mut self, frame: usize) {
            if self.restamp_on_hit {
                self.on_insert(frame);
            }
        }
        fn on_insert(&mut self, frame: usize) {
            self.clock += 1;
            self.stamp[frame] = self.clock;
        }
        fn evict(&mut self, pinned: &[bool]) -> usize {
            (0..self.stamp.len())
                .filter(|&f| !pinned[f])
                .min_by_key(|&f| self.stamp[f])
                .expect("evict called with every frame pinned")
        }
        fn on_remove(&mut self, frame: usize) {
            self.stamp[frame] = 0;
        }
    }

    /// Page -> frame of everything resident, sorted.
    fn resident(pool: &BufferPool) -> Vec<(PageId, usize)> {
        let mut r: Vec<_> = sync::lock(&pool.state)
            .map
            .iter()
            .map(|(&p, &f)| (p, f))
            .collect();
        r.sort_unstable();
        r
    }

    /// The bytes of `id` through `read_checked`, counting the checks.
    fn read_counted(pool: &BufferPool, id: PageId, checks: &mut u64) -> PageBytes {
        let check = |_: &[u8]| {
            *checks += 1;
            Ok::<_, StorageError>(())
        };
        pool.read_checked(id, check).unwrap()
    }

    /// One seeded trace of every pool operation that reaches the policy,
    /// through an oracle pool and two real ones, the third reading through
    /// `read_checked`: the same verdict for every read, the same pages in
    /// the same frames and the same books after every step. The checked
    /// reads return the bytes `read_page` returns, and check exactly when
    /// the frame holds no checked bytes yet — never trusting a check made
    /// before a write, a free or the frame's reuse.
    #[test]
    fn the_list_evicts_what_the_min_stamp_scan_evicts() {
        use cpq_rng::Rng;
        use std::collections::HashSet;
        let real = |lru: bool| -> Box<dyn ReplacementPolicy> {
            if lru {
                Box::new(LruPolicy::new())
            } else {
                Box::new(FifoPolicy::new())
            }
        };
        for restamp_on_hit in [true, false] {
            for capacity in 1..=64usize {
                let pools = [
                    pool_with(capacity, StampOracle::boxed(restamp_on_hit)),
                    pool_with(capacity, real(restamp_on_hit)),
                    pool_with(capacity, real(restamp_on_hit)),
                ];
                // About twice the capacity in pages: hits and evictions mix.
                let mut live = fill(&pools[0], 2 * capacity + 2);
                assert_eq!(live, fill(&pools[1], 2 * capacity + 2));
                assert_eq!(live, fill(&pools[2], 2 * capacity + 2));
                // Pages whose frame in the third pool holds checked bytes.
                let mut checked: HashSet<PageId> = HashSet::new();
                let mut checks = 0;
                let mut rng = Rng::seed_from_u64(capacity as u64 * 2 + restamp_on_hit as u64);
                for step in 0..600 {
                    let id = live[rng.random_range(0..live.len())];
                    let what = format!("lru={restamp_on_hit} capacity={capacity} step={step}");
                    // A value of its own per write, so a stale one shows.
                    let written = [(step % 251) as u8; 64];
                    match rng.random_range(0..100u32) {
                        0..=69 => {
                            let mut bytes = None;
                            let verdicts = pools.each_ref().map(|p| {
                                let before = p.buffer_stats();
                                if std::ptr::eq(p, &pools[2]) {
                                    let was = checks;
                                    let value = read_counted(p, id, &mut checks);
                                    let hit = p.buffer_stats().hits > before.hits;
                                    let want = u64::from(!(hit && checked.contains(&id)));
                                    assert_eq!(checks - was, want, "{what}: checks of {id:?}");
                                    checked.insert(id);
                                    assert_eq!(Some(&value[..]), bytes.as_deref(), "{what}");
                                } else {
                                    bytes = Some(p.read_page(id).unwrap().to_vec());
                                }
                                let after = p.buffer_stats();
                                (after.hits - before.hits, after.evictions - before.evictions)
                            });
                            assert_eq!(verdicts[0], verdicts[1], "{what}: read {id:?}");
                            assert_eq!(verdicts[1], verdicts[2], "{what}: checked read {id:?}");
                        }
                        70..=77 => {
                            pools
                                .iter()
                                .for_each(|p| p.write_page(id, &written).unwrap());
                            checked.remove(&id);
                        }
                        78..=84 => {
                            let pinned = pools.each_ref().map(|p| p.pin_page(id).unwrap());
                            assert_eq!(pinned[0], pinned[1], "{what}: pin {id:?}");
                            assert_eq!(pinned[1], pinned[2], "{what}: pin {id:?}");
                        }
                        85..=91 => pools.iter().for_each(|p| p.unpin_page(id)),
                        92..=96 => {
                            let fresh = pools.each_ref().map(|p| {
                                p.free_page(id).unwrap();
                                let fresh = p.allocate().unwrap();
                                p.write_page(fresh, &written).unwrap();
                                fresh
                            });
                            assert_eq!(fresh[0], fresh[1], "{what}: allocate");
                            assert_eq!(fresh[1], fresh[2], "{what}: allocate");
                            live.retain(|&l| l != id);
                            live.push(fresh[0]);
                        }
                        97 => pools.iter().for_each(BufferPool::clear),
                        _ => {
                            let to = rng.random_range(1..=64usize);
                            pools.iter().for_each(|p| p.set_capacity(to));
                        }
                    }
                    let frames = resident(&pools[0]);
                    assert_eq!(frames, resident(&pools[1]), "{what}");
                    assert_eq!(frames, resident(&pools[2]), "{what}");
                    checked.retain(|p| frames.iter().any(|&(r, _)| r == *p));
                    let books = pools[0].buffer_stats();
                    assert_eq!(books, pools[1].buffer_stats(), "{what}");
                    assert_eq!(books, pools[2].buffer_stats(), "{what}");
                    assert_eq!(pools[0].pinned_pages(), pools[1].pinned_pages(), "{what}");
                    assert_eq!(pools[1].pinned_pages(), pools[2].pinned_pages(), "{what}");
                }
            }
        }
    }

    #[test]
    fn a_page_is_checked_once_per_residency_and_never_stale() {
        let pool = pool_with(2, Box::new(LruPolicy::new()));
        let ids = fill(&pool, 3);
        let mut checks = 0;
        for _ in 0..3 {
            assert_eq!(&read_counted(&pool, ids[0], &mut checks)[..], [0; 64]);
        }
        assert_eq!(checks, 1, "a miss and two hits on one residency");
        // A write replaces the bytes the check passed.
        pool.write_page(ids[0], &[5; 64]).unwrap();
        assert_eq!(&read_counted(&pool, ids[0], &mut checks)[..], [5; 64]);
        assert_eq!(checks, 2);
        // Evicted and read again: a new residency, checked again.
        pool.read_page(ids[1]).unwrap();
        pool.read_page(ids[2]).unwrap();
        assert_eq!(&read_counted(&pool, ids[0], &mut checks)[..], [5; 64]);
        assert_eq!(checks, 3);
        // Freed, and the id allocated again with other bytes.
        pool.free_page(ids[0]).unwrap();
        assert_eq!(pool.allocate().unwrap(), ids[0]);
        pool.write_page(ids[0], &[6; 64]).unwrap();
        assert_eq!(&read_counted(&pool, ids[0], &mut checks)[..], [6; 64]);
        // `clear` and `set_capacity` drop the frames and their flags.
        for drop_frames in [BufferPool::clear, |p: &BufferPool| p.set_capacity(2)] {
            drop_frames(&pool);
            let before = checks;
            read_counted(&pool, ids[0], &mut checks);
            assert_eq!(checks, before + 1);
        }
    }

    #[test]
    fn a_page_that_fails_its_check_moves_the_books_as_read_page_does() {
        let pools = [0, 1].map(|_| pool_with(2, Box::new(LruPolicy::new())));
        let ids = pools.each_ref().map(|p| fill(p, 2));
        let mut checks = 0;
        let mut refuse = |_: &[u8]| {
            checks += 1;
            Err(StorageError::PageFreed(PageId(0)))
        };
        for _ in 0..2 {
            pools[0].read_page(ids[0][1]).unwrap();
            assert!(pools[1].read_checked(ids[1][1], &mut refuse).is_err());
            assert_eq!(pools[0].buffer_stats(), pools[1].buffer_stats());
            assert_eq!(resident(&pools[0]), resident(&pools[1]));
        }
        // The second read was a hit on a frame no check passed: checked again.
        assert_eq!(checks, 2);
    }

    /// The page as the pool's frame holds it and as its file stores it.
    fn frame_and_file(pool: &BufferPool, id: PageId) -> (PageBytes, PageBytes) {
        let mut st = sync::lock(&pool.state);
        let f = st.map[&id];
        let frame = st.mapped(f).data.clone();
        (frame, sync::read(&pool.file).read_bytes(id).unwrap())
    }

    #[test]
    fn a_resident_page_is_stored_once() {
        let pool = pool_with(2, Box::new(LruPolicy::new()));
        let ids = fill(&pool, 2);
        pool.clear();
        pool.read_page(ids[0]).unwrap();
        let (frame, file) = frame_and_file(&pool, ids[0]);
        assert!(Arc::ptr_eq(&frame, &file), "a miss copied the page");
        pool.write_page(ids[0], &[3; 64]).unwrap();
        let (frame, file) = frame_and_file(&pool, ids[0]);
        assert!(Arc::ptr_eq(&frame, &file), "a write stored the page twice");
        assert_eq!(&frame[..], &[3; 64]);
    }

    /// A full 65,536-frame pool takes 65,536 further cold misses, each an
    /// eviction: 65,536 list steps (the min-stamp scan read 4·10⁹ stamps
    /// here, minutes of work in a debug build).
    #[test]
    fn eviction_does_not_scale_with_the_pool() {
        const FRAMES: usize = 1 << 16;
        let pool = BufferPool::with_lru(Box::new(MemPageFile::new(16)), FRAMES);
        let ids: Vec<PageId> = (0..2 * FRAMES).map(|_| pool.allocate().unwrap()).collect();
        for &id in &ids {
            pool.read_page(id).unwrap();
        }
        let s = pool.buffer_stats();
        assert_eq!((s.misses, s.evictions), (2 * FRAMES as u64, FRAMES as u64));
        // The survivors are the second half, oldest first out.
        pool.read_page(ids[FRAMES]).unwrap();
        assert_eq!(pool.buffer_stats().hits, 1);
    }

    #[test]
    fn zero_capacity_counts_every_read_as_miss() {
        let pool = pool_with(0, Box::new(LruPolicy::new()));
        let ids = fill(&pool, 3);
        pool.reset_stats();
        for _ in 0..5 {
            for &id in &ids {
                pool.read_page(id).unwrap();
            }
        }
        let s = pool.buffer_stats();
        assert_eq!(s.logical_reads, 15);
        assert_eq!(s.misses, 15);
        assert_eq!(s.hits, 0);
        assert_eq!(pool.io_stats().reads, 15);
    }

    #[test]
    fn hits_served_from_cache() {
        let pool = pool_with(4, Box::new(LruPolicy::new()));
        let ids = fill(&pool, 3);
        pool.reset_stats();
        for _ in 0..5 {
            for &id in &ids {
                pool.read_page(id).unwrap();
            }
        }
        let s = pool.buffer_stats();
        assert_eq!(s.misses, 3, "each page faults exactly once");
        assert_eq!(s.hits, 12);
        assert_eq!(pool.io_stats().reads, 3);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let pool = pool_with(2, Box::new(LruPolicy::new()));
        let ids = fill(&pool, 3);
        pool.reset_stats();
        pool.read_page(ids[0]).unwrap(); // miss, cache {0}
        pool.read_page(ids[1]).unwrap(); // miss, cache {0,1}
        pool.read_page(ids[0]).unwrap(); // hit, 0 becomes most recent
        pool.read_page(ids[2]).unwrap(); // miss, evicts 1 (LRU), cache {0,2}
        pool.read_page(ids[0]).unwrap(); // hit -> proves 0 survived, 1 was the victim
        pool.read_page(ids[1]).unwrap(); // miss, evicts 2, cache {0,1}
        let s = pool.buffer_stats();
        assert_eq!(s.misses, 4);
        assert_eq!(s.hits, 2);
    }

    #[test]
    fn fifo_ignores_recency() {
        let pool = pool_with(2, Box::new(FifoPolicy::new()));
        let ids = fill(&pool, 3);
        pool.reset_stats();
        pool.read_page(ids[0]).unwrap(); // miss {0}
        pool.read_page(ids[1]).unwrap(); // miss {0,1}
        pool.read_page(ids[0]).unwrap(); // hit; FIFO order unchanged
        pool.read_page(ids[2]).unwrap(); // miss, evicts 0 (oldest insert)
        pool.read_page(ids[0]).unwrap(); // miss -> proves 0 was evicted
        let s = pool.buffer_stats();
        assert_eq!(s.misses, 4);
        assert_eq!(s.hits, 1);
    }

    #[test]
    fn clock_gives_second_chances() {
        let pool = pool_with(2, Box::new(ClockPolicy::new()));
        let ids = fill(&pool, 3);
        pool.reset_stats();
        pool.read_page(ids[0]).unwrap();
        pool.read_page(ids[1]).unwrap();
        pool.read_page(ids[2]).unwrap(); // all ref bits true -> sweep clears, evicts frame 0
        pool.read_page(ids[1]).unwrap(); // page 1 still cached? frame0 held page0 -> evicted; 1 remains
        let s = pool.buffer_stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 3);
    }

    #[test]
    fn write_through_updates_cache() {
        let pool = pool_with(2, Box::new(LruPolicy::new()));
        let ids = fill(&pool, 1);
        pool.read_page(ids[0]).unwrap(); // cache it
        pool.write_page(ids[0], &[9u8; 64]).unwrap();
        let bytes = pool.read_page(ids[0]).unwrap();
        assert_eq!(&bytes[..], &vec![9u8; 64][..]);
        // That read must have been a hit (cache refreshed, not invalidated).
        assert!(pool.buffer_stats().hits >= 1);
    }

    #[test]
    fn free_page_purges_cache() {
        let pool = pool_with(2, Box::new(LruPolicy::new()));
        let ids = fill(&pool, 1);
        pool.read_page(ids[0]).unwrap();
        pool.free_page(ids[0]).unwrap();
        assert!(
            pool.read_page(ids[0]).is_err(),
            "freed page must not be readable"
        );
    }

    #[test]
    fn set_capacity_clears_and_resizes() {
        let pool = pool_with(4, Box::new(LruPolicy::new()));
        let ids = fill(&pool, 4);
        for &id in &ids {
            pool.read_page(id).unwrap();
        }
        pool.set_capacity(1);
        pool.reset_stats();
        pool.read_page(ids[0]).unwrap();
        pool.read_page(ids[1]).unwrap();
        pool.read_page(ids[0]).unwrap();
        let s = pool.buffer_stats();
        assert_eq!(s.misses, 3, "capacity 1 thrashes on alternating pages");
    }

    #[test]
    fn pinned_pages_survive_eviction_pressure() {
        let pool = pool_with(2, Box::new(LruPolicy::new()));
        let ids = fill(&pool, 5);
        assert!(pool.pin_page(ids[0]).unwrap());
        assert_eq!(pool.pinned_pages(), 1);
        pool.reset_stats();
        // Thrash through the other pages; the pinned one must stay resident.
        for _ in 0..3 {
            for &id in &ids[1..] {
                pool.read_page(id).unwrap();
            }
        }
        pool.read_page(ids[0]).unwrap();
        let s = pool.buffer_stats();
        assert_eq!(s.hits, 1, "pinned page must still be cached");
    }

    #[test]
    fn unpin_restores_evictability() {
        let pool = pool_with(1, Box::new(LruPolicy::new()));
        let ids = fill(&pool, 2);
        assert!(pool.pin_page(ids[0]).unwrap());
        // With the single frame pinned, other reads bypass the cache.
        pool.read_page(ids[1]).unwrap();
        pool.reset_stats();
        pool.read_page(ids[0]).unwrap();
        assert_eq!(pool.buffer_stats().hits, 1);
        pool.unpin_page(ids[0]);
        assert_eq!(pool.pinned_pages(), 0);
        pool.read_page(ids[1]).unwrap(); // now evicts the unpinned page
        pool.reset_stats();
        pool.read_page(ids[0]).unwrap();
        assert_eq!(pool.buffer_stats().misses, 1, "unpinned page was evicted");
    }

    #[test]
    fn pin_fails_gracefully_without_capacity() {
        let pool = pool_with(0, Box::new(LruPolicy::new()));
        let ids = fill(&pool, 1);
        assert!(!pool.pin_page(ids[0]).unwrap());
        assert_eq!(pool.pinned_pages(), 0);
    }

    #[test]
    fn all_pinned_pool_serves_reads_uncached() {
        let pool = pool_with(1, Box::new(ClockPolicy::new()));
        let ids = fill(&pool, 3);
        assert!(pool.pin_page(ids[0]).unwrap());
        // Second pin cannot displace the first.
        assert!(!pool.pin_page(ids[1]).unwrap());
        // Reads still work, just uncached.
        for _ in 0..3 {
            pool.read_page(ids[2]).unwrap();
        }
        assert_eq!(pool.pinned_pages(), 1);
    }

    #[test]
    fn a_capacity_from_outside_allocates_nothing_up_front() {
        // Either call used to abort the process: 2^44 frames' worth of
        // bookkeeping is a 400 TB allocation, `usize::MAX` a capacity
        // overflow. Frames now appear as pages are cached.
        for policy in [
            Box::new(LruPolicy::new()) as Box<dyn ReplacementPolicy>,
            Box::new(FifoPolicy::new()),
            Box::new(ClockPolicy::new()),
        ] {
            let pool = pool_with(2, policy);
            let ids = fill(&pool, 3);
            for capacity in [1 << 44, usize::MAX] {
                pool.set_capacity(capacity);
                assert_eq!(pool.capacity(), capacity);
                pool.reset_stats();
                for _ in 0..2 {
                    for &id in &ids {
                        pool.read_page(id).unwrap();
                    }
                }
                let s = pool.buffer_stats();
                assert_eq!((s.misses, s.hits, s.evictions), (3, 3, 0));
            }
            // Back to a real size: eviction works on the regrown frames.
            pool.set_capacity(2);
            pool.reset_stats();
            for &id in &ids {
                pool.read_page(id).unwrap();
            }
            assert!(pool.pin_page(ids[2]).unwrap());
            pool.read_page(ids[0]).unwrap();
            let s = pool.buffer_stats();
            assert_eq!((s.misses, s.hits, s.evictions), (4, 1, 2));
        }
    }

    #[test]
    fn set_capacity_clears_pins() {
        let pool = pool_with(2, Box::new(LruPolicy::new()));
        let ids = fill(&pool, 1);
        assert!(pool.pin_page(ids[0]).unwrap());
        pool.set_capacity(2);
        assert_eq!(pool.pinned_pages(), 0);
    }

    #[test]
    fn hit_rate() {
        let s = BufferStats {
            logical_reads: 10,
            hits: 4,
            ..Default::default()
        };
        assert_eq!(s.hit_rate(), 0.4);
        assert_eq!(BufferStats::default().hit_rate(), 0.0);
    }

    #[test]
    fn scheduled_pool_keeps_ledger_exact_with_prefetch() {
        let file = MemPageFile::new(64);
        let pool = BufferPool::with_lru_scheduled(Box::new(file), 0, SchedConfig::default());
        let ids = fill(&pool, 8);
        pool.reset_stats();
        // Prefetch half the pages, then read everything twice through a
        // zero-capacity pool: every logical read is a miss, and the ledger
        // must balance exactly even though prefetched physical reads
        // happened with no miss attached.
        pool.prefetch(&ids[..4]);
        for _ in 0..2 {
            for &id in &ids {
                pool.read_page(id).unwrap();
            }
        }
        let (b, io) = pool.stats_snapshot();
        assert_eq!(b.logical_reads, 16);
        assert_eq!(b.misses, 16);
        assert_eq!(b.hits, 0);
        assert_eq!(io.reads, 16, "demand accounting: misses == io.reads");
        let s = pool.sched_stats().unwrap();
        assert!(s.prefetch_hits > 0, "prefetched pages served misses: {s:?}");
        assert_eq!(s.demand_reads, 16);
    }

    #[test]
    fn scheduled_prefetch_coalesces_and_balances() {
        let file = MemPageFile::new(64);
        let pool = BufferPool::with_lru_scheduled(Box::new(file), 4, SchedConfig::default());
        let ids = fill(&pool, 12);
        pool.reset_stats();
        // One hint for a contiguous run, queued under one scheduler lock
        // hold: the first batch an I/O thread takes is the whole run.
        pool.prefetch(&ids);
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(&pool.read_page(id).unwrap()[..], &[i as u8; 64][..]);
        }
        let (b, io) = pool.stats_snapshot();
        assert_eq!(b.logical_reads, 12);
        assert_eq!(b.misses, 12);
        assert_eq!(io.reads, 12);
        let s = pool.sched_stats().unwrap();
        assert!(
            s.physical_pages > s.physical_batches,
            "contiguous prefetched misses must merge into span reads: {s:?}"
        );
    }

    #[test]
    fn scheduled_read_surfaces_error_and_accounts_successes() {
        let file = MemPageFile::new(64);
        let pool = BufferPool::with_lru_scheduled(Box::new(file), 4, SchedConfig::default());
        let ids = fill(&pool, 2);
        pool.reset_stats();
        let batch = [ids[0], PageId(99), ids[1]];
        pool.prefetch(&batch);
        let read: Vec<bool> = batch.iter().map(|&id| pool.read_page(id).is_ok()).collect();
        assert_eq!(read, [true, false, true]);
        let (b, io) = pool.stats_snapshot();
        // Both valid pages are read and accounted; the out-of-bounds one
        // fails and counts nothing, prefetched or not.
        assert_eq!(b.misses, 2);
        assert_eq!(io.reads, 2);
        assert_eq!(b.logical_reads, b.hits + b.misses);
    }

    #[test]
    fn unscheduled_pool_prefetch_is_a_noop() {
        let pool = pool_with(2, Box::new(LruPolicy::new()));
        let ids = fill(&pool, 2);
        pool.reset_stats();
        pool.prefetch(&ids);
        assert!(pool.sched_stats().is_none());
        let (b, io) = pool.stats_snapshot();
        assert_eq!(b.logical_reads, 0);
        assert_eq!(io.reads, 0, "no-op prefetch must not touch the file");
    }

    #[test]
    fn concurrent_misses_keep_books_balanced() {
        let pool = pool_with(2, Box::new(LruPolicy::new()));
        let ids = fill(&pool, 8);
        pool.reset_stats();
        std::thread::scope(|s| {
            for t in 0..4 {
                let pool = &pool;
                let ids = &ids;
                s.spawn(move || {
                    for i in 0..200 {
                        let id = ids[(i * 7 + t * 3) % ids.len()];
                        pool.read_page(id).unwrap();
                    }
                });
            }
        });
        let (b, io) = pool.stats_snapshot();
        assert_eq!(b.logical_reads, 800);
        assert_eq!(b.logical_reads, b.hits + b.misses);
        assert_eq!(b.misses, io.reads, "books balance at quiescence");
    }
}
