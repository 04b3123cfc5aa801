//! Epoch-based snapshot publication and page reclamation.
//!
//! The copy-on-write writer never touches a page reachable from a
//! published root (see `cpq_rtree`'s COW mode), so a reader only needs two
//! things for a consistent snapshot: the `(root, height, len)` descriptor
//! it started from, and a guarantee that the pages reachable from that
//! root stay allocated while it reads. Both come from this registry:
//!
//! * **Publish** — after an update commits, the writer installs the new
//!   descriptor and bumps the epoch. Pages the update *retired* (the
//!   superseded root-to-leaf path) are queued with `retire_epoch` = the
//!   epoch whose snapshots might still reference them.
//! * **Pin** — a reader atomically takes `(epoch, descriptor)` and
//!   registers itself under that epoch. Everything it can reach from the
//!   descriptor predates the pin, and retired pages are only freed once
//!   every pin at or below their `retire_epoch` is gone.
//! * **Reclaim** — on every publish and unpin: while the oldest retired
//!   batch satisfies `retire_epoch < min(active pins)` (strictly — a pin
//!   *at* the retire epoch still reads those pages), its pages go back to
//!   the pool via `free_page`, which purges them from the cache so the
//!   ledger invariant `misses == io.reads` survives reclamation.
//!
//! A durable tree's checkpoint is one more reader: its pin, held until the
//! next checkpoint is durable, keeps the pages recovery replays from out
//! of reuse.
//!
//! This protocol is concurrent model-check site #7 (see `model_tests`),
//! with a pinned broken twin that reclaims with `<=` — the classic
//! off-by-one that frees pages out from under the oldest reader.

use cpq_check::sync::Mutex;
use cpq_storage::PageId;
use std::collections::{BTreeMap, VecDeque};

/// A published tree descriptor: `(root, height, len)`.
pub type Descriptor = (PageId, u8, u64);

/// One batch of pages retired by a single published update.
#[derive(Debug)]
struct RetireBatch {
    /// Snapshots pinned at an epoch `<= retire_epoch` may reference these.
    retire_epoch: u64,
    pages: Vec<PageId>,
}

#[derive(Debug)]
struct EpochState {
    epoch: u64,
    descriptor: Descriptor,
    /// Active pin count per epoch; the minimum key gates reclamation.
    pins: BTreeMap<u64, usize>,
    retired: VecDeque<RetireBatch>,
    pages_retired: u64,
    pages_freed: u64,
}

/// Counter snapshot for `cpq_live_*` metrics.
#[derive(Debug, Clone, Copy, Default)]
pub struct EpochStats {
    /// Current published epoch.
    pub epoch: u64,
    /// Pins currently held: reader snapshots, plus one for a durable
    /// tree's last checkpoint.
    pub active_pins: u64,
    /// Retired pages not yet reclaimable.
    pub pages_pending: u64,
    /// Total pages ever retired.
    pub pages_retired: u64,
    /// Total pages handed back to the pool.
    pub pages_freed: u64,
}

/// The epoch registry: one per live tree.
#[derive(Debug)]
pub struct EpochRegistry {
    state: Mutex<EpochState>,
}

impl EpochRegistry {
    /// New registry publishing `descriptor` at epoch 0.
    pub fn new(descriptor: Descriptor) -> Self {
        EpochRegistry {
            state: Mutex::new(EpochState {
                epoch: 0,
                descriptor,
                pins: BTreeMap::new(),
                retired: VecDeque::new(),
                pages_retired: 0,
                pages_freed: 0,
            }),
        }
    }

    /// Pins the current epoch for a reader; returns `(epoch, descriptor)`.
    /// Must be paired with exactly one [`unpin`](Self::unpin).
    pub fn pin(&self) -> (u64, Descriptor) {
        let mut st = self.state.lock().expect("epoch state poisoned");
        let epoch = st.epoch;
        *st.pins.entry(epoch).or_insert(0) += 1;
        (epoch, st.descriptor)
    }

    /// Releases a pin taken at `epoch`, freeing any batches it was the
    /// last reader to protect through `free`.
    pub fn unpin(&self, epoch: u64, free: &mut dyn FnMut(PageId)) {
        let mut st = self.state.lock().expect("epoch state poisoned");
        match st.pins.get_mut(&epoch) {
            Some(n) if *n > 1 => *n -= 1,
            Some(_) => {
                st.pins.remove(&epoch);
            }
            None => debug_assert!(false, "unpin of epoch {epoch} with no pin"),
        }
        Self::reclaim_locked(&mut st, free);
    }

    /// Publishes `descriptor` as the next epoch, queueing `retired` for
    /// reclamation once no pin can reference them.
    pub fn publish(
        &self,
        descriptor: Descriptor,
        retired: Vec<PageId>,
        free: &mut dyn FnMut(PageId),
    ) {
        let mut st = self.state.lock().expect("epoch state poisoned");
        let old_epoch = st.epoch;
        st.epoch = old_epoch + 1;
        st.descriptor = descriptor;
        if !retired.is_empty() {
            st.pages_retired += retired.len() as u64;
            st.retired.push_back(RetireBatch {
                retire_epoch: old_epoch,
                pages: retired,
            });
        }
        Self::reclaim_locked(&mut st, free);
    }

    /// The current `(epoch, descriptor)` without pinning (metrics /
    /// diagnostics only — do not read pages based on this).
    pub fn current(&self) -> (u64, Descriptor) {
        let st = self.state.lock().expect("epoch state poisoned");
        (st.epoch, st.descriptor)
    }

    /// Counter snapshot.
    pub fn stats(&self) -> EpochStats {
        let st = self.state.lock().expect("epoch state poisoned");
        EpochStats {
            epoch: st.epoch,
            active_pins: st.pins.values().map(|&n| n as u64).sum(),
            pages_pending: st.retired.iter().map(|b| b.pages.len() as u64).sum(),
            pages_retired: st.pages_retired,
            pages_freed: st.pages_freed,
        }
    }

    /// Frees every leading batch whose `retire_epoch` is strictly below
    /// the oldest active pin (no pins → everything queued is dead: future
    /// pins start at the current epoch, which postdates every batch).
    fn reclaim_locked(st: &mut EpochState, free: &mut dyn FnMut(PageId)) {
        let min_pin = st.pins.keys().next().copied().unwrap_or(u64::MAX);
        while st.retired.front().is_some_and(|b| b.retire_epoch < min_pin) {
            // analyze: allow(panic-path) — front() was just checked.
            let batch = st.retired.pop_front().expect("front checked");
            st.pages_freed += batch.pages.len() as u64;
            for p in batch.pages {
                free(p);
            }
        }
    }

    /// The pinned **broken twin** of the reclaim rule: frees batches with
    /// `retire_epoch <= min_pin`. A reader pinned exactly at the retire
    /// epoch — the common case: pin, then the writer publishes — loses
    /// the pages it is reading.
    #[cfg(all(test, cpq_model))]
    pub fn publish_broken_reclaim_leq(
        &self,
        descriptor: Descriptor,
        retired: Vec<PageId>,
        free: &mut dyn FnMut(PageId),
    ) {
        let mut st = self.state.lock().expect("epoch state poisoned");
        let old_epoch = st.epoch;
        st.epoch = old_epoch + 1;
        st.descriptor = descriptor;
        if !retired.is_empty() {
            st.pages_retired += retired.len() as u64;
            st.retired.push_back(RetireBatch {
                retire_epoch: old_epoch,
                pages: retired,
            });
        }
        let min_pin = st.pins.keys().next().copied().unwrap_or(u64::MAX);
        // BUG: `<=` frees the batch the oldest pin still protects.
        while st
            .retired
            .front()
            .is_some_and(|b| b.retire_epoch <= min_pin)
        {
            let batch = st.retired.pop_front().expect("front checked");
            st.pages_freed += batch.pages.len() as u64;
            for p in batch.pages {
                free(p);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn desc(root: u32) -> Descriptor {
        (PageId(root), 1, 1)
    }

    #[test]
    fn reclaim_waits_for_oldest_pin() {
        let reg = EpochRegistry::new(desc(0));
        let mut freed: Vec<PageId> = Vec::new();
        let (e0, d0) = reg.pin();
        assert_eq!((e0, d0), (0, desc(0)));
        // Publish epoch 1 retiring page 0: reader at epoch 0 protects it.
        reg.publish(desc(1), vec![PageId(0)], &mut |p| freed.push(p));
        assert!(freed.is_empty(), "page 0 freed under an active pin");
        // A late reader pins epoch 1; the old batch is still protected.
        let (e1, _) = reg.pin();
        assert_eq!(e1, 1);
        reg.publish(desc(2), vec![PageId(1)], &mut |p| freed.push(p));
        assert!(freed.is_empty());
        // Releasing the epoch-0 pin frees batch 0 but not batch 1.
        reg.unpin(e0, &mut |p| freed.push(p));
        assert_eq!(freed, vec![PageId(0)]);
        // Releasing the epoch-1 pin drains the rest.
        reg.unpin(e1, &mut |p| freed.push(p));
        assert_eq!(freed, vec![PageId(0), PageId(1)]);
        let st = reg.stats();
        assert_eq!(st.pages_retired, 2);
        assert_eq!(st.pages_freed, 2);
        assert_eq!(st.pages_pending, 0);
        assert_eq!(st.active_pins, 0);
    }

    #[test]
    fn no_pins_reclaims_immediately() {
        let reg = EpochRegistry::new(desc(0));
        let mut freed: Vec<PageId> = Vec::new();
        reg.publish(desc(1), vec![PageId(0), PageId(7)], &mut |p| freed.push(p));
        assert_eq!(freed, vec![PageId(0), PageId(7)]);
    }

    #[test]
    fn multiple_pins_per_epoch_counted() {
        let reg = EpochRegistry::new(desc(0));
        let mut freed: Vec<PageId> = Vec::new();
        let (e0a, _) = reg.pin();
        let (e0b, _) = reg.pin();
        reg.publish(desc(1), vec![PageId(3)], &mut |p| freed.push(p));
        reg.unpin(e0a, &mut |p| freed.push(p));
        assert!(freed.is_empty(), "second pin still protects the batch");
        reg.unpin(e0b, &mut |p| freed.push(p));
        assert_eq!(freed, vec![PageId(3)]);
    }
}

/// Concurrent model-check site #7: epoch publish/reclaim vs reader
/// pin/read/unpin (run with `RUSTFLAGS="--cfg cpq_model"`).
///
/// The model tracks page liveness in a modeled table; the invariant is
/// that a reader holding a pin **never observes its descriptor's root
/// page freed**. The broken twin reclaims with `<=` and loses exactly the
/// race the protocol exists to prevent: reader pins epoch E, writer
/// publishes E+1 retiring E's root, reclaim sees `min_pin == E` and frees
/// it anyway.
#[cfg(all(test, cpq_model))]
mod model_tests {
    use super::*;
    use cpq_check::sync::{Arc, Mutex as ModelMutex};
    use cpq_check::thread;
    use cpq_check::{model_dfs, model_pct, replay, try_model_dfs, DfsOptions, PctOptions};

    /// Modeled page-liveness table: `alive[i]` for pages 0..N, and the
    /// pinned checkpoint's base (each modeled tree is its root page).
    struct PageTable {
        alive: ModelMutex<Vec<bool>>,
        base: ModelMutex<Option<PageId>>,
    }

    impl PageTable {
        fn new(n: usize) -> Self {
            PageTable {
                alive: ModelMutex::new(vec![true; n]),
                base: ModelMutex::new(None),
            }
        }

        fn move_base(&self, root: PageId) {
            *self.base.lock().expect("base poisoned") = Some(root);
        }

        fn free(&self, p: PageId) {
            let base = *self.base.lock().expect("base poisoned");
            assert!(base != Some(p), "checkpoint base {p} freed under its pin");
            let mut alive = self.alive.lock().expect("page table poisoned");
            assert!(alive[p.index()], "double free of page {p}");
            alive[p.index()] = false;
        }

        fn is_alive(&self, p: PageId) -> bool {
            self.alive.lock().expect("page table poisoned")[p.index()]
        }
    }

    fn reader(reg: &EpochRegistry, pages: &PageTable) {
        let (epoch, (root, _, _)) = reg.pin();
        // The snapshot read: the pinned descriptor's root must be alive.
        assert!(
            pages.is_alive(root),
            "pinned snapshot root {root} freed under reader"
        );
        reg.unpin(epoch, &mut |p| pages.free(p));
    }

    fn writer(reg: &EpochRegistry, pages: &PageTable, broken: bool) {
        // Two updates: publish root 1 retiring root 0, then root 2
        // retiring root 1.
        for new_root in 1u32..=2 {
            let retired = vec![PageId(new_root - 1)];
            if broken {
                reg.publish_broken_reclaim_leq((PageId(new_root), 1, 1), retired, &mut |p| {
                    pages.free(p)
                });
            } else {
                reg.publish((PageId(new_root), 1, 1), retired, &mut |p| pages.free(p));
            }
        }
    }

    /// One reader beside the writer's two updates; `durable` adds what a
    /// durable tree does: its checkpoint pins epoch 0 (base page 0) before
    /// two readers start, and after the updates the writer takes the next
    /// checkpoint — pin the current epoch, move the base to its root,
    /// release the old pin. No page a held base reaches may be freed.
    fn run_session(broken: bool, durable: bool) {
        let reg = Arc::new(EpochRegistry::new((PageId(0), 1, 1)));
        let pages = Arc::new(PageTable::new(3));
        let base = durable.then(|| {
            let (epoch, (root, _, _)) = reg.pin();
            pages.move_base(root);
            epoch
        });
        let readers: Vec<_> = (0..1 + usize::from(durable))
            .map(|_| {
                let (reg, pages) = (Arc::clone(&reg), Arc::clone(&pages));
                thread::spawn(move || reader(&reg, &pages))
            })
            .collect();
        let (w_reg, w_pages) = (Arc::clone(&reg), Arc::clone(&pages));
        let w = thread::spawn(move || {
            writer(&w_reg, &w_pages, broken);
            if let Some(old) = base {
                let (_, (root, _, _)) = w_reg.pin();
                w_pages.move_base(root);
                w_reg.unpin(old, &mut |p| w_pages.free(p));
            }
        });
        for r in readers {
            r.join().expect("reader");
        }
        w.join().expect("writer");
        // Teardown: with no reader left, every retired page is freed and
        // the published root is still alive.
        let (_, (root, _, _)) = reg.current();
        assert!(pages.is_alive(root), "published root freed");
        let st = reg.stats();
        assert_eq!(st.active_pins, u64::from(durable), "the checkpoint's pin");
        assert_eq!(st.pages_retired, st.pages_freed, "pages leaked at idle");
    }

    #[test]
    fn dfs_pinned_reader_never_sees_freed_page() {
        let report = model_dfs(DfsOptions::smoke(), || run_session(false, false));
        assert!(report.schedules > 1, "explored {}", report.schedules);
    }

    #[test]
    fn pct_pinned_reader_never_sees_freed_page() {
        model_pct(PctOptions::from_env(), || run_session(false, false));
    }

    #[test]
    #[should_panic(expected = "freed under reader")]
    fn dfs_broken_leq_reclaim_frees_pinned_root() {
        model_dfs(DfsOptions::smoke(), || run_session(true, false));
    }

    #[test]
    fn dfs_checkpoint_pin_holds_its_base() {
        let report = model_dfs(DfsOptions::smoke(), || run_session(false, true));
        assert!(report.schedules > 1, "explored {}", report.schedules);
    }

    #[test]
    fn pct_checkpoint_pin_holds_its_base() {
        model_pct(PctOptions::from_env(), || run_session(false, true));
    }

    #[test]
    #[should_panic(expected = "freed under its pin")]
    fn dfs_broken_leq_reclaim_frees_the_checkpoint_base() {
        model_dfs(DfsOptions::smoke(), || run_session(true, true));
    }

    /// Minimal failing schedule of the `<=` twin, pinned as a regression.
    #[test]
    #[should_panic(expected = "freed under reader")]
    fn pinned_broken_leq_schedule() {
        let failure = try_model_dfs(DfsOptions::smoke(), || run_session(true, false))
            .expect_err("broken twin must fail under DFS");
        replay(&failure.schedule, || run_session(true, false));
    }
}
