//! [`LiveTree`]: a mutable, crash-safe R*-tree with epoch snapshots, and
//! [`LiveSet`]: the P/Q pair of live trees behind batched [`UpdateOp`]s
//! with optional continuous K-CPQ maintenance.
//!
//! Update protocol (one op, under the writer lock, which is held across
//! the log's write and fsync — each log has one committer at a time):
//!
//! 1. `OpBegin` is appended to the WAL (logical record: op, oid, object
//!    bytes) — the one record of the update recovery replays.
//! 2. The copy-on-write tree op runs: every page it writes is a *fresh*
//!    page (`RTree::cow_enable`), so pages reachable from any published
//!    descriptor are never modified in place.
//! 3. `Commit` is appended with the new object count. No page is logged:
//!    recovery replays step 1's record on the checkpoint's pages.
//! 4. `Wal::commit` writes the records and (when configured) fsyncs them.
//!    An error anywhere after step 1 — a page read inside the tree op, this
//!    commit — leaves the writer's tree holding part or all of an op that
//!    was never published, so carrying on would publish it with the next
//!    one. The writer latches the first such
//!    failure (memory-only trees too): every later update and checkpoint is
//!    refused, naming it, before anything is touched; readers keep the last
//!    published epoch, and [`recover`](crate::recovery::recover) is the way
//!    back. An object `insert` would refuse is refused before step 1, so bad
//!    input never stops the writer.
//! 5. Only then is the descriptor published to the [`EpochRegistry`], so
//!    a reader can never observe state that a crash would roll back.
//!    Retired pages go back to the pool once no pinned epoch can read
//!    them.
//!
//! [`LiveTree::create`] is the one constructor: in memory or durable in a
//! directory, with a hook that wraps the page file it opened.
//!
//! A checkpoint is the durable base recovery replays from, and an epoch
//! reader: its pin, released only once the next checkpoint is durable,
//! keeps every page the base reaches from being freed and reused. So the
//! data writes of step 2, which a write-through pool makes before the
//! commit is durable, never touch the base; [`recovery`](crate::recovery)
//! sweeps them as orphans.

use crate::continuous::ContinuousCpq;
use crate::epoch::{EpochRegistry, EpochStats};
use crate::error::{LiveError, LiveResult};
use crate::wal::{Lsn, OpKind, RecordBody, Wal, WalConfig, WalStats};
use cpq_check::sync::atomic::{AtomicU64, Ordering};
use cpq_check::sync::{self, Arc, Mutex};
use cpq_geo::Point;
use cpq_rtree::{RTree, RTreeError, RTreeParams};
use cpq_storage::{BufferPool, DiskPageFile, MemPageFile, PageFile, PageId, DEFAULT_PAGE_SIZE};
use std::path::Path;

/// File name of the paged data store inside a live-tree directory.
pub const DATA_FILE: &str = "data.pages";
/// Subdirectory holding WAL segments inside a live-tree directory.
pub const WAL_DIR: &str = "wal";

/// The `(root, height, len)` descriptor of a tree with nothing in it.
const EMPTY: (PageId, u8, u64) = (PageId::INVALID, 0, 0);

/// Which tree of a [`LiveSet`] an update targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// The first data set.
    P,
    /// The second data set.
    Q,
}

/// One streaming update against a [`LiveSet`].
#[derive(Debug, Clone, Copy)]
pub enum UpdateOp<const D: usize> {
    /// Insert `object` with id `oid` into `side`.
    Insert {
        /// Target tree.
        side: Side,
        /// The object.
        object: Point<D>,
        /// Application object id.
        oid: u64,
    },
    /// Delete `(object, oid)` from `side` (a miss is not an error).
    Delete {
        /// Target tree.
        side: Side,
        /// The object.
        object: Point<D>,
        /// Application object id.
        oid: u64,
    },
}

/// Tuning knobs for a [`LiveTree`].
#[derive(Debug, Clone)]
pub struct LiveConfig {
    /// Buffer-pool capacity in pages.
    pub capacity: usize,
    /// WAL behavior (fsync on commit, …). Ignored in memory-only trees.
    pub wal: WalConfig,
    /// Take a sharp checkpoint (and truncate the log) every this many
    /// committed operations. `0` disables automatic checkpoints: a durable
    /// tree then holds the pages it retires, as it holds its log, until a
    /// manual [`LiveTree::checkpoint`].
    pub checkpoint_every: u64,
}

impl Default for LiveConfig {
    fn default() -> Self {
        LiveConfig {
            capacity: 256,
            wal: WalConfig::default(),
            checkpoint_every: 64,
        }
    }
}

/// Counter snapshot for `cpq_live_*` metrics.
#[derive(Debug, Clone, Default)]
pub struct LiveStats {
    /// Committed inserts.
    pub inserts: u64,
    /// Committed deletes that found their object.
    pub deletes: u64,
    /// Deletes that found nothing (still logged and committed).
    pub delete_misses: u64,
    /// Sharp checkpoints taken.
    pub checkpoints: u64,
    /// Published epoch / pin / reclamation counters.
    pub epoch: EpochStats,
    /// WAL counters, when this tree is durable.
    pub wal: Option<WalStats>,
    /// Page frees that failed during epoch reclamation (counted, never
    /// panicked over — a failure here leaks a page, nothing worse).
    pub free_failures: u64,
}

/// State shared between the writer and all outstanding snapshots.
struct LiveShared {
    pool: Arc<BufferPool>,
    epochs: EpochRegistry,
    free_failures: AtomicU64,
}

impl LiveShared {
    /// The page-free closure handed to the epoch registry: routes
    /// reclaimed pages back to the pool, counting (not propagating)
    /// failures — reclamation runs in reader drops, which must not fail.
    fn free_page(&self, p: PageId) {
        if self.pool.free_page(p).is_err() {
            // ordering: Relaxed — independent monotonic failure counter,
            // read only by stats(); no other memory depends on it.
            self.free_failures.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Releases a pin at `epoch`, freeing what it was the last to protect.
    fn unpin(&self, epoch: u64) {
        self.epochs.unpin(epoch, &mut |p| self.free_page(p));
    }
}

/// Writer-side mutable state, behind the writer lock.
struct WriterState<const D: usize> {
    tree: RTree<D>,
    next_op_id: u64,
    ops_since_checkpoint: u64,
    inserts: u64,
    deletes: u64,
    delete_misses: u64,
    checkpoints: u64,
    /// The epoch the last durable checkpoint pinned (durable trees only).
    base_pin: Option<u64>,
    /// The first failure of an op or checkpoint past its point of no
    /// return (see the module's step 4).
    failed: Option<String>,
}

impl<const D: usize> WriterState<D> {
    /// The fail-stop rule's check: the latched failure, if there is one.
    fn check(&self) -> LiveResult<()> {
        match &self.failed {
            None => Ok(()),
            Some(why) => Err(LiveError::Invalid(format!(
                "the writer stopped at an earlier failure ({why})"
            ))),
        }
    }

    /// Passes a result through, latching its failure (the first one wins).
    fn latch<T>(&mut self, res: LiveResult<T>) -> LiveResult<T> {
        if let (Err(e), None) = (&res, &self.failed) {
            self.failed = Some(e.to_string());
        }
        res
    }
}

/// A mutable R*-tree with WAL durability and epoch snapshots.
///
/// One writer at a time (serialized internally); any number of concurrent
/// [`snapshot`](Self::snapshot) readers, each seeing a consistent
/// committed state.
pub struct LiveTree<const D: usize> {
    shared: Arc<LiveShared>,
    writer: Mutex<WriterState<D>>,
    wal: Option<Wal>,
    params: RTreeParams,
    checkpoint_every: u64,
}

/// A pinned, immutable view of a [`LiveTree`] at one published epoch.
///
/// The borrowed [`RTree`] is safe to query with every PR-4/PR-7 executor:
/// copy-on-write guarantees its pages are never modified, and the epoch
/// pin guarantees they are never freed, until this snapshot drops.
pub struct Snapshot<const D: usize> {
    tree: RTree<D>,
    epoch: u64,
    shared: Arc<LiveShared>,
}

impl<const D: usize> Snapshot<D> {
    /// The snapshot's tree.
    pub fn tree(&self) -> &RTree<D> {
        &self.tree
    }

    /// The epoch this snapshot pinned.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }
}

impl<const D: usize> Drop for Snapshot<D> {
    fn drop(&mut self) {
        self.shared.unpin(self.epoch);
    }
}

impl<const D: usize> LiveTree<D> {
    /// An empty live tree: in memory without a WAL (`None`: durability does
    /// not apply), or durable in `dir` — its [`DATA_FILE`] and [`WAL_DIR`],
    /// the layout [`recover`](crate::recovery::recover) reads — with the base
    /// checkpoint written, so recovery always has one. Pages are
    /// [`DEFAULT_PAGE_SIZE`] bytes. `file` wraps the page file the tree
    /// opened before its pool is built (`|f| f` for none).
    pub fn create(
        dir: Option<&Path>,
        params: RTreeParams,
        cfg: &LiveConfig,
        file: impl FnOnce(Box<dyn PageFile>) -> Box<dyn PageFile>,
    ) -> LiveResult<Self> {
        let (data, wal): (Box<dyn PageFile>, _) = match dir {
            None => (Box::new(MemPageFile::new(DEFAULT_PAGE_SIZE)), None),
            Some(dir) => {
                std::fs::create_dir_all(dir)?;
                let data = DiskPageFile::create(dir.join(DATA_FILE), DEFAULT_PAGE_SIZE)?;
                let wal = Wal::create(&dir.join(WAL_DIR), cfg.wal.clone())?;
                (Box::new(data), Some(wal))
            }
        };
        let pool = Arc::new(BufferPool::with_lru(file(data), cfg.capacity));
        let tree = Self::from_parts(pool, params, EMPTY, wal, cfg.checkpoint_every, 1)?;
        if tree.wal.is_some() {
            // Base checkpoint: rotates to a segment whose first record is an
            // intact Checkpoint, which is what recovery scans for.
            tree.checkpoint()?;
        }
        Ok(tree)
    }

    /// Assembles a live tree from recovered (or fresh) parts. `descriptor`
    /// must describe committed state already present in `pool`.
    pub(crate) fn from_parts(
        pool: Arc<BufferPool>,
        params: RTreeParams,
        descriptor: (PageId, u8, u64),
        wal: Option<Wal>,
        checkpoint_every: u64,
        next_op_id: u64,
    ) -> LiveResult<Self> {
        let mut tree = RTree::from_descriptor_shared(Arc::clone(&pool), params, descriptor)?;
        tree.cow_enable();
        let shared = Arc::new(LiveShared {
            pool,
            epochs: EpochRegistry::new(descriptor),
            free_failures: AtomicU64::new(0),
        });
        Ok(LiveTree {
            shared,
            writer: Mutex::new(WriterState {
                tree,
                next_op_id,
                ops_since_checkpoint: 0,
                inserts: 0,
                deletes: 0,
                delete_misses: 0,
                checkpoints: 0,
                base_pin: None,
                failed: None,
            }),
            wal,
            params,
            checkpoint_every,
        })
    }

    /// Inserts `(object, oid)`; durable (when WAL-backed) and published
    /// to snapshot readers on return.
    pub fn insert(&self, object: Point<D>, oid: u64) -> LiveResult<()> {
        let mut st = sync::lock(&self.writer);
        self.apply_locked(&mut st, OpKind::Insert, object, oid)?;
        Ok(())
    }

    /// Deletes `(object, oid)`; returns whether the object was found.
    /// The operation is logged and committed either way, so replicas
    /// replaying the log agree on the op stream.
    pub fn delete(&self, object: Point<D>, oid: u64) -> LiveResult<bool> {
        let mut st = sync::lock(&self.writer);
        self.apply_locked(&mut st, OpKind::Delete, object, oid)
    }

    /// One logical operation under the writer lock, fail-stop (module docs,
    /// step 4).
    fn apply_locked(
        &self,
        st: &mut WriterState<D>,
        op: OpKind,
        object: Point<D>,
        oid: u64,
    ) -> LiveResult<bool> {
        st.check()?;
        // What `RTree::insert` would refuse never reaches the log, so bad
        // input cannot stop the writer.
        if op == OpKind::Insert && !object.is_finite() {
            return Err(
                RTreeError::InvalidParams("cannot index a non-finite object".into()).into(),
            );
        }
        let applied = self.run_op(st, op, object, oid);
        st.latch(applied)
    }

    /// `OpBegin`, COW tree op, `Commit`, epoch publish, auto-checkpoint.
    fn run_op(
        &self,
        st: &mut WriterState<D>,
        op: OpKind,
        object: Point<D>,
        oid: u64,
    ) -> LiveResult<bool> {
        let op_id = st.next_op_id;
        if let Some(wal) = &self.wal {
            let mut obj = vec![0u8; 8 * D];
            object.encode(&mut obj);
            wal.append(&RecordBody::OpBegin {
                op_id,
                op,
                oid,
                obj,
            });
        }
        st.next_op_id += 1;
        let found = match op {
            OpKind::Insert => {
                st.tree.insert(object, oid)?;
                true
            }
            OpKind::Delete => st.tree.delete(object, oid)?,
        };
        let retired = st.tree.cow_take();
        let descriptor = st.tree.descriptor();
        if let Some(wal) = &self.wal {
            let commit_lsn = wal.append(&RecordBody::Commit {
                op_id,
                len: descriptor.2,
            });
            // Durability before visibility: readers must never pin state
            // a crash would roll back.
            wal.commit(commit_lsn)?;
        }
        match (op, found) {
            (OpKind::Insert, _) => st.inserts += 1,
            (OpKind::Delete, true) => st.deletes += 1,
            (OpKind::Delete, false) => st.delete_misses += 1,
        }
        self.shared
            .epochs
            .publish(descriptor, retired, &mut |p| self.shared.free_page(p));
        st.ops_since_checkpoint += 1;
        if self.wal.is_some()
            && self.checkpoint_every > 0
            && st.ops_since_checkpoint >= self.checkpoint_every
        {
            self.checkpoint_locked(st)?;
        }
        Ok(found)
    }

    /// Takes a sharp checkpoint: flush the WAL, sync the data file, pin the
    /// current epoch, then write a checkpoint record that starts a fresh
    /// segment and truncates the old log, and only then release the
    /// previous checkpoint's pin. The writer lock is held throughout:
    /// updates wait until the new segment's fsync has completed.
    pub fn checkpoint(&self) -> LiveResult<Lsn> {
        let mut st = sync::lock(&self.writer);
        self.checkpoint_locked(&mut st)
    }

    fn checkpoint_locked(&self, st: &mut WriterState<D>) -> LiveResult<Lsn> {
        let Some(wal) = &self.wal else {
            return Err(LiveError::Invalid(
                "checkpoint on a memory-only live tree".into(),
            ));
        };
        st.check()?;
        let taken = self.write_checkpoint(wal, st);
        st.latch(taken)
    }

    fn write_checkpoint(&self, wal: &Wal, st: &mut WriterState<D>) -> LiveResult<Lsn> {
        // WAL-before-data: the whole appended log is durable (or the log's
        // latched failure returned) before the data pages may be declared
        // the new base.
        wal.flush_all()?;
        self.shared.pool.sync()?;
        // The new base is a reader of the epoch it records: every op has
        // been published under this lock, so that epoch is the writer's tree.
        let (epoch, (root, height, len)) = self.shared.epochs.pin();
        let written = wal.checkpoint(&RecordBody::Checkpoint {
            root: root.0,
            height,
            len,
            next_op_id: st.next_op_id,
        });
        // Until the new record is durable the old base is the one recovery
        // starts from, so its pin is released only after that.
        let released = match written {
            Ok(_) => st.base_pin.replace(epoch),
            Err(_) => Some(epoch),
        };
        if let Some(released) = released {
            self.shared.unpin(released);
        }
        let lsn = written?;
        st.ops_since_checkpoint = 0;
        st.checkpoints += 1;
        Ok(lsn)
    }

    /// Pins the current epoch and returns a consistent read-only view.
    pub fn snapshot(&self) -> LiveResult<Snapshot<D>> {
        let (epoch, descriptor) = self.shared.epochs.pin();
        match RTree::from_descriptor_shared(Arc::clone(&self.shared.pool), self.params, descriptor)
        {
            Ok(tree) => Ok(Snapshot {
                tree,
                epoch,
                shared: Arc::clone(&self.shared),
            }),
            Err(e) => {
                self.shared.unpin(epoch);
                Err(e.into())
            }
        }
    }

    /// Number of indexed objects in the latest committed state.
    pub fn len(&self) -> u64 {
        self.shared.epochs.current().1 .2
    }

    /// `true` when the latest committed state is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The tree parameters.
    pub fn params(&self) -> RTreeParams {
        self.params
    }

    /// The shared buffer pool (for I/O counters in benchmarks/metrics).
    pub fn pool(&self) -> &BufferPool {
        &self.shared.pool
    }

    /// Counter snapshot for metrics.
    pub fn stats(&self) -> LiveStats {
        let st = sync::lock(&self.writer);
        LiveStats {
            inserts: st.inserts,
            deletes: st.deletes,
            delete_misses: st.delete_misses,
            checkpoints: st.checkpoints,
            epoch: self.shared.epochs.stats(),
            wal: self.wal.as_ref().map(|w| w.stats()),
            // ordering: Relaxed — monotonic counter, no ordering
            // dependency with other memory.
            free_failures: self.shared.free_failures.load(Ordering::Relaxed),
        }
    }
}

/// Per-batch application summary returned by [`LiveSet::apply`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ApplyReport {
    /// Operations applied (every op in the batch).
    pub applied: usize,
    /// Deletes that found no matching object.
    pub delete_misses: usize,
}

/// The P/Q pair of live trees, with optional continuous K-CPQ
/// maintenance over the update stream.
pub struct LiveSet<const D: usize> {
    p: LiveTree<D>,
    q: LiveTree<D>,
    cont: Mutex<Option<ContinuousCpq<D>>>,
}

impl<const D: usize> LiveSet<D> {
    /// A durable pair under `dir` (`dir/p` and `dir/q`); compose
    /// [`from_trees`](Self::from_trees) and [`LiveTree::create`] for any
    /// other pair.
    pub fn create(dir: &Path, params: RTreeParams, cfg: &LiveConfig) -> LiveResult<Self> {
        let tree = |side: &str| LiveTree::create(Some(&dir.join(side)), params, cfg, |f| f);
        Ok(Self::from_trees(tree("p")?, tree("q")?))
    }

    /// Wraps two live trees (e.g. after recovery).
    pub fn from_trees(p: LiveTree<D>, q: LiveTree<D>) -> Self {
        LiveSet {
            p,
            q,
            cont: Mutex::new(None),
        }
    }

    /// The P tree.
    pub fn p(&self) -> &LiveTree<D> {
        &self.p
    }

    /// The Q tree.
    pub fn q(&self) -> &LiveTree<D> {
        &self.q
    }

    /// The tree an op side targets.
    pub fn side(&self, side: Side) -> &LiveTree<D> {
        match side {
            Side::P => &self.p,
            Side::Q => &self.q,
        }
    }

    /// Installs (or replaces) a continuous cross-tree K-CPQ of size `k`,
    /// primed from the current committed state. Subsequent
    /// [`apply`](Self::apply) batches maintain it incrementally.
    pub fn watch(&self, k: usize) -> LiveResult<()> {
        let cont = ContinuousCpq::new(
            &cpq_core::QuerySpec::cross(k),
            &self.p.snapshot()?,
            &self.q.snapshot()?,
        )?;
        *sync::lock(&self.cont) = Some(cont);
        Ok(())
    }

    /// Stops continuous maintenance.
    pub fn unwatch(&self) {
        *sync::lock(&self.cont) = None;
    }

    /// The current continuous result set (pairs in the canonical order),
    /// or `None` when no watcher is installed.
    pub fn watched_pairs(&self) -> Option<Vec<cpq_core::PairResult<D>>> {
        sync::lock(&self.cont).as_ref().map(|c| c.pairs())
    }

    /// Applies a batch of updates in order, stopping at the first error.
    /// Each op is durable and published before the next starts, and the
    /// installed watcher (if any) is maintained after it. An error in that
    /// maintenance comes after its op committed: it is
    /// [`LiveError::Unwatched`], and the watcher, no longer right, is
    /// uninstalled ([`watched_pairs`](Self::watched_pairs) reads `None`).
    pub fn apply(&self, ops: &[UpdateOp<D>]) -> LiveResult<ApplyReport> {
        let mut report = ApplyReport::default();
        for op in ops {
            let mut cont = sync::lock(&self.cont);
            let maintained = match *op {
                UpdateOp::Insert { side, object, oid } => {
                    self.side(side).insert(object, oid)?;
                    cont.as_mut().map(|c| {
                        c.on_insert(side, object, oid, &self.p.snapshot()?, &self.q.snapshot()?)
                    })
                }
                UpdateOp::Delete { side, object, oid } => {
                    let found = self.side(side).delete(object, oid)?;
                    report.delete_misses += usize::from(!found);
                    // A delete hitting the result set re-runs the K-CPQ
                    // synchronously (worker joins included) before the next
                    // op; only this maintenance thread takes `cont`.
                    cont.as_mut()
                        .filter(|_| found)
                        .map(|c| c.on_delete(side, oid, &self.p.snapshot()?, &self.q.snapshot()?))
                }
            };
            if let Some(Err(e)) = maintained {
                *cont = None;
                return Err(LiveError::Unwatched(Box::new(e)));
            }
            report.applied += 1;
        }
        Ok(report)
    }

    /// Combined counter snapshot `(P, Q)`.
    pub fn stats(&self) -> (LiveStats, LiveStats) {
        (self.p.stats(), self.q.stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpq_core::brute::self_k_closest_pairs_brute;
    use cpq_core::{self_closest_pairs, Algorithm, CpqConfig, PairResult};
    use cpq_geo::{Dist2, Point2};

    fn keys(pairs: &[PairResult<2>]) -> Vec<(Dist2, u64, u64)> {
        pairs.iter().map(|r| r.sort_key()).collect()
    }

    fn answer(t: &RTree<2>) -> Vec<(Dist2, u64, u64)> {
        let out = self_closest_pairs(t, 6, Algorithm::Heap, &CpqConfig::default());
        keys(&out.expect("query").pairs)
    }

    /// The fail-stop rule one level up: after a commit fails, every op is
    /// refused, nothing unacknowledged is published, and recovery returns
    /// the acknowledged state.
    #[test]
    fn failed_commit_stops_the_tree_and_recovery_agrees_with_the_oracle() {
        let dir = std::env::temp_dir().join(format!("cpq-failstop-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = LiveConfig {
            wal: WalConfig { sync: false },
            checkpoint_every: 16,
            ..LiveConfig::default()
        };
        let tree: LiveTree<2> =
            LiveTree::create(Some(&dir), RTreeParams::paper(), &cfg, |f| f).expect("create");
        let point = |i: u64| Point2::new([(i * 37 % 101) as f64, (i * 53 % 97) as f64]);
        for i in 0..40 {
            tree.insert(point(i), i).expect("insert");
        }
        let acked: Vec<_> = (0..40).map(|i| (point(i), i)).collect();
        let oracle = keys(&self_k_closest_pairs_brute(&acked, 6));

        let wal = tree.wal.as_ref().expect("durable tree");
        let read_only = std::fs::File::open(dir.join(DATA_FILE)).expect("a read-only handle");
        let working = wal.swap_segment_handle(read_only);
        assert!(tree.insert(point(40), 40).is_err(), "the log write fails");
        // The disk "comes back"; the tree must stay stopped all the same.
        wal.swap_segment_handle(working);
        assert!(tree.insert(point(41), 41).is_err());
        assert!(tree.delete(point(0), 0).is_err());
        assert!(tree.checkpoint().is_err());
        assert_eq!(tree.stats().inserts, 40, "acknowledged ops only");
        let snap = tree.snapshot().expect("snapshot");
        assert_eq!(snap.tree().len(), 40, "the failed insert was not published");
        assert_eq!(answer(snap.tree()), oracle);
        drop(snap);
        drop(tree);

        let (back, _) =
            crate::recover::<2, Point<2>>(&dir, RTreeParams::paper(), &cfg).expect("recover");
        assert_eq!(answer(back.snapshot().expect("snapshot").tree()), oracle);
        back.insert(point(40), 40).expect("updates resume");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
