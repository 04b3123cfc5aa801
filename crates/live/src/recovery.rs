//! Crash recovery for [`LiveTree`](crate::tree::LiveTree) directories:
//! replay of the committed logical operations on the checkpoint's pages,
//! then a reachability sweep.
//!
//! A log over in-place updates needs an undo pass, because a crash can
//! leave committed state clobbered by a loser. Copy-on-write changes the
//! shape of the problem: an update only writes *fresh* pages, and the
//! durable checkpoint's epoch pin keeps every page it reaches from being
//! freed and reused until the next checkpoint is durable. The checkpoint's
//! tree is therefore intact on disk whatever else a crash left there, and
//! recovery is:
//!
//! 1. **Analysis** — [`scan_log`] finds the newest segment whose leading
//!    checkpoint is intact (the base), then decodes records until the
//!    first torn one (the expected shape of a crash, not an error). Ops
//!    with a `Commit` in the intact prefix are winners, in commit order;
//!    the crash harness reads the same pass.
//! 2. **Replay** — the tree is opened at the base in copy-on-write mode
//!    and every winner goes through [`RTree::insert`] / [`RTree::delete`],
//!    the writer's own code, onto fresh pages. A replay whose object count
//!    differs from the last `Commit`'s is refused.
//! 3. **Resume** — the replayed tree is validated (structural invariants
//!    plus oid uniqueness), the log continues in a new segment, and a
//!    checkpoint (which syncs the data file first) makes it the new base.
//! 4. **Sweep** — only then does every page the new root does not reach
//!    go to the free list: the old base, losers' and held pages, and so
//!    the free list [`DiskPageFile::open`] starts empty. A crash before
//!    step 3's checkpoint leaves the old base and log as they were.

use crate::epoch::Descriptor;
use crate::error::{LiveError, LiveResult};
use crate::tree::{LiveConfig, LiveTree, DATA_FILE, WAL_DIR};
use crate::wal::{scan_log, Lsn, OpKind, RecordBody, Wal};
use cpq_check::sync::Arc;
use cpq_geo::Point;
use cpq_rtree::{RTree, RTreeParams, ValidateOptions};
use cpq_storage::{BufferPool, DiskPageFile, PageId, StorageError};
use std::collections::{HashMap, HashSet};
use std::path::Path;

/// What recovery did, for logs and tests.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// WAL segments scanned (base checkpoint segment onward).
    pub segments_scanned: usize,
    /// Records decoded from the intact prefix.
    pub records_scanned: u64,
    /// Operations whose `Commit` was durable (replayed).
    pub committed_ops: u64,
    /// Operations begun but never committed (discarded).
    pub loser_ops: u64,
    /// Unreachable pages swept back to the free list.
    pub pages_swept: u64,
    /// `true` when the log ended in a torn record (the normal crash
    /// signature) rather than a clean end.
    pub torn_tail: bool,
    /// Highest LSN in the intact prefix.
    pub last_lsn: Lsn,
}

/// A logical operation read back from the log.
#[derive(Debug, Clone, PartialEq)]
pub struct LogicalOp {
    /// The operation id the writer gave it.
    pub op_id: u64,
    /// Insert or delete.
    pub op: OpKind,
    /// Application object id.
    pub oid: u64,
    /// `Point::encode` bytes of the object, as logged.
    pub obj: Vec<u8>,
}

/// The analysis pass's result: where replay starts and what it applies.
pub(crate) struct Analysis {
    /// The base checkpoint's `(root, height, len)`.
    pub(crate) base: Descriptor,
    /// The next operation id to hand out after the log.
    pub(crate) next_op_id: u64,
    /// Committed operations, in commit order.
    pub(crate) ops: Vec<LogicalOp>,
    /// The object count the last `Commit` logged (the base's, without one).
    pub(crate) len: u64,
    /// Sequence number of the last segment scanned.
    pub(crate) last_seq: u64,
    /// The counters of the pass.
    pub(crate) report: RecoveryReport,
}

/// The one analysis pass over `wal_dir`, shared by [`recover`] and the
/// crash harness: the base checkpoint and the operations committed after
/// it. A `Commit` whose operation never began is refused.
pub(crate) fn analyze(wal_dir: &Path) -> LiveResult<Analysis> {
    let scans = scan_log(wal_dir)?;
    // The base checkpoint leads the first scanned segment by construction
    // of scan_log.
    let Some(&RecordBody::Checkpoint {
        root,
        height,
        len,
        next_op_id,
    }) = scans
        .first()
        .and_then(|s| s.records.first())
        .map(|(_, rec)| &rec.body)
    else {
        return Err(LiveError::NoCheckpoint);
    };
    let mut out = Analysis {
        base: (PageId(root), height, len),
        next_op_id,
        ops: Vec::new(),
        len,
        last_seq: scans.last().map_or(1, |s| s.seq),
        report: RecoveryReport {
            segments_scanned: scans.len(),
            ..RecoveryReport::default()
        },
    };
    // Ops are serialized by the writer lock, so commit order is record
    // order, and an op's records never straddle a checkpoint.
    let mut began: HashMap<u64, LogicalOp> = HashMap::new();
    for scan in scans {
        out.report.torn_tail |= !scan.clean;
        for (idx, (_, rec)) in scan.records.into_iter().enumerate() {
            out.report.records_scanned += 1;
            out.report.last_lsn = out.report.last_lsn.max(rec.lsn);
            match rec.body {
                RecordBody::Checkpoint { .. } if idx != 0 => {
                    return Err(LiveError::Recovery(format!(
                        "checkpoint record mid-segment at lsn {}",
                        rec.lsn
                    )));
                }
                RecordBody::Checkpoint { .. } | RecordBody::PageAlloc { .. } => {}
                RecordBody::OpBegin {
                    op_id,
                    op,
                    oid,
                    obj,
                } => {
                    let op = LogicalOp {
                        op_id,
                        op,
                        oid,
                        obj,
                    };
                    began.insert(op_id, op);
                }
                RecordBody::Commit { op_id, len } => {
                    let op = began.remove(&op_id).ok_or_else(|| {
                        LiveError::Recovery(format!(
                            "op {op_id} commits at lsn {} but never began",
                            rec.lsn
                        ))
                    })?;
                    out.ops.push(op);
                    out.len = len;
                    out.next_op_id = out.next_op_id.max(op_id + 1);
                }
            }
        }
    }
    out.report.committed_ops = out.ops.len() as u64;
    out.report.loser_ops = began.len() as u64;
    Ok(out)
}

/// Recovers the live tree stored in `dir` (as laid out by
/// [`LiveTree::create`]) to its last committed state.
///
/// `params` and `cfg` must match the values the tree was created with
/// (they are operational configuration, not persisted state).
///
/// `O` is unused: every leaf holds a [`Point`]. It stays because the
/// benchmark harness (`benchmark/src/live.rs`) calls
/// `recover::<2, Point2>`, so every caller names it as
/// `recover::<D, Point<D>>`.
pub fn recover<const D: usize, O>(
    dir: &Path,
    params: RTreeParams,
    cfg: &LiveConfig,
) -> LiveResult<(LiveTree<D>, RecoveryReport)> {
    let wal_dir = dir.join(WAL_DIR);
    let Analysis {
        base,
        next_op_id,
        ops,
        len,
        last_seq,
        mut report,
    } = analyze(&wal_dir)?;

    // --- Replay -----------------------------------------------------
    let file = DiskPageFile::open(dir.join(DATA_FILE))?;
    let pool = Arc::new(BufferPool::with_lru(Box::new(file), cfg.capacity));
    let mut tree: RTree<D> = RTree::from_descriptor_shared(Arc::clone(&pool), params, base)?;
    tree.cow_enable();
    for op in &ops {
        // Checked here, not in `Point::decode`, which would panic on it.
        if op.obj.len() != 8 * D {
            return Err(LiveError::Recovery(format!(
                "op {}: the logged object is {} bytes, a {D}-d point is {}",
                op.op_id,
                op.obj.len(),
                8 * D
            )));
        }
        let object = Point::<D>::decode(&op.obj);
        match op.op {
            OpKind::Insert => tree.insert(object, op.oid)?,
            OpKind::Delete => tree.delete(object, op.oid).map(drop)?,
        }
    }
    if tree.len() != len {
        return Err(LiveError::Recovery(format!(
            "replay left {} points, the last commit logged {len}",
            tree.len()
        )));
    }
    let validation = tree.validate_with_options(ValidateOptions {
        unique_oids: true,
        ..ValidateOptions::default()
    })?;
    if !validation.is_valid() {
        return Err(LiveError::Recovery(format!(
            "recovered tree is invalid: {}",
            validation.violations.join("; ")
        )));
    }
    let descriptor = tree.descriptor();

    // --- Resume -----------------------------------------------------
    // Continue the log in a fresh segment after the scanned ones, then
    // seal the replayed state with a checkpoint (making it the new base
    // and truncating everything the analysis pass read).
    let wal = Wal::with_segment(&wal_dir, cfg.wal.clone(), last_seq + 1, report.last_lsn + 1)?;
    let live = LiveTree::from_parts(
        Arc::clone(&pool),
        params,
        descriptor,
        Some(wal),
        cfg.checkpoint_every,
        next_op_id,
    )?;
    live.checkpoint()?;

    // --- Sweep ------------------------------------------------------
    // The tree was validated above, so the walk meets no page twice.
    let mut reachable: HashSet<u32> = HashSet::new();
    let mut stack = vec![descriptor.0];
    stack.retain(|r| r.is_valid());
    while let Some(id) = stack.pop() {
        reachable.insert(id.0);
        let node = tree.read_node(id)?;
        if !node.is_leaf() {
            stack.extend(node.inner_entries().iter().map(|e| e.child));
        }
    }
    for page in (0..pool.num_pages()).filter(|p| !reachable.contains(p)) {
        match pool.free_page(PageId(page)) {
            Ok(()) => report.pages_swept += 1,
            // A fresh page replay wrote and freed again is on the list.
            Err(StorageError::PageFreed(_)) => {}
            Err(e) => return Err(e.into()),
        }
    }
    Ok((live, report))
}
