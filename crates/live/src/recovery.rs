//! Crash recovery for [`LiveTree`](crate::tree::LiveTree) directories:
//! redo of committed page images, then a reachability sweep.
//!
//! A log over in-place updates needs an undo pass, because a crash can
//! leave committed state clobbered by a loser. Copy-on-write changes the
//! shape of the problem: an uncommitted operation only ever wrote *fresh*
//! pages — pages unreachable from every committed descriptor — so there is
//! nothing to roll back, only garbage to sweep. Recovery is:
//!
//! 1. **Analysis** — [`scan_log`](crate::wal::scan_log) finds the newest
//!    segment whose leading checkpoint is intact (the base), then decodes
//!    records until the first torn one (a torn tail is the expected shape
//!    of a crash, not an error). Operations with a `Commit` record in the
//!    intact prefix are winners; the rest are losers.
//! 2. **Redo** — the data file is reopened and every *winner* `PageWrite`
//!    after-image is replayed in LSN order. Whole-page images make redo
//!    idempotent, so it is correct whether the data file is the synced
//!    checkpoint state, the crash-time state (write-through pools write
//!    data before commit), or anything between.
//! 3. **Sweep (undo's COW residue)** — walk the recovered tree; every
//!    page of the data file not reachable from the recovered root is
//!    returned to the free list. This reclaims loser allocations, frees
//!    the pages winners retired (neither is logged: reachability from the
//!    recovered root says both), and rebuilds the in-memory free list
//!    that [`DiskPageFile::open`] starts empty — one pass, three jobs.
//!
//! The recovered tree is then validated (all structural invariants plus
//! oid uniqueness) and handed back as a fresh [`LiveTree`] whose WAL
//! continues in a new segment, sealed by an immediate checkpoint.

use crate::error::{LiveError, LiveResult};
use crate::tree::{LiveConfig, LiveTree, DATA_FILE, WAL_DIR};
use crate::wal::{scan_log, Lsn, RecordBody, Wal};
use cpq_check::sync::Arc;
use cpq_geo::SpatialObject;
use cpq_rtree::{RTree, RTreeParams, ValidateOptions};
use cpq_storage::{BufferPool, DiskPageFile, PageId};
use std::collections::HashSet;
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
    /// `PageWrite` after-images redone.
    pub pages_redone: u64,
    /// Unreachable pages swept back to the free list.
    pub pages_swept: u64,
    /// `true` when the log ended in a torn record (the normal crash
    /// signature) rather than a clean end.
    pub torn_tail: bool,
    /// Highest LSN in the intact prefix.
    pub last_lsn: Lsn,
}

/// Recovers the live tree stored in `dir` (as laid out by
/// [`LiveTree::create`]) to its last committed state.
///
/// `params` and `cfg` must match the values the tree was created with
/// (they are operational configuration, not persisted state).
pub fn recover<const D: usize, O: SpatialObject<D>>(
    dir: &Path,
    params: RTreeParams,
    cfg: &LiveConfig,
) -> LiveResult<(LiveTree<D, O>, RecoveryReport)> {
    let wal_dir = dir.join(WAL_DIR);
    let scans = scan_log(&wal_dir)?;
    let mut report = RecoveryReport {
        segments_scanned: scans.len(),
        ..RecoveryReport::default()
    };

    // --- Analysis ---------------------------------------------------
    // The base checkpoint leads the first scanned segment by
    // construction of scan_log.
    let (mut descriptor, mut next_op_id) = match scans.first().and_then(|s| s.records.first()) {
        Some((_, rec)) => match &rec.body {
            RecordBody::Checkpoint {
                root,
                height,
                len,
                next_op_id,
                ..
            } => {
                report.last_lsn = rec.lsn;
                ((PageId(*root), *height, *len), *next_op_id)
            }
            _ => return Err(LiveError::NoCheckpoint),
        },
        None => return Err(LiveError::NoCheckpoint),
    };

    // Losers keep `began` entries with no matching commit; winners move
    // their page images into the redo list at commit time, preserving
    // global LSN order (ops are serialized by the writer lock, so commit
    // order == record order).
    let mut began: HashSet<u64> = HashSet::new();
    let mut pending: Vec<(u64, u32, Vec<u8>)> = Vec::new(); // (op_id, page, image)
    let mut redo: Vec<(u32, Vec<u8>)> = Vec::new();
    for scan in &scans {
        if !scan.clean {
            report.torn_tail = true;
        }
        for (idx, (_, rec)) in scan.records.iter().enumerate() {
            report.records_scanned += 1;
            report.last_lsn = report.last_lsn.max(rec.lsn);
            match &rec.body {
                RecordBody::Checkpoint { .. } => {
                    if idx != 0 {
                        return Err(LiveError::Recovery(format!(
                            "checkpoint record mid-segment at lsn {}",
                            rec.lsn
                        )));
                    }
                }
                RecordBody::OpBegin { op_id, .. } => {
                    began.insert(*op_id);
                }
                RecordBody::PageWrite { op_id, page, image } => {
                    pending.push((*op_id, *page, image.clone()));
                }
                RecordBody::PageAlloc { .. } => {}
                RecordBody::Commit {
                    op_id,
                    root,
                    height,
                    len,
                } => {
                    began.remove(op_id);
                    let mut kept = Vec::with_capacity(pending.len());
                    for (o, p, img) in pending.drain(..) {
                        if o == *op_id {
                            redo.push((p, img));
                        } else {
                            kept.push((o, p, img));
                        }
                    }
                    pending = kept;
                    descriptor = (PageId(*root), *height, *len);
                    report.committed_ops += 1;
                    next_op_id = next_op_id.max(op_id + 1);
                }
            }
        }
    }
    report.loser_ops = began.len() as u64;

    // --- Redo -------------------------------------------------------
    let file = DiskPageFile::open(dir.join(DATA_FILE))?;
    let pool = Arc::new(BufferPool::with_lru(Box::new(file), cfg.capacity));
    if let Some(max_page) = redo.iter().map(|(p, _)| *p).max() {
        // Committed allocations may lie beyond the on-disk length when
        // the crash beat the write-through (or the harness restored the
        // checkpoint image); extend monotonically, as allocate() did.
        while pool.num_pages() <= max_page {
            pool.allocate()?;
        }
    }
    for (page, image) in &redo {
        pool.write_page(PageId(*page), image)?;
        report.pages_redone += 1;
    }

    // --- Sweep + validate -------------------------------------------
    let tree: RTree<D, O> = RTree::from_descriptor_shared(Arc::clone(&pool), params, descriptor)?;
    let mut reachable: HashSet<u32> = HashSet::new();
    if descriptor.0 != PageId::INVALID {
        let mut stack = vec![descriptor.0];
        while let Some(id) = stack.pop() {
            if !reachable.insert(id.0) {
                return Err(LiveError::Recovery(format!(
                    "recovered tree aliases page {id}"
                )));
            }
            let node = tree.read_node(id)?;
            if !node.is_leaf() {
                stack.extend(node.inner_entries().iter().map(|e| e.child));
            }
        }
    }
    for page in 0..pool.num_pages() {
        if !reachable.contains(&page) {
            pool.free_page(PageId(page))?;
            report.pages_swept += 1;
        }
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
    drop(tree);

    // --- Resume -----------------------------------------------------
    // Continue the log in a fresh segment after the scanned ones, then
    // seal the recovered state with a checkpoint (making it the new base
    // and truncating everything the analysis pass read).
    let last_seq = scans.last().map(|s| s.seq).unwrap_or(1);
    let wal = Wal::with_segment(&wal_dir, cfg.wal.clone(), last_seq + 1, report.last_lsn + 1)?;
    let live = LiveTree::from_parts(
        pool,
        params,
        descriptor,
        Some(wal),
        cfg.checkpoint_every,
        next_op_id,
    )?;
    live.checkpoint()?;
    Ok((live, report))
}
