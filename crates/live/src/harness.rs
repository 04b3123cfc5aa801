//! Crash-injection harness: utilities for killing a [`LiveTree`]
//! (crate::tree::LiveTree) directory at any write boundary and checking
//! what recovery makes of the wreck.
//!
//! The harness never kills a process; it reconstructs the exact set of
//! on-disk states a kill could leave behind. For a WAL-before-data design
//! those states are: some prefix of the WAL (torn anywhere, including
//! mid-record), combined with a data file anywhere between the last
//! checkpoint's synced image and the crash-time image (write-through
//! pools run ahead of the durable log). Every such pair is a state
//! recovery must handle: the checkpoint pins its pages, so no data write
//! after it touches a page the checkpoint's tree reaches, and replaying
//! any committed prefix of the log on that tree is correct. Tests
//! therefore:
//!
//! 1. run a workload against a live dir, snapshotting the dir at
//!    checkpoints ([`copy_live_dir`]);
//! 2. enumerate every record boundary ([`record_boundaries`]);
//! 3. for each boundary — and a few mid-record offsets — build a crash
//!    image ([`truncate_wal`]) with the crash-time data file, and again
//!    with the checkpoint's ([`restore_data`]);
//! 4. recover, then compare against the ground truth recomputed from the
//!    logical op prefix ([`committed_ops`]).

use crate::error::{LiveError, LiveResult};
use crate::recovery::analyze;
pub use crate::recovery::LogicalOp;
use crate::tree::{DATA_FILE, WAL_DIR};
use crate::wal::{list_segments, scan_segment, SEGMENT_HEADER_LEN};
use std::path::Path;

/// One spot the log can be killed at: segment `seq`, byte `offset`.
///
/// Offsets from [`record_boundaries`] land exactly between records; any
/// smaller offset within the same segment is a torn record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashPoint {
    /// WAL segment sequence number.
    pub seq: u64,
    /// Byte length the segment is cut to.
    pub offset: u64,
}

/// Copies a live-tree directory (data file plus WAL segments) — the
/// harness's "take a disk image" primitive.
pub fn copy_live_dir(src: &Path, dst: &Path) -> LiveResult<()> {
    std::fs::create_dir_all(dst.join(WAL_DIR))?;
    std::fs::copy(src.join(DATA_FILE), dst.join(DATA_FILE))?;
    for entry in std::fs::read_dir(src.join(WAL_DIR))? {
        let entry = entry?;
        std::fs::copy(entry.path(), dst.join(WAL_DIR).join(entry.file_name()))?;
    }
    Ok(())
}

/// Replaces `dir`'s data file with the one from `image_dir` (e.g. the
/// snapshot taken at the governing checkpoint): the crash state where no
/// post-checkpoint data write reached the disk.
pub fn restore_data(dir: &Path, image_dir: &Path) -> LiveResult<()> {
    std::fs::copy(image_dir.join(DATA_FILE), dir.join(DATA_FILE))?;
    Ok(())
}

/// Every record boundary of every WAL segment in `dir`, in log order.
/// Each segment contributes its header end (the "no records survived"
/// point) plus the end of each record.
pub fn record_boundaries(dir: &Path) -> LiveResult<Vec<CrashPoint>> {
    let mut out = Vec::new();
    for (seq, path) in list_segments(&dir.join(WAL_DIR))? {
        out.push(CrashPoint {
            seq,
            offset: SEGMENT_HEADER_LEN,
        });
        let scan = scan_segment(seq, &path)?;
        out.extend(
            scan.records
                .iter()
                .map(|(end, _)| CrashPoint { seq, offset: *end }),
        );
    }
    Ok(out)
}

/// Cuts `dir`'s log at `point`: truncates segment `point.seq` to
/// `point.offset` bytes and deletes every later segment (a real crash at
/// that offset predates their creation).
pub fn truncate_wal(dir: &Path, point: CrashPoint) -> LiveResult<()> {
    let mut found = false;
    for (seq, path) in list_segments(&dir.join(WAL_DIR))? {
        if seq == point.seq {
            found = true;
            let f = std::fs::OpenOptions::new().write(true).open(&path)?;
            f.set_len(point.offset)?;
        } else if seq > point.seq {
            std::fs::remove_file(&path)?;
        }
    }
    if !found {
        return Err(LiveError::Invalid(format!(
            "no wal segment {} in {}",
            point.seq,
            dir.display()
        )));
    }
    Ok(())
}

/// The logical operations recovery will replay from `dir`'s (possibly
/// torn) log: ops since the base checkpoint whose `Commit` record is in
/// the intact prefix, in commit order — recovery's own analysis pass.
///
/// Ground truth for crash tests: the expected recovered contents are the
/// state at the base checkpoint plus exactly these ops.
pub fn committed_ops(dir: &Path) -> LiveResult<Vec<LogicalOp>> {
    Ok(analyze(&dir.join(WAL_DIR))?.ops)
}
