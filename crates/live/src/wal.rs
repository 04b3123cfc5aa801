//! Write-ahead log: append-only segments, LSN-stamped records, CRC32 per
//! record, one lock.
//!
//! ## Format
//!
//! The log lives in its own directory as a sequence of *segments*
//! `wal-NNNNNNNN.log`. Every segment starts with an 8-byte header (magic
//! `RPQW`, format version) followed by records:
//!
//! ```text
//! [body_len: u32 LE] [body] [crc32(body): u32 LE]
//! body = [kind: u8] [lsn: u64 LE] [payload...]
//! ```
//!
//! The CRC (the same table-driven CRC-32/ISO-HDLC as the page trailers,
//! [`cpq_storage::crc32`]) covers the whole body, so a torn tail — a crash
//! mid-write — is detected as a short or mismatching record and treated as
//! the end of the log, never as corruption of earlier records. A segment
//! whose header carries another format version (v1 and v2 logged page
//! images) is refused whole: it scans as holding no records, so recovery
//! reports `NoCheckpoint` instead of misreading it.
//!
//! The writer logs each update once, as three kinds of record (format v3).
//! [`RecordBody::OpBegin`] carries the logical operation (insert or delete
//! of one point), which is what recovery replays; a [`RecordBody::Commit`]
//! seals it with the object count it left; a [`RecordBody::Checkpoint`]
//! opens every segment with the descriptor replay starts from. No page is
//! logged: the checkpoint's pages stay intact until the next checkpoint
//! (see [`LiveTree`](crate::tree::LiveTree)), so replaying the committed
//! operations on them rebuilds the state.
//!
//! ## Rotation
//!
//! A checkpoint *rotates* the log: the checkpoint record is written as the
//! first record of a brand-new segment, fsynced, and only then are older
//! segments deleted. A crash inside that window leaves either the old
//! segments (new segment's checkpoint torn → recovery falls back to the
//! previous segment) or both (recovery picks the newest segment with an
//! intact leading checkpoint); both outcomes recover correctly.
//!
//! ## One lock
//!
//! All of the log's state — buffer, segment handle, counters, the
//! appended and durable watermarks — sits behind one mutex, which
//! [`Wal::commit`] holds across the write and the fsync. That is the whole
//! durability protocol: the LSN a flush publishes as durable is the one it
//! read before writing and nothing can append in between, so *when
//! `commit(lsn)` returns `Ok`, every record up to `lsn` has been written
//! (and synced, when configured)*. A committer that queued behind a flush
//! which covered its record returns without one of its own. Every `Wal` is
//! owned by one [`LiveTree`](crate::tree::LiveTree) and reached only under
//! that tree's writer mutex: one committer at a time.
//!
//! ## Fail-stop
//!
//! A failed write or sync leaves the segment in a state this process
//! cannot see, and the tree one level up has already run ahead of it. So
//! the first failure latches: every later `commit`, `flush_all` and
//! `checkpoint` returns an error, nothing more is written, and the way
//! back is [`recover`](crate::recovery::recover), which reads what did
//! reach the disk.

use crate::error::{LiveError, LiveResult};
use cpq_check::sync::{self, Mutex};
use cpq_storage::crc32;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

/// Log sequence number. LSN 0 means "none"; real records start at 1.
pub type Lsn = u64;

/// Segment header magic: `RPQW` (the page-file magic's sibling).
const WAL_MAGIC: u32 = 0x5250_5157;
/// Format version.
const WAL_VERSION: u32 = 3;
/// Segment header length in bytes.
pub const SEGMENT_HEADER_LEN: u64 = 8;
/// Sanity cap on a single record body.
const MAX_BODY_LEN: usize = 1 << 26;

const KIND_OP_BEGIN: u8 = 1;
const KIND_PAGE_ALLOC: u8 = 3;
const KIND_COMMIT: u8 = 5;
const KIND_CHECKPOINT: u8 = 6;

/// The logical operation kind inside an [`RecordBody::OpBegin`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Insert one object.
    Insert,
    /// Delete one object.
    Delete,
}

/// A decoded WAL record body.
#[derive(Debug, Clone, PartialEq)]
pub enum RecordBody {
    /// Start of a logical operation: which object is inserted or deleted.
    /// `obj` is the object's fixed-size encoding.
    OpBegin {
        /// Monotonic operation id.
        op_id: u64,
        /// Insert or delete.
        op: OpKind,
        /// Application object id.
        oid: u64,
        /// `Point::encode` bytes.
        obj: Vec<u8>,
    },
    /// A page-allocation note. Nothing in the workspace writes it and
    /// recovery ignores it; it stays
    /// encodable and decodable because the out-of-workspace `benchmark/`
    /// package appends it as the smallest record there is
    /// (`live.wal_commit_us`) — pinned like the six names of DESIGN.md §18.
    PageAlloc {
        /// Owning operation.
        op_id: u64,
        /// Raw page index.
        page: u32,
    },
    /// Seals an operation: it is durable once this record is.
    Commit {
        /// Operation being sealed.
        op_id: u64,
        /// Object count after the operation (replay must reach it).
        len: u64,
    },
    /// Leading record of every segment: the durable base state.
    Checkpoint {
        /// Root page at checkpoint (`u32::MAX` = empty).
        root: u32,
        /// Height at checkpoint.
        height: u8,
        /// Object count at checkpoint.
        len: u64,
        /// Next operation id to hand out.
        next_op_id: u64,
    },
}

/// A decoded record with its LSN.
#[derive(Debug, Clone, PartialEq)]
pub struct WalRecord {
    /// The record's log sequence number.
    pub lsn: Lsn,
    /// The decoded body.
    pub body: RecordBody,
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

struct Cursor<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn array<const N: usize>(&mut self) -> Option<[u8; N]> {
        let bytes = self.buf.get(self.at..self.at + N)?.try_into().ok()?;
        self.at += N;
        Some(bytes)
    }

    fn u8(&mut self) -> Option<u8> {
        self.array().map(|[b]| b)
    }

    fn u32(&mut self) -> Option<u32> {
        self.array().map(u32::from_le_bytes)
    }

    fn u64(&mut self) -> Option<u64> {
        self.array().map(u64::from_le_bytes)
    }

    fn bytes(&mut self, n: usize) -> Option<Vec<u8>> {
        let v = self.buf.get(self.at..self.at + n)?.to_vec();
        self.at += n;
        Some(v)
    }

    fn done(&self) -> bool {
        self.at == self.buf.len()
    }
}

/// Serializes one record (length prefix + body + CRC) into `out`.
fn encode_record(out: &mut Vec<u8>, lsn: Lsn, body: &RecordBody) {
    let mut b: Vec<u8> = Vec::with_capacity(32);
    let kind = match body {
        RecordBody::OpBegin { .. } => KIND_OP_BEGIN,
        RecordBody::PageAlloc { .. } => KIND_PAGE_ALLOC,
        RecordBody::Commit { .. } => KIND_COMMIT,
        RecordBody::Checkpoint { .. } => KIND_CHECKPOINT,
    };
    b.push(kind);
    put_u64(&mut b, lsn);
    match body {
        RecordBody::OpBegin {
            op_id,
            op,
            oid,
            obj,
        } => {
            put_u64(&mut b, *op_id);
            b.push(match op {
                OpKind::Insert => 0,
                OpKind::Delete => 1,
            });
            put_u64(&mut b, *oid);
            put_u32(&mut b, obj.len() as u32);
            b.extend_from_slice(obj);
        }
        RecordBody::PageAlloc { op_id, page } => {
            put_u64(&mut b, *op_id);
            put_u32(&mut b, *page);
        }
        RecordBody::Commit { op_id, len } => {
            put_u64(&mut b, *op_id);
            put_u64(&mut b, *len);
        }
        RecordBody::Checkpoint {
            root,
            height,
            len,
            next_op_id,
        } => {
            put_u32(&mut b, *root);
            b.push(*height);
            put_u64(&mut b, *len);
            put_u64(&mut b, *next_op_id);
        }
    }
    put_u32(out, b.len() as u32);
    let crc = crc32(&b);
    out.extend_from_slice(&b);
    put_u32(out, crc);
}

/// Decodes one body. `None` on any structural problem (treated by readers
/// as a torn tail).
fn decode_body(body: &[u8]) -> Option<WalRecord> {
    let mut c = Cursor { buf: body, at: 0 };
    let kind = c.u8()?;
    let lsn = c.u64()?;
    let body = match kind {
        KIND_OP_BEGIN => {
            let op_id = c.u64()?;
            let op = match c.u8()? {
                0 => OpKind::Insert,
                1 => OpKind::Delete,
                _ => return None,
            };
            let oid = c.u64()?;
            let n = c.u32()? as usize;
            let obj = c.bytes(n)?;
            RecordBody::OpBegin {
                op_id,
                op,
                oid,
                obj,
            }
        }
        KIND_PAGE_ALLOC => {
            let op_id = c.u64()?;
            let page = c.u32()?;
            RecordBody::PageAlloc { op_id, page }
        }
        KIND_COMMIT => {
            let op_id = c.u64()?;
            let len = c.u64()?;
            RecordBody::Commit { op_id, len }
        }
        KIND_CHECKPOINT => {
            let root = c.u32()?;
            let height = c.u8()?;
            let len = c.u64()?;
            let next_op_id = c.u64()?;
            RecordBody::Checkpoint {
                root,
                height,
                len,
                next_op_id,
            }
        }
        _ => return None,
    };
    if !c.done() {
        return None; // trailing bytes inside a CRC-valid body: another layout
    }
    Some(WalRecord { lsn, body })
}

/// WAL configuration.
#[derive(Debug, Clone)]
pub struct WalConfig {
    /// Call `fsync` on flush. Turning this off (tests, benches) keeps all
    /// ordering and bookkeeping but skips the physical sync.
    pub sync: bool,
}

impl Default for WalConfig {
    fn default() -> Self {
        WalConfig { sync: true }
    }
}

/// Counters exposed through `cpq_wal_*` metrics.
#[derive(Debug, Clone, Copy, Default)]
pub struct WalStats {
    /// Records appended.
    pub records: u64,
    /// Bytes appended (including framing).
    pub bytes: u64,
    /// Durability waits: `commit` calls plus the `flush_all` of each
    /// checkpoint.
    pub commits: u64,
    /// Physical flushes (each one write and at most one fsync). A wait
    /// that finds its LSN already durable adds none.
    pub flushes: u64,
    /// Checkpoints taken (= segment rotations).
    pub checkpoints: u64,
    /// Highest LSN assigned.
    pub appended_lsn: Lsn,
    /// Highest LSN known durable.
    pub durable_lsn: Lsn,
}

struct WalInner {
    dir: PathBuf,
    file: File,
    seg_seq: u64,
    /// Records serialized but not yet written to the segment file.
    buf: Vec<u8>,
    /// Counters and watermarks: `appended_lsn` is the last LSN handed out,
    /// `durable_lsn` the last a successful write (and sync) covered.
    stats: WalStats,
    /// The first write or sync failure (see the module's fail-stop rule).
    failed: Option<String>,
}

impl WalInner {
    /// The fail-stop rule's check: the latched failure, if there is one.
    fn check(&self) -> LiveResult<()> {
        match &self.failed {
            None => Ok(()),
            Some(why) => Err(LiveError::Io(io::Error::other(format!(
                "the log failed earlier ({why}); recover() is the way back"
            )))),
        }
    }

    /// Passes a write or sync result through, latching its failure.
    fn latch<T>(&mut self, res: io::Result<T>) -> LiveResult<T> {
        res.map_err(|e| {
            self.failed = Some(e.to_string());
            LiveError::Io(e)
        })
    }

    /// Returns once `lsn` is durable: at once when an earlier flush covered
    /// it, else after writing the buffer (and syncing, when `sync`). The
    /// caller holds the lock throughout, so the LSN published as durable is
    /// exactly what the write covered.
    fn commit(&mut self, lsn: Lsn, sync: bool) -> LiveResult<()> {
        self.check()?;
        debug_assert!(lsn <= self.stats.appended_lsn, "unassigned LSN");
        if lsn == 0 {
            return Ok(()); // "none": an empty log has nothing to wait for
        }
        self.stats.commits += 1;
        if self.stats.durable_lsn >= lsn {
            return Ok(());
        }
        let covered = self.stats.appended_lsn;
        let mut written = self.file.write_all(&self.buf);
        if sync {
            written = written.and_then(|()| self.file.sync_data());
        }
        self.latch(written)?;
        self.buf.clear();
        self.stats.durable_lsn = covered;
        self.stats.flushes += 1;
        Ok(())
    }
}

/// The write-ahead log over one directory of segment files.
pub struct Wal {
    inner: Mutex<WalInner>,
    cfg: WalConfig,
}

/// `dir/wal-NNNNNNNN.log` for segment `seq`.
fn segment_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("wal-{seq:08}.log"))
}

/// Lists `(seq, path)` of all segments in `dir`, ascending.
pub fn list_segments(dir: &Path) -> LiveResult<Vec<(u64, PathBuf)>> {
    let mut out = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if let Some(seq) = name
            .strip_prefix("wal-")
            .and_then(|s| s.strip_suffix(".log"))
            .and_then(|s| s.parse::<u64>().ok())
        {
            out.push((seq, entry.path()));
        }
    }
    out.sort();
    Ok(out)
}

/// Creates segment `seq` holding its header and `first` (already encoded
/// records), synced when `sync`.
fn new_segment_file(dir: &Path, seq: u64, first: &[u8], sync: bool) -> io::Result<File> {
    let mut file = OpenOptions::new()
        .create(true)
        .truncate(true)
        .write(true)
        .open(segment_path(dir, seq))?;
    let mut bytes = Vec::with_capacity(SEGMENT_HEADER_LEN as usize + first.len());
    put_u32(&mut bytes, WAL_MAGIC);
    put_u32(&mut bytes, WAL_VERSION);
    bytes.extend_from_slice(first);
    file.write_all(&bytes)?;
    if sync {
        file.sync_data()?;
    }
    Ok(file)
}

impl Wal {
    /// Creates a fresh log in `dir` (created if missing). The first
    /// checkpoint record must follow immediately — use
    /// [`checkpoint`](Self::checkpoint) before logging operations.
    pub fn create(dir: &Path, cfg: WalConfig) -> LiveResult<Self> {
        fs::create_dir_all(dir)?;
        Self::with_segment(dir, cfg, 1, 1)
    }

    /// Opens a log positioned at a brand-new segment `seg_seq` handing out
    /// LSNs from `next_lsn` — the recovery path, which has already scanned
    /// the existing segments.
    pub fn with_segment(
        dir: &Path,
        cfg: WalConfig,
        seg_seq: u64,
        next_lsn: Lsn,
    ) -> LiveResult<Self> {
        let file = new_segment_file(dir, seg_seq, &[], false)?;
        Ok(Wal {
            inner: Mutex::new(WalInner {
                dir: dir.to_path_buf(),
                file,
                seg_seq,
                buf: Vec::new(),
                stats: WalStats {
                    appended_lsn: next_lsn.saturating_sub(1),
                    ..WalStats::default()
                },
                failed: None,
            }),
            cfg,
        })
    }

    /// Appends one record, returning its LSN. The record is buffered; it
    /// becomes durable at the next [`commit`](Self::commit) /
    /// [`checkpoint`](Self::checkpoint).
    pub fn append(&self, body: &RecordBody) -> Lsn {
        let mut inner = sync::lock(&self.inner);
        let lsn = inner.stats.appended_lsn + 1;
        let before = inner.buf.len();
        encode_record(&mut inner.buf, lsn, body);
        inner.stats.appended_lsn = lsn;
        inner.stats.records += 1;
        inner.stats.bytes += (inner.buf.len() - before) as u64;
        lsn
    }

    /// Returns once every record up to `lsn` is durable. One flush covers
    /// everything appended before it, so a caller whose record an earlier
    /// flush already wrote returns without another.
    pub fn commit(&self, lsn: Lsn) -> LiveResult<()> {
        let mut inner = sync::lock(&self.inner);
        inner.commit(lsn, self.cfg.sync)
    }

    /// Makes everything appended so far durable.
    pub fn flush_all(&self) -> LiveResult<Lsn> {
        let mut inner = sync::lock(&self.inner);
        let target = inner.stats.appended_lsn;
        inner.commit(target, self.cfg.sync)?;
        Ok(target)
    }

    /// Writes `checkpoint` as the first record of a brand-new segment and
    /// deletes older segments once it is durable. The caller must have
    /// made the data file durable first (WAL-before-data: `flush_all`,
    /// then the pool's sync, then this — see `LiveTree::checkpoint`).
    pub fn checkpoint(&self, checkpoint: &RecordBody) -> LiveResult<Lsn> {
        debug_assert!(matches!(checkpoint, RecordBody::Checkpoint { .. }));
        // Seal the current segment: everything buffered must be durable
        // before the old segments become deletable.
        self.flush_all()?;
        let mut inner = sync::lock(&self.inner);
        let new_seq = inner.seg_seq + 1;
        let lsn = inner.stats.appended_lsn + 1;
        let mut buf = Vec::new();
        encode_record(&mut buf, lsn, checkpoint);
        // The checkpoint record is durable before the log's state points at
        // the new segment, and no append can fall between the two.
        let created = new_segment_file(&inner.dir, new_seq, &buf, self.cfg.sync);
        inner.file = inner.latch(created)?;
        inner.seg_seq = new_seq;
        inner.stats.appended_lsn = lsn;
        inner.stats.durable_lsn = lsn;
        inner.stats.records += 1;
        inner.stats.bytes += buf.len() as u64;
        inner.stats.checkpoints += 1;
        // The new checkpoint is durable: older segments are dead weight.
        for (seq, path) in list_segments(&inner.dir)? {
            if seq < new_seq {
                fs::remove_file(path)?;
            }
        }
        Ok(lsn)
    }

    /// Test hook: swaps the segment handle for `file` — with a read-only
    /// one every write fails, as on a dying disk — and returns the old one.
    #[cfg(test)]
    pub(crate) fn swap_segment_handle(&self, file: File) -> File {
        let mut inner = sync::lock(&self.inner);
        std::mem::replace(&mut inner.file, file)
    }

    /// Counter snapshot.
    pub fn stats(&self) -> WalStats {
        sync::lock(&self.inner).stats
    }
}

/// One segment's scan result.
#[derive(Debug)]
pub struct SegmentScan {
    /// Segment sequence number.
    pub seq: u64,
    /// Records decoded, in order, with the byte offset just *after* each
    /// record (crash-point enumeration for the fault harness).
    pub records: Vec<(u64, WalRecord)>,
    /// `false` when the scan stopped early at a torn/corrupt record.
    pub clean: bool,
}

/// Scans one segment file, stopping (not failing) at the first torn or
/// CRC-mismatching record: a torn tail is the end of the log, not an error.
pub fn scan_segment(seq: u64, path: &Path) -> LiveResult<SegmentScan> {
    let mut bytes = Vec::new();
    File::open(path)?.read_to_end(&mut bytes)?;
    let mut scan = SegmentScan {
        seq,
        records: Vec::new(),
        clean: false,
    };
    if bytes.len() < SEGMENT_HEADER_LEN as usize {
        return Ok(scan);
    }
    let magic = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
    let version = u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]);
    if magic != WAL_MAGIC || version != WAL_VERSION {
        return Ok(scan);
    }
    let mut at = SEGMENT_HEADER_LEN as usize;
    loop {
        if at == bytes.len() {
            scan.clean = true;
            return Ok(scan);
        }
        let Some(len_bytes) = bytes.get(at..at + 4) else {
            return Ok(scan); // torn length prefix
        };
        #[expect(clippy::expect_used, reason = "a 4-byte slice always converts.")]
        let body_len = u32::from_le_bytes(len_bytes.try_into().expect("4-byte slice")) as usize;
        if body_len > MAX_BODY_LEN {
            return Ok(scan); // implausible length: torn tail
        }
        let body_start = at + 4;
        let Some(body) = bytes.get(body_start..body_start + body_len) else {
            return Ok(scan); // torn body
        };
        let crc_start = body_start + body_len;
        let Some(crc_bytes) = bytes.get(crc_start..crc_start + 4) else {
            return Ok(scan); // torn CRC
        };
        #[expect(clippy::expect_used, reason = "a 4-byte slice always converts.")]
        let stored = u32::from_le_bytes(crc_bytes.try_into().expect("4-byte slice"));
        if crc32(body) != stored {
            return Ok(scan); // bit rot or torn write inside the body
        }
        let Some(record) = decode_body(body) else {
            return Ok(scan); // CRC ok but structurally unknown: stop
        };
        at = crc_start + 4;
        scan.records.push((at as u64, record));
    }
}

/// Scans the whole log directory: picks the newest segment whose leading
/// record is an intact [`RecordBody::Checkpoint`], then returns that
/// segment's scan plus the scans of every later segment, ascending.
pub fn scan_log(dir: &Path) -> LiveResult<Vec<SegmentScan>> {
    let segments = list_segments(dir)?;
    let mut scans: Vec<SegmentScan> = Vec::new();
    for (seq, path) in &segments {
        scans.push(scan_segment(*seq, path)?);
    }
    let base = scans
        .iter()
        .rposition(|s| {
            matches!(
                s.records.first(),
                Some((
                    _,
                    WalRecord {
                        body: RecordBody::Checkpoint { .. },
                        ..
                    }
                ))
            )
        })
        .ok_or(LiveError::NoCheckpoint)?;
    Ok(scans.split_off(base))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "cpq-wal-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&p);
        fs::create_dir_all(&p).expect("create temp dir");
        p
    }

    fn checkpoint0() -> RecordBody {
        RecordBody::Checkpoint {
            root: u32::MAX,
            height: 0,
            len: 0,
            next_op_id: 1,
        }
    }

    #[test]
    fn roundtrip_all_record_kinds() {
        let dir = tmp_dir("roundtrip");
        let wal = Wal::create(&dir, WalConfig { sync: false }).expect("create");
        wal.checkpoint(&checkpoint0()).expect("checkpoint");
        let bodies = vec![
            RecordBody::OpBegin {
                op_id: 7,
                op: OpKind::Insert,
                oid: 42,
                obj: vec![1, 2, 3, 4],
            },
            RecordBody::PageAlloc { op_id: 7, page: 3 },
            RecordBody::Commit { op_id: 7, len: 9 },
        ];
        let mut lsns = Vec::new();
        for b in &bodies {
            lsns.push(wal.append(b));
        }
        wal.commit(*lsns.last().expect("nonempty")).expect("commit");
        let scans = scan_log(&dir).expect("scan");
        assert_eq!(scans.len(), 1, "older segment deleted after checkpoint");
        let scan = &scans[0];
        assert!(scan.clean);
        assert_eq!(scan.records.len(), 1 + bodies.len());
        assert_eq!(scan.records[0].1.body, checkpoint0());
        for (i, b) in bodies.iter().enumerate() {
            assert_eq!(&scan.records[i + 1].1.body, b);
            assert_eq!(scan.records[i + 1].1.lsn, lsns[i]);
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_end_of_log_not_error() {
        let dir = tmp_dir("torn");
        let wal = Wal::create(&dir, WalConfig { sync: false }).expect("create");
        wal.checkpoint(&checkpoint0()).expect("checkpoint");
        for i in 0..5u64 {
            wal.append(&RecordBody::PageAlloc {
                op_id: i,
                page: i as u32,
            });
        }
        wal.flush_all().expect("flush");
        let (seq, path) = list_segments(&dir).expect("list").pop().expect("segment");
        let full = fs::read(&path).expect("read");
        let boundaries: Vec<u64> = {
            let scan = scan_segment(seq, &path).expect("scan");
            assert!(scan.clean);
            scan.records.iter().map(|(off, _)| *off).collect()
        };
        // Truncating at any boundary + a few garbage bytes must yield a
        // clean=false scan with exactly the records before the cut.
        for (i, b) in boundaries.iter().enumerate() {
            let mut cut = full[..*b as usize].to_vec();
            cut.extend_from_slice(&[0x55, 0xAA, 0x01]);
            fs::write(&path, &cut).expect("write");
            let scan = scan_segment(seq, &path).expect("scan");
            assert!(!scan.clean);
            assert_eq!(scan.records.len(), i + 1);
        }
        // Flipping a byte inside a record kills that record and the rest.
        fs::write(&path, &full).expect("restore");
        let mut flipped = full.clone();
        let mid = boundaries[2] as usize + 6; // inside record 4's frame
        flipped[mid] ^= 0xFF;
        fs::write(&path, &flipped).expect("write");
        let scan = scan_segment(seq, &path).expect("scan");
        assert!(!scan.clean);
        assert!(scan.records.len() <= 4);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_rotation_falls_back_when_new_checkpoint_torn() {
        let dir = tmp_dir("rotate");
        let wal = Wal::create(&dir, WalConfig { sync: false }).expect("create");
        wal.checkpoint(&checkpoint0()).expect("checkpoint");
        let lsn = wal.append(&RecordBody::PageAlloc { op_id: 1, page: 0 });
        wal.commit(lsn).expect("commit");
        wal.checkpoint(&RecordBody::Checkpoint {
            root: 0,
            height: 1,
            len: 1,
            next_op_id: 2,
        })
        .expect("second checkpoint");
        // Only the newest segment remains and it leads with a checkpoint.
        let segs = list_segments(&dir).expect("list");
        assert_eq!(segs.len(), 1);
        // Simulate a crash mid-rotation: newest segment's checkpoint torn.
        let (seq, path) = segs[0].clone();
        let bytes = fs::read(&path).expect("read");
        fs::write(&path, &bytes[..bytes.len() - 3]).expect("truncate");
        // Recreate an older segment with an intact checkpoint to fall
        // back to (as if deletion had not happened yet).
        let mut record = Vec::new();
        encode_record(&mut record, 1, &checkpoint0());
        new_segment_file(&dir, seq - 1, &record, false).expect("write older");
        let scans = scan_log(&dir).expect("scan");
        assert_eq!(scans[0].seq, seq - 1, "fell back past the torn rotation");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn group_commit_batches_fsyncs_under_concurrency() {
        use cpq_check::thread;
        let dir = tmp_dir("group");
        let wal =
            std::sync::Arc::new(Wal::create(&dir, WalConfig { sync: false }).expect("create"));
        wal.checkpoint(&checkpoint0()).expect("checkpoint");
        let threads = 8;
        let per = 16;
        let mut handles = Vec::new();
        for t in 0..threads {
            let wal = std::sync::Arc::clone(&wal);
            handles.push(thread::spawn(move || {
                for i in 0..per {
                    let lsn = wal.append(&RecordBody::PageAlloc {
                        op_id: t,
                        page: i as u32,
                    });
                    wal.commit(lsn).expect("commit");
                }
            }));
        }
        for h in handles {
            h.join().expect("join");
        }
        let stats = wal.stats();
        assert_eq!(stats.commits, threads * per);
        assert!(
            stats.flushes <= stats.commits,
            "flushes {} > commits {}",
            stats.flushes,
            stats.commits
        );
        assert_eq!(stats.durable_lsn, stats.appended_lsn);
        let scans = scan_log(&dir).expect("scan");
        assert_eq!(
            scans.iter().map(|s| s.records.len()).sum::<usize>() as u64,
            1 + threads * per
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn other_format_versions_are_refused_not_misread() {
        let dir = tmp_dir("versions");
        let mut record = Vec::new();
        encode_record(&mut record, 1, &checkpoint0());
        new_segment_file(&dir, 1, &record, false).expect("segment");
        let control = scan_log(&dir).expect("this version's segment is a base");
        assert_eq!(control[0].records.len(), 1);
        // The same segment under a v1 or v2 header is refused before any
        // record is looked at.
        let mut bytes = fs::read(segment_path(&dir, 1)).expect("read");
        for old in [1u32, 2] {
            bytes[4..8].copy_from_slice(&old.to_le_bytes());
            fs::write(segment_path(&dir, 1), &bytes).expect("write");
            let refused = matches!(scan_log(&dir), Err(LiveError::NoCheckpoint));
            assert!(refused, "a v{old} header");
        }
        // A v1-layout checkpoint body (v1 ended it with the entry count of
        // its dirty-page table) does not decode, whatever the header says.
        let body = &record[4..record.len() - 4];
        assert!(decode_body(body).is_some());
        let mut v1_body = body.to_vec();
        put_u32(&mut v1_body, 0);
        assert!(decode_body(&v1_body).is_none());
        // A v2 page image (kind 2: op id, page, length, bytes) is no record
        // of this format.
        let mut page_write = vec![2u8];
        put_u64(&mut page_write, 2);
        put_u64(&mut page_write, 1);
        put_u32(&mut page_write, 0);
        put_u32(&mut page_write, 4);
        page_write.extend_from_slice(&[0xAB; 4]);
        assert!(decode_body(&page_write).is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    /// A failed write must not be forgotten: before the latch, the commit
    /// after the failure published `durable = appended` over a log that
    /// held LSNs `[1, 3]`.
    #[test]
    fn failed_write_latches_the_log() {
        let dir = tmp_dir("failstop");
        let wal = Wal::create(&dir, WalConfig { sync: false }).expect("create");
        wal.checkpoint(&checkpoint0()).expect("checkpoint");
        let read_only = File::open(segment_path(&dir, 2)).expect("reopen read-only");
        let working = wal.swap_segment_handle(read_only);
        let a = wal.append(&RecordBody::PageAlloc { op_id: 1, page: 0 });
        assert!(matches!(wal.commit(a), Err(LiveError::Io(_))));
        // The disk "comes back"; the log must stay failed all the same.
        wal.swap_segment_handle(working);
        let b = wal.append(&RecordBody::PageAlloc { op_id: 2, page: 1 });
        assert!(wal.commit(b).is_err(), "commit after a failed write");
        assert!(wal.flush_all().is_err());
        assert!(wal.checkpoint(&checkpoint0()).is_err());
        assert_eq!(wal.stats().durable_lsn, 1, "only the checkpoint is durable");
        let on_disk: Vec<Lsn> = scan_log(&dir).expect("scan")[0]
            .records
            .iter()
            .map(|(_, r)| r.lsn)
            .collect();
        assert_eq!(on_disk, [1], "no record may follow the hole");
        let _ = fs::remove_dir_all(&dir);
    }
}
