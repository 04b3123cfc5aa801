//! Page file implementations: a simulated in-memory disk and a real file.

use crate::crc32::crc32;
use crate::error::{StorageError, StorageResult};
use crate::page::{PageBytes, PageId};
use crate::stats::IoStats;
use cpq_check::sync::atomic::{AtomicU64, Ordering};
use std::cell::RefCell;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::os::unix::fs::FileExt;
use std::path::Path;

// Reusable per-thread miss buffer for `PageFile::read_bytes`'s default: a
// page is read into this scratch and copied once into its final
// `PageBytes` allocation, instead of paying a fresh `vec![0u8; page_size]`
// heap allocation on every miss.
thread_local! {
    static MISS_SCRATCH: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
}

/// A flat, growable array of fixed-size pages with a free list.
///
/// This is the "disk" of the reproduction. Implementations count every
/// physical read/write in [`IoStats`]; the benchmark harness reports those
/// counts as the paper's *disk accesses*.
///
/// `read` takes `&self` so independent reads may proceed concurrently (the
/// buffer pool holds the file behind a `RwLock` and performs miss I/O under
/// the read guard); mutating operations (`allocate`/`write`/`free`) take
/// `&mut self` and are serialized by the pool's write guard.
pub trait PageFile: Send + Sync {
    /// Size of every page in bytes.
    fn page_size(&self) -> usize;

    /// Number of pages ever allocated (including freed ones).
    fn num_pages(&self) -> u32;

    /// Allocates a page (reusing a freed one if available) and returns its id.
    fn allocate(&mut self) -> StorageResult<PageId>;

    /// Reads page `id` into `buf` (`buf.len()` must equal `page_size`).
    fn read(&self, id: PageId, buf: &mut [u8]) -> StorageResult<()>;

    /// Reads page `id` as [`PageBytes`]: the buffer pool's one miss
    /// primitive.
    ///
    /// The default goes through [`read`](Self::read) into a per-thread
    /// scratch buffer and copies the page once into a fresh allocation —
    /// the only allocation on the miss path — so a decorator's injected
    /// faults fire here exactly as on `read`. [`MemPageFile`] overrides it
    /// to hand out the allocation it stores, so a resident page is held in
    /// memory once.
    // The scratch buffer is resized to the page size immediately before the
    // `[..ps]` slices: the index is in bounds by construction.
    fn read_bytes(&self, id: PageId) -> StorageResult<PageBytes> {
        MISS_SCRATCH.with(|cell| {
            let mut buf = cell.borrow_mut();
            let ps = self.page_size();
            if buf.len() < ps {
                buf.resize(ps, 0);
            }
            self.read(id, &mut buf[..ps])?;
            Ok(PageBytes::from(&buf[..ps]))
        })
    }

    /// Reads `n` consecutive pages starting at `first` into `buf`
    /// (`buf.len()` must equal `n * page_size`), page `first + i` landing at
    /// `buf[i * page_size..]`.
    ///
    /// The default delegates to [`read`](Self::read) page by page, so every
    /// implementation (including fault-injecting decorators, which keep
    /// their per-page injection semantics) supports runs. File-backed
    /// stores override this with a single positioned read of the whole span
    /// — the coalescing primitive the I/O scheduler builds on. On error the
    /// contents of `buf` are unspecified; no page of a failed run may be
    /// counted as physically read more than once.
    fn read_run(&self, first: PageId, n: usize, buf: &mut [u8]) -> StorageResult<()> {
        let ps = self.page_size();
        if buf.len() != n * ps {
            return Err(StorageError::WrongBufferSize {
                expected: n * ps,
                actual: buf.len(),
            });
        }
        for (i, chunk) in buf.chunks_mut(ps).enumerate() {
            self.read(PageId(first.0 + i as u32), chunk)?;
        }
        Ok(())
    }

    /// Writes `data` (exactly `page_size` bytes) to page `id`.
    fn write(&mut self, id: PageId, data: &[u8]) -> StorageResult<()>;

    /// [`write`](Self::write), returning the page as the file now keeps it
    /// in memory, if it does: the buffer pool's write path, whose frame
    /// then shares that allocation instead of copying `data` again. The
    /// default writes through `write` and keeps nothing; [`MemPageFile`]
    /// returns the page it stores.
    fn write_shared(&mut self, id: PageId, data: &[u8]) -> StorageResult<Option<PageBytes>> {
        self.write(id, data).map(|()| None)
    }

    /// Returns page `id` to the free list.
    fn free(&mut self, id: PageId) -> StorageResult<()>;

    /// Physical I/O counters.
    fn stats(&self) -> IoStats;

    /// Resets the physical I/O counters to zero.
    fn reset_stats(&mut self);

    /// Flushes buffered state (header, dirty metadata) to durable
    /// storage so the file can be reopened. No-op for purely in-memory
    /// files — the default.
    fn sync(&mut self) -> StorageResult<()> {
        Ok(())
    }
}

/// In-memory simulated disk.
///
/// Pages live in a `Vec` as [`PageBytes`]; reads are `memcpy`s, or a shared
/// handle to the stored page through [`PageFile::read_bytes`], and writes
/// replace the stored page, but both are counted exactly as a real disk
/// would count them. This is what the experiments use — the paper's cost
/// metric is the *number* of accesses, which is hardware independent.
pub struct MemPageFile {
    page_size: usize,
    pages: Vec<Option<PageBytes>>,
    free_list: Vec<PageId>,
    stats: IoStats,
    /// Successful physical reads. Atomic because `read` takes `&self` and
    /// may run concurrently from several threads.
    reads: AtomicU64,
}

impl MemPageFile {
    /// Creates an empty file with the given page size.
    pub fn new(page_size: usize) -> Self {
        assert!(page_size > 0, "page size must be positive");
        MemPageFile {
            page_size,
            pages: Vec::new(),
            free_list: Vec::new(),
            stats: IoStats::default(),
            reads: AtomicU64::new(0),
        }
    }

    /// The stored page `id`, counting one physical read.
    fn page(&self, id: PageId) -> StorageResult<&PageBytes> {
        match self.pages.get(id.index()) {
            Some(Some(data)) => {
                // ordering: Relaxed — pure I/O counter; readers reconcile
                // it against buffer-pool books only at quiescence.
                self.reads.fetch_add(1, Ordering::Relaxed);
                Ok(data)
            }
            Some(None) => Err(StorageError::PageFreed(id)),
            None => Err(StorageError::PageOutOfBounds(id)),
        }
    }

    /// The slot page `id` is written to: allocated and not freed.
    fn slot_mut(&mut self, id: PageId) -> StorageResult<&mut PageBytes> {
        match self.pages.get_mut(id.index()) {
            Some(Some(page)) => Ok(page),
            Some(None) => Err(StorageError::PageFreed(id)),
            None => Err(StorageError::PageOutOfBounds(id)),
        }
    }

    fn check_len(&self, len: usize) -> StorageResult<()> {
        if len != self.page_size {
            return Err(StorageError::WrongBufferSize {
                expected: self.page_size,
                actual: len,
            });
        }
        Ok(())
    }
}

impl PageFile for MemPageFile {
    fn page_size(&self) -> usize {
        self.page_size
    }

    fn num_pages(&self) -> u32 {
        self.pages.len() as u32
    }

    fn allocate(&mut self) -> StorageResult<PageId> {
        self.stats.allocations += 1;
        let zeros = Some(PageBytes::from(vec![0; self.page_size]));
        if let Some(id) = self.free_list.pop() {
            self.pages[id.index()] = zeros;
            return Ok(id);
        }
        let id = PageId(self.pages.len() as u32);
        self.pages.push(zeros);
        Ok(id)
    }

    fn read(&self, id: PageId, buf: &mut [u8]) -> StorageResult<()> {
        self.check_len(buf.len())?;
        buf.copy_from_slice(self.page(id)?);
        Ok(())
    }

    /// The stored page itself: the frame that caches it shares the
    /// allocation.
    fn read_bytes(&self, id: PageId) -> StorageResult<PageBytes> {
        self.page(id).cloned()
    }

    fn write(&mut self, id: PageId, data: &[u8]) -> StorageResult<()> {
        self.write_shared(id, data).map(drop)
    }

    /// The stored page: the frame that caches it shares the allocation.
    fn write_shared(&mut self, id: PageId, data: &[u8]) -> StorageResult<Option<PageBytes>> {
        self.check_len(data.len())?;
        let page = PageBytes::from(data);
        *self.slot_mut(id)? = page.clone();
        self.stats.writes += 1;
        Ok(Some(page))
    }

    fn free(&mut self, id: PageId) -> StorageResult<()> {
        match self
            .pages
            .get_mut(id.index())
            .ok_or(StorageError::PageOutOfBounds(id))?
        {
            slot @ Some(_) => {
                *slot = None;
                self.free_list.push(id);
                self.stats.frees += 1;
                Ok(())
            }
            None => Err(StorageError::PageFreed(id)),
        }
    }

    fn stats(&self) -> IoStats {
        IoStats {
            // ordering: Relaxed — counter read; see `read`.
            reads: self.reads.load(Ordering::Relaxed),
            ..self.stats
        }
    }

    fn reset_stats(&mut self) {
        self.stats = IoStats::default();
        // ordering: Relaxed — reset runs under the pool's exclusive write
        // guard (`&mut self`), so no concurrent reader exists.
        self.reads.store(0, Ordering::Relaxed);
    }
}

const DISK_MAGIC: u32 = 0x5250_5146; // "RPQF"
const HEADER_LEN: u64 = 16;
/// The one on-disk layout: every page followed by its CRC-32 trailer.
const DISK_VERSION: u32 = 2;
/// Bytes of the per-page CRC-32 trailer.
const CRC_LEN: usize = 4;

std::thread_local! {
    /// Per-thread scratch for de-striping checksummed pages and runs;
    /// reused across reads so steady-state read paths allocate nothing.
    static DISK_SCRATCH: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
}

/// File-backed page store.
///
/// Layout: a 16-byte header (magic, version, page size, page count) followed
/// by the pages. The free list and the per-page freed flags are kept in
/// memory only; they are rebuilt empty on open, which is sound (freed pages
/// are simply not reused across sessions). Within a session a freed page
/// answers [`StorageError::PageFreed`] to reads, writes and a second free,
/// as [`MemPageFile`] does.
///
/// Every page is followed by a CRC-32 trailer, verified on each read — a
/// flipped byte on disk surfaces as [`StorageError::Corrupt`] instead of
/// silently feeding garbage to the R-tree decoder.
///
/// Reads use positioned I/O (`pread`), so concurrent readers never contend
/// on a shared cursor; the cursor is only used by `&mut self` operations.
pub struct DiskPageFile {
    file: File,
    page_size: usize,
    num_pages: u32,
    free_list: Vec<PageId>,
    /// `freed[i]`: page `i` is on the free list (pages past its end are
    /// not).
    freed: Vec<bool>,
    stats: IoStats,
    /// Successful physical reads (atomic: `read` takes `&self`).
    reads: AtomicU64,
}

impl DiskPageFile {
    /// Creates a new page file at `path`, truncating any existing file.
    pub fn create<P: AsRef<Path>>(path: P, page_size: usize) -> StorageResult<Self> {
        assert!(page_size > 0, "page size must be positive");
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        let mut this = DiskPageFile {
            file,
            page_size,
            num_pages: 0,
            free_list: Vec::new(),
            freed: Vec::new(),
            stats: IoStats::default(),
            reads: AtomicU64::new(0),
        };
        this.write_header()?;
        Ok(this)
    }

    /// Opens an existing page file and validates its header.
    pub fn open<P: AsRef<Path>>(path: P) -> StorageResult<Self> {
        let mut file = OpenOptions::new().read(true).write(true).open(path)?;
        let mut header = [0u8; HEADER_LEN as usize];
        file.seek(SeekFrom::Start(0))?;
        file.read_exact(&mut header)?;
        #[expect(clippy::unwrap_used, reason = "4-byte windows of a fixed-size header")]
        let word = |at: usize| u32::from_le_bytes(header[at..at + 4].try_into().unwrap());
        let magic = word(0);
        if magic != DISK_MAGIC {
            return Err(StorageError::CorruptHeader(format!("bad magic {magic:#x}")));
        }
        let version = word(4);
        if version != DISK_VERSION {
            return Err(StorageError::CorruptHeader(format!(
                "unsupported version {version}"
            )));
        }
        let page_size = word(8) as usize;
        let num_pages = word(12);
        if page_size == 0 {
            return Err(StorageError::CorruptHeader("zero page size".into()));
        }
        Ok(DiskPageFile {
            file,
            page_size,
            num_pages,
            free_list: Vec::new(),
            freed: Vec::new(),
            stats: IoStats::default(),
            reads: AtomicU64::new(0),
        })
    }

    fn write_header(&mut self) -> StorageResult<()> {
        let mut header = [0u8; HEADER_LEN as usize];
        header[0..4].copy_from_slice(&DISK_MAGIC.to_le_bytes());
        header[4..8].copy_from_slice(&DISK_VERSION.to_le_bytes());
        header[8..12].copy_from_slice(&(self.page_size as u32).to_le_bytes());
        header[12..16].copy_from_slice(&self.num_pages.to_le_bytes());
        self.file.seek(SeekFrom::Start(0))?;
        self.file.write_all(&header)?;
        Ok(())
    }

    /// On-disk bytes each page occupies: the page itself plus its CRC
    /// trailer.
    fn stride(&self) -> u64 {
        (self.page_size + CRC_LEN) as u64
    }

    fn offset(&self, id: PageId) -> u64 {
        HEADER_LEN + id.index() as u64 * self.stride()
    }

    /// Page `id` is allocated and not freed.
    fn check_id(&self, id: PageId) -> StorageResult<()> {
        if id.index() >= self.num_pages as usize {
            return Err(StorageError::PageOutOfBounds(id));
        }
        if self.freed.get(id.index()) == Some(&true) {
            return Err(StorageError::PageFreed(id));
        }
        Ok(())
    }

    fn check_len(&self, len: usize) -> StorageResult<()> {
        if len != self.page_size {
            return Err(StorageError::WrongBufferSize {
                expected: self.page_size,
                actual: len,
            });
        }
        Ok(())
    }

    /// Flushes file contents and header to the OS.
    pub fn sync(&mut self) -> StorageResult<()> {
        self.write_header()?;
        self.file.sync_all()?;
        Ok(())
    }

    /// Copies page `slot` out of a raw striped span (starting at page
    /// `base`) into `buf`, verifying its CRC trailer.
    fn destripe_page(
        &self,
        raw: &[u8],
        base: PageId,
        slot: usize,
        buf: &mut [u8],
    ) -> StorageResult<()> {
        let stride = self.stride() as usize;
        let start = slot * stride;
        buf.copy_from_slice(&raw[start..start + self.page_size]);
        #[expect(clippy::expect_used, reason = "a 4-byte window of the stride buffer")]
        let stored = u32::from_le_bytes(
            raw[start + self.page_size..start + stride]
                .try_into()
                .expect("trailer window is 4 bytes"),
        );
        let computed = crc32(buf);
        if stored != computed {
            return Err(StorageError::Corrupt {
                page: PageId(base.0 + slot as u32),
                stored,
                computed,
            });
        }
        Ok(())
    }
}

impl PageFile for DiskPageFile {
    fn page_size(&self) -> usize {
        self.page_size
    }

    fn num_pages(&self) -> u32 {
        self.num_pages
    }

    fn allocate(&mut self) -> StorageResult<PageId> {
        self.stats.allocations += 1;
        if let Some(id) = self.free_list.pop() {
            self.freed[id.index()] = false;
            return Ok(id);
        }
        let id = PageId(self.num_pages);
        self.num_pages += 1;
        // Extend the file with a zero page so subsequent reads succeed.
        let zeros = vec![0u8; self.page_size];
        self.file.seek(SeekFrom::Start(self.offset(id)))?;
        self.file.write_all(&zeros)?;
        self.file.write_all(&crc32(&zeros).to_le_bytes())?;
        self.write_header()?;
        Ok(id)
    }

    fn read(&self, id: PageId, buf: &mut [u8]) -> StorageResult<()> {
        self.check_id(id)?;
        self.check_len(buf.len())?;
        let off = self.offset(id);
        // One positioned read of page + trailer into per-thread scratch,
        // then verify while copying out.
        let stride = self.stride() as usize;
        DISK_SCRATCH.with(|cell| {
            let mut scratch = cell.borrow_mut();
            if scratch.len() < stride {
                scratch.resize(stride, 0);
            }
            self.file.read_exact_at(&mut scratch[..stride], off)?;
            self.destripe_page(&scratch[..stride], id, 0, buf)
        })?;
        // ordering: Relaxed — pure I/O counter; see `MemPageFile::read`.
        self.reads.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    fn read_run(&self, first: PageId, n: usize, buf: &mut [u8]) -> StorageResult<()> {
        if buf.len() != n * self.page_size {
            return Err(StorageError::WrongBufferSize {
                expected: n * self.page_size,
                actual: buf.len(),
            });
        }
        if n == 0 {
            return Ok(());
        }
        for page in (first.0..).take(n) {
            self.check_id(PageId(page))?;
        }
        let off = self.offset(first);
        let span = n * self.stride() as usize;
        DISK_SCRATCH.with(|cell| {
            let mut scratch = cell.borrow_mut();
            if scratch.len() < span {
                scratch.resize(span, 0);
            }
            self.file.read_exact_at(&mut scratch[..span], off)?;
            for (slot, page_buf) in buf.chunks_mut(self.page_size).enumerate() {
                self.destripe_page(&scratch[..span], first, slot, page_buf)?;
            }
            Ok::<(), StorageError>(())
        })?;
        // A failed run counts no page (callers re-read page by page to
        // attribute the failure, and those reads count normally).
        // ordering: Relaxed — pure I/O counter; see `MemPageFile::read`.
        self.reads.fetch_add(n as u64, Ordering::Relaxed);
        Ok(())
    }

    fn write(&mut self, id: PageId, data: &[u8]) -> StorageResult<()> {
        self.check_id(id)?;
        self.check_len(data.len())?;
        self.file.seek(SeekFrom::Start(self.offset(id)))?;
        self.file.write_all(data)?;
        self.file.write_all(&crc32(data).to_le_bytes())?;
        self.stats.writes += 1;
        Ok(())
    }

    fn free(&mut self, id: PageId) -> StorageResult<()> {
        self.check_id(id)?;
        if self.freed.len() <= id.index() {
            self.freed.resize(id.index() + 1, false);
        }
        self.freed[id.index()] = true;
        self.free_list.push(id);
        self.stats.frees += 1;
        Ok(())
    }

    fn stats(&self) -> IoStats {
        IoStats {
            // ordering: Relaxed — counter read; see `MemPageFile::stats`.
            reads: self.reads.load(Ordering::Relaxed),
            ..self.stats
        }
    }

    fn reset_stats(&mut self) {
        self.stats = IoStats::default();
        // ordering: Relaxed — reset runs under `&mut self` (see
        // `MemPageFile::reset_stats`).
        self.reads.store(0, Ordering::Relaxed);
    }

    fn sync(&mut self) -> StorageResult<()> {
        DiskPageFile::sync(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(file: &mut dyn PageFile) {
        let ps = file.page_size();
        let a = file.allocate().unwrap();
        let b = file.allocate().unwrap();
        assert_ne!(a, b);

        let data_a = vec![0xAB; ps];
        let data_b = vec![0xCD; ps];
        file.write(a, &data_a).unwrap();
        file.write(b, &data_b).unwrap();

        let mut buf = vec![0; ps];
        file.read(a, &mut buf).unwrap();
        assert_eq!(buf, data_a);
        file.read(b, &mut buf).unwrap();
        assert_eq!(buf, data_b);

        let s = file.stats();
        assert_eq!(s.reads, 2);
        assert_eq!(s.writes, 2);
        assert_eq!(s.allocations, 2);
    }

    #[test]
    fn mem_roundtrip() {
        let mut f = MemPageFile::new(128);
        roundtrip(&mut f);
    }

    #[test]
    fn mem_free_and_reuse() {
        let mut f = MemPageFile::new(64);
        let a = f.allocate().unwrap();
        f.free(a).unwrap();
        assert!(matches!(
            f.read(a, &mut [0; 64]),
            Err(StorageError::PageFreed(_))
        ));
        let b = f.allocate().unwrap();
        assert_eq!(a, b, "freed page must be reused");
        // Reused page must be zeroed.
        let mut buf = vec![1; 64];
        f.read(b, &mut buf).unwrap();
        assert!(buf.iter().all(|&x| x == 0));
    }

    #[test]
    fn mem_bounds_and_size_checks() {
        let mut f = MemPageFile::new(64);
        assert!(matches!(
            f.read(PageId(5), &mut [0; 64]),
            Err(StorageError::PageOutOfBounds(_))
        ));
        let a = f.allocate().unwrap();
        assert!(matches!(
            f.write(a, &[0; 10]),
            Err(StorageError::WrongBufferSize { .. })
        ));
    }

    #[test]
    fn mem_reset_stats() {
        let mut f = MemPageFile::new(64);
        let a = f.allocate().unwrap();
        f.write(a, &[0; 64]).unwrap();
        f.read(a, &mut [0; 64]).unwrap();
        f.reset_stats();
        assert_eq!(f.stats(), IoStats::default());
    }

    #[test]
    fn concurrent_reads_count_exactly() {
        let mut f = MemPageFile::new(64);
        let a = f.allocate().unwrap();
        f.write(a, &[7; 64]).unwrap();
        let f = &f;
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(move || {
                    let mut buf = [0u8; 64];
                    for _ in 0..100 {
                        f.read(a, &mut buf).unwrap();
                        assert_eq!(buf, [7; 64]);
                    }
                });
            }
        });
        assert_eq!(f.stats().reads, 400);
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("cpq-storage-test-{}-{}", std::process::id(), name));
        p
    }

    #[test]
    fn disk_roundtrip_and_reopen() {
        let path = temp_path("roundtrip");
        {
            let mut f = DiskPageFile::create(&path, 128).unwrap();
            roundtrip(&mut f);
            f.sync().unwrap();
        }
        {
            let f = DiskPageFile::open(&path).unwrap();
            assert_eq!(f.page_size(), 128);
            assert_eq!(f.num_pages(), 2);
            let f = f;
            let mut buf = vec![0; 128];
            f.read(PageId(0), &mut buf).unwrap();
            assert_eq!(buf, vec![0xAB; 128]);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn disk_refuses_a_double_free_and_hands_each_page_out_once() {
        let path = temp_path("double-free");
        let mut f = DiskPageFile::create(&path, 64).unwrap();
        let a = f.allocate().unwrap();
        f.free(a).unwrap();
        assert!(matches!(f.free(a), Err(StorageError::PageFreed(_))));
        let (b, c) = (f.allocate().unwrap(), f.allocate().unwrap());
        assert_eq!(b, a, "the freed page is reused");
        assert_ne!(b, c, "no page is handed out twice");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn disk_refuses_reads_and_writes_of_a_freed_page() {
        let path = temp_path("use-after-free");
        let mut f = DiskPageFile::create(&path, 64).unwrap();
        let a = f.allocate().unwrap();
        f.allocate().unwrap();
        f.write(a, &[7; 64]).unwrap();
        f.free(a).unwrap();
        let freed = |r| matches!(r, Err(StorageError::PageFreed(p)) if p == a);
        assert!(freed(f.read(a, &mut [0; 64])));
        assert!(freed(f.read_run(a, 2, &mut [0; 128])));
        assert!(freed(f.write(a, &[1; 64])));
        assert_eq!(f.allocate().unwrap(), a);
        f.write(a, &[1; 64]).unwrap();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn disk_detects_byte_flip_on_disk() {
        let path = temp_path("byteflip");
        let page_size = 128usize;
        {
            let mut f = DiskPageFile::create(&path, page_size).unwrap();
            let a = f.allocate().unwrap();
            let b = f.allocate().unwrap();
            f.write(a, &[0x5A; 128]).unwrap();
            f.write(b, &[0xA5; 128]).unwrap();
            f.sync().unwrap();
        }
        // Flip one byte in the middle of page 1's on-disk data (the stride is
        // page_size + 4 trailer bytes).
        {
            let mut raw = std::fs::read(&path).unwrap();
            let off = HEADER_LEN as usize + (page_size + CRC_LEN) + page_size / 2;
            raw[off] ^= 0x40;
            std::fs::write(&path, raw).unwrap();
        }
        {
            let f = DiskPageFile::open(&path).unwrap();
            let mut buf = vec![0u8; page_size];
            // The untouched page still reads clean...
            f.read(PageId(0), &mut buf).unwrap();
            assert_eq!(buf, vec![0x5A; page_size]);
            // ...the flipped one surfaces as Corrupt with both checksums.
            match f.read(PageId(1), &mut buf) {
                Err(StorageError::Corrupt {
                    page,
                    stored,
                    computed,
                }) => {
                    assert_eq!(page, PageId(1));
                    assert_ne!(stored, computed);
                }
                other => panic!("expected Corrupt, got {other:?}"),
            }
            // A corrupt read must not count as a successful physical read.
            assert_eq!(f.stats().reads, 1);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mem_read_run_default_matches_per_page() {
        let mut f = MemPageFile::new(32);
        for i in 0..4u8 {
            let id = f.allocate().unwrap();
            f.write(id, &[i; 32]).unwrap();
        }
        let mut buf = vec![0u8; 3 * 32];
        f.read_run(PageId(1), 3, &mut buf).unwrap();
        for (slot, chunk) in buf.chunks(32).enumerate() {
            assert!(chunk.iter().all(|&b| b == 1 + slot as u8));
        }
        assert_eq!(f.stats().reads, 3, "a run counts one read per page");
        assert!(matches!(
            f.read_run(PageId(0), 2, &mut [0u8; 32]),
            Err(StorageError::WrongBufferSize { .. })
        ));
    }

    #[test]
    fn disk_read_run_reads_and_verifies_span() {
        let path = temp_path("readrun");
        let mut f = DiskPageFile::create(&path, 64).unwrap();
        for i in 0..5u8 {
            let id = f.allocate().unwrap();
            f.write(id, &[0x10 + i; 64]).unwrap();
        }
        f.reset_stats();
        let mut buf = vec![0u8; 4 * 64];
        f.read_run(PageId(1), 4, &mut buf).unwrap();
        for (slot, chunk) in buf.chunks(64).enumerate() {
            assert!(chunk.iter().all(|&b| b == 0x11 + slot as u8));
        }
        assert_eq!(f.stats().reads, 4);
        // Out-of-bounds runs are rejected before any I/O.
        assert!(matches!(
            f.read_run(PageId(3), 4, &mut buf),
            Err(StorageError::PageOutOfBounds(_))
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn disk_read_run_surfaces_corruption_and_counts_nothing() {
        let path = temp_path("readrun-corrupt");
        let page_size = 64usize;
        {
            let mut f = DiskPageFile::create(&path, page_size).unwrap();
            for i in 0..3u8 {
                let id = f.allocate().unwrap();
                f.write(id, &vec![i; page_size]).unwrap();
            }
            f.sync().unwrap();
        }
        // Flip a byte inside page 1 on disk.
        {
            let mut raw = std::fs::read(&path).unwrap();
            let off = HEADER_LEN as usize + (page_size + CRC_LEN) + 7;
            raw[off] ^= 0x01;
            std::fs::write(&path, raw).unwrap();
        }
        let f = DiskPageFile::open(&path).unwrap();
        let mut buf = vec![0u8; 3 * page_size];
        match f.read_run(PageId(0), 3, &mut buf) {
            Err(StorageError::Corrupt { page, .. }) => assert_eq!(page, PageId(1)),
            other => panic!("expected Corrupt, got {other:?}"),
        }
        assert_eq!(f.stats().reads, 0, "a failed run counts no page");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn disk_rejects_corrupt_header() {
        let path = temp_path("corrupt");
        // Not a page file; a version-1 header (the trailer-less layout no
        // code path can write any more); a zero page size.
        let header = |version: u32, page_size: u32| -> Vec<u8> {
            [DISK_MAGIC, version, page_size, 0]
                .iter()
                .flat_map(|word| word.to_le_bytes())
                .collect()
        };
        for bytes in [
            b"not a page file at all!!".to_vec(),
            header(1, 64),
            header(DISK_VERSION, 0),
        ] {
            std::fs::write(&path, bytes).unwrap();
            assert!(matches!(
                DiskPageFile::open(&path),
                Err(StorageError::CorruptHeader(_))
            ));
        }
        std::fs::remove_file(&path).ok();
    }
}
