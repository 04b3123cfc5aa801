//! A fault-injecting [`PageFile`] wrapper for failure testing.
//!
//! [`FailingPageFile`] decorates any inner page file and, driven by a shared
//! [`FailureControl`], can make the *n*-th read fail with an I/O error,
//! report a specific page as CRC-corrupt, or delay every read by a fixed
//! latency (a simulated slow disk). All knobs are atomics so a test can arm
//! and disarm faults while readers are running on other threads — exactly
//! the situation the parallel K-CPQ executor's fault tests exercise.

use crate::error::{StorageError, StorageResult};
use crate::file::PageFile;
use crate::page::PageId;
use crate::stats::IoStats;
use cpq_check::sync::atomic::{AtomicU64, Ordering};
use cpq_check::sync::Arc;
use std::time::Duration;

/// Sentinel meaning "no page armed" in [`FailureControl::corrupt_page`].
const NO_PAGE: u64 = u64::MAX;

/// Shared, atomically adjustable fault knobs of a [`FailingPageFile`].
///
/// Hold a clone of the `Arc<FailureControl>` used to build the file and flip
/// knobs at any time; readers observe the change on their next read.
#[derive(Debug, Default)]
pub struct FailureControl {
    /// 1-based ordinal of the read that fails with an injected I/O error.
    /// `0` disarms.
    fail_read_at: AtomicU64,
    /// Total reads attempted through the wrapper (successful or not).
    reads_seen: AtomicU64,
    /// Page whose reads fail as [`StorageError::Corrupt`] (`NO_PAGE` off).
    corrupt_page: AtomicU64,
    /// Artificial latency added to every read, in nanoseconds (`0` off).
    slow_read_nanos: AtomicU64,
}

impl FailureControl {
    /// A control with every fault disarmed.
    pub fn new() -> Arc<Self> {
        Arc::new(FailureControl {
            corrupt_page: AtomicU64::new(NO_PAGE),
            ..FailureControl::default()
        })
    }

    /// Arms an injected I/O error on the `n`-th read *from now* (1-based);
    /// `0` disarms. Resets the read ordinal counter.
    pub fn fail_read(&self, n: u64) {
        // ordering: SeqCst — test-harness knobs; arming (ordinal reset,
        // then the trigger) must appear in program order to every racing
        // reader, and the fault path is never a hot path, so the blunt
        // strongest ordering buys simplicity for free.
        self.reads_seen.store(0, Ordering::SeqCst);
        self.fail_read_at.store(n, Ordering::SeqCst);
    }

    /// Makes every read of `page` fail as a CRC mismatch.
    pub fn corrupt(&self, page: PageId) {
        // ordering: SeqCst — fault knob; see `fail_read`.
        self.corrupt_page.store(page.0 as u64, Ordering::SeqCst);
    }

    /// Adds `latency` to every read (a simulated slow disk); zero disarms.
    pub fn slow_reads(&self, latency: Duration) {
        // ordering: SeqCst — fault knob; see `fail_read`.
        self.slow_read_nanos
            .store(latency.as_nanos() as u64, Ordering::SeqCst);
    }

    /// Disarms every fault (latency, corruption, and the error ordinal).
    pub fn disarm(&self) {
        // ordering: SeqCst — fault knobs; see `fail_read`.
        self.fail_read_at.store(0, Ordering::SeqCst);
        self.corrupt_page.store(NO_PAGE, Ordering::SeqCst);
        self.slow_read_nanos.store(0, Ordering::SeqCst);
    }

    /// Reads attempted through the wrapper since the last [`fail_read`](Self::fail_read)
    /// (or since construction).
    pub fn reads_seen(&self) -> u64 {
        // ordering: SeqCst — fault knob; see `fail_read`.
        self.reads_seen.load(Ordering::SeqCst)
    }
}

/// A [`PageFile`] decorator that injects faults per its [`FailureControl`].
///
/// Writes, allocation, and freeing pass straight through; only reads are
/// subject to injection. Injected failures are *not* counted by the inner
/// file's `IoStats.reads` (the inner read never happens), matching the
/// "count only successful I/O" contract of the real implementations.
pub struct FailingPageFile {
    inner: Box<dyn PageFile>,
    control: Arc<FailureControl>,
}

impl FailingPageFile {
    /// Wraps `inner`, exposing the faults armed on `control`.
    pub fn new(inner: Box<dyn PageFile>, control: Arc<FailureControl>) -> Self {
        FailingPageFile { inner, control }
    }

    /// The shared control handle.
    pub fn control(&self) -> Arc<FailureControl> {
        Arc::clone(&self.control)
    }
}

impl PageFile for FailingPageFile {
    fn page_size(&self) -> usize {
        self.inner.page_size()
    }

    fn num_pages(&self) -> u32 {
        self.inner.num_pages()
    }

    fn allocate(&mut self) -> StorageResult<PageId> {
        self.inner.allocate()
    }

    fn read(&self, id: PageId, buf: &mut [u8]) -> StorageResult<()> {
        let c = &self.control;
        // ordering: SeqCst — fault knobs; see `FailureControl::fail_read`.
        let seen = c.reads_seen.fetch_add(1, Ordering::SeqCst) + 1;
        let nanos = c.slow_read_nanos.load(Ordering::SeqCst);
        if nanos > 0 {
            #[expect(clippy::disallowed_methods, reason = "the slow disk is the feature")]
            std::thread::sleep(Duration::from_nanos(nanos));
        }
        // ordering: SeqCst — fault knobs; see `FailureControl::fail_read`.
        let armed = c.fail_read_at.load(Ordering::SeqCst);
        if armed != 0 && seen == armed {
            return Err(StorageError::Io(std::io::Error::other(
                "injected read failure",
            )));
        }
        // ordering: SeqCst — fault knob; see `FailureControl::fail_read`.
        if c.corrupt_page.load(Ordering::SeqCst) == id.0 as u64 {
            return Err(StorageError::Corrupt {
                page: id,
                stored: 0,
                computed: 1,
            });
        }
        self.inner.read(id, buf)
    }

    fn write(&mut self, id: PageId, data: &[u8]) -> StorageResult<()> {
        self.inner.write(id, data)
    }

    fn free(&mut self, id: PageId) -> StorageResult<()> {
        self.inner.free(id)
    }

    fn sync(&mut self) -> StorageResult<()> {
        self.inner.sync()
    }

    fn stats(&self) -> IoStats {
        self.inner.stats()
    }

    fn reset_stats(&mut self) {
        self.inner.reset_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::file::MemPageFile;
    use std::time::Instant;

    fn armed_file() -> (FailingPageFile, Arc<FailureControl>, PageId) {
        let mut inner = MemPageFile::new(64);
        let a = inner.allocate().unwrap();
        inner.write(a, &[0x42; 64]).unwrap();
        let control = FailureControl::new();
        let f = FailingPageFile::new(Box::new(inner), Arc::clone(&control));
        (f, control, a)
    }

    #[test]
    fn passes_through_when_disarmed() {
        let (f, control, a) = armed_file();
        let mut buf = [0u8; 64];
        f.read(a, &mut buf).unwrap();
        assert_eq!(buf, [0x42; 64]);
        assert_eq!(control.reads_seen(), 1);
        assert_eq!(f.stats().reads, 1);
    }

    #[test]
    fn nth_read_fails_then_recovers() {
        let (f, control, a) = armed_file();
        control.fail_read(2);
        let mut buf = [0u8; 64];
        f.read(a, &mut buf).unwrap();
        assert!(matches!(f.read(a, &mut buf), Err(StorageError::Io(_))));
        // The ordinal fired once; subsequent reads succeed again.
        f.read(a, &mut buf).unwrap();
        assert_eq!(control.reads_seen(), 3);
        // The failed read never reached the inner file.
        assert_eq!(f.stats().reads, 2);
    }

    #[test]
    fn corrupt_page_fails_every_read_until_disarmed() {
        let (f, control, a) = armed_file();
        control.corrupt(a);
        let mut buf = [0u8; 64];
        for _ in 0..2 {
            assert!(matches!(
                f.read(a, &mut buf),
                Err(StorageError::Corrupt { .. })
            ));
        }
        control.disarm();
        f.read(a, &mut buf).unwrap();
        assert_eq!(buf, [0x42; 64]);
    }

    /// The pool's miss primitive keeps the default, through `read`: every
    /// injection fires on it as on `read`, and counts the same.
    #[test]
    fn injections_fire_on_the_miss_primitive_as_on_read() {
        let (f, control, a) = armed_file();
        let via_read = |f: &FailingPageFile| f.read(a, &mut [0u8; 64]);
        let via_bytes = |f: &FailingPageFile| {
            let bytes = f.read_bytes(a)?;
            assert_eq!(bytes[..], [0x42; 64]);
            Ok::<(), StorageError>(())
        };
        for read in [
            &via_read as &dyn Fn(&FailingPageFile) -> StorageResult<()>,
            &via_bytes,
        ] {
            control.fail_read(2);
            read(&f).unwrap();
            assert!(matches!(read(&f), Err(StorageError::Io(_))));
            read(&f).unwrap();
            assert_eq!(control.reads_seen(), 3);
            control.corrupt(a);
            assert!(matches!(read(&f), Err(StorageError::Corrupt { .. })));
            control.disarm();
            control.slow_reads(Duration::from_millis(5));
            let start = Instant::now();
            read(&f).unwrap();
            assert!(start.elapsed() >= Duration::from_millis(5));
            control.disarm();
        }
        // Three successful reads per pass reached the inner file.
        assert_eq!(f.stats().reads, 6);
    }

    #[test]
    fn slow_reads_add_latency() {
        let (f, control, a) = armed_file();
        control.slow_reads(Duration::from_millis(5));
        let mut buf = [0u8; 64];
        let start = Instant::now();
        for _ in 0..4 {
            f.read(a, &mut buf).unwrap();
        }
        assert!(start.elapsed() >= Duration::from_millis(20));
        control.disarm();
    }
}
