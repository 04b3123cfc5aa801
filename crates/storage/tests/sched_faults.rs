//! Fault injection under the I/O scheduler: `FailingPageFile` routed
//! through `SchedPageFile` and a scheduled `BufferPool`.
//!
//! What must hold when the disk misbehaves under an async scheduler:
//!
//! * **Exactly-one-error surfacing** — an injected nth-read failure fires
//!   on one demand and exactly one caller sees it; a persistently corrupt
//!   page inside a coalesced batch fails exactly its own demand while its
//!   batch-mates are delivered via the per-page fallback.
//! * **No stuck completion flags** — after any failure, subsequent reads
//!   of the same page succeed (shutdown with requests still pending is
//!   covered by `sched.rs`'s unit tests, which can see the queues).
//! * **Ledger exactness** — the pool invariant `misses == io.reads` holds
//!   at quiescence even with prefetch in flight and faults firing:
//!   demand accounting counts completed demands, never raw device reads.

use cpq_storage::{
    BufferPool, FailingPageFile, FailureControl, MemPageFile, PageFile, PageId, SchedConfig,
    SchedPageFile, StorageError,
};
use std::sync::Arc;
use std::time::Duration;

/// A failing file over `pages` written mem pages, plus its control.
fn failing_file(pages: u8, ps: usize) -> (Box<FailingPageFile>, Arc<FailureControl>) {
    let mut inner = MemPageFile::new(ps);
    for i in 0..pages {
        let id = inner.allocate().expect("allocate");
        inner.write(id, &vec![i; ps]).expect("write");
    }
    let control = FailureControl::new();
    let file = FailingPageFile::new(Box::new(inner), Arc::clone(&control));
    (Box::new(file), control)
}

#[test]
fn nth_read_failure_surfaces_once_and_recovers() {
    let (file, control) = failing_file(4, 32);
    let sf = SchedPageFile::new(file, SchedConfig::default());
    let h = sf.handle();
    control.fail_read(1);
    // Sequential demands of distinct pages: single-page batches, so the
    // injected error is delivered directly to its demand — exactly once.
    let mut errors = 0;
    for i in 0..4u32 {
        if h.demand(PageId(i)).is_err() {
            errors += 1;
        }
    }
    assert_eq!(errors, 1, "the armed fault fires on exactly one demand");
    // No stuck flags: every page reads fine afterwards.
    for i in 0..4u32 {
        let bytes = h.demand(PageId(i)).expect("post-fault read");
        assert!(bytes.iter().all(|&b| b == i as u8));
    }
    let s = h.stats();
    assert_eq!(s.demand_reads, 3 + 4, "the failed demand is not counted");
}

#[test]
fn slow_reads_with_prefetch_keep_pool_ledger_exact() {
    let (file, control) = failing_file(16, 32);
    control.slow_reads(Duration::from_micros(300));
    let pool = Arc::new(BufferPool::with_lru_scheduled(
        file,
        0, // zero-buffer config: every logical read is a miss
        SchedConfig {
            io_threads: 2,
            coalesce_window: 4,
            prefetch_buffer: 16,
        },
    ));
    pool.reset_stats();
    let ids: Vec<PageId> = (0..16).map(PageId).collect();
    // Prefetch ahead of four reader threads, with latency injected so
    // demands genuinely land while prefetches are still in flight.
    pool.prefetch(&ids);
    std::thread::scope(|scope| {
        for t in 0..4usize {
            let pool = Arc::clone(&pool);
            let ids = ids.clone();
            scope.spawn(move || {
                for round in 0..3usize {
                    // Each thread walks the pages from its own offset.
                    for j in 0..ids.len() {
                        let id = ids[(j + 5 * t + round) % ids.len()];
                        let bytes = pool.read_page(id).expect("read");
                        assert!(bytes.iter().all(|&b| b == id.0 as u8));
                    }
                }
            });
        }
    });
    control.disarm();
    let (b, io) = pool.stats_snapshot();
    assert_eq!(b.logical_reads, 4 * 3 * 16);
    assert_eq!(b.hits, 0, "capacity 0 never hits");
    assert_eq!(b.misses, b.logical_reads);
    assert_eq!(
        io.reads, b.misses,
        "ledger exact at quiescence with prefetch in flight"
    );
    let s = pool.sched_stats().expect("scheduled pool");
    assert_eq!(s.demand_reads, io.reads);
    assert!(
        s.prefetch_hits + s.dedup_joins > 0,
        "overlapping demands under latency must share reads: {s:?}"
    );
    // Physical reads are bounded: at most one per demand plus the
    // prefetched pages (dedup/hits can only reduce the total).
    assert!(s.physical_pages <= s.demand_reads + s.prefetch_issued);
}

#[test]
fn fault_during_prefetched_pool_reads_accounts_only_successes() {
    let (file, control) = failing_file(6, 32);
    let pool = BufferPool::with_lru_scheduled(file, 0, SchedConfig::default());
    pool.reset_stats();
    control.corrupt(PageId(2));
    let ids: Vec<PageId> = (0..6).map(PageId).collect();
    // The whole run is hinted first, so the corrupt page's read is a
    // coalesced span the scheduler has to degrade, then demanded page by
    // page.
    pool.prefetch(&ids);
    let mut failed = Vec::new();
    for &id in &ids {
        match pool.read_page(id) {
            Ok(bytes) => assert!(bytes.iter().all(|&b| b == id.0 as u8)),
            Err(e) => {
                assert!(matches!(e, StorageError::Corrupt { page, .. } if page == PageId(2)));
                failed.push(id);
            }
        }
    }
    assert_eq!(failed, [PageId(2)], "exactly the corrupt page fails");
    let (b, io) = pool.stats_snapshot();
    assert_eq!(b.misses, 5, "five pages succeeded, one failed");
    assert_eq!(io.reads, 5, "books balance after the fault");
    assert_eq!(b.logical_reads, b.hits + b.misses);
    // No stuck flags: clearing the fault makes the whole run readable.
    control.disarm();
    for &id in &ids {
        pool.read_page(id).expect("clean read");
    }
    let (b, io) = pool.stats_snapshot();
    assert_eq!(b.misses, 11);
    assert_eq!(io.reads, 11);
}
