//! Model-checked harness for the buffer pool's stats ledger.
//!
//! Compiled only under `RUSTFLAGS="--cfg cpq_model"`. The positive models
//! run the *real* `BufferPool` — state mutex, file `RwLock`, miss I/O
//! outside the state lock — and check the accounting contract the
//! integration tests assert statistically: `logical_reads == hits + misses`
//! in every observable state, `io.reads == misses` at quiescence but only
//! `io.reads >= misses` mid-flight (the physical read of an in-flight miss
//! lands before its accounting). The negative model reintroduces a
//! lost-update accounting bug and pins the PCT seed that exposes it.
//!
//! The checked read (`read_checked`) races a write of its page: a read that
//! starts after the write returns never trusts the check the old bytes
//! passed. Its broken twin checks outside the lock and marks the frame
//! checked without making sure it still holds the bytes it checked.
//!
//! A miss on a page that is not resident races a write of that page: the
//! miss may read the old bytes outside the lock, but it must not cache
//! them once the write has landed, or every later hit serves them.
#![cfg(cpq_model)]

use cpq_check::sync::atomic::{AtomicU64, Ordering};
use cpq_check::sync::{Arc, Mutex};
use cpq_check::thread;
use cpq_check::{model_dfs, model_pct, try_model_dfs, try_model_pct, DfsOptions, PctOptions};
use cpq_storage::{BufferPool, MemPageFile, PageId, StorageError};

/// A 2-frame pool over three written pages; stats reset to zero.
fn small_pool() -> (Arc<BufferPool>, Vec<PageId>) {
    let pool = Arc::new(BufferPool::with_lru(Box::new(MemPageFile::new(16)), 2));
    let ids: Vec<PageId> = (0..3u8)
        .map(|i| {
            let id = pool.allocate().expect("allocate");
            pool.write_page(id, &[i; 16]).expect("write");
            id
        })
        .collect();
    pool.reset_stats();
    (pool, ids)
}

#[test]
fn dfs_duplicate_miss_keeps_ledger_exact() {
    // Two threads fault the *same* cold page: the duplicate-miss path (both
    // count a miss and a physical read; one installs, the other keeps the
    // existing frame). Every interleaving within the bound must keep the
    // books exact at quiescence and serve the right bytes.
    let report = model_dfs(DfsOptions::smoke(), || {
        let (pool, ids) = small_pool();
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let pool = Arc::clone(&pool);
                let id = ids[0];
                thread::spawn(move || {
                    let bytes = pool.read_page(id).expect("read");
                    assert!(bytes.iter().all(|&b| b == 0), "page 0 holds its pattern");
                })
            })
            .collect();
        for r in readers {
            r.join().expect("reader");
        }
        let (buf, io) = pool.stats_snapshot();
        assert_eq!(buf.logical_reads, 2);
        assert_eq!(buf.hits + buf.misses, buf.logical_reads, "ledger exact");
        assert_eq!(io.reads, buf.misses, "books balance at quiescence");
        assert!(buf.misses >= 1, "a cold page faults at least once");
    });
    assert!(report.complete, "the DFS must exhaust the interleavings");
    assert!(report.schedules > 1, "explored {}", report.schedules);
}

#[test]
fn dfs_snapshot_mid_flight_contract_holds() {
    // A snapshot raced against one in-flight miss: the ledger equality must
    // hold in *every* snapshot (it lives under one mutex), while the
    // physical-vs-accounted bridge may transiently run ahead — the exact
    // contract `stats_snapshot` documents, and the one the integration
    // test `concurrent_stats.rs` asserted too strongly before this harness
    // existed.
    let report = model_dfs(DfsOptions::smoke(), || {
        let (pool, ids) = small_pool();
        let reader = {
            let pool = Arc::clone(&pool);
            let id = ids[1];
            thread::spawn(move || {
                pool.read_page(id).expect("read");
            })
        };
        let (buf, io) = pool.stats_snapshot();
        assert_eq!(
            buf.hits + buf.misses,
            buf.logical_reads,
            "ledger exact mid-flight"
        );
        assert!(io.reads >= buf.misses, "io.reads never trails misses");
        reader.join().expect("reader");
        let (buf, io) = pool.stats_snapshot();
        assert_eq!(io.reads, buf.misses, "books balance at quiescence");
        assert_eq!(buf.logical_reads, 1);
    });
    assert!(report.complete);
}

#[test]
fn pct_failing_reads_never_unbalance_the_books() {
    // The model twin of the integration test of the same name: a failing
    // (out-of-bounds) read races a valid one across 200 seeded schedules;
    // neither counter may move on the failure.
    let opts = PctOptions::from_env();
    let want = opts.seeds.end - opts.seeds.start;
    let n = model_pct(opts, || {
        let (pool, ids) = small_pool();
        let failer = {
            let pool = Arc::clone(&pool);
            thread::spawn(move || {
                assert!(
                    pool.read_page(PageId(u32::MAX)).is_err(),
                    "out-of-bounds read must fail"
                );
            })
        };
        let pool2 = Arc::clone(&pool);
        let id = ids[2];
        let reader = thread::spawn(move || {
            pool2.read_page(id).expect("valid read");
        });
        failer.join().expect("failer");
        reader.join().expect("reader");
        let (buf, io) = pool.stats_snapshot();
        assert_eq!(buf.logical_reads, 1, "only the successful read counts");
        assert_eq!(buf.hits + buf.misses, buf.logical_reads);
        assert_eq!(io.reads, buf.misses);
    });
    assert_eq!(n, want);
}

/// The deliberately-broken ledger: misses accounted by a non-atomic
/// load/store on a shared counter instead of inside the pool's critical
/// section — the lost-update flavor of the accounting bug the pool's
/// "count in the same critical section" rule exists to prevent.
fn broken_ledger_model() {
    let misses = Arc::new(AtomicU64::new(0));
    let ledger = Arc::new(Mutex::new(0u64)); // logical_reads, kept correctly
    let fault_threads: Vec<_> = (0..2)
        .map(|_| {
            let misses = Arc::clone(&misses);
            let ledger = Arc::clone(&ledger);
            thread::spawn(move || {
                *ledger.lock().expect("model lock") += 1;
                // BUG: read-modify-write outside any critical section.
                let v = misses.load(Ordering::SeqCst);
                misses.store(v + 1, Ordering::SeqCst);
            })
        })
        .collect();
    for t in fault_threads {
        t.join().expect("fault thread");
    }
    let logical = *ledger.lock().expect("model lock");
    assert_eq!(
        misses.load(Ordering::SeqCst),
        logical,
        "ledger out of balance"
    );
}

/// The PCT seed that exposes [`broken_ledger_model`], pinned by
/// [`broken_ledger_is_found_and_seed_replays`].
const PINNED_LEDGER_SEED: u64 = 1;

#[test]
fn broken_ledger_is_found_and_seed_replays() {
    let failure = try_model_pct(PctOptions::default(), broken_ledger_model)
        .expect_err("the lost update must surface within 200 seeds");
    assert!(
        failure.message.contains("ledger out of balance"),
        "unexpected failure: {failure}"
    );
    let seed = failure.seed.expect("pct failures carry their seed");
    let again = try_model_pct(PctOptions::one_seed(seed), broken_ledger_model)
        .expect_err("the seed alone must reproduce the failure");
    assert_eq!(again.schedule, failure.schedule, "seed replay is exact");
    assert_eq!(
        seed, PINNED_LEDGER_SEED,
        "the first failing seed moved; update PINNED_LEDGER_SEED"
    );
}

#[test]
#[should_panic(expected = "ledger out of balance")]
fn pinned_ledger_seed_still_fails() {
    let _ = cpq_check::model_pct(
        PctOptions::one_seed(PINNED_LEDGER_SEED),
        broken_ledger_model,
    );
}

/// The check of the checked-read models: a page whose first byte is 9 is
/// refused, as the R-tree refuses a node page that fails its format check.
fn refuse_nine(bytes: &[u8]) -> Result<(), StorageError> {
    if bytes[0] == 9 {
        Err(StorageError::CorruptHeader("page holds 9".into()))
    } else {
        Ok(())
    }
}

/// The first byte of `id` through `read_checked`, or `None` when refused.
fn checked_byte(pool: &BufferPool, id: PageId) -> Option<u8> {
    pool.read_checked(id, refuse_nine)
        .ok()
        .map(|bytes| bytes[0])
}

/// A resident, checked page 0 (value 0); a reader reads it through
/// `read_checked` while a writer writes value 9 — bytes the check refuses —
/// and then reads it back. The writer's read, and every read after both
/// threads are done, must be refused: the check the old bytes passed does
/// not carry over to the new ones. The racing reader may see either; the
/// books balance, refused reads included.
fn checked_read_races_write() {
    let (pool, ids) = small_pool();
    let id = ids[0];
    assert_eq!(checked_byte(&pool, id), Some(0), "warm");
    let reader = {
        let pool = Arc::clone(&pool);
        thread::spawn(move || {
            let v = checked_byte(&pool, id);
            assert!(v == Some(0) || v.is_none(), "bytes no check passed: {v:?}");
        })
    };
    let writer = {
        let pool = Arc::clone(&pool);
        thread::spawn(move || {
            pool.write_page(id, &[9; 16]).expect("write");
            let v = checked_byte(&pool, id);
            assert_eq!(v, None, "a read after the write served unchecked bytes");
        })
    };
    reader.join().expect("reader");
    writer.join().expect("writer");
    let v = checked_byte(&pool, id);
    assert_eq!(v, None, "a read after the write served unchecked bytes");
    let (buf, io) = pool.stats_snapshot();
    assert_eq!(buf.logical_reads, 4);
    assert_eq!(buf.hits + buf.misses, buf.logical_reads, "ledger exact");
    assert_eq!(io.reads, buf.misses, "books balance at quiescence");
}

#[test]
fn dfs_checked_read_never_trusts_a_check_a_write_replaced() {
    let report = model_dfs(DfsOptions::smoke(), checked_read_races_write);
    assert!(report.complete, "the DFS must exhaust the interleavings");
    assert!(report.schedules > 1, "explored {}", report.schedules);
}

#[test]
fn pct_checked_read_never_trusts_a_check_a_write_replaced() {
    let opts = PctOptions::from_env();
    let want = opts.seeds.end - opts.seeds.start;
    assert_eq!(model_pct(opts, checked_read_races_write), want);
}

/// A frame of the broken twin: its bytes (one value) and whether a check
/// passed on them.
type TwinFrame = Mutex<(u8, bool)>;

/// The broken twin's read: the bytes if the frame is checked, else copy
/// the bytes, check them **outside the lock**, re-lock and mark the frame
/// checked — BUG: without making sure it still holds the bytes that were
/// checked (the pool checks under the lock it already holds instead).
fn twin_read(frame: &TwinFrame) -> Option<u8> {
    let bytes = {
        let f = frame.lock().expect("model lock");
        if f.1 {
            return Some(f.0);
        }
        f.0
    };
    refuse_nine(&[bytes]).ok()?;
    frame.lock().expect("model lock").1 = true;
    Some(bytes)
}

fn broken_check_mark_model() {
    let frame: Arc<TwinFrame> = Arc::new(Mutex::new((0, false)));
    let reader = {
        let frame = Arc::clone(&frame);
        thread::spawn(move || {
            twin_read(&frame);
        })
    };
    let writer = {
        let frame = Arc::clone(&frame);
        thread::spawn(move || {
            // The write replaces the bytes, unchecked.
            *frame.lock().expect("model lock") = (9, false);
        })
    };
    reader.join().expect("reader");
    writer.join().expect("writer");
    assert_eq!(
        twin_read(&frame),
        None,
        "a read after the write served unchecked bytes"
    );
}

#[test]
fn broken_check_mark_is_found_by_dfs() {
    let failure = try_model_dfs(DfsOptions::smoke(), broken_check_mark_model)
        .expect_err("the stale mark must surface under exhaustive DFS");
    assert!(
        failure.message.contains("unchecked bytes"),
        "unexpected failure: {failure}"
    );
}

#[test]
#[should_panic(expected = "a read after the write served unchecked bytes")]
fn broken_check_mark_twin_pinned_regression() {
    let _ = model_dfs(DfsOptions::smoke(), broken_check_mark_model);
}

/// A page that is not resident (value 0) is read, through `read_page` or
/// `read_checked`, while a writer writes value 9 and then reads it back.
/// The writer's read, and every read after both threads are done, must
/// see 9; the racing reader may see either; the books balance.
fn miss_races_write(checked: bool) {
    let (pool, ids) = small_pool();
    let id = ids[0];
    let read = move |pool: &BufferPool| -> u8 {
        if checked {
            pool.read_checked(id, |_| Ok::<_, StorageError>(()))
                .expect("read")[0]
        } else {
            pool.read_page(id).expect("read")[0]
        }
    };
    let reader = {
        let pool = Arc::clone(&pool);
        thread::spawn(move || {
            let v = read(&pool);
            assert!(v == 0 || v == 9, "a value no write made: {v}");
        })
    };
    let writer = {
        let pool = Arc::clone(&pool);
        thread::spawn(move || {
            pool.write_page(id, &[9; 16]).expect("write");
            assert_eq!(read(&pool), 9, "a read after the write got stale bytes");
        })
    };
    reader.join().expect("reader");
    writer.join().expect("writer");
    assert_eq!(read(&pool), 9, "a read after the write got stale bytes");
    let (buf, io) = pool.stats_snapshot();
    assert_eq!(buf.logical_reads, 3);
    assert_eq!(buf.hits + buf.misses, buf.logical_reads, "ledger exact");
    assert_eq!(io.reads, buf.misses, "books balance at quiescence");
}

#[test]
fn dfs_miss_never_caches_bytes_a_write_replaced() {
    for checked in [false, true] {
        let report = model_dfs(DfsOptions::smoke(), move || miss_races_write(checked));
        assert!(report.complete, "the DFS must exhaust the interleavings");
        assert!(report.schedules > 1, "explored {}", report.schedules);
    }
}

#[test]
fn pct_miss_never_caches_bytes_a_write_replaced() {
    for checked in [false, true] {
        let opts = PctOptions::from_env();
        let want = opts.seeds.end - opts.seeds.start;
        assert_eq!(model_pct(opts, move || miss_races_write(checked)), want);
    }
}
