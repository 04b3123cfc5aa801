//! Live-tree behavior under randomized update streams: stream-built
//! trees answer every K-CPQ algorithm bit-identically to bulk-style
//! rebuilt trees, snapshots are immune to concurrent mutation, the
//! structural validator (with oid uniqueness, and against a required
//! window) holds, concurrent invariant-checking readers never observe a
//! torn snapshot, and continuous maintenance refills only now and then.

use cpq_core::{k_closest_pairs, pair_cmp, self_closest_pairs, Algorithm, CpqConfig, QuerySpec};
use cpq_datasets::uniform_grid;
use cpq_geo::{Point2, Rect2};
use cpq_live::tree::LiveConfig;
use cpq_live::{ContinuousCpq, LiveTree, Side};
use cpq_rng::Rng;
use cpq_rtree::{RTree, RTreeParams, ValidateOptions};
use cpq_storage::{BufferPool, MemPageFile};
use std::collections::BTreeMap;

mod common;
use common::{keys, mem_tree};

const ALGORITHMS: [Algorithm; 5] = [
    Algorithm::Naive,
    Algorithm::Exhaustive,
    Algorithm::Simple,
    Algorithm::SortedDistances,
    Algorithm::Heap,
];

/// Drives a randomized insert/delete stream into a live tree while
/// mirroring the surviving contents; at every checkpoint step compares
/// all five algorithms (cross against a static Q tree, plus self-join)
/// against a tree rebuilt from scratch — including distance ties, which
/// the gridded dataset manufactures on purpose.
#[test]
fn stream_matches_rebuilt_tree_across_all_algorithms() {
    let data = uniform_grid(220, 0xA11CE, 100.0); // coarse grid => tie storms
    let q_data = uniform_grid(180, 0xB0B, 100.0);
    let q_pool = BufferPool::with_lru(Box::new(MemPageFile::new(1024)), 256);
    let mut q_tree: RTree<2> = RTree::new(q_pool, RTreeParams::paper()).expect("q tree");
    for (i, p) in q_data.points.iter().enumerate() {
        q_tree.insert(*p, 1_000_000 + i as u64).expect("q insert");
    }

    let live: LiveTree<2> =
        LiveTree::create(None, RTreeParams::paper(), &LiveConfig::default(), |f| f).expect("live");
    let mut contents: BTreeMap<u64, Point2> = BTreeMap::new();
    let mut rng = Rng::seed_from_u64(7);
    let cfg = CpqConfig::default();

    for (step, p) in data.points.iter().enumerate() {
        let oid = step as u64;
        if !contents.is_empty() && rng.random_bool(0.3) {
            // Delete a random survivor instead of inserting.
            let victims: Vec<u64> = contents.keys().copied().collect();
            let victim = victims[(rng.next_u64() % victims.len() as u64) as usize];
            let vp = contents.remove(&victim).expect("victim");
            assert!(live.delete(vp, victim).expect("delete"), "victim present");
        } else {
            live.insert(*p, oid).expect("insert");
            contents.insert(oid, *p);
        }

        let snap = live.snapshot().expect("snapshot");
        let report = snap
            .tree()
            .validate_with_options(ValidateOptions {
                unique_oids: true,
                ..ValidateOptions::default()
            })
            .expect("validate");
        assert!(report.is_valid(), "step {step}: {:?}", report.violations);
        assert_eq!(snap.tree().len(), contents.len() as u64);

        if step % 20 == 19 {
            let rebuilt = mem_tree(&contents);
            for k in [1usize, 10] {
                for alg in ALGORITHMS {
                    let got =
                        k_closest_pairs(snap.tree(), &q_tree, k, alg, &cfg).expect("cross stream");
                    let want =
                        k_closest_pairs(&rebuilt, &q_tree, k, alg, &cfg).expect("cross rebuilt");
                    assert_eq!(
                        keys(&got.pairs),
                        keys(&want.pairs),
                        "step {step} k {k} {alg:?} cross"
                    );
                    let got = self_closest_pairs(snap.tree(), k, alg, &cfg).expect("self stream");
                    let want = self_closest_pairs(&rebuilt, k, alg, &cfg).expect("self rebuilt");
                    assert_eq!(
                        keys(&got.pairs),
                        keys(&want.pairs),
                        "step {step} k {k} {alg:?} self"
                    );
                }
            }
        }
    }
    // Everything in, everything out: the tree shrinks back to empty.
    for (oid, p) in contents.clone() {
        assert!(live.delete(p, oid).expect("drain"));
    }
    assert!(live.is_empty());
}

/// A pinned snapshot is a fixed point: heavy mutation after the pin must
/// not change what the snapshot answers, and dropping the snapshot
/// reclaims every retired page (nothing leaks, nothing double-frees).
#[test]
fn snapshot_is_immune_to_later_updates() {
    let data = uniform_grid(150, 0x5EED, 50.0);
    let live: LiveTree<2> =
        LiveTree::create(None, RTreeParams::paper(), &LiveConfig::default(), |f| f).expect("live");
    for (i, p) in data.points.iter().take(100).enumerate() {
        live.insert(*p, i as u64).expect("insert");
    }
    let cfg = CpqConfig::default();
    let snap = live.snapshot().expect("snapshot");
    let before = self_closest_pairs(snap.tree(), 10, Algorithm::Heap, &cfg).expect("before");

    // Mutate hard: delete half, insert the rest of the dataset.
    for (i, p) in data.points.iter().take(50).enumerate() {
        assert!(live.delete(*p, i as u64).expect("delete"));
    }
    for (i, p) in data.points.iter().skip(100).enumerate() {
        live.insert(*p, 100 + i as u64).expect("insert");
    }

    let after = self_closest_pairs(snap.tree(), 10, Algorithm::Heap, &cfg).expect("after");
    assert_eq!(
        before
            .pairs
            .iter()
            .map(|r| r.sort_key())
            .collect::<Vec<_>>(),
        after.pairs.iter().map(|r| r.sort_key()).collect::<Vec<_>>(),
        "snapshot answer changed under mutation"
    );
    assert!(snap.tree().validate().expect("validate").is_valid());
    drop(snap);

    // With no pins left, retirement has fully drained.
    let stats = live.stats();
    assert_eq!(stats.epoch.pages_pending, 0, "retired pages leaked");
    assert_eq!(stats.epoch.pages_retired, stats.epoch.pages_freed);
    assert_eq!(stats.free_failures, 0);

    // The ledger invariant survives COW + reclamation: at quiescence
    // every miss was a real read.
    let pool = live.pool();
    let (buf, io) = pool.stats_snapshot();
    assert_eq!(buf.misses, io.reads, "buffer ledger broken");
}

/// Multi-threaded stress: one writer streams updates while reader
/// threads continuously snapshot, validate the full structure, and
/// sanity-check query answers. A torn snapshot (page freed or rewritten
/// mid-read) would show up as a validation failure or a panic. The writer
/// starts only once every reader runs, and every reader checks at least
/// once before it looks at `stop`: a writer that finishes first cannot
/// leave a reader without a check.
#[test]
fn concurrent_readers_never_see_torn_snapshots() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Arc, Barrier};

    const READERS: usize = 4;
    let data = uniform_grid(400, 0xC0FFEE, 50.0);
    let live: Arc<LiveTree<2>> = Arc::new(
        LiveTree::create(None, RTreeParams::paper(), &LiveConfig::default(), |f| f).expect("live"),
    );
    for (i, p) in data.points.iter().take(120).enumerate() {
        live.insert(*p, i as u64).expect("seed insert");
    }
    let stop = Arc::new(AtomicBool::new(false));
    let started = Arc::new(Barrier::new(READERS + 1));
    let mut readers = Vec::new();
    for _ in 0..READERS {
        let live = Arc::clone(&live);
        let stop = Arc::clone(&stop);
        let started = Arc::clone(&started);
        readers.push(std::thread::spawn(move || {
            let cfg = CpqConfig::default();
            let mut checks = 0u64;
            started.wait();
            loop {
                let snap = live.snapshot().expect("snapshot");
                let report = snap
                    .tree()
                    .validate_with_options(ValidateOptions {
                        unique_oids: true,
                        ..ValidateOptions::default()
                    })
                    .expect("validate");
                assert!(report.is_valid(), "torn snapshot: {:?}", report.violations);
                let len = snap.tree().len();
                assert_eq!(report.points, len, "descriptor len out of sync");
                let out = self_closest_pairs(snap.tree(), 5, Algorithm::Heap, &cfg).expect("query");
                let expected = if len >= 2 {
                    (len * (len - 1) / 2).min(5) as usize
                } else {
                    0
                };
                assert_eq!(out.pairs.len(), expected);
                let mut sorted = out.pairs.clone();
                sorted.sort_by(pair_cmp);
                assert_eq!(
                    sorted.iter().map(|r| r.sort_key()).collect::<Vec<_>>(),
                    out.pairs.iter().map(|r| r.sort_key()).collect::<Vec<_>>(),
                    "pairs not in canonical order"
                );
                checks += 1;
                if stop.load(Ordering::Relaxed) {
                    break checks;
                }
            }
        }));
    }
    started.wait();

    // Writer: churn inserts and deletes across the remaining points.
    let mut alive: Vec<(Point2, u64)> = data
        .points
        .iter()
        .take(120)
        .enumerate()
        .map(|(i, p)| (*p, i as u64))
        .collect();
    let mut rng = Rng::seed_from_u64(99);
    for (i, p) in data.points.iter().skip(120).enumerate() {
        let oid = 120 + i as u64;
        live.insert(*p, oid).expect("insert");
        alive.push((*p, oid));
        if alive.len() > 60 && rng.random_bool(0.5) {
            let idx = (rng.next_u64() % alive.len() as u64) as usize;
            let (vp, void) = alive.swap_remove(idx);
            assert!(live.delete(vp, void).expect("delete"));
        }
    }
    stop.store(true, Ordering::Relaxed);
    for (i, r) in readers.into_iter().enumerate() {
        let checks = r.join().expect("reader");
        assert!(checks > 0, "reader {i} never checked a snapshot");
    }

    // Quiescence: all retirement drained, ledger intact.
    let stats = live.stats();
    assert_eq!(stats.epoch.pages_pending, 0);
    assert_eq!(stats.free_failures, 0);
    let (buf, io) = live.pool().stats_snapshot();
    assert_eq!(buf.misses, io.reads, "buffer ledger broken");
}

/// A live tree populated only with points inside a window validates
/// against that window as a required bound — and the bound check really
/// fires when a point lies outside it.
#[test]
fn snapshot_validates_against_window_bounds() {
    let window = Rect2::from_corners([100.0, 100.0], [500.0, 500.0]);
    let live: LiveTree<2> =
        LiveTree::create(None, RTreeParams::paper(), &LiveConfig::default(), |f| f).expect("live");
    let data = uniform_grid(200, 0xB0B, 50.0);
    let mut kept = 0u64;
    for (i, pt) in data.points.iter().enumerate() {
        if window.contains_point(pt) {
            live.insert(*pt, i as u64).expect("insert");
            kept += 1;
        }
    }
    assert!(kept > 10, "window should keep a meaningful subset");
    let bounded = ValidateOptions {
        unique_oids: true,
        bounds: Some(window),
    };
    let snap = live.snapshot().expect("snap");
    let report = snap
        .tree()
        .validate_with_options(bounded)
        .expect("validate");
    assert!(report.is_valid(), "violations: {:?}", report.violations);
    assert_eq!(report.points, kept);

    // One point outside the window must trip the bounds invariant.
    live.insert(Point2::new([900.0, 900.0]), 1_000_000)
        .expect("insert");
    let snap = live.snapshot().expect("snap");
    let report = snap
        .tree()
        .validate_with_options(bounded)
        .expect("validate");
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.contains("outside required bounds")),
        "expected a bounds violation, got: {:?}",
        report.violations
    );
}

/// The economics of continuous maintenance: over a 100+-step self-join
/// stream with a third of the steps deletes, the watcher must not be
/// recomputing every step in disguise. (That it holds the *right* pairs at
/// every step is the workspace's differential harness's to check.)
#[test]
fn continuous_maintenance_refills_on_a_minority_of_steps() {
    let data = uniform_grid(120, 0xBEEF, 200.0);
    let live: LiveTree<2> =
        LiveTree::create(None, RTreeParams::paper(), &LiveConfig::default(), |f| f).expect("live");
    let snap = live.snapshot().expect("snap");
    let mut cont = ContinuousCpq::new(&QuerySpec::self_join(6), &snap, &snap).expect("continuous");
    drop(snap);
    let mut rng = Rng::seed_from_u64(4242);
    let mut alive: Vec<(Point2, u64)> = Vec::new();
    let mut steps = 0;
    for (i, p) in data.points.iter().enumerate() {
        if !alive.is_empty() && rng.random_bool(0.35) {
            let idx = (rng.next_u64() % alive.len() as u64) as usize;
            let (vp, void) = alive.swap_remove(idx);
            assert!(live.delete(vp, void).expect("delete"));
            let snap = live.snapshot().expect("snap");
            cont.on_delete(Side::P, void, &snap, &snap)
                .expect("on_delete");
            steps += 1;
        }
        let oid = i as u64;
        live.insert(*p, oid).expect("insert");
        alive.push((*p, oid));
        let snap = live.snapshot().expect("snap");
        cont.on_insert(Side::P, *p, oid, &snap, &snap)
            .expect("on_insert");
        steps += 1;
    }
    assert!(steps >= 100, "stream too short: {steps}");
    let refills = cont.stats().refills;
    assert!(
        refills < steps / 2,
        "refilled {refills} times over {steps} steps"
    );
}

/// A WAL-backed update stream logs each update once: the base checkpoint,
/// then one `OpBegin` and one `Commit` per op, and nothing else.
#[test]
fn a_durable_stream_logs_only_the_records_recovery_reads() {
    use cpq_live::wal::scan_log;
    use cpq_live::{RecordBody, WalConfig};

    let dir = std::env::temp_dir().join(format!("cpq-live-kinds-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = LiveConfig {
        wal: WalConfig { sync: false },
        checkpoint_every: 0,
        ..LiveConfig::default()
    };
    let live: LiveTree<2> =
        LiveTree::create(Some(&dir), RTreeParams::paper(), &cfg, |f| f).expect("create");
    let data = uniform_grid(60, 0xD15C, 100.0);
    for (i, p) in data.points.iter().enumerate() {
        live.insert(*p, i as u64).expect("insert");
    }
    for (i, p) in data.points.iter().enumerate().step_by(3) {
        assert!(live.delete(*p, i as u64).expect("delete"));
    }
    let scans = scan_log(&dir.join(cpq_live::tree::WAL_DIR)).expect("scan");
    let mut counts = [0usize; 3];
    for (_, rec) in scans.iter().flat_map(|s| &s.records) {
        match rec.body {
            RecordBody::Checkpoint { .. } => counts[0] += 1,
            RecordBody::OpBegin { .. } => counts[1] += 1,
            RecordBody::Commit { .. } => counts[2] += 1,
            ref other => panic!("the writer logged a record recovery ignores: {other:?}"),
        }
    }
    assert_eq!(counts, [1, 80, 80]);
    let _ = std::fs::remove_dir_all(&dir);
}
