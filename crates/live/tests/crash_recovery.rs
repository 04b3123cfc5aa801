//! Crash-recovery fault injection: kill the WAL at **every** record
//! boundary (plus mid-record offsets), combine each cut with both extreme
//! data-file states a crash can leave (checkpoint-time image and
//! crash-time image), recover, and require the recovered tree to be
//! structurally valid and to answer K-CPQ bit-identically to a tree
//! rebuilt from the logical operations whose commits survived the cut.

use cpq_core::{k_closest_pairs, self_closest_pairs, Algorithm, CpqConfig};
use cpq_datasets::uniform_grid;
use cpq_geo::Point2;
use cpq_live::harness::{
    committed_ops, copy_live_dir, record_boundaries, restore_data, truncate_wal, CrashPoint,
    LogicalOp,
};
use cpq_live::tree::{LiveConfig, WAL_DIR};
use cpq_live::wal::{list_segments, scan_segment};
use cpq_live::{recover, LiveError, LiveTree, OpKind, RecordBody, WalConfig};
use cpq_rng::Rng;
use cpq_rtree::{RTree, RTreeError, RTreeParams, ValidateOptions};
use cpq_storage::{BufferPool, MemPageFile};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

mod common;
use common::{keys, mem_tree};

fn tmp_dir(tag: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "cpq-crash-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&p);
    std::fs::create_dir_all(&p).expect("create temp dir");
    p
}

fn cfg() -> LiveConfig {
    LiveConfig {
        page_size: 1024,
        capacity: 128,
        // The harness reconstructs crash states from file contents, so
        // per-commit fsync adds nothing but runtime here; the *ordering*
        // of appends and commits is what is under test.
        wal: WalConfig { sync: false },
        checkpoint_every: 0, // checkpoints are explicit in this test
    }
}

/// Applies a logical op to a plain map of live objects.
fn apply_logical(contents: &mut BTreeMap<u64, Point2>, op: &LogicalOp) {
    let obj = Point2::decode(&op.obj);
    match op.op {
        OpKind::Insert => {
            contents.insert(op.oid, obj);
        }
        OpKind::Delete => {
            contents.remove(&op.oid);
        }
    }
}

/// Recovers `work` and checks it against base-state + committed log ops:
/// structural validity with unique oids, exact contents, and bit-identical
/// K-CPQ (self-join and cross against `q_tree`) vs a rebuilt tree.
fn recover_and_check(work: &Path, base: &BTreeMap<u64, Point2>, q_tree: &RTree<2>, label: &str) {
    let committed = committed_ops(work).expect("committed_ops");
    let mut expected = base.clone();
    for op in &committed {
        apply_logical(&mut expected, op);
    }
    let (live, report): (LiveTree<2>, _) = recover::<2, Point2>(work, RTreeParams::paper(), &cfg())
        .unwrap_or_else(|e| {
            panic!("{label}: recovery failed: {e}");
        });
    assert_eq!(
        report.committed_ops,
        committed.len() as u64,
        "{label}: committed-op count"
    );
    let snap = live.snapshot().expect("snapshot");
    let validation = snap
        .tree()
        .validate_with_options(ValidateOptions {
            unique_oids: true,
            ..ValidateOptions::default()
        })
        .expect("validate");
    assert!(
        validation.is_valid(),
        "{label}: {:?}",
        validation.violations
    );
    assert_eq!(
        snap.tree().len(),
        expected.len() as u64,
        "{label}: object count"
    );

    let rebuilt = mem_tree(&expected);
    let qcfg = CpqConfig::default();
    for k in [1usize, 8] {
        let got = self_closest_pairs(snap.tree(), k, Algorithm::Heap, &qcfg).expect("self");
        let want = self_closest_pairs(&rebuilt, k, Algorithm::Heap, &qcfg).expect("self ref");
        assert_eq!(keys(&got.pairs), keys(&want.pairs), "{label}: self k={k}");
        let got = k_closest_pairs(snap.tree(), q_tree, k, Algorithm::Heap, &qcfg).expect("cross");
        let want = k_closest_pairs(&rebuilt, q_tree, k, Algorithm::Heap, &qcfg).expect("cross ref");
        assert_eq!(keys(&got.pairs), keys(&want.pairs), "{label}: cross k={k}");
    }
}

/// One full round: starting from `base` state stored in `src` (whose
/// latest checkpoint image is `ckpt_image`), kill at every boundary and
/// a mid-record offset, under both data-file assumptions. Returns the
/// number of crash states exercised.
fn exhaust_crash_points(
    src: &Path,
    ckpt_image: &Path,
    base: &BTreeMap<u64, Point2>,
    q_tree: &RTree<2>,
    scratch: &Path,
    tag: &str,
) -> usize {
    let boundaries = record_boundaries(src).expect("boundaries");
    assert!(
        boundaries.len() > 10,
        "{tag}: too few crash points ({})",
        boundaries.len()
    );
    // Every log cut pairs with both data files: the checkpoint's pin keeps
    // the pages its tree reaches from being reused, so no data write after
    // the checkpoint touches them, whichever commits survived the cut.
    let (mut segments, mut records) = (0, 0);
    for (seq, path) in list_segments(&src.join(WAL_DIR)).expect("segments") {
        segments += 1;
        records += scan_segment(seq, &path).expect("scan").records.len();
    }
    let (mut cuts_made, mut tested) = (0, 0);
    for (i, point) in boundaries.iter().enumerate() {
        // Boundary cut, plus a torn-record cut 3 bytes into the next
        // record (when there is one).
        let mut cuts = vec![*point];
        if i + 1 < boundaries.len() && boundaries[i + 1].seq == point.seq {
            cuts.push(CrashPoint {
                seq: point.seq,
                offset: point.offset + 3,
            });
        }
        cuts_made += cuts.len();
        for cut in cuts {
            for restore in [false, true] {
                let work = scratch.join(format!("w{}-{}-{}", cut.seq, cut.offset, restore));
                copy_live_dir(src, &work).expect("copy");
                truncate_wal(&work, cut).expect("truncate");
                if restore {
                    restore_data(&work, ckpt_image).expect("restore");
                }
                let label = format!("{tag} seg {} cut {} restore {restore}", cut.seq, cut.offset);
                match committed_ops(&work) {
                    Err(LiveError::NoCheckpoint) => {
                        // The cut beheaded the base checkpoint itself. A
                        // real crash can't produce this state (segment
                        // deletion follows the new checkpoint's sync),
                        // but recovery must still fail loudly, not
                        // fabricate a tree.
                        let res: Result<(LiveTree<2>, _), _> =
                            recover::<2, Point2>(&work, RTreeParams::paper(), &cfg());
                        assert!(
                            matches!(res, Err(LiveError::NoCheckpoint)),
                            "{label}: expected NoCheckpoint"
                        );
                    }
                    Ok(_) => recover_and_check(&work, base, q_tree, &label),
                    Err(e) => panic!("{label}: scan failed: {e}"),
                }
                std::fs::remove_dir_all(&work).expect("cleanup");
                tested += 1;
            }
        }
    }
    assert_eq!(
        cuts_made,
        segments + 2 * records,
        "{tag}: a cut after every segment header and every record, and one inside every record"
    );
    tested
}

/// The main harness run: a create-checkpoint, a batch of randomized ops,
/// an explicit mid-stream checkpoint, a second batch — then every crash
/// point of both halves is exercised.
#[test]
fn recovery_is_bit_identical_at_every_crash_point() {
    let root = tmp_dir("main");
    let dir = root.join("live");
    let scratch = root.join("scratch");
    std::fs::create_dir_all(&scratch).expect("scratch");

    // Static Q side for cross queries.
    let q_data = uniform_grid(90, 0x9051, 100.0);
    let q_pool = BufferPool::with_lru(Box::new(MemPageFile::new(1024)), 256);
    let mut q_tree: RTree<2> = RTree::new(q_pool, RTreeParams::paper()).expect("q");
    for (i, p) in q_data.points.iter().enumerate() {
        q_tree.insert(*p, 1_000_000 + i as u64).expect("q insert");
    }

    let live: LiveTree<2> =
        LiveTree::create(Some(&dir), RTreeParams::paper(), &cfg(), |f| f).expect("create");
    let ckpt0 = root.join("ckpt0");
    copy_live_dir(&dir, &ckpt0).expect("snapshot ckpt0");

    // --- Round 1: 28 ops on top of the empty base ---
    let data = uniform_grid(80, 0x0DDBA11, 100.0);
    let mut rng = Rng::seed_from_u64(17);
    let mut contents: BTreeMap<u64, Point2> = BTreeMap::new();
    let step =
        |live: &LiveTree<2>, contents: &mut BTreeMap<u64, Point2>, rng: &mut Rng, i: usize| {
            let p = data.points[i];
            let oid = i as u64;
            if !contents.is_empty() && rng.random_bool(0.3) {
                let victims: Vec<u64> = contents.keys().copied().collect();
                let victim = victims[(rng.next_u64() % victims.len() as u64) as usize];
                let vp = contents.remove(&victim).expect("victim");
                assert!(live.delete(vp, victim).expect("delete"));
            } else {
                live.insert(p, oid).expect("insert");
                contents.insert(oid, p);
            }
        };
    for i in 0..28 {
        step(&live, &mut contents, &mut rng, i);
    }
    let round1 = root.join("round1");
    copy_live_dir(&dir, &round1).expect("snapshot round1");
    let empty_base = BTreeMap::new();
    let n1 = exhaust_crash_points(&round1, &ckpt0, &empty_base, &q_tree, &scratch, "round1");

    // --- Round 2: explicit checkpoint, then 24 more ops ---
    live.checkpoint().expect("mid checkpoint");
    let ckpt1 = root.join("ckpt1");
    copy_live_dir(&dir, &ckpt1).expect("snapshot ckpt1");
    let base2 = contents.clone();
    for i in 28..52 {
        step(&live, &mut contents, &mut rng, i);
    }
    let round2 = root.join("round2");
    copy_live_dir(&dir, &round2).expect("snapshot round2");
    let n2 = exhaust_crash_points(&round2, &ckpt1, &base2, &q_tree, &scratch, "round2");

    // What the count means: each round cut its log at every record boundary
    // and inside every record (asserted per round above), and recovered each
    // cut with both data files. Each round's log is one segment: its
    // checkpoint, then OpBegin and Commit per op — 1 + 2 x 28 = 57 records
    // in round 1 and 1 + 2 x 24 = 49 in round 2, so 1 + 2 x 57 = 115 and
    // 1 + 2 x 49 = 99 cuts, each recovered twice: 2 x (115 + 99) = 428. A
    // different count means a case went missing.
    assert_eq!(n1 + n2, 428, "crash states exercised");
    drop(live);
    let _ = std::fs::remove_dir_all(&root);
}

/// Recovery is idempotent and survives a crash *during recovery's own
/// checkpoint*: recover, kill the post-recovery log anywhere, recover
/// again — same answer.
#[test]
fn recovery_of_a_recovered_dir_is_stable() {
    let root = tmp_dir("rerecover");
    let dir = root.join("live");
    let live: LiveTree<2> =
        LiveTree::create(Some(&dir), RTreeParams::paper(), &cfg(), |f| f).expect("create");
    let data = uniform_grid(40, 0x7777, 100.0);
    for (i, p) in data.points.iter().enumerate() {
        live.insert(*p, i as u64).expect("insert");
    }
    drop(live);

    // First recovery (clean shutdown is just a crash with zero losers).
    let (rec1, _) = recover::<2, Point2>(&dir, RTreeParams::paper(), &cfg()).expect("recover 1");
    let snap1 = rec1.snapshot().expect("snap");
    let want =
        self_closest_pairs(snap1.tree(), 8, Algorithm::Heap, &CpqConfig::default()).expect("query");
    drop(snap1);
    drop(rec1);

    // Kill the tail of the post-recovery log and recover again.
    let boundaries = record_boundaries(&dir).expect("boundaries");
    let cut = boundaries[boundaries.len() / 2];
    truncate_wal(&dir, cut).expect("truncate");
    match committed_ops(&dir) {
        Ok(_) => {
            let (rec2, _) =
                recover::<2, Point2>(&dir, RTreeParams::paper(), &cfg()).expect("recover 2");
            let snap2 = rec2.snapshot().expect("snap");
            let got = self_closest_pairs(snap2.tree(), 8, Algorithm::Heap, &CpqConfig::default())
                .expect("query");
            assert_eq!(keys(&got.pairs), keys(&want.pairs), "re-recovery diverged");
        }
        Err(LiveError::NoCheckpoint) => {
            // Cut beheaded the new base; out of scope for this test.
        }
        Err(e) => panic!("scan failed: {e}"),
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// The durability contract, checked at every commit and under contention:
/// when `commit(lsn)` returns, record `lsn` is in the segment file. The log
/// keeps it by mutual exclusion — the LSN a flush publishes is read, and the
/// buffer written, under one guard — and this is what notices a change that
/// lets the two come apart (a write moved outside the lock acknowledges
/// records that are still in the buffer).
#[test]
fn an_acknowledged_commit_is_on_disk_under_concurrency() {
    use cpq_live::Wal;
    let dir = tmp_dir("ack");
    let wal = Wal::create(&dir, WalConfig { sync: false }).expect("create");
    std::thread::scope(|s| {
        for t in 0..4u64 {
            let (wal, dir) = (&wal, &dir);
            s.spawn(move || {
                for page in 0..48u32 {
                    let lsn = wal.append(&RecordBody::PageAlloc { op_id: t, page });
                    wal.commit(lsn).expect("commit");
                    let (seq, path) = list_segments(dir).expect("list").pop().expect("segment");
                    let scan = scan_segment(seq, &path).expect("scan");
                    assert!(
                        scan.records.iter().any(|(_, rec)| rec.lsn == lsn),
                        "commit({lsn}) returned before its record was written"
                    );
                }
            });
        }
    });
    let _ = std::fs::remove_dir_all(&dir);
}

/// Replay is the first code that decodes a logged object, so malformed
/// logged input must be refused with an error, never a panic: each case is
/// a fresh tree whose log continues after its base checkpoint with
/// hand-built, CRC-valid records.
#[test]
fn replay_refuses_malformed_logged_input() {
    use cpq_live::Wal;
    let begin = |op_id: u64, obj: Vec<u8>| RecordBody::OpBegin {
        op_id,
        op: OpKind::Insert,
        oid: op_id,
        obj,
    };
    let point = |coords: [f64; 2]| {
        let mut obj = vec![0u8; 16];
        Point2::new(coords).encode(&mut obj);
        obj
    };
    let commit = |op_id: u64, len: u64| RecordBody::Commit { op_id, len };
    let cases = [
        (
            "short",
            vec![
                begin(1, point([1.0, 2.0])),
                commit(1, 1),
                begin(2, vec![0u8; 12]),
                commit(2, 2),
            ],
            "recovery",
            "op 2: the logged object is 12 bytes, a 2-d point is 16",
        ),
        (
            "unbegun",
            vec![commit(5, 1)],
            "recovery",
            "op 5 commits at lsn 2 but never began",
        ),
        (
            "nan",
            vec![begin(1, point([f64::NAN, 2.0])), commit(1, 1)],
            "insert",
            "non-finite",
        ),
    ];
    for (tag, records, refused_by, want) in cases {
        let dir = tmp_dir(tag);
        let live = LiveTree::<2>::create(Some(&dir), RTreeParams::paper(), &cfg(), |f| f);
        drop(live.expect("create"));
        let wal_dir = dir.join(WAL_DIR);
        let (seq, _) = list_segments(&wal_dir).expect("list").pop().expect("base");
        // The base checkpoint is LSN 1; these records continue after it.
        let wal = Wal::with_segment(&wal_dir, cfg().wal, seq + 1, 2).expect("segment");
        let last = records.iter().map(|r| wal.append(r)).last();
        wal.commit(last.expect("records")).expect("commit");
        let err = match recover::<2, Point2>(&dir, RTreeParams::paper(), &cfg()) {
            Ok(_) => panic!("{tag}: recovered a malformed log"),
            Err(e) => e,
        };
        let by = match &err {
            LiveError::Recovery(_) => "recovery",
            LiveError::Tree(RTreeError::InvalidParams(_)) => "insert",
            _ => "something else",
        };
        assert_eq!(by, refused_by, "{tag}: {err:?}");
        assert!(err.to_string().contains(want), "{tag}: {err}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
