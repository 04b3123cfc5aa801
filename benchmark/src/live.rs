//! `live_rw`: a `LiveSet` on disk files under single-op `apply` calls (half
//! inserts, half deletes) with `watch(10)` installed, while one reader runs
//! a snapshot HEAP K=10 query every 20 ms. Flush policy ([`live_config`]):
//! every commit writes its WAL records, none is fsynced; every tree takes a
//! sharp checkpoint, which fsyncs its data file, every 64 ops.

use crate::data::{ns_per_call, sub_seed, Opts, PoolCounters};
use crate::gate::{keys, Gate, PairKey};
use crate::kcpq::{set_core_metrics, set_time_shares, shipped_config, OpTrace};
use crate::probes;
use crate::report::{set_serial_latency_metrics, Metrics, END_TO_END, PER_LAYER};
use crate::spans::{SpanId, Tracer};
use crate::stats;
use cpq_core::brute::k_closest_pairs_brute;
use cpq_core::{
    k_closest_pairs, k_closest_pairs_instrumented, pair_cmp, Algorithm, CancelToken, CpqConfig,
    PairResult, ProfileProbe,
};
use cpq_datasets::WORKSPACE_SIDE;
use cpq_geo::Point2;
use cpq_live::{
    recover, ContinuousCpq, LiveConfig, LiveResult, LiveSet, RecordBody, Side, UpdateOp, Wal,
    WalConfig,
};
use cpq_rng::Rng;
use cpq_rtree::RTreeParams;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// K of the installed watcher and of the reader's queries.
pub const K: usize = 10;
/// `LiveConfig::default()` with the WAL's fsync off.
///
/// With it on, the fsync was 90% of an update (0.39 ms against 0.045 ms)
/// and its latency — the sandbox host's, not this code's — moved by 34%
/// between two sets of runs twenty minutes apart: the workload measured the
/// host's disk, and a twofold change of the write path would have moved
/// `op_ms_p50` by 5%. The cost of a durable commit is reported by the
/// traced run instead (`live.wal_commit_us`, fsync on).
pub fn live_config() -> LiveConfig {
    LiveConfig {
        wal: WalConfig { sync: false },
        ..LiveConfig::default()
    }
}

/// Ops per cycle: eight checkpoint intervals of `LiveConfig::default()`
/// (each tree checkpoints every 64 of its own ops), so that every cycle
/// holds about the same number of checkpoints and cycles compare.
pub const CYCLE_OPS: usize = 512;
/// The reader's fixed schedule.
pub const READER_PERIOD: Duration = Duration::from_millis(20);
/// One reader query in this many is repeated with STD and compared.
const READER_CHECK_EVERY: usize = 8;

/// The update stream and the truth it leaves behind.
struct Stream {
    rng: Rng,
    alive: [Vec<(Point2, u64)>; 2],
    next_oid: u64,
}

impl Stream {
    fn new(seed: u64) -> Self {
        Stream {
            rng: Rng::seed_from_u64(sub_seed(seed, 6)),
            alive: [Vec::new(), Vec::new()],
            next_oid: 0,
        }
    }

    fn insert(&mut self, side: Side) -> UpdateOp<2> {
        let object = Point2::new([
            self.rng.next_f64() * WORKSPACE_SIDE,
            self.rng.next_f64() * WORKSPACE_SIDE,
        ]);
        let oid = self.next_oid;
        self.next_oid += 1;
        self.alive[side as usize].push((object, oid));
        UpdateOp::Insert { side, object, oid }
    }

    /// Half inserts, half deletes of a random live point: the trees stay
    /// near their seeded size however many ops a run fits in, so every
    /// cycle is the same work.
    fn next(&mut self) -> UpdateOp<2> {
        let side = if self.rng.random_bool(0.5) {
            Side::P
        } else {
            Side::Q
        };
        let alive = &mut self.alive[side as usize];
        if alive.is_empty() || self.rng.random_bool(0.5) {
            return self.insert(side);
        }
        let at = self.rng.random_range(0..alive.len());
        let (object, oid) = alive.swap_remove(at);
        UpdateOp::Delete { side, object, oid }
    }
}

struct Setup {
    set: LiveSet<2>,
    stream: Stream,
}

/// Creates the durable set and seeds it (spans `setup.create`,
/// `setup.seed`); every seeding op is a durable commit like any other.
fn set_up(opts: &Opts, dir: &Path, tracer: &Tracer, parent: Option<SpanId>) -> Setup {
    let _ = std::fs::remove_dir_all(dir);
    let set = tracer.scope("setup.create", parent, None, |_| {
        LiveSet::create(dir, RTreeParams::paper(), &live_config()).expect("create live set")
    });
    let mut stream = Stream::new(opts.seed);
    tracer.scope("setup.seed", parent, None, |_| {
        for i in 0..2 * opts.pick(SEED_POINTS, 200) {
            let op = stream.insert(if i % 2 == 0 { Side::P } else { Side::Q });
            set.apply(&[op]).expect("seed the live set");
        }
        set.watch(K).expect("install watcher");
    });
    Setup { set, stream }
}

/// Points seeded per side before the measured stream starts.
pub const SEED_POINTS: usize = 5_000;

fn fresh_query(set: &LiveSet<2>, algorithm: Algorithm, cfg: &CpqConfig) -> Vec<PairKey> {
    let (sp, sq) = (
        set.p().snapshot().expect("snapshot"),
        set.q().snapshot().expect("snapshot"),
    );
    keys(
        &k_closest_pairs(sp.tree(), sq.tree(), K, algorithm, cfg)
            .expect("snapshot query")
            .pairs,
    )
}

/// The O(n²) oracle in slices of P, so that no more than a million pairs
/// are alive at once: the top K of a union is the top K of the slices'
/// top Ks.
fn oracle(ps: &[(Point2, u64)], qs: &[(Point2, u64)]) -> Vec<PairKey> {
    let rows = (1_000_000 / qs.len().max(1)).max(1);
    let mut best: Vec<PairResult<2>> = Vec::new();
    for slice in ps.chunks(rows) {
        best.extend(k_closest_pairs_brute(slice, qs, K));
        best.sort_by(pair_cmp);
        best.truncate(K);
    }
    keys(&best)
}

/// After the stream: the watcher's last answer is the reference. A
/// from-scratch HEAP and STD query, (in the traced run) the oracle over
/// the points the stream left alive, and — after dropping the set and
/// recovering it from its files — the recovered set's answer must all be
/// the same pairs. Returns the seconds recovery took.
fn recover_and_compare(
    setup: Setup,
    dir: &Path,
    cfg: &CpqConfig,
    opts: &Opts,
    gate: &mut Gate,
) -> f64 {
    const WATCHER: &str = "watcher's last answer";
    let Setup { set, stream } = setup;
    gate.memoise(
        WATCHER,
        keys(&set.watched_pairs().expect("watcher installed")),
    );
    if opts.corrupt_reference {
        gate.corrupt_one_reference();
    }
    let watched = gate.reference(WATCHER).expect("just memoised").to_vec();
    gate.expect_equal(
        "a fresh HEAP query against the watcher",
        &fresh_query(&set, Algorithm::Heap, cfg),
        &watched,
    );
    gate.expect_equal(
        "a fresh STD query against the watcher",
        &fresh_query(&set, Algorithm::SortedDistances, cfg),
        &watched,
    );
    if opts.trace {
        gate.expect_equal(
            "the brute-force oracle against the watcher",
            &oracle(&stream.alive[0], &stream.alive[1]),
            &watched,
        );
    }
    drop(set);
    let t = Instant::now();
    let live_cfg = live_config();
    let (p, _) =
        recover::<2, Point2>(&dir.join("p"), RTreeParams::paper(), &live_cfg).expect("recover P");
    let (q, _) =
        recover::<2, Point2>(&dir.join("q"), RTreeParams::paper(), &live_cfg).expect("recover Q");
    let recover_s = t.elapsed().as_secs_f64();
    let recovered = LiveSet::from_trees(p, q);
    let (left_p, left_q) = (stream.alive[0].len() as u64, stream.alive[1].len() as u64);
    if (recovered.p().len(), recovered.q().len()) != (left_p, left_q) {
        gate.violation(format!(
            "recovered {}+{} points, the stream left {left_p}+{left_q}",
            recovered.p().len(),
            recovered.q().len(),
        ));
    }
    gate.expect_equal(
        "the recovered set against the watcher",
        &fresh_query(&recovered, Algorithm::Heap, cfg),
        &watched,
    );
    recover_s
}

/// What the reader thread saw.
#[derive(Default)]
struct ReaderLog {
    query_ms: Vec<f64>,
    traces: Vec<OpTrace>,
    divergences: Vec<String>,
}

/// The reader: a snapshot HEAP K=10 query at every tick of a fixed 20 ms
/// schedule until `stop`; one in eight is repeated with STD on the same
/// pinned snapshots and must agree.
fn reader(set: &LiveSet<2>, cfg: &CpqConfig, stop: &AtomicBool, tracer: &Tracer) -> ReaderLog {
    let mut log = ReaderLog::default();
    let mut due = Instant::now();
    // ordering: Relaxed — a stop flag that publishes nothing; the scope's
    // join orders the log after the writer's last op.
    while !stop.load(Ordering::Relaxed) {
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        due += READER_PERIOD;
        let n = log.query_ms.len() as u64;
        let span = tracer.start("reader.query", None, Some(n));
        let (sp, sq) = (
            set.p().snapshot().expect("snapshot"),
            set.q().snapshot().expect("snapshot"),
        );
        let t = Instant::now();
        let mut probe = ProfileProbe::new();
        let heap = if tracer.enabled() {
            k_closest_pairs_instrumented(
                sp.tree(),
                sq.tree(),
                K,
                Algorithm::Heap,
                cfg,
                &CancelToken::new(),
                &mut probe,
            )
            .map(|run| run.outcome)
        } else {
            k_closest_pairs(sp.tree(), sq.tree(), K, Algorithm::Heap, cfg)
        }
        .expect("reader query");
        let elapsed = t.elapsed();
        tracer.end(span);
        log.query_ms.push(elapsed.as_secs_f64() * 1e3);
        if tracer.enabled() {
            log.traces.push(OpTrace::new(
                elapsed.as_nanos() as f64,
                Some(&probe.profile),
                heap.stats,
            ));
        }
        if log.query_ms.len() % READER_CHECK_EVERY == 0 {
            let std = k_closest_pairs(sp.tree(), sq.tree(), K, Algorithm::SortedDistances, cfg)
                .expect("reader query");
            if keys(&heap.pairs) != keys(&std.pairs) {
                log.divergences.push(format!(
                    "reader query #{n}: HEAP and STD disagree on one snapshot"
                ));
            }
        }
    }
    log
}

fn fold_reader(log: &ReaderLog, gate: &mut Gate) {
    for d in &log.divergences {
        gate.violation(d.clone());
    }
}

/// The untraced run: end-to-end metrics. An op is one durable update.
pub fn run_end_to_end(opts: &Opts, dir: &Path, gate: &mut Gate) -> Metrics {
    let cfg = shipped_config();
    let tracer = Tracer::new(false);
    let dir = dir.join("live");
    let mut setup_s = Vec::new();
    let mut setup = None;
    for _ in 0..opts.setup_reps() {
        drop(setup.take());
        let t = Instant::now();
        setup = Some(set_up(opts, &dir, &tracer, None));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut setup = setup.expect("at least one set-up");

    let stop = AtomicBool::new(false);
    let mut cycles = Vec::new();
    let log = std::thread::scope(|s| {
        let reader = s.spawn(|| reader(&setup.set, &cfg, &stop, &tracer));
        let started = Instant::now();
        while cycles.is_empty() || started.elapsed() < opts.budget(1.0) {
            let mut cycle = Vec::with_capacity(CYCLE_OPS);
            for _ in 0..opts.pick(CYCLE_OPS, 64) {
                let op = setup.stream.next();
                let t = Instant::now();
                let applied = setup.set.apply(&[op]);
                cycle.push(t.elapsed().as_secs_f64() * 1e3);
                gate.record(match applied {
                    Ok(report) if report.delete_misses == 0 => None,
                    Ok(_) => Some("a delete missed a point the stream knows is alive".into()),
                    Err(e) => Some(format!("apply: {e}")),
                });
            }
            cycles.push(cycle);
        }
        // ordering: Relaxed — see `reader`.
        stop.store(true, Ordering::Relaxed);
        reader.join().expect("reader thread")
    });
    fold_reader(&log, gate);
    recover_and_compare(setup, &dir, &cfg, opts, gate);

    let mut m = Metrics::zeroed(&END_TO_END);
    m.set("setup_s", stats::median(&setup_s));
    set_serial_latency_metrics(&mut m, cycles);
    m
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir).map_or(0, |entries| {
        entries
            .flatten()
            .map(|e| match e.metadata() {
                Ok(md) if md.is_dir() => dir_bytes(&e.path()),
                Ok(md) => md.len(),
                Err(_) => 0,
            })
            .sum()
    })
}

/// The first half of `LiveSet::apply` for one op: the durable tree update.
/// `Ok(false)` is a delete that found nothing.
fn tree_update(set: &LiveSet<2>, op: UpdateOp<2>) -> LiveResult<bool> {
    match op {
        UpdateOp::Insert { side, object, oid } => set.side(side).insert(object, oid).map(|()| true),
        UpdateOp::Delete { side, object, oid } => set.side(side).delete(object, oid),
    }
}

/// The second half: the watcher's maintenance on the snapshots after it.
fn watcher_update(
    set: &LiveSet<2>,
    watcher: &mut ContinuousCpq<2>,
    op: UpdateOp<2>,
) -> LiveResult<()> {
    let (sp, sq) = (set.p().snapshot()?, set.q().snapshot()?);
    match op {
        UpdateOp::Insert { side, object, oid } => watcher.on_insert(side, object, oid, &sp, &sq),
        UpdateOp::Delete { side, oid, .. } => watcher.on_delete(side, oid, &sp, &sq),
    }
}

/// The traced run: the same stream, applied by hand — tree update, then
/// watcher maintenance — so that each has its own span and timing.
pub fn run_traced(opts: &Opts, dir: &Path, gate: &mut Gate, tracer: &Tracer) -> Metrics {
    let cfg = shipped_config();
    let mut m = Metrics::zeroed(&PER_LAYER);
    let live_dir = dir.join("live");
    let span = tracer.start("setup", None, None);
    let mut setup = set_up(opts, &live_dir, tracer, span);
    tracer.end(span);
    // `LiveSet` keeps its watcher to itself; the traced run maintains its
    // own beside the set, exactly as `LiveSet::apply` would.
    setup.set.unwatch();
    let (set, stream) = (&setup.set, &mut setup.stream);
    let mut watcher = ContinuousCpq::new_cross(
        K,
        &set.p().snapshot().expect("snapshot"),
        &set.q().snapshot().expect("snapshot"),
    )
    .expect("prime watcher");

    let wal_before = wal_totals(set);
    let pools_before = pool_totals(set);
    let (mut insert_us, mut delete_us) = (Vec::new(), Vec::new());
    let (mut cont_insert_us, mut cont_delete_us) = (Vec::new(), Vec::new());
    let stop = AtomicBool::new(false);
    let log = std::thread::scope(|s| {
        let reader = s.spawn(|| reader(set, &cfg, &stop, tracer));
        let started = Instant::now();
        let mut n = 0u64;
        while n == 0 || started.elapsed() < opts.budget(0.5) {
            for _ in 0..opts.pick(CYCLE_OPS, 64) {
                let op = stream.next();
                let op_span = tracer.start("op", None, Some(n));
                let apply = tracer.start("live.apply", op_span, Some(n));
                let t = Instant::now();
                let found =
                    tracer.scope("live.tree_update", apply, Some(n), |_| tree_update(set, op));
                let tree_us = t.elapsed().as_secs_f64() * 1e6;
                let t = Instant::now();
                let maintained = tracer.scope("live.watcher", apply, Some(n), |_| {
                    watcher_update(set, &mut watcher, op)
                });
                let watch_us = t.elapsed().as_secs_f64() * 1e6;
                tracer.end(apply);
                tracer.end(op_span);
                gate.record(match (found, maintained) {
                    (Ok(true), Ok(())) => None,
                    (Ok(false), _) => {
                        Some("a delete missed a point the stream knows is alive".into())
                    }
                    (Err(e), _) | (_, Err(e)) => Some(format!("apply: {e}")),
                });
                match op {
                    UpdateOp::Insert { .. } => {
                        insert_us.push(tree_us);
                        cont_insert_us.push(watch_us);
                    }
                    UpdateOp::Delete { .. } => {
                        delete_us.push(tree_us);
                        cont_delete_us.push(watch_us);
                    }
                }
                n += 1;
            }
        }
        // ordering: Relaxed — see `reader`.
        stop.store(true, Ordering::Relaxed);
        reader.join().expect("reader thread")
    });
    fold_reader(&log, gate);
    let ops = (insert_us.len() + delete_us.len()) as f64;
    let wal = wal_totals(set);
    m.set("live.insert_us_p50", stats::median(&insert_us));
    m.set("live.delete_us_p50", stats::median(&delete_us));
    m.set("live.continuous_insert_us", stats::mean(&cont_insert_us));
    m.set("live.continuous_delete_us", stats::mean(&cont_delete_us));
    m.set(
        "live.refills_per_1k_ops",
        watcher.stats().refills as f64 * 1e3 / ops,
    );
    m.set(
        "live.wal_flushes_per_commit",
        (wal.2 - wal_before.2) as f64 / (wal.1 - wal_before.1).max(1) as f64,
    );
    m.set("live.wal_bytes_per_op", (wal.0 - wal_before.0) as f64 / ops);
    m.set("live.reader_query_ms_p50", stats::median(&log.query_ms));
    set_core_metrics(&mut m, &log.traces);

    let budget = opts.budget(0.01);
    tracer.scope("probe.live", None, None, |_| {
        m.set(
            "live.snapshot_ns",
            ns_per_call(budget, 256, |_| {
                std::hint::black_box(set.p().snapshot().expect("snapshot"));
            }),
        );
        let mut checkpoint_ms = Vec::new();
        for _ in 0..3 {
            // A checkpoint with work behind it, as the periodic ones have.
            for _ in 0..32 {
                let op = stream.next();
                tree_update(set, op)
                    .and_then(|_| watcher_update(set, &mut watcher, op))
                    .expect("update between checkpoints");
            }
            let t = Instant::now();
            set.p().checkpoint().expect("checkpoint");
            checkpoint_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
        m.set("live.checkpoint_ms", stats::median(&checkpoint_ms));
        let wal_dir = dir.join("probe_wal");
        std::fs::create_dir_all(&wal_dir).expect("create WAL probe directory");
        let wal = Wal::create(&wal_dir, WalConfig::default()).expect("create WAL");
        let record = RecordBody::PageAlloc { op_id: 1, page: 1 };
        m.set(
            "live.wal_commit_us",
            ns_per_call(budget, 8, |_| {
                let lsn = wal.append(&record);
                wal.commit(lsn).expect("WAL commit");
            }) / 1e3,
        );
    });

    {
        // Pool traffic of the stream, writer and reader alike, per update
        // (read before the probes add their own).
        pool_totals(set).since(pools_before).report(&mut m, ops);
        let (sp, sq) = (
            set.p().snapshot().expect("snapshot"),
            set.q().snapshot().expect("snapshot"),
        );
        let pts_p: Vec<Point2> = stream.alive[0].iter().map(|(p, _)| *p).collect();
        let fixture = probes::Fixture {
            p: sp.tree(),
            q: sq.tree(),
            pts_p: &pts_p,
            dir,
            disk: true,
            pool_pages: live_config().capacity,
        };
        probes::micro(&fixture, opts, tracer, &mut m);
        // The shares are of the reader's queries, so the misses are theirs:
        // `CpqStats::disk_accesses`, the pools' miss counters over each
        // query (the writer's few misses in that time included).
        let reader_mean = |f: &dyn Fn(&OpTrace) -> f64| {
            stats::mean(&log.traces.iter().map(f).collect::<Vec<_>>())
        };
        if let (Some(exec_ns), Some(misses)) = (
            reader_mean(&|t| t.exec_ns),
            reader_mean(&|t| t.stats.disk_accesses() as f64),
        ) {
            set_time_shares(&mut m, exec_ns, misses);
        }
    }

    // The watcher by hand must end where `LiveSet`'s own would: hand the
    // set a fresh one and compare through the common path.
    let mine = keys(&watcher.pairs());
    set.watch(K).expect("reinstall watcher");
    gate.expect_equal(
        "hand-maintained watcher against a freshly primed one",
        &mine,
        &keys(&set.watched_pairs().expect("watcher installed")),
    );
    let points = (setup.stream.alive[0].len() + setup.stream.alive[1].len()) as f64;
    m.set(
        "live.disk_bytes_per_point",
        dir_bytes(&live_dir) as f64 / points,
    );
    let recover_s = recover_and_compare(setup, &live_dir, &cfg, opts, gate);
    m.set("live.recover_s", recover_s);
    m
}

fn pool_totals(set: &LiveSet<2>) -> PoolCounters {
    PoolCounters::read(set.p().pool(), set.q().pool())
}

/// `(bytes, commits, flushes)` of both trees' logs.
fn wal_totals(set: &LiveSet<2>) -> (u64, u64, u64) {
    let (p, q) = set.stats();
    let (p, q) = (p.wal.expect("durable tree"), q.wal.expect("durable tree"));
    (
        p.bytes + q.bytes,
        p.commits + q.commits,
        p.flushes + q.flushes,
    )
}
