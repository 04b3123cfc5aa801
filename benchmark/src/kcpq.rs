//! `kcpq_hot` and `kcpq_cold`: one thread calling `k_closest_pairs` over a
//! fixed cycle of query classes, on trees that are fully resident
//! (`Hot`) or on buffered disk files behind a 64-page budget (`Cold`).

use crate::data::{build_disk, build_mem, sub_seed, Opts, PoolCounters, BUILD_POOL_PAGES};
use crate::gate::{keys, Gate, BRUTE_PAIR_LIMIT};
use crate::probes;
use crate::report::{set_serial_latency_metrics, Metrics, END_TO_END, PER_LAYER};
use crate::spans::{SpanId, Tracer};
use crate::stats;
use cpq_core::brute::k_closest_pairs_brute;
use cpq_core::{
    k_closest_pairs, k_closest_pairs_instrumented, Algorithm, CancelToken, CpqConfig, CpqStats,
    ProfileProbe, QueryOutcome, QueryProfile,
};
use cpq_datasets::{clustered, uniform, ClusterSpec, CALIFORNIA_SURROGATE_SIZE};
use cpq_geo::Point2;
use cpq_rtree::RTree;
use cpq_service::ServiceConfig;
use std::path::Path;
use std::time::Instant;

/// Where the trees live.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Storage {
    /// In-memory page files, pools larger than the trees.
    Hot,
    /// Buffered disk files, `COLD_POOL_PAGES` frames per tree, cleared
    /// before every op as the paper does.
    Cold,
}

/// The paper's B = 64 pages, half per tree.
pub const COLD_POOL_PAGES: usize = 32;

/// The query cycle: {HEAP, STD} x K in {1, 100, 10000}.
pub const CLASSES: [(Algorithm, usize); 6] = [
    (Algorithm::Heap, 1),
    (Algorithm::SortedDistances, 1),
    (Algorithm::Heap, 100),
    (Algorithm::SortedDistances, 100),
    (Algorithm::Heap, 10_000),
    (Algorithm::SortedDistances, 10_000),
];

/// The class's name in the gate and in messages.
pub fn class_name(class: (Algorithm, usize)) -> String {
    format!("{}/K={}", class.0.label(), class.1)
}

/// The engine configuration every workload reads: what the service ships.
pub fn shipped_config() -> CpqConfig {
    ServiceConfig::default().cpq
}

/// The two trees of a run and the points under them.
pub struct Trees {
    storage: Storage,
    /// Clustered side (the paper's real-data surrogate).
    pub p: RTree<2>,
    /// Uniform side.
    pub q: RTree<2>,
    /// Points of `p`, oid = index.
    pub pts_p: Vec<Point2>,
    /// Points of `q`, oid = index.
    pub pts_q: Vec<Point2>,
}

impl Trees {
    /// Cold trees start every op with empty pools, as the paper does.
    pub fn before_op(&self) {
        if self.storage == Storage::Cold {
            self.p.pool().clear();
            self.q.pool().clear();
        }
    }

    fn pool_counters(&self) -> PoolCounters {
        PoolCounters::read(self.p.pool(), self.q.pool())
    }
}

/// Generates the data and builds both trees (spans `setup.generate`,
/// `setup.build`).
pub fn build_trees(
    storage: Storage,
    opts: &Opts,
    dir: &Path,
    tracer: &Tracer,
    parent: Option<SpanId>,
) -> Trees {
    let n = opts.pick(CALIFORNIA_SURROGATE_SIZE, 1_500);
    let (pts_p, pts_q) = tracer.scope("setup.generate", parent, None, |_| {
        (
            clustered(n, ClusterSpec::default(), sub_seed(opts.seed, 1)).points,
            uniform(n, sub_seed(opts.seed, 2)).points,
        )
    });
    let (p, q) = tracer.scope("setup.build", parent, None, |_| match storage {
        Storage::Hot => (
            build_mem(&pts_p, BUILD_POOL_PAGES),
            build_mem(&pts_q, BUILD_POOL_PAGES),
        ),
        Storage::Cold => (
            build_disk(&pts_p, &dir.join("p.pages"), COLD_POOL_PAGES),
            build_disk(&pts_q, &dir.join("q.pages"), COLD_POOL_PAGES),
        ),
    });
    Trees {
        storage,
        p,
        q,
        pts_p,
        pts_q,
    }
}

fn query(trees: &Trees, class: (Algorithm, usize), cfg: &CpqConfig) -> QueryOutcome<2> {
    k_closest_pairs(&trees.p, &trees.q, class.1, class.0, cfg).expect("k_closest_pairs")
}

/// One warm-up cycle: fills the pools (hot) or the OS page cache (cold)
/// and memoises the reference answer of every class.
fn warm_up(trees: &Trees, cfg: &CpqConfig, gate: &mut Gate) {
    for class in CLASSES {
        trees.before_op();
        gate.memoise(&class_name(class), keys(&query(trees, class, cfg).pairs));
    }
}

/// Validates the memoised references: HEAP against STD for each K, and
/// the brute-force oracle when the product of the cardinalities allows.
fn validate_references(trees: &Trees, gate: &mut Gate) {
    for pair in CLASSES.chunks(2) {
        let (a, b) = (class_name(pair[0]), class_name(pair[1]));
        let (ra, rb) = (
            gate.reference(&a).expect("memoised").to_vec(),
            gate.reference(&b).expect("memoised").to_vec(),
        );
        gate.expect_equal(&format!("{a} against {b}"), &ra, &rb);
    }
    if (trees.pts_p.len() * trees.pts_q.len()) as u64 <= BRUTE_PAIR_LIMIT {
        let k_max = CLASSES.iter().map(|c| c.1).max().expect("classes");
        let oracle = keys(&k_closest_pairs_brute(
            &crate::data::indexed(&trees.pts_p),
            &crate::data::indexed(&trees.pts_q),
            k_max,
        ));
        for class in CLASSES {
            let name = class_name(class);
            let reference = gate.reference(&name).expect("memoised").to_vec();
            let want = &oracle[..class.1.min(oracle.len())];
            gate.expect_equal(
                &format!("{name} against the brute-force oracle"),
                &reference,
                want,
            );
        }
    }
}

/// The untraced run: end-to-end metrics.
pub fn run_end_to_end(storage: Storage, opts: &Opts, dir: &Path, gate: &mut Gate) -> Metrics {
    let cfg = shipped_config();
    let tracer = Tracer::new(false);
    let mut setup_s = Vec::new();
    let mut trees = None;
    for _ in 0..opts.setup_reps() {
        drop(trees.take());
        let t = Instant::now();
        let built = build_trees(storage, opts, dir, &tracer, None);
        warm_up(&built, &cfg, gate);
        setup_s.push(t.elapsed().as_secs_f64());
        trees = Some(built);
    }
    let trees = trees.expect("at least one set-up");
    validate_references(&trees, gate);
    if opts.corrupt_reference {
        gate.corrupt_one_reference();
    }

    let pools_before = trees.pool_counters();
    let mut cycles = Vec::new();
    let started = Instant::now();
    while started.elapsed() < opts.budget(1.0) {
        let mut cycle = Vec::with_capacity(CLASSES.len());
        for class in CLASSES {
            trees.before_op();
            let t = Instant::now();
            let out = query(&trees, class, &cfg);
            cycle.push(t.elapsed().as_secs_f64() * 1e3);
            gate.check(&class_name(class), &keys(&out.pairs));
        }
        cycles.push(cycle);
    }
    let misses = trees.pool_counters().since(pools_before).misses;
    if storage == Storage::Hot && misses != 0 {
        gate.violation(format!(
            "kcpq_hot: {misses} pool misses after warm-up, expected none"
        ));
    }

    let mut m = Metrics::zeroed(&END_TO_END);
    m.set("setup_s", stats::median(&setup_s));
    set_serial_latency_metrics(&mut m, cycles);
    m
}

/// What one traced op recorded.
#[derive(Debug, Clone, Copy, Default)]
pub struct OpTrace {
    /// Wall time of the engine call, nanoseconds.
    pub exec_ns: f64,
    /// `QueryProfile.gen_ns`.
    pub gen_ns: f64,
    /// `QueryProfile.scan_ns`.
    pub scan_ns: f64,
    /// Node reads of both trees.
    pub node_reads: f64,
    /// The engine's own counters.
    pub stats: CpqStats,
}

impl OpTrace {
    /// From the engine call's wall time, its profile (absent when the
    /// service ran it unobserved) and its counters.
    pub fn new(exec_ns: f64, profile: Option<&QueryProfile>, stats: CpqStats) -> Self {
        OpTrace {
            exec_ns,
            gen_ns: profile.map_or(0.0, |p| p.gen_ns as f64),
            scan_ns: profile.map_or(0.0, |p| p.scan_ns as f64),
            node_reads: profile.map_or(0.0, |p| p.node_accesses() as f64),
            stats,
        }
    }
}

/// Aggregates traced ops into the `core.*` / `rtree.node_reads_per_op`
/// metrics shared by every workload that runs queries.
pub fn set_core_metrics(m: &mut Metrics, ops: &[OpTrace]) {
    let mean = |f: &dyn Fn(&OpTrace) -> f64| stats::mean(&ops.iter().map(f).collect::<Vec<_>>());
    m.set("core.gen_ms_per_op", mean(&|o| o.gen_ns / 1e6));
    m.set("core.scan_ms_per_op", mean(&|o| o.scan_ns / 1e6));
    m.set("rtree.node_reads_per_op", mean(&|o| o.node_reads));
    m.set(
        "core.dist_computations_per_op",
        mean(&|o| o.stats.dist_computations as f64),
    );
    m.set(
        "core.node_pairs_per_op",
        mean(&|o| o.stats.node_pairs_processed as f64),
    );
    m.set(
        "core.pairs_pruned_per_op",
        mean(&|o| o.stats.pairs_pruned as f64),
    );
    m.set(
        "core.heap_high_watermark",
        ops.iter()
            .map(|o| o.stats.queue_peak as f64)
            .fold(0.0, f64::max),
    );
}

/// Sets `rtree.node_access_share` and `core.other_ms_per_op` once the
/// probes have measured what a node access costs: the hit time per node
/// read, plus the miss time beyond it for each of the `misses_per_op`
/// reads that went to the page file.
pub fn set_time_shares(m: &mut Metrics, mean_exec_ns: f64, misses_per_op: f64) {
    let hit_ns = m.get("rtree.read_node_hit_ns");
    let miss_extra_ns = (m.get("rtree.read_node_miss_ns") - hit_ns).max(0.0);
    let access_ns = m.get("rtree.node_reads_per_op") * hit_ns + misses_per_op * miss_extra_ns;
    m.set("rtree.node_access_share", access_ns / mean_exec_ns);
    let accounted_ms = m.get("core.gen_ms_per_op") + m.get("core.scan_ms_per_op") + access_ns / 1e6;
    m.set("core.other_ms_per_op", mean_exec_ns / 1e6 - accounted_ms);
}

fn traced_query(
    trees: &Trees,
    class: (Algorithm, usize),
    cfg: &CpqConfig,
    tracer: &Tracer,
    op: u64,
    gate: &mut Gate,
) -> OpTrace {
    let mut probe = ProfileProbe::new();
    let cancel = CancelToken::new();
    let op_span = tracer.start("op", None, Some(op));
    let t = Instant::now();
    let run = tracer.scope("core.query", op_span, Some(op), |_| {
        k_closest_pairs_instrumented(
            &trees.p, &trees.q, class.1, class.0, cfg, &cancel, &mut probe,
        )
        .expect("k_closest_pairs_instrumented")
    });
    let exec_ns = t.elapsed().as_nanos() as f64;
    tracer.scope("gate.check", op_span, Some(op), |_| {
        gate.check(&class_name(class), &keys(&run.outcome.pairs));
    });
    tracer.end(op_span);
    OpTrace::new(exec_ns, Some(&probe.profile), run.outcome.stats)
}

/// The traced run: per-layer metrics and spans.
pub fn run_traced(
    storage: Storage,
    opts: &Opts,
    dir: &Path,
    gate: &mut Gate,
    tracer: &Tracer,
) -> Metrics {
    let cfg = shipped_config();
    let mut m = Metrics::zeroed(&PER_LAYER);
    let setup = tracer.start("setup", None, None);
    let t = Instant::now();
    let trees = build_trees(storage, opts, dir, tracer, setup);
    m.set("rtree.build_insert_s", t.elapsed().as_secs_f64() / 2.0);
    tracer.scope("setup.warm_up", setup, None, |_| {
        warm_up(&trees, &cfg, gate)
    });
    tracer.end(setup);
    validate_references(&trees, gate);
    if opts.corrupt_reference {
        gate.corrupt_one_reference();
    }

    // Plain and instrumented cycles alternate, so that the two means see
    // the same machine state and their difference is the probe's cost.
    let (mut plain_ns, mut traced) = (Vec::new(), Vec::new());
    let mut pools = PoolCounters::default();
    let started = Instant::now();
    let mut op = 0u64;
    while started.elapsed() < opts.budget(0.4) {
        for class in CLASSES {
            trees.before_op();
            let t = Instant::now();
            let out = query(&trees, class, &cfg);
            plain_ns.push(t.elapsed().as_nanos() as f64);
            gate.check(&class_name(class), &keys(&out.pairs));
        }
        for class in CLASSES {
            trees.before_op();
            let before = trees.pool_counters();
            let rec = traced_query(&trees, class, &cfg, tracer, op, gate);
            let delta = trees.pool_counters().since(before);
            pools += delta;
            let op_misses = delta.misses;
            // The paper's disk accesses are the pool's misses, bit for bit.
            if op_misses != rec.stats.disk_accesses() {
                gate.violation(format!(
                    "{}: {} pool misses but CpqStats reports {} disk accesses",
                    class_name(class),
                    op_misses,
                    rec.stats.disk_accesses()
                ));
            }
            if storage == Storage::Hot && op_misses != 0 {
                gate.violation(format!(
                    "{}: {op_misses} misses on kcpq_hot",
                    class_name(class)
                ));
            }
            traced.push(rec);
            op += 1;
        }
    }
    let ops = traced.len() as f64;
    set_core_metrics(&mut m, &traced);
    pools.report(&mut m, ops);
    let mean_plain = stats::mean(&plain_ns).expect("at least one cycle");
    let mean_traced =
        stats::mean(&traced.iter().map(|o| o.exec_ns).collect::<Vec<_>>()).expect("ops");
    m.set(
        "core.probe_overhead_frac",
        (mean_traced - mean_plain) / mean_plain,
    );

    let fixture = probes::Fixture {
        p: &trees.p,
        q: &trees.q,
        pts_p: &trees.pts_p,
        dir,
        disk: storage == Storage::Cold,
        pool_pages: match storage {
            Storage::Hot => BUILD_POOL_PAGES,
            Storage::Cold => COLD_POOL_PAGES,
        },
    };
    probes::micro(&fixture, opts, tracer, &mut m);
    set_time_shares(&mut m, mean_plain, pools.misses as f64 / ops);
    match storage {
        Storage::Hot => probes::sweep_scan(&trees, &cfg, opts, tracer, &mut m),
        Storage::Cold => {
            probes::parallel2(&trees, &cfg, opts, tracer, gate, &mut m);
            probes::scheduled(&trees, &cfg, opts, dir, tracer, gate, &mut m);
            probes::scatter(&trees, &cfg, opts, dir, tracer, gate, &mut m);
        }
    }
    m
}
