//! Observability contract of [`CpqService`]: executed queries carry a
//! complete work profile, slow queries land in the forensics log with that
//! same profile, `/metrics` serves lint-clean Prometheus exposition over
//! HTTP, and the bridged buffer-pool series agree with the pools' own books.

use cpq_core::Algorithm;
use cpq_datasets::uniform;
use cpq_geo::Rect;
use cpq_obs::lint_exposition;
use cpq_rtree::{RTree, RTreeParams};
use cpq_service::{
    Constraint, CpqService, ObsConfig, QueryRequest, QueryStatus, ServiceConfig, TreePair,
};
use cpq_storage::{BufferPool, MemPageFile};
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

fn build_tree(n: usize, seed: u64) -> RTree<2> {
    let pool = BufferPool::with_lru(Box::new(MemPageFile::new(1024)), 64);
    let mut tree = RTree::new(pool, RTreeParams::paper()).unwrap();
    for (p, oid) in uniform(n, seed).indexed() {
        tree.insert(p, oid).unwrap();
    }
    tree
}

fn start_service(obs: ObsConfig) -> CpqService<2> {
    start_service_on(300, obs)
}

fn start_service_on(n: usize, obs: ObsConfig) -> CpqService<2> {
    CpqService::start(
        TreePair::new(build_tree(n, 42), build_tree(n, 1337)),
        ServiceConfig {
            workers: 2,
            obs,
            ..ServiceConfig::default()
        },
    )
}

/// With a zero threshold every query is "slow", so the log must capture a
/// *complete* profile: identity, outcome, engine work, buffer deltas, and
/// timings — the full forensics record the ISSUE asks for.
#[test]
fn slow_query_log_captures_complete_profiles() {
    let service = start_service(ObsConfig {
        enabled: true,
        slow_query_threshold: Some(Duration::ZERO),
        slow_log_capacity: 16,
    });

    let resp = service
        .execute(QueryRequest::cross(10, Algorithm::Heap))
        .unwrap();
    assert_eq!(resp.status, QueryStatus::Completed);

    // The response carries the same profile the log captured.
    let attached = resp.profile.as_deref().expect("profile attached");
    assert_eq!(attached.query_id, resp.id);

    let slow = service.drain_slow_queries();
    assert_eq!(slow.len(), 1, "zero threshold captures every query");
    let p = &slow[0];

    // Identity and outcome.
    assert_eq!(p.query_id, resp.id);
    assert_eq!(p.algorithm, "HEAP");
    assert_eq!(p.kind, "cross");
    assert_eq!(p.status, "completed");
    assert_eq!(p.k, 10);

    // Engine work: both trees were descended from the root, distances were
    // computed, and the deterministic counters match the response stats.
    assert!(p.node_accesses_p.iter().sum::<u64>() > 0, "p-tree accesses");
    assert!(p.node_accesses_q.iter().sum::<u64>() > 0, "q-tree accesses");
    assert!(p.dist_computations > 0);
    assert_eq!(p.dist_computations, resp.stats.dist_computations);
    assert_eq!(p.pairs_pruned, resp.stats.pairs_pruned);
    assert_eq!(p.node_pairs_processed, resp.stats.node_pairs_processed);
    assert_eq!(p.heap_inserts, resp.stats.queue_inserts);
    assert_eq!(p.heap_high_watermark, resp.stats.queue_peak as u64);

    // Buffer deltas: a single-worker-at-a-time query on cold-ish pools must
    // have touched the buffer (hits + misses covers every node access).
    assert!(
        p.buffer_hits + p.buffer_misses >= p.node_accesses(),
        "every node access is a pool read"
    );

    // Timings are filled (exec can round to 0us only on an empty tree).
    assert!(p.scan_ns > 0, "leaf scans were timed");
    assert_eq!(p.latency_us(), p.queue_wait_us + p.exec_us);

    // JSONL: drained once already, so observe a second query then dump.
    service
        .execute(QueryRequest::self_join(5, Algorithm::SortedDistances))
        .unwrap();
    let jsonl = service.drain_slow_queries_jsonl();
    let lines: Vec<&str> = jsonl.lines().collect();
    assert_eq!(lines.len(), 1);
    assert!(lines[0].starts_with('{') && lines[0].ends_with('}'));
    assert!(lines[0].contains("\"algorithm\":\"STD\""));
    assert!(lines[0].contains("\"kind\":\"self\""));
    service.shutdown();
}

#[test]
fn fast_queries_stay_out_of_the_slow_log() {
    let service = start_service(ObsConfig {
        enabled: true,
        slow_query_threshold: Some(Duration::from_secs(3600)),
        slow_log_capacity: 16,
    });
    service
        .execute(QueryRequest::cross(5, Algorithm::Heap))
        .unwrap();
    assert!(service.drain_slow_queries().is_empty());
    assert_eq!(service.drain_slow_queries_jsonl(), "");
    service.shutdown();
}

/// Families the workload of `metrics_endpoint_serves_lint_clean_exposition`
/// legitimately leaves at zero: idle-state gauges and counters whose
/// triggering condition (shedding, deadline misses, eviction pressure,
/// scatter, a query crossing the slow-log threshold — timing-dependent on
/// a loaded machine) it avoids or cannot guarantee.
const ZERO_OK: &[&str] = &[
    "cpq_queue_depth",
    "cpq_slow_queries_total",
    "cpq_sheds_total",
    "cpq_deadline_misses_total",
    "cpq_plan_scatter_total",
    "cpq_slow_log_evictions_total",
];

/// Whole subsystems that workload does not drive (sequential queries on a
/// static pair never touch shards, live trees or the WAL); their series
/// are fed by the subsystem tests instead.
const ZERO_OK_PREFIXES: &[&str] = &["cpq_live_", "cpq_shard_", "cpq_wal_"];

/// Families deleted with the counters that fed them, as prefixes: the
/// parallel executor's speculation counters, the planner's fan-out rule
/// (`cpq_plan_parallel_total`) and the plane sweep's two tallies (the
/// kernel's threshold early-outs and the sweep's skipped pairs). Nothing
/// reads them, so none may come back.
const DELETED_FAMILIES: &[&str] = &[
    "cpq_parallel_",
    "cpq_plan_parallel_",
    "cpq_kernel_",
    "cpq_sweep_",
];

/// The metrics gate. Scrapes `/metrics` over a real TCP connection (the
/// path `curl` takes) and holds the body to the exposition linter — format,
/// and no duplicate samples: a series registered twice renders twice and
/// scrapers keep whichever value they read last — then checks the series
/// the dashboards are built on, and that no family is *never observed*:
/// every sample still zero after the workload means it is registered but
/// nothing feeds it (dead series rot on dashboards).
#[test]
fn metrics_endpoint_serves_lint_clean_exposition() {
    // 1000 x 1000 points: enough effective work that the planner does not
    // call the planned query below "tiny".
    let service = start_service_on(1_000, ObsConfig::default());
    // Touch every algorithm so the exposition carries live counts, not
    // just pre-registered zeros.
    for algorithm in [
        Algorithm::Naive,
        Algorithm::Exhaustive,
        Algorithm::Simple,
        Algorithm::SortedDistances,
        Algorithm::Heap,
    ] {
        let resp = service.execute(QueryRequest::cross(5, algorithm)).unwrap();
        assert!(resp.profile.is_some(), "profiles attached when obs is on");
    }
    for algorithm in [Algorithm::Naive, Algorithm::Heap] {
        service
            .execute(QueryRequest::self_join(3, algorithm))
            .unwrap();
    }
    // One planned, window-constrained query exercises the planner path: it
    // resolves to STD like every sequential plan, feeding the cpq_plan_*
    // series.
    let window = Rect::from_corners([0.0, 0.0], [1000.0, 1000.0]);
    let resp = service
        .execute(QueryRequest::planned_cross(5).with_constraint(Constraint::window(window)))
        .unwrap();
    let profile = resp.profile.as_ref().expect("planned profile");
    assert!(profile.planned, "profile records the planner decision");
    assert_eq!(profile.plan_reason, "constrained");
    assert_eq!(resp.request.algorithm, Algorithm::SortedDistances);

    let server = service.serve_metrics("127.0.0.1:0").unwrap();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    write!(stream, "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    let (head, body) = raw.split_once("\r\n\r\n").expect("http header/body");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert!(
        head.contains("text/plain; version=0.0.4"),
        "exposition content type: {head}"
    );

    if let Err(errors) = lint_exposition(body) {
        panic!("lint errors: {errors:?}");
    }

    // The query matrix (executed combinations counted, the rest present as
    // pre-registered zeros), the planner, both histograms, the paper's cost
    // metric live, and the bridged pool series.
    for series in [
        "cpq_queries_total{algorithm=\"HEAP\",outcome=\"completed\"} 2",
        "cpq_queries_total{algorithm=\"STD\",outcome=\"completed\"} 2",
        "cpq_queries_total{algorithm=\"NAIVE\",outcome=\"completed\"} 2",
        "cpq_queries_total{algorithm=\"SIM\",outcome=\"completed\"} 1",
        "cpq_queries_total{algorithm=\"SIM\",outcome=\"timed-out\"} 0",
        "cpq_plan_queries_total{algorithm=\"STD\"} 1",
        "cpq_plan_queries_total{algorithm=\"HEAP\"} 0",
        "cpq_plan_queries_total{algorithm=\"EXH\"} 0",
        "cpq_plan_scatter_total 0",
        "cpq_query_latency_microseconds_count 8",
        "cpq_query_latency_microseconds_bucket",
        "cpq_queue_wait_microseconds_count 8",
        "cpq_node_accesses_total{tree=\"p\"}",
        "cpq_node_accesses_total{tree=\"q\"}",
        "cpq_dist_computations_total",
        "cpq_buffer_reads_total{tree=\"p\",result=\"hit\"}",
        "cpq_buffer_hit_ratio{tree=\"p\"}",
        "cpq_buffer_hit_ratio{tree=\"q\"}",
        "cpq_queue_depth 0",
        "cpq_sheds_total 0",
    ] {
        assert!(body.contains(series), "missing from /metrics: {series}");
    }
    for family in DELETED_FAMILIES {
        assert!(
            !body.contains(family),
            "deleted family in /metrics: {family}"
        );
    }

    // Never-observed families. Histogram suffixes roll up to their base
    // family so an unfed histogram reports once, not three times.
    let mut family_max: BTreeMap<&str, f64> = BTreeMap::new();
    for line in body
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
    {
        let (sample, value) = line.rsplit_once(' ').expect("linted sample line");
        let value: f64 = value.parse().expect("linted sample value");
        let name = sample.split('{').next().unwrap_or(sample);
        let family = ["_bucket", "_sum", "_count"]
            .iter()
            .find_map(|s| name.strip_suffix(s))
            .unwrap_or(name);
        let max = family_max.entry(family).or_insert(f64::MIN);
        *max = max.max(value);
    }
    let unfed: Vec<_> = family_max
        .iter()
        .filter(|(family, &max)| {
            max == 0.0
                && !ZERO_OK.contains(family)
                && !ZERO_OK_PREFIXES.iter().any(|p| family.starts_with(p))
        })
        .map(|(family, _)| family)
        .collect();
    assert!(
        unfed.is_empty(),
        "registered but never observed — feed or allowlist: {unfed:?}"
    );

    // Bridged pool series agree with the pools' own books at scrape time.
    let (bp, _) = service
        .trees()
        .expect("static service")
        .p
        .pool()
        .stats_snapshot();
    assert!(body.contains(&format!(
        "cpq_buffer_reads_total{{tree=\"p\",result=\"hit\"}} {}",
        bp.hits
    )));
    assert!(body.contains(&format!(
        "cpq_buffer_reads_total{{tree=\"p\",result=\"miss\"}} {}",
        bp.misses
    )));

    // /healthz answers on the same listener.
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    write!(stream, "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    assert!(raw.starts_with("HTTP/1.1 200"));
    assert!(raw.ends_with("ok\n"));

    server.stop();
    service.shutdown();
}

/// Sheds are counted even though shed requests never execute.
#[test]
fn sheds_are_counted() {
    let service = CpqService::start(
        TreePair::new(build_tree(200, 7), build_tree(200, 8)),
        ServiceConfig {
            workers: 1,
            queue_capacity: 1,
            obs: ObsConfig::default(),
            ..ServiceConfig::default()
        },
    );
    // Flood: with one worker and a one-slot queue, some of these must shed.
    let tickets: Vec<_> = (0..32)
        .filter_map(|_| {
            service
                .submit(QueryRequest::cross(50, Algorithm::Exhaustive))
                .ok()
        })
        .collect();
    let shed = 32 - tickets.len() as u64;
    assert!(shed > 0, "flood must shed");
    for t in tickets {
        t.wait();
    }
    let body = service.render_metrics();
    assert!(body.contains(&format!("cpq_sheds_total {shed}")));
    service.shutdown();
}

/// `ObsConfig::disabled()` restores the pre-observability service: no
/// profiles, no slow log, empty metrics body.
#[test]
fn disabled_observability_is_inert() {
    let service = start_service(ObsConfig::disabled());
    let resp = service
        .execute(QueryRequest::cross(5, Algorithm::Heap))
        .unwrap();
    assert_eq!(resp.status, QueryStatus::Completed);
    assert!(resp.profile.is_none());
    assert!(service.obs().is_none());
    assert_eq!(service.render_metrics(), "");
    assert!(service.drain_slow_queries().is_empty());
    service.shutdown();
}
