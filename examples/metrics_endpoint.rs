//! Live `/metrics` demo: boots an observable [`CpqService`], runs a mixed
//! workload, and serves Prometheus exposition over HTTP until killed.
//!
//! ```text
//! cargo run --release --example metrics_endpoint [port] [seconds]
//! # then, from another terminal:
//! curl http://127.0.0.1:9090/metrics
//! curl http://127.0.0.1:9090/healthz
//! ```
//!
//! Defaults: port 9090, 30 seconds (port 0 binds an ephemeral one). While
//! up, a background client keeps issuing queries so repeated scrapes show
//! the counters moving; queries slower than 5 ms land in the slow-query
//! log, dumped as JSONL on exit. Exits 1 unless the service's final
//! statistics count every query issued as completed.

use cpq::core::Algorithm;
use cpq::datasets::uniform;
use cpq::rtree::{RTree, RTreeParams};
use cpq::service::{CpqService, ObsConfig, QueryRequest, ServiceConfig, TreePair};
use cpq::storage::{BufferPool, MemPageFile};
use std::time::{Duration, Instant};

fn build_tree(n: usize, seed: u64) -> RTree<2> {
    let pool = BufferPool::with_lru(Box::new(MemPageFile::new(1024)), 128);
    let mut tree = RTree::new(pool, RTreeParams::paper()).unwrap();
    for (i, &p) in uniform(n, seed).points.iter().enumerate() {
        tree.insert(p, i as u64).unwrap();
    }
    tree
}

fn main() {
    let mut args = std::env::args().skip(1);
    let port: u16 = args.next().and_then(|a| a.parse().ok()).unwrap_or(9090);
    let seconds: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(30);

    eprintln!("building two 5000-point trees...");
    let service: CpqService<2> = CpqService::start(
        TreePair::new(build_tree(5_000, 42), build_tree(5_000, 1337)),
        ServiceConfig {
            workers: 2,
            obs: ObsConfig {
                enabled: true,
                slow_query_threshold: Some(Duration::from_millis(5)),
                slow_log_capacity: 64,
            },
            ..ServiceConfig::default()
        },
    );
    let server = service
        .serve_metrics(("127.0.0.1", port))
        .expect("bind metrics listener");
    println!(
        "serving http://{}/metrics and /healthz for {seconds}s",
        server.addr()
    );

    let mix = [
        (Algorithm::Heap, 100),
        (Algorithm::SortedDistances, 10),
        (Algorithm::Simple, 1),
        (Algorithm::Exhaustive, 100),
    ];
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let mut i = 0usize;
    while Instant::now() < deadline {
        let (algorithm, k) = mix[i % mix.len()];
        let req = if i.is_multiple_of(3) {
            QueryRequest::self_join(k, algorithm)
        } else {
            QueryRequest::cross(k, algorithm)
        };
        let _ = service.execute(req);
        i += 1;
        std::thread::sleep(Duration::from_millis(100));
    }

    let jsonl = service.drain_slow_queries_jsonl();
    eprintln!(
        "done: {i} queries issued; {} slow-query profiles captured:",
        jsonl.lines().count()
    );
    print!("{jsonl}");
    server.stop();
    let stats = service.shutdown();
    if stats.completed != i as u64 {
        eprintln!("error: {i} queries issued, but the service counted {stats:?}");
        std::process::exit(1);
    }
}
