//! Behavioral contract of [`CpqService`]: results through the service are
//! bit-identical to direct engine calls (under worker contention), admission
//! control sheds instead of blocking, deadlines produce `TimedOut` partials
//! without wedging a worker, and shutdown drains the admitted backlog.

use cpq_core::{k_closest_pairs, self_closest_pairs, Algorithm, CpqConfig, PairResult};
use cpq_datasets::uniform;
use cpq_geo::Point2;
use cpq_rtree::{RTree, RTreeParams};
use cpq_service::{
    CpqService, ObsConfig, QueryKind, QueryRequest, QueryStatus, ServiceConfig, TreePair,
};
use cpq_storage::{BufferPool, MemPageFile};
use std::time::Duration;

fn build_tree(points: &[(Point2, u64)], cache_pages: usize) -> RTree<2> {
    let pool = BufferPool::with_lru(Box::new(MemPageFile::new(1024)), cache_pages);
    let mut tree = RTree::new(pool, RTreeParams::paper()).unwrap();
    for &(p, oid) in points {
        tree.insert(p, oid).unwrap();
    }
    tree
}

fn tree_pair(n: usize, cache_pages: usize) -> (RTree<2>, RTree<2>) {
    let p = build_tree(&uniform(n, 42).indexed(), cache_pages);
    let q = build_tree(&uniform(n, 1337).indexed(), cache_pages);
    (p, q)
}

/// Field-by-field pair comparison with exact f64 bit equality on the
/// distance — "same answer" here means *bit-identical*, not approximately
/// equal.
fn assert_pairs_identical(got: &[PairResult<2>], want: &[PairResult<2>], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: result count");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.p.oid, w.p.oid, "{what}: pair {i} p-oid");
        assert_eq!(g.q.oid, w.q.oid, "{what}: pair {i} q-oid");
        assert_eq!(g.p.object, w.p.object, "{what}: pair {i} p-object");
        assert_eq!(g.q.object, w.q.object, "{what}: pair {i} q-object");
        assert_eq!(
            g.dist2.get().to_bits(),
            w.dist2.get().to_bits(),
            "{what}: pair {i} dist2 bits"
        );
    }
}

const ALL_ALGORITHMS: [Algorithm; 5] = [
    Algorithm::Naive,
    Algorithm::Exhaustive,
    Algorithm::Simple,
    Algorithm::SortedDistances,
    Algorithm::Heap,
];

/// The ISSUE's determinism gate: every algorithm × K ∈ {1, 100} × both join
/// kinds, executed through a multi-worker service *with contention* (the
/// whole workload is admitted up front, so 4 workers run concurrently over
/// the shared trees), must return results bit-identical to a direct
/// single-threaded engine call, along with identical deterministic work
/// counters.
#[test]
fn service_results_bit_identical_to_direct_calls() {
    let cfg = CpqConfig::paper();
    let (tp, tq) = tree_pair(400, 64);

    // Direct single-threaded reference answers, computed on the very trees
    // the service will serve from.
    let mut combos = Vec::new();
    for algorithm in ALL_ALGORITHMS {
        for k in [1usize, 100] {
            for kind in [QueryKind::Cross, QueryKind::SelfJoin] {
                let expected = match kind {
                    QueryKind::Cross => k_closest_pairs(&tp, &tq, k, algorithm, &cfg).unwrap(),
                    QueryKind::SelfJoin => self_closest_pairs(&tp, k, algorithm, &cfg).unwrap(),
                };
                combos.push((algorithm, k, kind, expected));
            }
        }
    }

    let service = CpqService::start(
        TreePair::new(tp, tq),
        ServiceConfig {
            workers: 4,
            queue_capacity: 128,
            cpq: cfg,
            max_shards: 1,
            default_deadline: None,
            obs: ObsConfig::default(),
        },
    );

    // Submit every combo twice before waiting on anything, so the four
    // workers genuinely contend on the shared trees and buffer pools.
    let tickets: Vec<_> = (0..2)
        .flat_map(|_| {
            combos.iter().map(|&(algorithm, k, kind, _)| {
                let req = match kind {
                    QueryKind::Cross => QueryRequest::cross(k, algorithm),
                    QueryKind::SelfJoin => QueryRequest::self_join(k, algorithm),
                };
                service.submit(req).expect("queue sized for full workload")
            })
        })
        .collect();

    for (ticket, (algorithm, k, kind, expected)) in tickets.into_iter().zip(combos.iter().cycle()) {
        let what = format!("{} K={k} {}", algorithm.label(), kind.label());
        let resp = ticket.wait();
        assert_eq!(resp.status, QueryStatus::Completed, "{what}: status");
        assert_pairs_identical(&resp.pairs, &expected.pairs, &what);
        assert_eq!(
            resp.stats.dist_computations, expected.stats.dist_computations,
            "{what}: dist_computations"
        );
        assert_eq!(
            resp.stats.node_pairs_processed, expected.stats.node_pairs_processed,
            "{what}: node_pairs_processed"
        );
    }

    let stats = service.shutdown();
    assert_eq!(stats.completed, 2 * 20);
    assert_eq!(stats.timed_out + stats.failed + stats.shed, 0);
}

/// A full queue sheds (`Err(Rejected)`) without blocking or panicking, and
/// tickets of never-executed queries resolve to `Dropped` on teardown
/// instead of hanging.
#[test]
fn full_queue_sheds_and_dropped_tickets_resolve() {
    let (tp, tq) = tree_pair(50, 16);
    // No workers: nothing drains the queue, so occupancy is deterministic.
    let service = CpqService::start(
        TreePair::new(tp, tq),
        ServiceConfig {
            workers: 0,
            queue_capacity: 2,
            cpq: CpqConfig::paper(),
            max_shards: 1,
            default_deadline: None,
            obs: ObsConfig::default(),
        },
    );

    let req = QueryRequest::cross(5, Algorithm::Heap);
    let t1 = service.submit(req).expect("first fits");
    let t2 = service.submit(req).expect("second fits");
    let rejected = match service.submit(req) {
        Err(r) => r,
        Ok(_) => panic!("third submit must shed"),
    };
    assert_eq!(rejected.0.k, 5);
    assert_eq!(service.queue_depth(), 2);
    assert_eq!(service.stats().shed, 1);

    drop(service); // tears down with the two admitted queries unexecuted
    assert_eq!(t1.wait().status, QueryStatus::Dropped);
    assert_eq!(t2.wait().status, QueryStatus::Dropped);
}

/// An already-expired deadline yields `TimedOut` with a (possibly empty)
/// partial result, and the worker survives to answer the next query — the
/// "deadline must not block a worker" half of the ISSUE's acceptance gate.
#[test]
fn expired_deadline_times_out_without_wedging_the_worker() {
    let (tp, tq) = tree_pair(200, 32);
    let service = CpqService::start(
        TreePair::new(tp, tq),
        ServiceConfig {
            workers: 1,
            queue_capacity: 8,
            cpq: CpqConfig::paper(),
            max_shards: 1,
            default_deadline: None,
            obs: ObsConfig::default(),
        },
    );

    let doomed = service
        .execute(QueryRequest::cross(10, Algorithm::Heap).with_deadline(Duration::ZERO))
        .unwrap();
    assert_eq!(doomed.status, QueryStatus::TimedOut);
    assert!(
        doomed.pairs.len() <= 10,
        "partial result never exceeds K ({} pairs)",
        doomed.pairs.len()
    );

    // The single worker must still be alive and productive.
    let followup = service
        .execute(QueryRequest::cross(10, Algorithm::Heap))
        .unwrap();
    assert_eq!(followup.status, QueryStatus::Completed);
    assert_eq!(followup.pairs.len(), 10);

    let stats = service.shutdown();
    assert_eq!((stats.completed, stats.timed_out), (1, 1));
}

/// The service default deadline applies when the request carries none, and
/// a per-request deadline overrides the default.
#[test]
fn default_deadline_applies_and_is_overridable() {
    let (tp, tq) = tree_pair(200, 32);
    let service = CpqService::start(
        TreePair::new(tp, tq),
        ServiceConfig {
            workers: 1,
            queue_capacity: 8,
            cpq: CpqConfig::paper(),
            max_shards: 1,
            default_deadline: Some(Duration::ZERO), // everything times out…
            obs: ObsConfig::default(),
        },
    );

    let defaulted = service
        .execute(QueryRequest::cross(5, Algorithm::Heap))
        .unwrap();
    assert_eq!(defaulted.status, QueryStatus::TimedOut);

    // …unless the request brings a generous deadline of its own.
    let overridden = service
        .execute(QueryRequest::cross(5, Algorithm::Heap).with_deadline(Duration::from_secs(60)))
        .unwrap();
    assert_eq!(overridden.status, QueryStatus::Completed);
    assert_eq!(overridden.pairs.len(), 5);

    // "No deadline" spelled as the largest duration used to panic the
    // caller inside `submit` (overflow adding a duration to an instant).
    let unlimited = service
        .execute(QueryRequest::cross(5, Algorithm::Heap).with_deadline(Duration::MAX))
        .unwrap();
    assert_eq!(unlimited.status, QueryStatus::Completed);
    assert_eq!(unlimited.pairs, overridden.pairs);
}

/// `shutdown` stops admission but drains the already-admitted backlog:
/// every accepted query still gets a real answer.
#[test]
fn shutdown_drains_admitted_backlog() {
    let (tp, tq) = tree_pair(100, 32);
    let service = CpqService::start(
        TreePair::new(tp, tq),
        ServiceConfig {
            workers: 1,
            queue_capacity: 16,
            cpq: CpqConfig::paper(),
            max_shards: 1,
            default_deadline: None,
            obs: ObsConfig::default(),
        },
    );

    let tickets: Vec<_> = (0..8)
        .map(|_| {
            service
                .submit(QueryRequest::self_join(3, Algorithm::Simple))
                .unwrap()
        })
        .collect();
    let stats = service.shutdown();
    assert_eq!(stats.completed, 8, "backlog fully drained before join");
    for t in tickets {
        let resp = t.wait();
        assert_eq!(resp.status, QueryStatus::Completed);
        assert_eq!(resp.pairs.len(), 3);
    }
}

/// Latency bookkeeping is internally consistent: latency = queue_wait + exec
/// (within rounding), and the summary percentiles cover every executed query.
#[test]
fn timing_and_summary_bookkeeping() {
    let (tp, tq) = tree_pair(100, 32);
    let service = CpqService::start(
        TreePair::new(tp, tq),
        ServiceConfig {
            workers: 2,
            queue_capacity: 32,
            cpq: CpqConfig::paper(),
            max_shards: 1,
            default_deadline: None,
            obs: ObsConfig::default(),
        },
    );

    let tickets: Vec<_> = (0..10)
        .map(|_| {
            service
                .submit(QueryRequest::cross(2, Algorithm::SortedDistances))
                .unwrap()
        })
        .collect();
    for t in tickets {
        let resp = t.wait();
        assert!(resp.latency >= resp.queue_wait);
        assert!(resp.latency >= resp.exec);
        let sum = resp.queue_wait + resp.exec;
        let slack = Duration::from_millis(5);
        assert!(
            resp.latency <= sum + slack && sum <= resp.latency + slack,
            "latency {:?} ≉ queue_wait {:?} + exec {:?}",
            resp.latency,
            resp.queue_wait,
            resp.exec
        );
    }
    let stats = service.shutdown();
    assert_eq!(stats.completed, 10);
    assert_eq!(stats.latency.count, 10);
    assert_eq!(stats.queue_wait.count, 10);
    assert!(stats.throughput_qps > 0.0);
}
