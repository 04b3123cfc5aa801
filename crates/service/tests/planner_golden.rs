//! Golden decision table for the query planner, plus end-to-end planned
//! execution through [`CpqService`].
//!
//! The planner is pure and deterministic, so its whole behavior can be
//! pinned as a table: each row is a query shape (cardinalities, window,
//! colors, K, kind, service capabilities) and the *exact* [`QueryPlan`]
//! it must produce. A planner change that shifts any decision must edit
//! this table — that is the point: rebalancing the cost thresholds is a
//! reviewed event, not a silent drift.
//!
//! The service-level tests then close the loop: a `planned_*` request
//! actually executes with the planner's knobs (echoed in the response and
//! profile) and still returns oracle-identical pairs.

use cpq_core::brute::{k_closest_pairs_brute_constrained, self_k_closest_pairs_brute_constrained};
use cpq_core::Algorithm;
use cpq_datasets::uniform;
use cpq_geo::{pack_color, Point2, Rect, Rect2};
use cpq_rtree::{RTree, RTreeParams};
use cpq_service::{
    plan, Constraint, CpqService, ObsConfig, PlannerInputs, QueryKind, QueryRequest, QueryResponse,
    QueryStatus, ServiceConfig, TreePair,
};
use cpq_storage::{BufferPool, MemPageFile};

fn inputs(n_p: u64, n_q: u64, side: f64) -> PlannerInputs<'static, 2> {
    let ws = Rect::from_corners([0.0, 0.0], [side, side]);
    PlannerInputs {
        n_p,
        n_q,
        workspace_p: Some(ws),
        workspace_q: Some(ws),
        stats_p: None,
        stats_q: None,
        max_parallelism: 0,
        shards: 0,
    }
}

/// The golden decision table. Columns: shape → (algorithm, scatter,
/// reason).
#[test]
fn decision_table() {
    use Algorithm::{Exhaustive, SortedDistances};
    let quarter = Rect::from_corners([0.0, 0.0], [500.0, 500.0]);
    let sliver = Rect::from_corners([0.0, 0.0], [10.0, 10.0]);
    let off_data = Rect::from_corners([5_000.0, 5_000.0], [6_000.0, 6_000.0]);

    let wide = inputs(100_000, 100_000, 1_000.0);
    let mut wide_sharded = wide;
    wide_sharded.shards = 8;
    let mid = inputs(10_000, 10_000, 1_000.0);

    // (label, inputs, k, kind, constraint, expected)
    type Expected = (Algorithm, usize, &'static str);
    type Row = (
        &'static str,
        PlannerInputs<'static, 2>,
        usize,
        QueryKind,
        Constraint<2>,
        Expected,
    );
    let table: Vec<Row> = vec![
        (
            "empty P side",
            inputs(0, 1_000, 1_000.0),
            10,
            QueryKind::Cross,
            Constraint::none(),
            (Exhaustive, 0, "empty-side"),
        ),
        (
            "k = 0",
            inputs(1_000, 1_000, 1_000.0),
            0,
            QueryKind::Cross,
            Constraint::none(),
            (Exhaustive, 0, "empty-side"),
        ),
        (
            "window misses the data",
            inputs(100_000, 100_000, 1_000.0),
            10,
            QueryKind::Cross,
            Constraint::window(off_data),
            (Exhaustive, 0, "window-off-data"),
        ),
        (
            "tiny unconstrained",
            inputs(400, 400, 1_000.0),
            10,
            QueryKind::Cross,
            Constraint::none(),
            (Exhaustive, 0, "tiny"),
        ),
        (
            "sliver window shrinks big data to tiny",
            inputs(100_000, 100_000, 1_000.0),
            10,
            QueryKind::Cross,
            Constraint::window(sliver),
            (Exhaustive, 0, "tiny"),
        ),
        (
            "1-CP unconstrained",
            inputs(10_000, 10_000, 1_000.0),
            1,
            QueryKind::Cross,
            Constraint::none(),
            (SortedDistances, 0, "1cp"),
        ),
        (
            "1-CP windowed",
            inputs(10_000, 10_000, 1_000.0),
            1,
            QueryKind::Cross,
            Constraint::window(quarter),
            (SortedDistances, 0, "constrained"),
        ),
        (
            "colored-only constraint",
            inputs(10_000, 10_000, 1_000.0),
            10,
            QueryKind::Cross,
            Constraint::colored(),
            (SortedDistances, 0, "constrained"),
        ),
        (
            "default K-CPQ",
            inputs(10_000, 10_000, 1_000.0),
            10,
            QueryKind::Cross,
            Constraint::none(),
            (SortedDistances, 0, "default"),
        ),
        (
            "mid work stays on one thread",
            mid,
            10,
            QueryKind::Cross,
            Constraint::none(),
            (SortedDistances, 0, "default"),
        ),
        (
            "quarter window on wide data stays on one thread",
            wide,
            10,
            QueryKind::Cross,
            Constraint::window(quarter),
            (SortedDistances, 0, "constrained"),
        ),
        (
            "huge work + shards → scatter",
            wide_sharded,
            10,
            QueryKind::Cross,
            Constraint::none(),
            (SortedDistances, 4, "default"),
        ),
        (
            "self-join plans off the P side",
            {
                let mut i = inputs(10_000, 0, 1_000.0);
                i.workspace_q = None;
                i
            },
            1,
            QueryKind::SelfJoin,
            Constraint::none(),
            (SortedDistances, 0, "1cp"),
        ),
    ];

    for (label, i, k, kind, con, (alg, scatter, reason)) in table {
        let p = plan(&i, k, kind, &con);
        assert_eq!(p.algorithm, alg, "{label}: algorithm");
        assert_eq!(p.scatter, scatter, "{label}: scatter");
        assert_eq!(p.reason, reason, "{label}: reason");
    }
}

fn build_tree(points: &[(Point2, u64)]) -> RTree<2> {
    let pool = BufferPool::with_lru(Box::new(MemPageFile::new(1024)), 64);
    let mut tree = RTree::new(pool, RTreeParams::paper()).unwrap();
    for &(p, oid) in points {
        tree.insert(p, oid).unwrap();
    }
    tree
}

/// A planned, windowed query through the service: the planner's knobs are
/// echoed in the response, the profile records the decision, and the
/// pairs are bit-identical to the constrained oracle.
#[test]
fn planned_windowed_query_end_to_end() {
    let p = uniform(2_000, 71).indexed();
    let q = uniform(2_000, 72).indexed();
    let service: CpqService<2> = CpqService::start(
        TreePair::new(build_tree(&p), build_tree(&q)),
        ServiceConfig {
            workers: 2,
            obs: ObsConfig::default(),
            ..ServiceConfig::default()
        },
    );

    let window = Rect2::from_corners([200.0, 200.0], [700.0, 750.0]);
    let con = Constraint::window(window);
    let resp = service
        .execute(QueryRequest::planned_cross(8).with_constraint(con))
        .unwrap();
    assert_eq!(resp.status, QueryStatus::Completed);
    // The ~27% window keeps the effective work product (≈550² > 250k)
    // above the tiny bar: STD like every sequential plan past it, echoed
    // back on the request, with the shape named in the profile.
    assert_eq!(resp.request.algorithm, Algorithm::SortedDistances);
    let profile = resp.profile.as_ref().expect("obs on → profile attached");
    assert!(profile.planned);
    assert_eq!(profile.plan_reason, "constrained");

    let oracle = k_closest_pairs_brute_constrained(&p, &q, 8, &con);
    assert_eq!(resp.pairs.len(), oracle.len());
    for (g, o) in resp.pairs.iter().zip(&oracle) {
        assert_eq!((g.p.oid, g.q.oid), (o.p.oid, o.q.oid));
        assert_eq!(g.dist2.get().to_bits(), o.dist2.get().to_bits());
    }

    // A planned self-join with the same (symmetric) window.
    let resp = service
        .execute(QueryRequest::planned_self(5).with_constraint(con))
        .unwrap();
    assert_eq!(resp.status, QueryStatus::Completed);
    let oracle = self_k_closest_pairs_brute_constrained(&p, 5, &con);
    assert_eq!(resp.pairs.len(), oracle.len());
    for (g, o) in resp.pairs.iter().zip(&oracle) {
        assert_eq!((g.p.oid, g.q.oid), (o.p.oid, o.q.oid));
    }
    service.shutdown();
}

/// Every shape the planner used to send to HEAP now echoes STD, and the
/// answer is the one HEAP gives when named on the request, bit for bit.
#[test]
fn planned_requests_echo_std_and_answer_as_heap_does() {
    // Two colors, so that the colored filter has pairs to admit.
    let colored = |seed: u64| -> Vec<(Point2, u64)> {
        let pts = uniform(2_000, seed).points;
        (0u64..)
            .zip(pts)
            .map(|(i, p)| (p, pack_color(i, (i % 2) as u16)))
            .collect()
    };
    let service: CpqService<2> = CpqService::start(
        TreePair::new(build_tree(&colored(76)), build_tree(&colored(77))),
        ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        },
    );
    let window = Constraint::window(Rect2::from_corners([100.0, 150.0], [800.0, 900.0]));
    let shapes = [
        ("cross", QueryRequest::planned_cross(7)),
        ("self", QueryRequest::planned_self(7)),
        (
            "windowed",
            QueryRequest::planned_cross(7).with_constraint(window),
        ),
        (
            "colored",
            QueryRequest::planned_cross(7).with_constraint(Constraint::colored()),
        ),
        (
            "windowed colored self",
            QueryRequest::planned_self(7).with_constraint(window.with_colored()),
        ),
    ];
    for (shape, planned) in shapes {
        let got = service.execute(planned).unwrap();
        assert_eq!(got.status, QueryStatus::Completed, "{shape}");
        assert_eq!(got.request.algorithm, Algorithm::SortedDistances, "{shape}");
        let named = QueryRequest {
            planned: false,
            algorithm: Algorithm::Heap,
            ..planned
        };
        let want = service.execute(named).unwrap();
        assert_eq!(want.request.algorithm, Algorithm::Heap, "{shape}");
        assert_eq!(got.pairs.len(), 7, "{shape}");
        let key = |r: &QueryResponse<2>| -> Vec<(u64, u64, u64)> {
            r.pairs
                .iter()
                .map(|x| (x.p.oid, x.q.oid, x.dist2.get().to_bits()))
                .collect()
        };
        assert_eq!(key(&got), key(&want), "{shape}");
    }
    service.shutdown();
}

/// A planned request on a static service costs its pools what the same
/// request costs with the algorithm named: the planner reads no page (it
/// used to read both root pages per request, billed as query traffic).
#[test]
fn planning_reads_no_page_of_a_static_source() {
    let p = uniform(2_000, 78).indexed();
    let q = uniform(2_000, 79).indexed();
    let service: CpqService<2> = CpqService::start(
        TreePair::new(build_tree(&p), build_tree(&q)),
        ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        },
    );
    let logical_reads = || {
        let trees = service.trees().unwrap();
        [&trees.p, &trees.q].map(|t| t.pool().buffer_stats().logical_reads)
    };
    let since = |before: [u64; 2]| {
        let now = logical_reads();
        [now[0] - before[0], now[1] - before[1]]
    };
    for planned in [
        QueryRequest::planned_cross(5),
        QueryRequest::planned_self(5),
    ] {
        let before = logical_reads();
        let resp = service.execute(planned).unwrap();
        let by_planned = since(before);
        let before = logical_reads();
        let named = QueryRequest {
            planned: false,
            ..resp.request
        };
        service.execute(named).unwrap();
        assert_eq!(by_planned, since(before), "{:?}", planned.kind);
    }
    service.shutdown();
}

/// Hand-knobbed (unplanned) constrained requests work too, and leave the
/// plan fields untouched.
#[test]
fn unplanned_constrained_request_keeps_knobs() {
    let p = uniform(300, 73).indexed();
    let q = uniform(300, 74).indexed();
    let service: CpqService<2> = CpqService::start(
        TreePair::new(build_tree(&p), build_tree(&q)),
        ServiceConfig {
            workers: 1,
            obs: ObsConfig::default(),
            ..ServiceConfig::default()
        },
    );
    let con = Constraint::colored();
    let resp = service
        .execute(QueryRequest::cross(4, Algorithm::Simple).with_constraint(con))
        .unwrap();
    assert_eq!(resp.status, QueryStatus::Completed);
    assert_eq!(resp.request.algorithm, Algorithm::Simple, "knobs untouched");
    let profile = resp.profile.as_ref().unwrap();
    assert!(!profile.planned);
    assert_eq!(profile.plan_reason, "");
    // Single-colored (color 0 everywhere) data: a colored query is empty.
    let oracle = k_closest_pairs_brute_constrained(&p, &q, 4, &con);
    assert_eq!(resp.pairs.len(), oracle.len());
    service.shutdown();
}

/// An asymmetric per-side window on a self-join is a contract violation:
/// the service fails the query cleanly instead of panicking a worker.
#[test]
fn asymmetric_self_join_constraint_fails_cleanly() {
    let p = uniform(100, 75).indexed();
    let service: CpqService<2> = CpqService::start(
        TreePair::new(build_tree(&p), build_tree(&p)),
        ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        },
    );
    let lopsided = Constraint::windows(Some(Rect2::from_corners([0.0, 0.0], [500.0, 500.0])), None);
    let resp = service
        .execute(QueryRequest::self_join(3, Algorithm::Heap).with_constraint(lopsided))
        .unwrap();
    match &resp.status {
        QueryStatus::Failed(msg) => assert!(
            msg.contains("symmetric"),
            "error names the violated contract: {msg}"
        ),
        other => panic!("expected Failed, got {other:?}"),
    }
    // The worker survives: the next query still completes.
    let resp = service
        .execute(QueryRequest::self_join(3, Algorithm::Heap))
        .unwrap();
    assert_eq!(resp.status, QueryStatus::Completed);
    service.shutdown();
}
