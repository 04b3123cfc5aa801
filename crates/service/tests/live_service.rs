//! The live serving path: a [`CpqService`] started over a mutable
//! [`LiveSet`] answers queries from pinned epoch snapshots while
//! `apply_updates` batches land, and `/metrics` carries the bridged
//! `cpq_wal_*` / `cpq_live_*` series.

use cpq_core::{k_closest_pairs, Algorithm, CpqConfig, PairResult};
use cpq_datasets::uniform_grid;
use cpq_live::{LiveConfig, LiveSet, LiveTree, Side, UpdateOp};
use cpq_rtree::RTreeParams;
use cpq_service::{CpqService, QueryRequest, QueryStatus, ServiceConfig, Source};

fn keys(pairs: &[PairResult<2>]) -> Vec<(u64, u64, u64)> {
    pairs
        .iter()
        .map(|r| (r.dist2.get().to_bits(), r.p.oid, r.q.oid))
        .collect()
}

fn live_set(n: usize) -> LiveSet<2> {
    let data = uniform_grid(n, 0x5EED, 100.0);
    let tree = || LiveTree::create(None, RTreeParams::paper(), &LiveConfig::default(), |f| f);
    let set: LiveSet<2> = LiveSet::from_trees(tree().expect("p"), tree().expect("q"));
    // Q is P shifted off the 100-unit grid lattice, so no cross pair sits
    // at distance 0 — a planted coincident pair is unambiguously first.
    let ops: Vec<UpdateOp<2>> = data
        .points
        .iter()
        .enumerate()
        .flat_map(|(i, p)| {
            [
                UpdateOp::Insert {
                    side: Side::P,
                    object: *p,
                    oid: i as u64,
                },
                UpdateOp::Insert {
                    side: Side::Q,
                    object: cpq_geo::Point2::new([p.coord(0) + 37.0, p.coord(1)]),
                    oid: 1_000_000 + i as u64,
                },
            ]
        })
        .collect();
    set.apply(&ops).expect("seed");
    set
}

/// Queries through a live service return exactly what the engine returns
/// on the same committed state, and `apply_updates` routed through the
/// service changes subsequent answers.
#[test]
fn live_service_serves_snapshots_and_routes_updates() {
    let service = CpqService::<2>::start(
        Source::Live(live_set(80)),
        ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        },
    );

    let want = {
        let live = service.live().expect("live service");
        let sp = live.p().snapshot().expect("snap p");
        let sq = live.q().snapshot().expect("snap q");
        k_closest_pairs(
            sp.tree(),
            sq.tree(),
            5,
            Algorithm::Heap,
            &CpqConfig::paper(),
        )
        .expect("engine")
    };
    let resp = service
        .execute(QueryRequest::cross(5, Algorithm::Heap))
        .expect("admitted");
    assert_eq!(resp.status, QueryStatus::Completed);
    assert_eq!(keys(&resp.pairs), keys(&want.pairs));

    let before = keys(&resp.pairs);
    // Plant a pair far closer than anything on the grid; the next query
    // must see it in front.
    let report = service
        .apply_updates(&[
            UpdateOp::Insert {
                side: Side::P,
                object: cpq_geo::Point2::new([501.5, 499.5]),
                oid: 7_000_000,
            },
            UpdateOp::Insert {
                side: Side::Q,
                object: cpq_geo::Point2::new([501.5, 499.5]),
                oid: 7_000_001,
            },
        ])
        .expect("apply");
    assert_eq!(report.applied, 2);
    let resp = service
        .execute(QueryRequest::cross(5, Algorithm::Heap))
        .expect("admitted");
    assert_eq!(resp.status, QueryStatus::Completed);
    assert_ne!(keys(&resp.pairs), before, "update invisible to queries");
    assert_eq!(
        (resp.pairs[0].p.oid, resp.pairs[0].q.oid),
        (7_000_000, 7_000_001),
        "coincident planted pair must rank first"
    );

    // Self-join runs on P's snapshot.
    let resp = service
        .execute(QueryRequest::self_join(3, Algorithm::Heap))
        .expect("admitted");
    assert_eq!(resp.status, QueryStatus::Completed);
    assert_eq!(resp.pairs.len(), 3);

    // A live service has no static pair; a static service rejects
    // apply_updates.
    assert!(service.trees().is_none());
    service.shutdown();
}

/// The bridged live series show up in the exposition with the values the
/// live trees report, and the apply counters track batches/ops.
#[test]
fn live_metrics_bridge_matches_live_stats() {
    let service = CpqService::<2>::start(
        Source::Live(live_set(60)),
        ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        },
    );
    service
        .apply_updates(&[UpdateOp::Delete {
            side: Side::P,
            object: cpq_geo::Point2::new([-1.0, -1.0]),
            oid: 424242, // guaranteed miss
        }])
        .expect("apply");
    let _ = service
        .execute(QueryRequest::cross(4, Algorithm::Heap))
        .expect("admitted");

    let body = service.render_metrics();
    let (lp, _) = service.live().expect("live").stats();
    assert!(body.contains(&format!(
        "cpq_live_updates_total{{tree=\"p\",op=\"insert\"}} {}",
        lp.inserts
    )));
    assert!(body.contains(&format!(
        "cpq_live_updates_total{{tree=\"p\",op=\"delete-miss\"}} {}",
        lp.delete_misses
    )));
    assert!(body.contains(&format!(
        "cpq_live_pages_total{{tree=\"p\",event=\"retired\"}} {}",
        lp.epoch.pages_retired
    )));
    assert!(body.contains("cpq_live_epoch{tree=\"p\"}"));
    // Only the delete batch went through the service entry point (the
    // seed batch hit the LiveSet directly).
    assert!(body.contains("cpq_live_apply_batches_total 1"));
    assert!(body.contains("cpq_live_apply_ops_total 1"));
    // Memory-only trees have no WAL, but the families are pre-registered
    // (zeros) so scrapers keyed on them never 404.
    assert!(body.contains("cpq_wal_records_total{tree=\"p\"} 0"));
    assert!(body.contains("cpq_wal_flushes_total{tree=\"q\"} 0"));
    // Idle service: no reader is pinning between queries.
    assert!(body.contains("cpq_live_active_pins{tree=\"p\"} 0"));
    service.shutdown();
}

/// A durable live service: WAL counters flow through the bridge.
#[test]
fn durable_live_service_reports_wal_series() {
    let mut dir = std::env::temp_dir();
    dir.push(format!(
        "cpq-live-svc-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let set: LiveSet<2> =
        LiveSet::create(&dir, RTreeParams::paper(), &LiveConfig::default()).expect("create");
    let service = CpqService::<2>::start(
        Source::Live(set),
        ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        },
    );
    let ops: Vec<UpdateOp<2>> = (0..10)
        .map(|i| UpdateOp::Insert {
            side: Side::P,
            object: cpq_geo::Point2::new([i as f64, 0.0]),
            oid: i,
        })
        .collect();
    service.apply_updates(&ops).expect("apply");
    let body = service.render_metrics();
    let (lp, _) = service.live().expect("live").stats();
    let wal = lp.wal.expect("durable tree has WAL stats");
    assert!(wal.records > 0);
    assert!(body.contains(&format!(
        "cpq_wal_records_total{{tree=\"p\"}} {}",
        wal.records
    )));
    assert!(body.contains(&format!(
        "cpq_wal_commits_total{{tree=\"p\"}} {}",
        wal.commits
    )));
    service.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
