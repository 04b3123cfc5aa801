//! Shard-aware request path of [`CpqService`]: a service started with
//! sharded replicas clamps a `scatter` request's fan-out to `max_shards`
//! and surfaces the `shard_*` counters in profiles and `/metrics`. (That
//! scatter and classic answers are the same pairs is the workspace's
//! differential harness's to hold, `tests/differential.rs`.)

use cpq_core::Algorithm;
use cpq_datasets::uniform;
use cpq_geo::Point2;
use cpq_obs::lint_exposition;
use cpq_rtree::{RTree, RTreeParams};
use cpq_service::{
    CpqService, ObsConfig, QueryRequest, QueryStatus, ServiceConfig, ShardedPair, ShardedTree,
    Source, TreePair,
};
use cpq_storage::{BufferPool, MemPageFile};
use std::time::Duration;

fn pool() -> BufferPool {
    BufferPool::with_lru(Box::new(MemPageFile::new(1024)), 64)
}

fn build_tree(objects: &[(Point2, u64)]) -> RTree<2> {
    let mut tree = RTree::new(pool(), RTreeParams::paper()).unwrap();
    for &(p, oid) in objects {
        tree.insert(p, oid).unwrap();
    }
    tree
}

fn build_sharded(name: &str, objects: &[(Point2, u64)], shards: usize) -> ShardedTree<2> {
    ShardedTree::build(name, objects, shards, RTreeParams::paper(), None, |_| {
        pool()
    })
    .unwrap()
}

fn start_sharded(max_shards: usize, obs: ObsConfig) -> CpqService<2> {
    let p = uniform(400, 42).indexed();
    let q = uniform(350, 1337).indexed();
    CpqService::start(
        Source::Sharded(
            TreePair::new(build_tree(&p), build_tree(&q)),
            ShardedPair {
                p: build_sharded("p", &p, 4),
                q: build_sharded("q", &q, 4),
            },
        ),
        ServiceConfig {
            workers: 2,
            max_shards,
            obs,
            ..ServiceConfig::default()
        },
    )
}

#[test]
fn scatter_fan_out_is_clamped_and_profiled() {
    let service = start_sharded(
        2,
        ObsConfig {
            enabled: true,
            slow_query_threshold: Some(Duration::ZERO),
            slow_log_capacity: 16,
        },
    );
    // A fan-out far above max_shards is admitted and clamped, not rejected.
    let resp = service
        .execute(QueryRequest::cross(10, Algorithm::Heap).with_scatter(1000))
        .unwrap();
    assert_eq!(resp.status, QueryStatus::Completed);
    let profile = resp.profile.as_deref().expect("profile attached");
    assert_eq!(
        profile.shard_pairs_generated, 16,
        "4x4 shard grid planned: {profile:?}"
    );
    assert_eq!(
        profile.shard_pairs_opened + profile.shard_pairs_pruned,
        profile.shard_pairs_generated,
        "every shard pair accounted"
    );
    assert!(profile.shard_subqueries_completed > 0);

    // A classic query on the same service carries zeroed shard counters.
    let resp = service
        .execute(QueryRequest::cross(10, Algorithm::Heap))
        .unwrap();
    let profile = resp.profile.as_deref().expect("profile attached");
    assert_eq!(profile.shard_pairs_generated, 0);

    let text = service.render_metrics();
    assert_eq!(lint_exposition(&text), Ok(()));
    assert!(text.contains("cpq_shard_queries_total 1"));
    assert!(text.contains("cpq_shard_pairs_total{result=\"generated\"} 16"));
    service.shutdown();
}
