//! What scatter-gather owes beyond parity (which the workspace's
//! differential harness, `tests/differential.rs`, holds at S ∈ {1..4} with
//! the wire codec armed): degenerate inputs complete with empty reports, a
//! cancelled run says so, the shared bound prunes far shard pairs
//! unopened, and a window skips every shard its clipped MBR misses.

use cpq_core::{Algorithm, CancelToken, Constraint, CpqConfig, QuerySpec};
use cpq_datasets::{clustered, uniform, ClusterSpec};
use cpq_geo::{Point2, Rect};
use cpq_rtree::RTreeParams;
use cpq_shard::{execute_sharded, ShardConfig, ShardedTree};
use cpq_storage::{BufferPool, MemPageFile};

fn build_sharded(name: &str, objects: &[(Point2, u64)], shards: usize) -> ShardedTree<2> {
    ShardedTree::build(name, objects, shards, RTreeParams::paper(), None, |_| {
        BufferPool::with_lru(Box::new(MemPageFile::new(1024)), 0)
    })
    .unwrap()
}

#[test]
fn degenerate_inputs_return_empty_complete_runs() {
    let p = uniform(50, 22).indexed();
    let sp = build_sharded("p", &p, 2);
    let empty = build_sharded("empty", &[], 2);
    let cfg = CpqConfig::paper();
    let shard_cfg = ShardConfig::default();

    let run = execute_sharded(
        &sp,
        &empty,
        &QuerySpec::cross(5),
        Algorithm::Heap,
        &cfg,
        &shard_cfg,
        None,
    )
    .unwrap();
    assert!(run.completed && run.outcome.pairs.is_empty());
    assert_eq!(run.report, Default::default());

    let run = execute_sharded(
        &sp,
        &sp,
        &QuerySpec::self_join(0),
        Algorithm::Heap,
        &cfg,
        &shard_cfg,
        None,
    )
    .unwrap();
    assert!(run.completed && run.outcome.pairs.is_empty());
}

#[test]
fn cancelled_runs_report_incomplete() {
    let p = uniform(400, 23).indexed();
    let q = uniform(400, 24).indexed();
    let cancel = CancelToken::new();
    cancel.cancel();
    let run = execute_sharded(
        &build_sharded("p", &p, 4),
        &build_sharded("q", &q, 4),
        &QuerySpec::cross(50),
        Algorithm::Heap,
        &CpqConfig::paper(),
        &ShardConfig::default(),
        Some(&cancel),
    )
    .unwrap();
    assert!(!run.completed, "pre-cancelled run must report incomplete");
}

#[test]
fn separated_clusters_prune_most_shard_pairs() {
    // Two tight, well-separated blobs per dataset: the closest pair lives
    // inside one shard pair, and the planner's MINMINDIST ordering lets
    // the bound from that pair prune the far combinations unopened.
    let tight = ClusterSpec {
        clusters: 4,
        spread: 0.005,
        noise: 0.0,
        ..ClusterSpec::default()
    };
    let p: Vec<(Point2, u64)> = clustered(600, tight, 25).indexed();
    let q: Vec<(Point2, u64)> = clustered(600, tight, 25).indexed();
    let run = execute_sharded(
        &build_sharded("p", &p, 8),
        &build_sharded("q", &q, 8),
        &QuerySpec::cross(1),
        Algorithm::Heap,
        &CpqConfig::paper(),
        &ShardConfig {
            workers: 1,
            ..ShardConfig::default()
        },
        None,
    )
    .unwrap();
    assert!(run.completed);
    assert!(
        run.report.pairs_pruned > 0,
        "expected pruned shard pairs, report: {:?}",
        run.report
    );
    assert!(run.report.bound_updates > 0, "bound must propagate");
}

#[test]
fn a_window_inside_one_shard_plans_only_that_shards_pairs() {
    // The planner clips each shard MBR to its side's window and skips the
    // shards it empties: a window strictly inside P shard 0's MBR leaves
    // only the pairs of that shard, one per Q shard.
    let sp = build_sharded("p", &uniform(800, 26).indexed(), 4);
    let sq = build_sharded("q", &uniform(800, 27).indexed(), 4);
    assert_eq!((sp.mbrs().len(), sq.mbrs().len()), (4, 4));
    let m = sp.mbrs()[0];
    let (mut lo, mut hi) = (*m.lo().coords(), *m.hi().coords());
    for d in 0..2 {
        let margin = 0.1 * m.extent(d);
        lo[d] += margin;
        hi[d] -= margin;
    }
    let window = Rect::from_corners(lo, hi);
    let spec = QuerySpec::cross(10).with_constraint(Constraint::windows(Some(window), None));
    let run = execute_sharded(
        &sp,
        &sq,
        &spec,
        Algorithm::Heap,
        &CpqConfig::paper(),
        &ShardConfig::default(),
        None,
    )
    .unwrap();
    assert!(run.completed);
    assert_eq!(run.report.pairs_generated, sq.mbrs().len() as u64);
}
