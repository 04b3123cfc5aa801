//! Constrained (windowed / colored) scatter-gather against the
//! brute-force oracle.
//!
//! The sharded engine adds two constraint-sensitive steps the unsharded
//! parity suite cannot see: the scatter planner clips *manifest* MBRs
//! against the windows before generating shard pairs (a shard whose
//! region misses the window must be skipped without being opened), and
//! the subquery protocol ships the windows + colored flag over the wire.
//! Both must be invisible: for every shard count S ∈ {1, 4}, algorithm,
//! and constraint shape, the merged pairs must be bit-identical to the
//! O(n²) oracle filtered by the same [`Constraint::admits_pair`].

use cpq_core::brute::{k_closest_pairs_brute_constrained, self_k_closest_pairs_brute_constrained};
use cpq_core::{Algorithm, Constraint, CpqConfig, PairResult, QuerySpec};
use cpq_datasets::{clustered, uniform, ClusterSpec, WORKSPACE_SIDE};
use cpq_geo::{pack_color, Point2, Rect2};
use cpq_rtree::RTreeParams;
use cpq_shard::{execute_sharded, ShardConfig, ShardedTree};
use cpq_storage::{BufferPool, MemPageFile};

const ALL: [Algorithm; 5] = [
    Algorithm::Naive,
    Algorithm::Exhaustive,
    Algorithm::Simple,
    Algorithm::SortedDistances,
    Algorithm::Heap,
];

fn pool() -> BufferPool {
    BufferPool::with_lru(Box::new(MemPageFile::new(1024)), 0)
}

fn build_sharded(name: &str, objects: &[(Point2, u64)], shards: usize) -> ShardedTree<2> {
    ShardedTree::build(name, objects, shards, RTreeParams::paper(), None, |_| {
        pool()
    })
    .unwrap()
}

fn colored(points: &[Point2], colors: u16) -> Vec<(Point2, u64)> {
    points
        .iter()
        .enumerate()
        .map(|(i, &p)| (p, pack_color(i as u64, (i % colors as usize) as u16)))
        .collect()
}

fn assert_same(got: &[PairResult<2>], oracle: &[PairResult<2>], label: &str) {
    assert_eq!(got.len(), oracle.len(), "{label}: result length");
    for (i, (g, o)) in got.iter().zip(oracle).enumerate() {
        assert_eq!(
            (g.p.oid, g.q.oid),
            (o.p.oid, o.q.oid),
            "{label}: pair #{i} objects"
        );
        assert_eq!(
            g.dist2.get().to_bits(),
            o.dist2.get().to_bits(),
            "{label}: pair #{i} distance bits"
        );
    }
}

/// All 5 algorithms × S ∈ {1, 4} against the constrained oracle, with the
/// wire codec on so the constraint crosses the byte protocol.
fn assert_cross(
    p: &[(Point2, u64)],
    q: &[(Point2, u64)],
    k: usize,
    con: Constraint<2>,
    label: &str,
) {
    let cfg = CpqConfig::paper();
    let oracle = k_closest_pairs_brute_constrained(p, q, k, &con);
    for shards in [1usize, 4] {
        let sp = build_sharded("p", p, shards);
        let sq = build_sharded("q", q, shards);
        let shard_cfg = ShardConfig {
            workers: 2,
            wire_codec: true,
            ..ShardConfig::default()
        };
        for alg in ALL {
            let spec = QuerySpec::cross(k).with_constraint(con);
            let run = execute_sharded(&sp, &sq, &spec, alg, &cfg, &shard_cfg, None).unwrap();
            let label = format!("{label} {} S={shards} k={k}", alg.label());
            assert!(run.completed, "{label}: run completed");
            assert_same(&run.outcome.pairs, &oracle, &label);
        }
    }
}

fn assert_self(p: &[(Point2, u64)], k: usize, con: Constraint<2>, label: &str) {
    let cfg = CpqConfig::paper();
    let oracle = self_k_closest_pairs_brute_constrained(p, k, &con);
    for shards in [1usize, 4] {
        let sp = build_sharded("p", p, shards);
        let shard_cfg = ShardConfig {
            workers: 2,
            wire_codec: true,
            ..ShardConfig::default()
        };
        for alg in ALL {
            let spec = QuerySpec::self_join(k).with_constraint(con);
            let run = execute_sharded(&sp, &sp, &spec, alg, &cfg, &shard_cfg, None).unwrap();
            let label = format!("{label} self {} S={shards} k={k}", alg.label());
            assert!(run.completed, "{label}: run completed");
            assert_same(&run.outcome.pairs, &oracle, &label);
        }
    }
}

#[test]
fn windowed_scatter_parity() {
    let p = uniform(400, 31).indexed();
    let q = uniform(350, 32).indexed();
    let s = WORKSPACE_SIDE;
    for w in [
        Rect2::from_corners([0.0, 0.0], [s, s]),
        Rect2::from_corners([100.0, 100.0], [450.0, 500.0]),
        Rect2::from_corners([2.0 * s, 2.0 * s], [3.0 * s, 3.0 * s]),
    ] {
        for k in [1usize, 20] {
            assert_cross(&p, &q, k, Constraint::window(w), "windowed");
            assert_self(&p, k, Constraint::window(w), "windowed");
        }
    }
}

#[test]
fn per_side_windows_scatter_parity() {
    let p = uniform(350, 33).indexed();
    let q = uniform(350, 34).indexed();
    let wp = Rect2::from_corners([0.0, 0.0], [550.0, 1000.0]);
    let wq = Rect2::from_corners([450.0, 0.0], [1000.0, 1000.0]);
    assert_cross(
        &p,
        &q,
        15,
        Constraint::windows(Some(wp), Some(wq)),
        "per-side",
    );
    assert_cross(&p, &q, 15, Constraint::windows(None, Some(wq)), "q-only");
}

#[test]
fn colored_scatter_parity() {
    let p = uniform(350, 35);
    let q = uniform(300, 36);
    let (pc, qc) = (colored(&p.points, 3), colored(&q.points, 3));
    assert_cross(&pc, &qc, 10, Constraint::colored(), "colored");
    assert_self(&pc, 10, Constraint::colored(), "colored");
    let w = Rect2::from_corners([150.0, 150.0], [750.0, 750.0]);
    assert_cross(
        &pc,
        &qc,
        10,
        Constraint::window(w).with_colored(),
        "colored-window",
    );
    assert_self(
        &pc,
        10,
        Constraint::window(w).with_colored(),
        "colored-window",
    );
}

#[test]
fn clustered_window_prunes_whole_shards() {
    // Tight separated blobs + a window over one corner: shards whose
    // manifest regions miss the window must be pruned at plan time, and
    // the survivors must still reproduce the oracle exactly.
    let tight = ClusterSpec {
        clusters: 4,
        spread: 0.01,
        noise: 0.0,
        ..ClusterSpec::default()
    };
    let p = clustered(500, tight, 37).indexed();
    let q = clustered(500, tight, 38).indexed();
    let w = Rect2::from_corners([0.0, 0.0], [500.0, 500.0]);
    for k in [1usize, 50, 5000] {
        assert_cross(&p, &q, k, Constraint::window(w), "clustered-window");
        assert_self(&p, k, Constraint::window(w), "clustered-window");
    }
}
