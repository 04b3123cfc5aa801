//! Workspace-level integration tests: the full pipeline from dataset
//! generation through paged R*-trees, buffer management, and every query
//! algorithm, exercised through the `cpq` facade exactly as a downstream
//! user would.

use cpq::core::{brute, distance_join, k_closest_pairs, k_closest_pairs_incremental};
use cpq::core::{execute, Constraint, ExecCtx, PairResult, QuerySpec};
use cpq::core::{self_closest_pairs, semi_closest_pairs, Algorithm, CpqConfig, IncrementalConfig};
use cpq::datasets::{california_surrogate, clustered, uniform, uniform_grid, ClusterSpec, Dataset};
use cpq::geo::{pack_color, Point2, Rect2};
use cpq::live::{ContinuousCpq, LiveConfig, LiveSet, Side, UpdateOp};
use cpq::rtree::{RTree, RTreeParams};
use cpq::service::{
    CpqService, ObsConfig, QueryKind, QueryRequest, QueryStatus, ServiceConfig, Source, TreePair,
};
use cpq::shard::{execute_sharded, ShardConfig, ShardedPair, ShardedTree};
use cpq::storage::{BufferPool, DiskPageFile, MemPageFile, DEFAULT_PAGE_SIZE};

fn build(ds: &Dataset) -> RTree<2> {
    let pool = BufferPool::with_lru(Box::new(MemPageFile::new(DEFAULT_PAGE_SIZE)), 256);
    let mut tree = RTree::new(pool, RTreeParams::paper()).unwrap();
    for (i, &p) in ds.points.iter().enumerate() {
        tree.insert(p, i as u64).unwrap();
    }
    tree
}

fn indexed(points: &[Point2]) -> Vec<(Point2, u64)> {
    points
        .iter()
        .enumerate()
        .map(|(i, &p)| (p, i as u64))
        .collect()
}

#[test]
fn full_pipeline_clustered_vs_uniform() {
    let p = clustered(1_500, ClusterSpec::default(), 1);
    let q = uniform(1_200, 2).with_overlap(&p, 0.5);
    let tp = build(&p);
    let tq = build(&q);
    tp.assert_valid();
    tq.assert_valid();

    let expected = brute::k_closest_pairs_brute(&indexed(&p.points), &indexed(&q.points), 20);
    for alg in Algorithm::EVALUATED {
        let out = k_closest_pairs(&tp, &tq, 20, alg, &CpqConfig::paper()).unwrap();
        assert_eq!(out.pairs.len(), 20);
        for (g, e) in out.pairs.iter().zip(&expected) {
            assert!(
                (g.dist2.get() - e.dist2.get()).abs() < 1e-9,
                "{}",
                alg.label()
            );
        }
    }
    let out = k_closest_pairs_incremental(&tp, &tq, 20, &IncrementalConfig::default()).unwrap();
    for (g, e) in out.pairs.iter().zip(&expected) {
        assert!((g.dist2.get() - e.dist2.get()).abs() < 1e-9, "incremental");
    }
}

#[test]
fn surrogate_dataset_is_usable_end_to_end() {
    // The full-size Sequoia surrogate builds a valid paper-parameter tree.
    let real = california_surrogate();
    assert_eq!(real.len(), 62_536);
    // Index a slice of it to keep the test quick; validate invariants.
    let subset = Dataset::new("real-subset", real.points[..5_000].to_vec(), real.workspace);
    let tree = build(&subset);
    tree.assert_valid();
    assert_eq!(tree.len(), 5_000);
    assert!(tree.height() >= 3);
}

#[test]
fn disk_backed_end_to_end() {
    let mut path_p = std::env::temp_dir();
    path_p.push(format!("cpq-e2e-p-{}.pages", std::process::id()));
    let mut path_q = std::env::temp_dir();
    path_q.push(format!("cpq-e2e-q-{}.pages", std::process::id()));

    let p = uniform(800, 3);
    let q = uniform(800, 4);
    let expected = brute::k_closest_pairs_brute(&indexed(&p.points), &indexed(&q.points), 5);

    fn build_disk(path: &std::path::Path, ds: &Dataset) -> RTree<2> {
        let file = DiskPageFile::create(path, DEFAULT_PAGE_SIZE).unwrap();
        let pool = BufferPool::with_lru(Box::new(file), 64);
        let mut tree = RTree::new(pool, RTreeParams::paper()).unwrap();
        for (i, &pt) in ds.points.iter().enumerate() {
            tree.insert(pt, i as u64).unwrap();
        }
        tree
    }
    let (desc_p, desc_q);
    {
        let tp = build_disk(&path_p, &p);
        let tq = build_disk(&path_q, &q);
        let out = k_closest_pairs(&tp, &tq, 5, Algorithm::Heap, &CpqConfig::paper()).unwrap();
        for (g, e) in out.pairs.iter().zip(&expected) {
            assert!((g.dist2.get() - e.dist2.get()).abs() < 1e-9);
        }
        desc_p = tp.descriptor();
        desc_q = tq.descriptor();
    }
    // Reopen from disk and query again.
    {
        let tp: RTree<2> = RTree::from_descriptor(
            BufferPool::with_lru(Box::new(DiskPageFile::open(&path_p).unwrap()), 64),
            RTreeParams::paper(),
            desc_p,
        )
        .unwrap();
        let tq: RTree<2> = RTree::from_descriptor(
            BufferPool::with_lru(Box::new(DiskPageFile::open(&path_q).unwrap()), 64),
            RTreeParams::paper(),
            desc_q,
        )
        .unwrap();
        tp.assert_valid();
        let out =
            k_closest_pairs(&tp, &tq, 5, Algorithm::SortedDistances, &CpqConfig::paper()).unwrap();
        for (g, e) in out.pairs.iter().zip(&expected) {
            assert!((g.dist2.get() - e.dist2.get()).abs() < 1e-9);
        }
    }
    std::fs::remove_file(&path_p).ok();
    std::fs::remove_file(&path_q).ok();
}

#[test]
fn buffer_budget_changes_only_cost_not_result() {
    let p = uniform(2_000, 5);
    let q = uniform(2_000, 6).with_overlap(&p, 1.0);
    let tp = build(&p);
    let tq = build(&q);

    let mut reference: Option<Vec<f64>> = None;
    let mut costs = Vec::new();
    for b in [0usize, 4, 16, 64, 256] {
        tp.pool().set_capacity(b / 2);
        tq.pool().set_capacity(b / 2);
        tp.pool().reset_stats();
        tq.pool().reset_stats();
        let out = k_closest_pairs(
            &tp,
            &tq,
            50,
            Algorithm::SortedDistances,
            &CpqConfig::paper(),
        )
        .unwrap();
        let dists: Vec<f64> = out.pairs.iter().map(|r| r.dist2.get()).collect();
        match &reference {
            None => reference = Some(dists),
            Some(r) => assert_eq!(r, &dists, "buffer size must not change results"),
        }
        costs.push(out.stats.disk_accesses());
    }
    assert!(
        costs.last().unwrap() < costs.first().unwrap(),
        "a 256-page buffer must beat zero buffer: {costs:?}"
    );
}

#[test]
fn semi_and_self_through_facade() {
    let p = uniform(400, 7);
    let q = uniform(500, 8);
    let tp = build(&p);
    let tq = build(&q);

    let semi = semi_closest_pairs(&tp, &tq).unwrap();
    let expected = brute::semi_closest_pairs_brute(&indexed(&p.points), &indexed(&q.points));
    assert_eq!(semi.pairs.len(), expected.len());
    for (g, e) in semi.pairs.iter().zip(&expected) {
        assert!((g.dist2.get() - e.dist2.get()).abs() < 1e-9);
    }

    let selfk = self_closest_pairs(&tp, 10, Algorithm::Heap, &CpqConfig::paper()).unwrap();
    let expected = brute::self_k_closest_pairs_brute(&indexed(&p.points), 10);
    for (g, e) in selfk.pairs.iter().zip(&expected) {
        assert!((g.dist2.get() - e.dist2.get()).abs() < 1e-9);
    }
}

#[test]
fn incremental_stream_early_termination() {
    let p = uniform(600, 9);
    let q = uniform(600, 10);
    let tp = build(&p);
    let tq = build(&q);
    let mut join = distance_join(&tp, &tq, IncrementalConfig::default());
    // Take pairs until distance exceeds a radius; verify count against brute.
    let radius2 = 4.0;
    let mut count = 0usize;
    for r in join.by_ref() {
        let pair = r.unwrap();
        if pair.dist2.get() > radius2 {
            break;
        }
        count += 1;
    }
    let brute_count = p
        .points
        .iter()
        .flat_map(|a| q.points.iter().map(move |b| a.dist2(b)))
        .filter(|&d| d <= radius2)
        .count();
    assert_eq!(count, brute_count);
}

#[test]
fn mutating_tree_between_queries_stays_correct() {
    let p = uniform(500, 11);
    let q = uniform(500, 12);
    let mut tp = build(&p);
    let tq = build(&q);

    let cfg = CpqConfig::paper();
    let before = k_closest_pairs(&tp, &tq, 1, Algorithm::Heap, &cfg).unwrap();
    let best = *before.best().unwrap();

    // Delete P's half of the closest pair; the answer must change (>=).
    assert!(tp.delete(best.p.point(), best.p.oid).unwrap());
    tp.assert_valid();
    let after = k_closest_pairs(&tp, &tq, 1, Algorithm::Heap, &cfg).unwrap();
    assert!(after.best().unwrap().dist2 >= best.dist2);

    // Re-insert it; the original distance must be attainable again.
    tp.insert(best.p.point(), best.p.oid).unwrap();
    let restored = k_closest_pairs(&tp, &tq, 1, Algorithm::Heap, &cfg).unwrap();
    assert!((restored.best().unwrap().dist2.get() - best.dist2.get()).abs() < 1e-12);
}

fn build_objects(objects: &[(Point2, u64)]) -> RTree<2> {
    let pool = BufferPool::with_lru(Box::new(MemPageFile::new(DEFAULT_PAGE_SIZE)), 256);
    let mut tree = RTree::new(pool, RTreeParams::paper()).unwrap();
    for &(p, oid) in objects {
        tree.insert(p, oid).unwrap();
    }
    tree
}

fn build_sharded(name: &str, objects: &[(Point2, u64)]) -> ShardedTree<2> {
    ShardedTree::build(name, objects, 3, RTreeParams::paper(), None, |_| {
        BufferPool::with_lru(Box::new(MemPageFile::new(DEFAULT_PAGE_SIZE)), 0)
    })
    .unwrap()
}

fn keys(pairs: &[PairResult<2>]) -> Vec<(u64, u64, u64)> {
    pairs
        .iter()
        .map(|r| (r.dist2.get().to_bits(), r.p.oid, r.q.oid))
        .collect()
}

/// One seeded differential round through every way a query reaches the
/// engine: `execute` on static trees, `execute_sharded` with the wire codec
/// armed, pinned live snapshots (direct and as a continuous-query priming),
/// and `CpqService` over each `Source` variant. Every answer must be
/// bit-identical to the brute-force oracle under the canonical
/// `(dist2, oid, oid)` order; an asymmetric self-join constraint must come
/// back as an error from every one of them, never as a panic; and a `K`
/// far beyond the pairs that exist must cost no more than the pairs do.
#[test]
fn one_seeded_round_through_every_source_kind() {
    // Grid-snapped coordinates tie distances; three colors on the oids.
    let objects = |n: usize, seed: u64| -> Vec<(Point2, u64)> {
        let points = uniform_grid(n, seed, 50.0).points;
        let colored = |(i, p): (usize, &Point2)| (*p, pack_color(i as u64, (i % 3) as u16));
        points.iter().enumerate().map(colored).collect()
    };
    let (ps, qs) = (objects(60, 0xE2E), objects(50, 0xE2F));

    let (tp, tq) = (build_objects(&ps), build_objects(&qs));
    let (sp, sq) = (build_sharded("p", &ps), build_sharded("q", &qs));
    let shard_cfg = ShardConfig {
        workers: 2,
        wire_codec: true,
        ..ShardConfig::default()
    };
    let live: LiveSet<2> =
        LiveSet::new_in_memory(RTreeParams::paper(), &LiveConfig::default()).unwrap();
    let inserts = |side: Side, objects: &[(Point2, u64)]| -> Vec<UpdateOp<2>> {
        let insert = |&(object, oid): &(Point2, u64)| UpdateOp::Insert { side, object, oid };
        objects.iter().map(insert).collect()
    };
    live.apply(&inserts(Side::P, &ps)).unwrap();
    live.apply(&inserts(Side::Q, &qs)).unwrap();
    let service_config = |obs: ObsConfig| ServiceConfig {
        workers: 1,
        max_shards: 2,
        obs,
        ..ServiceConfig::default()
    };
    let services: [CpqService<2>; 3] = [
        CpqService::start(
            TreePair::new(build_objects(&ps), build_objects(&qs)),
            service_config(ObsConfig::default()),
        ),
        CpqService::start(
            Source::Sharded(
                TreePair::new(build_objects(&ps), build_objects(&qs)),
                ShardedPair {
                    p: build_sharded("p", &ps),
                    q: build_sharded("q", &qs),
                },
            ),
            service_config(ObsConfig::disabled()),
        ),
        CpqService::start(Source::Live(live), service_config(ObsConfig::disabled())),
    ];
    let live = services[2].live().unwrap();

    let window = Rect2::from_corners([100.0, 150.0], [800.0, 700.0]);
    let other = Rect2::from_corners([300.0, 0.0], [1000.0, 600.0]);
    let constraints = [
        Constraint::none(),
        Constraint::window(window),
        Constraint::windows(Some(window), Some(other)),
        Constraint::colored(),
    ];
    let all_pairs = ps.len() * qs.len();
    let ks = [0, 1, 10, all_pairs + 1, 1 << 44, usize::MAX];
    let cfg = CpqConfig::paper();
    let mut round = 0;
    for self_join in [false, true] {
        for constraint in constraints {
            for k in ks {
                let spec = QuerySpec {
                    k,
                    self_join,
                    constraint,
                };
                let algorithm = Algorithm::EVALUATED[round % Algorithm::EVALUATED.len()];
                round += 1;
                let what = format!("{} {spec:?}", algorithm.label());
                let valid = !self_join || constraint.is_symmetric();
                let want = match (valid, self_join) {
                    (false, _) => None,
                    (true, false) => Some(keys(&brute::k_closest_pairs_brute_constrained(
                        &ps,
                        &qs,
                        k,
                        &constraint,
                    ))),
                    (true, true) => Some(keys(&brute::self_k_closest_pairs_brute_constrained(
                        &ps,
                        k,
                        &constraint,
                    ))),
                };
                if !self_join && !constraint.is_active() {
                    // A K beyond |P|·|Q| asks for every pair there is.
                    assert_eq!(
                        want.as_ref().map(Vec::len),
                        Some(k.min(all_pairs)),
                        "{what}"
                    );
                }

                let (snap_p, snap_q) = (live.p().snapshot().unwrap(), live.q().snapshot().unwrap());
                let (tq, sq, snap_q) = if self_join {
                    (&tp, &sp, &snap_p)
                } else {
                    (&tq, &sq, &snap_q)
                };
                let check =
                    |source: &str, got: Result<Vec<PairResult<2>>, String>| match (&want, got) {
                        (Some(want), Ok(got)) => {
                            assert_eq!(&keys(&got), want, "{what} via {source}")
                        }
                        (None, Err(e)) => {
                            assert!(e.contains("symmetric"), "{what} via {source}: {e}")
                        }
                        (_, got) => panic!("{what} via {source}: {:?}", got.map(|g| g.len())),
                    };
                check(
                    "static trees",
                    execute(&tp, tq, &spec, algorithm, &cfg, ExecCtx::default())
                        .map(|run| run.outcome.pairs)
                        .map_err(|e| e.to_string()),
                );
                check(
                    "sharded trees",
                    execute_sharded(&sp, sq, &spec, algorithm, &cfg, &shard_cfg, None)
                        .map(|run| run.outcome.pairs)
                        .map_err(|e| e.to_string()),
                );
                let (live_p, live_q) = (snap_p.tree(), snap_q.tree());
                check(
                    "live snapshots",
                    execute(live_p, live_q, &spec, algorithm, &cfg, ExecCtx::default())
                        .map(|run| run.outcome.pairs)
                        .map_err(|e| e.to_string()),
                );
                check(
                    "continuous priming",
                    ContinuousCpq::new(&spec, &snap_p, snap_q)
                        .map(|cont| cont.pairs())
                        .map_err(|e| e.to_string()),
                );

                // Services that hold no shards ignore the scatter fan-out.
                let request = QueryRequest {
                    kind: if self_join {
                        QueryKind::SelfJoin
                    } else {
                        QueryKind::Cross
                    },
                    constraint,
                    ..QueryRequest::cross(k, algorithm).with_scatter(2)
                };
                for (service, source) in services.iter().zip(["static", "sharded", "live"]) {
                    let resp = service.execute(request).unwrap();
                    let got = match resp.status {
                        QueryStatus::Completed => Ok(resp.pairs),
                        QueryStatus::Failed(e) => Err(e),
                        other => panic!("{what} via {source} service: {other:?}"),
                    };
                    check(&format!("{source} service"), got);
                }
            }
        }
    }
    for service in services {
        service.shutdown();
    }
}
