//! Workspace-level integration tests: the full pipeline from dataset
//! generation through paged R*-trees, buffer management, and every query
//! algorithm, exercised through the `cpq` facade exactly as a downstream
//! user would. (Oracle parity across every source kind is
//! `tests/differential.rs`.)

use cpq::core::{brute, distance_join, k_closest_pairs, k_closest_pairs_incremental};
use cpq::core::{self_closest_pairs, semi_closest_pairs, Algorithm, CpqConfig, IncrementalConfig};
use cpq::datasets::{california_surrogate, clustered, uniform, ClusterSpec, Dataset};
use cpq::rtree::{RTree, RTreeParams};
use cpq::storage::{BufferPool, DiskPageFile, MemPageFile, DEFAULT_PAGE_SIZE};

fn build(ds: &Dataset) -> RTree<2> {
    let pool = BufferPool::with_lru(Box::new(MemPageFile::new(DEFAULT_PAGE_SIZE)), 256);
    let mut tree = RTree::new(pool, RTreeParams::paper()).unwrap();
    for (i, &p) in ds.points.iter().enumerate() {
        tree.insert(p, i as u64).unwrap();
    }
    tree
}

#[test]
fn full_pipeline_clustered_vs_uniform() {
    let p = clustered(1_500, ClusterSpec::default(), 1);
    let q = uniform(1_200, 2).with_overlap(&p, 0.5);
    let tp = build(&p);
    let tq = build(&q);
    tp.assert_valid();
    tq.assert_valid();

    let expected = brute::k_closest_pairs_brute(&p.indexed(), &q.indexed(), 20);
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
    let expected = brute::k_closest_pairs_brute(&p.indexed(), &q.indexed(), 5);

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
    let expected = brute::semi_closest_pairs_brute(&p.indexed(), &q.indexed());
    assert_eq!(semi.pairs.len(), expected.len());
    for (g, e) in semi.pairs.iter().zip(&expected) {
        assert!((g.dist2.get() - e.dist2.get()).abs() < 1e-9);
    }

    let selfk = self_closest_pairs(&tp, 10, Algorithm::Heap, &CpqConfig::paper()).unwrap();
    let expected = brute::self_k_closest_pairs_brute(&p.indexed(), 10);
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

/// One seeded P/Q round through a service over each source kind (static
/// trees, sharded replicas, a live set), with the hostile rows of the
/// library boundary beside it: a non-finite coordinate or window is an
/// error at whichever door it knocks on — never a wrong answer, never a
/// panic — and every source answers the same afterwards.
#[test]
fn one_seeded_round_through_every_source_kind() {
    use cpq::core::Constraint;
    use cpq::geo::{Point2, Rect2};
    use cpq::live::{LiveConfig, LiveSet, Side, UpdateOp};
    use cpq::service::{CpqService, QueryRequest, QueryStatus, ServiceConfig, Source, TreePair};
    use cpq::shard::{ShardedPair, ShardedTree};

    let pool = || BufferPool::with_lru(Box::new(MemPageFile::new(DEFAULT_PAGE_SIZE)), 64);
    let (params, fill) = (RTreeParams::paper(), 0.7);
    let ps = uniform(300, 0xE2E).indexed();
    let qs: Vec<(Point2, u64)> = uniform(300, 0xE2F)
        .indexed()
        .into_iter()
        .map(|(p, oid)| (p, 1_000 + oid))
        .collect();
    let bulk = |objects: &[(Point2, u64)]| RTree::bulk_load(pool(), params, objects, fill);
    let shards = |name: &str, objects: &[(Point2, u64)]| {
        ShardedTree::build(name, objects, 3, params, Some(fill), |_| pool())
    };
    let inserts = |side: Side, objects: &[(Point2, u64)]| -> Vec<UpdateOp<2>> {
        let op = |&(object, oid): &(Point2, u64)| UpdateOp::Insert { side, object, oid };
        objects.iter().map(op).collect()
    };
    let live: LiveSet<2> = LiveSet::new_in_memory(params, &LiveConfig::default()).unwrap();
    live.apply(&inserts(Side::P, &ps)).unwrap();
    live.apply(&inserts(Side::Q, &qs)).unwrap();

    // Hostile rows, building: each door refuses the point `insert` refuses.
    for bad in [f64::NAN, f64::INFINITY] {
        let mut poisoned = ps.clone();
        poisoned.push((Point2::new([bad, 1.0]), 999));
        assert!(
            bulk(&poisoned).is_err(),
            "bulk_load took a {bad} coordinate"
        );
        assert!(
            shards("p", &poisoned).is_err(),
            "a shard took a {bad} coordinate"
        );
        assert!(live.apply(&inserts(Side::P, &poisoned[300..])).is_err());
    }
    assert!(RTree::bulk_load(pool(), params, &ps, f64::NAN).is_err());

    let trees = || TreePair::new(bulk(&ps).unwrap(), bulk(&qs).unwrap());
    let sharded = ShardedPair {
        p: shards("p", &ps).unwrap(),
        q: shards("q", &qs).unwrap(),
    };
    let want = brute::k_closest_pairs_brute(&ps, &qs, 5);
    let request = QueryRequest::cross(5, Algorithm::Heap).with_scatter(2);
    // Hostile rows, querying: `Rect2::point` because `Rect::new` asserts
    // corner order in debug builds, which a NaN fails.
    let hostile_windows = [
        Rect2::point(Point2::new([f64::NAN, 0.0])),
        Rect2::from_corners([0.0, 0.0], [f64::INFINITY, 10.0]),
    ];
    let sources: [(&str, Source<2>); 3] = [
        ("static", trees().into()),
        ("sharded", Source::Sharded(trees(), sharded)),
        ("live", Source::Live(live)),
    ];
    for (name, source) in sources {
        let service = CpqService::start(source, ServiceConfig::default());
        for window in hostile_windows {
            let hostile = QueryRequest {
                constraint: Constraint::window(window),
                ..request
            };
            let status = service.execute(hostile).unwrap().status;
            assert!(
                matches!(status, QueryStatus::Failed(_)),
                "{name}: {window:?} answered {status:?}"
            );
        }
        let response = service.execute(request).unwrap();
        assert!(matches!(response.status, QueryStatus::Completed), "{name}");
        let key = |r: &cpq::core::PairResult<2>| r.sort_key();
        assert_eq!(
            response.pairs.iter().map(key).collect::<Vec<_>>(),
            want.iter().map(key).collect::<Vec<_>>(),
            "{name} service against the oracle"
        );
        service.shutdown();
    }
}
