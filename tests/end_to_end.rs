//! Workspace-level integration tests: the full pipeline from dataset
//! generation through paged R*-trees, buffer management, and every query
//! algorithm, exercised through the `cpq` facade exactly as a downstream
//! user would. (Oracle parity across every source kind, hostile input
//! included, is `tests/differential.rs`.)

use cpq::core::{brute, distance_join, k_closest_pairs, k_closest_pairs_incremental};
use cpq::core::{Algorithm, CpqConfig, IncrementalConfig};
use cpq::datasets::{california_surrogate, clustered, uniform, ClusterSpec, Dataset};
use cpq::live::{LiveConfig, LiveError, LiveSet, LiveTree, Side, UpdateOp};
use cpq::rtree::{InnerEntry, LeafEntry, NodeEntries, PageEntry};
use cpq::rtree::{RTree, RTreeError, RTreeParams, NODE_HEADER_LEN};
use cpq::storage::DEFAULT_PAGE_SIZE;
use cpq::storage::{BufferPool, DiskPageFile, FailingPageFile, FailureControl, MemPageFile};

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

/// A stored page is only as long as its node: the header and the entries,
/// with no zero tail (a page may be shorter than the page size, and every
/// byte past its end reads as zero; DESIGN.md §5). Checked on every
/// reachable page of an insertion build with deletes and of a bulk load.
#[test]
fn every_page_stores_only_what_its_node_encodes() {
    let ds = uniform(3_000, 11);
    let mut inserted = build(&ds);
    for (i, &p) in ds.points.iter().enumerate().step_by(5) {
        assert!(inserted.delete(p, i as u64).unwrap());
    }
    let objects: Vec<_> = ds.points.iter().copied().zip(0..).collect();
    let pool = BufferPool::with_lru(Box::new(MemPageFile::new(DEFAULT_PAGE_SIZE)), 64);
    let bulk = RTree::bulk_load(pool, RTreeParams::paper(), &objects, 0.7).unwrap();
    for tree in [&inserted, &bulk] {
        let (mut stack, mut pages) = (vec![tree.root()], 0);
        while let Some(id) = stack.pop() {
            let node = tree.read_node(id).unwrap();
            let entry_size = match node.entries() {
                NodeEntries::Leaf(_) => LeafEntry::<2>::SIZE,
                NodeEntries::Inner(es) => {
                    stack.extend(es.iter().map(|e| e.child));
                    InnerEntry::<2>::SIZE
                }
            };
            let stored = tree.pool().read_page(id).unwrap().len();
            assert_eq!(stored, NODE_HEADER_LEN + node.len() * entry_size, "{id}");
            pages += 1;
        }
        assert!(pages > 100, "{pages} pages");
    }
}

/// A stored page too short for the entries its header counts is a corrupt
/// node, refused by the node check before any entry is read: the check
/// bounds the count by the bytes the page has, not by the page size.
#[test]
fn a_page_shorter_than_its_entry_count_is_a_corrupt_node() {
    let tree = build(&uniform(500, 5));
    let mut leaf = tree.root();
    while let NodeEntries::Inner(es) = tree.read_node(leaf).unwrap().entries() {
        leaf = es.get(0).child;
    }
    let node = tree.read_node(leaf).unwrap();
    let used = NODE_HEADER_LEN + node.len() * LeafEntry::<2>::SIZE;
    let page = tree.pool().read_page(leaf).unwrap().to_vec();
    let corrupt = |r: Result<_, RTreeError>| matches!(r, Err(RTreeError::CorruptNode { page, .. }) if page == leaf);
    for cut in [used - 1, NODE_HEADER_LEN + 1, 2] {
        tree.pool().write_page(leaf, &page[..cut]).unwrap();
        assert!(corrupt(tree.read_node(leaf).map(drop)), "cut at {cut}");
        tree.pool().clear();
        assert!(
            corrupt(tree.read_node(leaf).map(drop)),
            "cut at {cut}, a miss"
        );
    }
    tree.pool().write_page(leaf, &page).unwrap();
    tree.assert_valid();
}

/// A watcher whose maintenance read fails after its update committed is
/// uninstalled, not left holding the wrong pairs; the writer goes on.
#[test]
fn a_failed_watcher_update_uninstalls_the_watcher() {
    let control = FailureControl::new();
    let faulty = |f| Box::new(FailingPageFile::new(f, control.clone())) as _;
    let (params, cfg) = (RTreeParams::paper(), LiveConfig::default());
    let p = LiveTree::create(None, params, &cfg, |f| f).unwrap();
    let set: LiveSet<2> =
        LiveSet::from_trees(p, LiveTree::create(None, params, &cfg, faulty).unwrap());
    let insert = |oid: u64, object| {
        let side = [Side::P, Side::Q][oid as usize % 2];
        UpdateOp::Insert { side, object, oid }
    };
    let data = uniform(60, 0xFA11).points;
    let ops: Vec<_> = (0..60).map(|i| insert(i, data[i as usize])).collect();
    set.apply(&ops).unwrap();
    set.watch(5).unwrap();
    set.q().pool().clear();
    control.fail_read(1); // Q's first read: the watcher's probe
    let e = set.apply(&[insert(998, data[1])]).unwrap_err();
    assert!(matches!(e, LiveError::Unwatched(_)), "{e}");
    assert!(e.to_string().contains("injected read failure"), "{e}");
    assert_eq!(set.p().len(), 31, "the update committed");
    assert!(set.watched_pairs().is_none(), "the watcher is uninstalled");
    set.apply(&[insert(1000, data[3])]).unwrap(); // the writer goes on
}
