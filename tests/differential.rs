//! The differential harness: one generated case at a time, down every way a
//! query reaches the engine, against the O(n²) oracle.
//!
//! [`case_from`]`(seed, index)` derives a whole [`Case`] — datasets, tree
//! build, [`QuerySpec`], algorithm, [`CpqConfig`], pool size, update stream —
//! from two integers, and [`check`] sends it down every route:
//!
//! * `execute` on static trees, once per leaf-scan strategy;
//! * `execute_sharded` at S ∈ {1, 2, 3, 4} with the wire codec armed;
//! * a live set fed by a seeded insert/delete stream, its `watch(k)` and a
//!   [`ContinuousCpq`] for the case's spec compared at **every step**, then
//!   `execute` on the pinned snapshots of the final state;
//! * a [`CpqService`] over each [`Source`] variant;
//! * `k_closest_pairs_incremental` (unconstrained cross specs only).
//!
//! Every answer must equal the oracle's `(dist2 bits, p.oid, q.oid)` keys —
//! or, for a self-join with per-side windows, be the "symmetric" error from
//! every route. Three invariants ride on the static route: both leaf scans
//! cost the same disk accesses; on capacity-0 pools the configured
//! parallelism reports the same full [`CpqStats`](cpq::core::CpqStats) as
//! the sequential run; and every shard count agrees with every other
//! (each equals the oracle).
//!
//! A failure prints `case_from(seed, index)` and the case's `Debug`; paste
//! the two integers into [`REPLAY`] and run `cargo test --test differential
//! replay` to get the same case again. DESIGN.md §8 lists the axes and the
//! per-feature suites this file replaced.

use cpq::core::{
    brute, execute, k_closest_pairs_incremental, Algorithm, Constraint, CpqConfig, ExecCtx,
    HeightStrategy, IncTie, IncrementalConfig, KPruning, LeafScan, PairResult, QueryRun, QuerySpec,
    SortAlgorithm, TieStrategy, Traversal,
};
use cpq::datasets::{clustered, uniform, uniform_grid, ClusterSpec};
use cpq::geo::{pack_color, Point2, Rect2};
use cpq::live::{ContinuousCpq, LiveConfig, LiveSet, Side, UpdateOp};
use cpq::rtree::{RTree, RTreeParams};
use cpq::service::{
    CpqService, ObsConfig, QueryKind, QueryRequest, QueryStatus, ServiceConfig, Source, TreePair,
};
use cpq::shard::{execute_sharded, ShardConfig, ShardedPair, ShardedTree};
use cpq::storage::{BufferPool, MemPageFile, DEFAULT_PAGE_SIZE};
use cpq_rng::Rng;

/// The tier-1 matrix: each seed runs [`CASES_PER_SEED`] cases as its own
/// `#[test]`, so the two halves share the machine's cores.
const TIER1_SEEDS: [u64; 2] = [0x5EED_0001, 0x5EED_0002];
/// A multiple of the 50 spec cells (K class × join × constraint class), so
/// every seed visits every cell equally often.
const CASES_PER_SEED: usize = 300;
/// `(seed, index)` of the case the `replay` test runs.
const REPLAY: (u64, usize) = (TIER1_SEEDS[0], 0);

const ALGORITHMS: [Algorithm; 5] = [
    Algorithm::Naive,
    Algorithm::Exhaustive,
    Algorithm::Simple,
    Algorithm::SortedDistances,
    Algorithm::Heap,
];

type Object = (Point2, u64);
/// A result pair as compared: raw distance bits, then the two oids.
type Key = (u64, u64, u64);

#[derive(Debug, Clone, Copy, PartialEq)]
enum Shape {
    Uniform,
    Clustered,
    /// Coordinates snapped to a `cell`-spaced grid: exact distance ties.
    GridTies {
        cell: f64,
    },
    /// Many copies of a few sites shared by both sides: zero distances and
    /// ties everywhere.
    Duplicates {
        sites: usize,
    },
    SinglePoint,
    /// `Q` translated to touch `P`'s workspace without overlapping it.
    Disjoint,
    /// A one-leaf tree against a tree at least two levels taller.
    Heights,
    /// `Q` holds nothing.
    EmptySide,
}

/// Everything one differential check needs, derived from `(seed, index)`.
#[derive(Debug, Clone)]
struct Case {
    seed: u64,
    index: usize,
    shape: Shape,
    n_p: usize,
    n_q: usize,
    /// Colors dealt round-robin into the oids' color channel.
    colors: u16,
    /// Hand the generated `Q` to the query as `P` and vice versa.
    swap_sides: bool,
    /// Node capacity `M` of every tree.
    fanout: usize,
    /// `Some(fill)`: trees are bulk-loaded instead of built by insertion.
    bulk_fill: Option<f64>,
    pool_pages: usize,
    spec: QuerySpec<2>,
    algorithm: Algorithm,
    config: CpqConfig,
    shard_workers: usize,
    /// Percentage of each side already in the live set when the watchers
    /// start; the rest arrives through the update stream.
    primed_pct: usize,
    /// Deletes (each followed later by a re-insert) mixed into the stream.
    churn: usize,
}

fn rng_for(seed: u64, index: usize, salt: u64) -> Rng {
    Rng::seed_from_u64(seed ^ (index as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt)
}

fn pick<T: Copy>(rng: &mut Rng, from: &[T]) -> T {
    from[rng.random_range(0..from.len())]
}

/// The case at `index` of `seed`'s sequence. `index % 50` fixes the spec
/// cell; everything else is drawn from the seed.
fn case_from(seed: u64, index: usize) -> Case {
    let mut rng = rng_for(seed, index, 0);
    let shape = match rng.random_range(0..10u32) {
        0 | 1 => Shape::Uniform,
        2 => Shape::Clustered,
        3 | 4 => Shape::GridTies {
            cell: pick(&mut rng, &[200.0, 100.0, 50.0, 25.0]),
        },
        5 | 6 => Shape::Duplicates {
            sites: rng.random_range(3..25usize),
        },
        7 => pick(&mut rng, &[Shape::SinglePoint, Shape::EmptySide]),
        8 => Shape::Disjoint,
        _ => Shape::Heights,
    };
    let (n_p, n_q) = match shape {
        Shape::SinglePoint => (1, pick(&mut rng, &[1, 30])),
        Shape::EmptySide => (rng.random_range(10..40usize), 0),
        Shape::Heights => (rng.random_range(1..5usize), rng.random_range(70..110usize)),
        _ => (rng.random_range(15..80usize), rng.random_range(15..80usize)),
    };
    let mut case = Case {
        seed,
        index,
        shape,
        n_p,
        n_q,
        colors: pick(&mut rng, &[1, 2, 3]),
        swap_sides: rng.random_bool(0.5),
        fanout: match shape {
            Shape::Heights => 4,
            _ => pick(&mut rng, &[4, 5, 6, 8, 12, 21]),
        },
        bulk_fill: rng.random_bool(0.25).then(|| rng.random_range(0.5..1.0f64)),
        pool_pages: pick(&mut rng, &[0, 2, 32]),
        spec: QuerySpec::cross(0),
        algorithm: pick(&mut rng, &ALGORITHMS),
        config: CpqConfig {
            tie: match rng.random_range(0..6usize) {
                5 => TieStrategy::None,
                t => TieStrategy::ALL[t],
            },
            height: pick(
                &mut rng,
                &[HeightStrategy::FixAtLeaves, HeightStrategy::FixAtRoot],
            ),
            k_pruning: pick(&mut rng, &[KPruning::KHeapOnly, KPruning::MaxMaxDist]),
            sort: pick(&mut rng, &SortAlgorithm::ALL),
            leaf_scan: pick(&mut rng, &[LeafScan::BruteForce, LeafScan::PlaneSweep]),
            parallelism: pick(&mut rng, &[0, 1, 2, 4]),
            parallel_yield_seed: None,
        },
        shard_workers: pick(&mut rng, &[1, 2, 4]),
        primed_pct: pick(&mut rng, &[0, 50, 80, 100]),
        churn: rng.random_range(0..10usize),
    };

    let cell = index % 50;
    let (k_class, self_join, constraint_class) = (cell % 5, (cell / 5) % 2 == 1, cell / 10);
    let (ps, qs) = objects(&case);
    let all_pairs = ps.len() * qs.len().max(ps.len());
    case.spec = QuerySpec {
        k: match k_class {
            0 => 0,
            1 => 1,
            2 => rng.random_range(2..40usize),
            3 => all_pairs + rng.random_range(1..50usize),
            _ => 1 << 44,
        },
        self_join,
        constraint: constraint(&mut rng, constraint_class, &ps, &qs),
    };
    case
}

/// A constraint of the given class, placed relative to the data so that
/// windows hit, miss, and graze it.
fn constraint(rng: &mut Rng, class: usize, ps: &[Object], qs: &[Object]) -> Constraint<2> {
    let coords = |axis: usize| ps.iter().chain(qs).map(move |(p, _)| p.coord(axis));
    let lo = [0, 1].map(|axis| coords(axis).fold(0.0, f64::min));
    let hi = [0, 1].map(|axis| coords(axis).fold(1.0, f64::max));
    let side = [hi[0] - lo[0], hi[1] - lo[1]];
    let window = |rng: &mut Rng| match rng.random_range(0..5u32) {
        // Everything, nothing, and three sizes of something.
        0 => Rect2::from_corners([lo[0] - 1.0, lo[1] - 1.0], [hi[0] + 1.0, hi[1] + 1.0]),
        1 => Rect2::from_corners(
            [hi[0] + side[0], hi[1] + side[1]],
            [hi[0] + 2.0 * side[0], hi[1] + 2.0 * side[1]],
        ),
        size => {
            let extent = [0.6, 0.3, 0.1][size as usize - 2];
            let at = [0, 1].map(|a| lo[a] + rng.random_range(0.0..1.0) * side[a] * (1.0 - extent));
            Rect2::from_corners(at, [at[0] + side[0] * extent, at[1] + side[1] * extent])
        }
    };
    // Data points to pin degenerate and edge-aligned windows to.
    let anchor = |rng: &mut Rng| match ps.len() + qs.len() {
        0 => [500.0, 500.0],
        n => {
            let i = rng.random_range(0..n);
            let p = ps.iter().chain(qs).nth(i).expect("i < n").0;
            [p.coord(0), p.coord(1)]
        }
    };
    match class {
        0 => Constraint::none(),
        1 => Constraint::window(window(rng)),
        2 => match rng.random_range(0..3u32) {
            0 => Constraint::windows(Some(window(rng)), Some(window(rng))),
            1 => Constraint::windows(Some(window(rng)), None),
            _ => Constraint::windows(None, Some(window(rng))),
        },
        3 => match rng.random_bool(0.5) {
            true => Constraint::colored(),
            false => Constraint::window(window(rng)).with_colored(),
        },
        _ => {
            let [x, y] = anchor(rng);
            Constraint::window(match rng.random_range(0..4u32) {
                // Zero area, on a data point and just off it.
                0 => Rect2::from_corners([x, y], [x, y]),
                1 => Rect2::from_corners([x + 12.5, y + 12.5], [x + 12.5, y + 12.5]),
                // A zero-width line through a data column.
                2 => Rect2::from_corners([x, lo[1]], [x, hi[1]]),
                // Corners exactly on two data points: both lie on the edge.
                _ => {
                    let [x2, y2] = anchor(rng);
                    Rect2::from_corners([x.min(x2), y.min(y2)], [x.max(x2), y.max(y2)])
                }
            })
        }
    }
}

/// The two object sets of a case, `P` first (after `swap_sides`).
fn objects(case: &Case) -> (Vec<Object>, Vec<Object>) {
    let mut rng = rng_for(case.seed, case.index, 0xDA7A);
    let (seed_p, seed_q) = (rng.next_u64(), rng.next_u64());
    let few_clusters = ClusterSpec {
        clusters: 4,
        ..ClusterSpec::default()
    };
    let (p, q) = match case.shape {
        Shape::Clustered => (
            clustered(case.n_p, few_clusters, seed_p).points,
            uniform(case.n_q, seed_q).points,
        ),
        Shape::GridTies { cell } => (
            uniform_grid(case.n_p, seed_p, cell).points,
            uniform_grid(case.n_q, seed_q, cell).points,
        ),
        Shape::Duplicates { sites } => {
            let lattice = |rng: &mut Rng| rng.random_range(0..20u32) as f64 * 5.0;
            let sites: Vec<Point2> = (0..sites)
                .map(|_| Point2::from([lattice(&mut rng), lattice(&mut rng)]))
                .collect();
            let mut copies =
                |n: usize| -> Vec<Point2> { (0..n).map(|_| pick(&mut rng, &sites)).collect() };
            (copies(case.n_p), copies(case.n_q))
        }
        Shape::Disjoint => {
            let p = uniform(case.n_p, seed_p);
            let q = uniform(case.n_q, seed_q).with_overlap(&p, 0.0);
            (p.points, q.points)
        }
        _ => (
            uniform(case.n_p, seed_p).points,
            uniform(case.n_q, seed_q).points,
        ),
    };
    let colored = |points: Vec<Point2>| -> Vec<Object> {
        let oid = |i: usize| pack_color(i as u64, (i % case.colors as usize) as u16);
        points
            .into_iter()
            .enumerate()
            .map(|(i, p)| (p, oid(i)))
            .collect()
    };
    match case.swap_sides {
        false => (colored(p), colored(q)),
        true => (colored(q), colored(p)),
    }
}

fn keys(pairs: &[PairResult<2>]) -> Vec<Key> {
    pairs
        .iter()
        .map(|r| (r.dist2.get().to_bits(), r.p.oid, r.q.oid))
        .collect()
}

/// The oracle's answer, or `None` where every route must refuse the spec.
fn oracle(ps: &[Object], qs: &[Object], spec: &QuerySpec<2>) -> Option<Vec<Key>> {
    let (k, con) = (spec.k, &spec.constraint);
    match (spec.self_join, con.is_symmetric()) {
        (true, false) => None,
        (true, true) => Some(keys(&brute::self_k_closest_pairs_brute_constrained(
            ps, k, con,
        ))),
        (false, _) => Some(keys(&brute::k_closest_pairs_brute_constrained(
            ps, qs, k, con,
        ))),
    }
}

/// One route's answer against the oracle's.
fn agree(route: &str, want: &Option<Vec<Key>>, got: Result<Vec<PairResult<2>>, String>) {
    match (want, got.map(|pairs| keys(&pairs))) {
        (Some(want), Ok(got)) => {
            if let Some(i) = (0..want.len().max(got.len())).find(|&i| want.get(i) != got.get(i)) {
                panic!(
                    "{route}: {} pairs, oracle has {}; first divergence at #{i}: {:?}, oracle {:?}",
                    got.len(),
                    want.len(),
                    got.get(i),
                    want.get(i)
                );
            }
        }
        (None, Err(e)) => assert!(e.contains("symmetric"), "{route}: {e}"),
        (Some(_), Err(e)) => panic!("{route}: {e}"),
        (None, Ok(got)) => panic!("{route}: answered an invalid spec with {} pairs", got.len()),
    }
}

/// Prints how to get the case back if the check it guards panics — whether
/// in one of the harness's own assertions or anywhere inside the engine.
struct Replay<'a>(&'a Case);

impl Drop for Replay<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            let case = self.0;
            eprintln!(
                "differential case failed: case_from({:#x}, {}) = {case:#?}",
                case.seed, case.index
            );
        }
    }
}

fn params(case: &Case) -> RTreeParams {
    RTreeParams::with_max_entries(case.fanout)
}

fn pool(pages: usize) -> BufferPool {
    BufferPool::with_lru(Box::new(MemPageFile::new(DEFAULT_PAGE_SIZE)), pages)
}

fn tree(case: &Case, objects: &[Object]) -> RTree<2> {
    let pool = pool(case.pool_pages);
    match case.bulk_fill {
        Some(fill) => RTree::bulk_load(pool, params(case), objects, fill).unwrap(),
        None => {
            let mut tree = RTree::new(pool, params(case)).unwrap();
            for &(p, oid) in objects {
                tree.insert(p, oid).unwrap();
            }
            tree
        }
    }
}

fn sharded(case: &Case, name: &str, objects: &[Object], shards: usize) -> ShardedTree<2> {
    ShardedTree::build(name, objects, shards, params(case), case.bulk_fill, |_| {
        pool(case.pool_pages)
    })
    .unwrap()
}

/// The case's updates: what the live set holds before the watchers start,
/// then the operations they see one at a time — the remaining inserts in
/// shuffled order, `case.churn` deletes mixed in, each victim inserted again
/// later. Every object ends up in the set.
fn update_stream(
    case: &Case,
    ps: &[Object],
    qs: &[Object],
) -> (Vec<UpdateOp<2>>, Vec<UpdateOp<2>>) {
    let mut rng = rng_for(case.seed, case.index, 0x57EA);
    let insert = |(side, (object, oid)): (Side, Object)| UpdateOp::Insert { side, object, oid };
    let mut alive: Vec<(Side, Object)> = Vec::new();
    let mut pending: Vec<(Side, Object)> = Vec::new();
    for (side, objects) in [(Side::P, ps), (Side::Q, qs)] {
        let (primed, rest) = objects.split_at(objects.len() * case.primed_pct / 100);
        alive.extend(primed.iter().map(|&o| (side, o)));
        pending.extend(rest.iter().map(|&o| (side, o)));
    }
    let primed = alive.iter().copied().map(insert).collect();
    for i in (1..pending.len()).rev() {
        pending.swap(i, rng.random_range(0..i + 1));
    }
    let mut churn = case.churn;
    let mut stream = Vec::new();
    while churn > 0 || !pending.is_empty() {
        if churn > 0 && !alive.is_empty() && (pending.is_empty() || rng.random_bool(0.4)) {
            churn -= 1;
            let victim = alive.swap_remove(rng.random_range(0..alive.len()));
            let (side, (object, oid)) = victim;
            stream.push(UpdateOp::Delete { side, object, oid });
            pending.insert(rng.random_range(0..pending.len() + 1), victim);
        } else if let Some(arrival) = pending.pop() {
            stream.push(insert(arrival));
            alive.push(arrival);
        } else {
            break; // nothing alive to delete, nothing left to insert
        }
    }
    (primed, stream)
}

/// Sends `case` down every route; panics (after printing the replay line)
/// on the first answer that differs from the oracle's.
fn check(case: &Case) {
    let _replay = Replay(case);
    let (ps, qs) = objects(case);
    let (spec, algorithm, cfg) = (case.spec, case.algorithm, case.config);
    let want = oracle(&ps, &qs, &spec);
    let pairs_and_stats = |run: QueryRun<2>| {
        assert!(run.completed, "an uncancelled run reported incomplete");
        (run.outcome.pairs, run.outcome.stats)
    };
    let pairs_of = |run: QueryRun<2>| pairs_and_stats(run).0;

    let service_config = |obs: ObsConfig| ServiceConfig {
        workers: 1,
        cpq: cfg,
        max_parallelism: 4,
        max_shards: 4,
        obs,
        ..ServiceConfig::default()
    };
    let static_service: CpqService<2> = CpqService::start(
        TreePair::new(tree(case, &ps), tree(case, &qs)),
        service_config(ObsConfig::default()),
    );
    let trees = static_service.trees().expect("static source");
    let (tp, tq) = (&trees.p, if spec.self_join { &trees.p } else { &trees.q });
    if case.shape == Shape::Heights {
        assert!(trees.p.height().abs_diff(trees.q.height()) >= 2);
    }

    // Static trees, once per leaf scan: same pairs, same disk accesses.
    let mut accesses = Vec::new();
    for leaf_scan in [LeafScan::BruteForce, LeafScan::PlaneSweep] {
        let cfg = CpqConfig {
            leaf_scan,
            parallelism: 0,
            ..cfg
        };
        tp.pool().clear();
        tq.pool().clear();
        let run = execute(tp, tq, &spec, algorithm, &cfg, ExecCtx::default());
        accesses.extend(run.as_ref().map(|run| run.outcome.stats.disk_accesses()));
        agree(
            &format!("static trees, {} scan", leaf_scan.label()),
            &want,
            run.map(pairs_of).map_err(|e| e.to_string()),
        );
    }
    if let [brute, sweep] = accesses[..] {
        assert_eq!(brute, sweep, "the leaf scan changed the disk accesses");
    }

    // Unbuffered, where the parallel ledger and the pool count the same
    // thing, the configured parallelism changes no counter at all — except
    // that parallel mode scans leaves exhaustively whatever the config
    // says, so under a plane-sweep config it may compute more distances.
    if want.is_some() {
        tp.pool().set_capacity(0);
        tq.pool().set_capacity(0);
        let run = |cfg: &CpqConfig| {
            execute(tp, tq, &spec, algorithm, cfg, ExecCtx::default())
                .map(pairs_and_stats)
                .unwrap()
        };
        let (_, mut seq) = run(&cfg.with_parallelism(0));
        let (pairs, par) = run(&cfg);
        let threads = cfg.parallelism;
        agree(
            &format!("static trees, {threads} threads"),
            &want,
            Ok(pairs),
        );
        if cfg.leaf_scan == LeafScan::PlaneSweep && threads > 1 {
            assert!(par.dist_computations >= seq.dist_computations);
            seq.dist_computations = par.dist_computations;
        }
        assert_eq!(seq, par, "{threads} threads changed the counters");
        tp.pool().set_capacity(case.pool_pages);
        tq.pool().set_capacity(case.pool_pages);
    }

    // The incremental distance join knows neither self-joins nor
    // constraints, and breaks distance ties its own way: distances only.
    if !spec.self_join && !spec.constraint.is_active() {
        let mut rng = rng_for(case.seed, case.index, 0x14C);
        let inc = IncrementalConfig {
            traversal: pick(&mut rng, &Traversal::ALL),
            tie: pick(&mut rng, &[IncTie::DepthFirst, IncTie::BreadthFirst]),
            k_bound: None,
        };
        let got = k_closest_pairs_incremental(tp, tq, spec.k, &inc).unwrap();
        let dists = |keys: &[Key]| keys.iter().map(|k| k.0).collect::<Vec<_>>();
        assert_eq!(
            dists(&keys(&got.pairs)),
            dists(want.as_ref().expect("cross specs are valid")),
            "incremental join, {inc:?}"
        );
    }

    // Scatter-gather at every shard count, subqueries and partials crossing
    // the byte codec. Each equals the oracle, so each equals every other.
    let shard_cfg = ShardConfig {
        workers: case.shard_workers,
        wire_codec: true,
        ..ShardConfig::default()
    };
    for shards in 1..=4 {
        let sp = sharded(case, "p", &ps, shards);
        let sq = (!spec.self_join).then(|| sharded(case, "q", &qs, shards));
        let run = execute_sharded(
            &sp,
            sq.as_ref().unwrap_or(&sp),
            &spec,
            algorithm,
            &cfg,
            &shard_cfg,
            None,
        );
        let pairs = run.map_err(|e| e.to_string()).map(|run| {
            assert!(
                run.completed,
                "S={shards}: an uncancelled run reported incomplete"
            );
            let report = run.report;
            assert_eq!(
                report.pairs_opened + report.pairs_pruned,
                report.pairs_generated,
                "S={shards}: a shard pair was neither opened nor pruned"
            );
            run.outcome.pairs
        });
        agree(&format!("{shards} shards"), &want, pairs);
    }

    // The live set: part of the data primed, the rest streamed in between
    // deletes and re-inserts, every watcher compared at every step.
    let live: LiveSet<2> = LiveSet::new_in_memory(params(case), &LiveConfig::default()).unwrap();
    let live_service = CpqService::start(Source::Live(live), service_config(ObsConfig::disabled()));
    let live = live_service.live().expect("live source");
    let (primed, stream) = update_stream(case, &ps, &qs);
    let mut alive: [Vec<Object>; 2] = [Vec::new(), Vec::new()];
    let track = |alive: &mut [Vec<Object>; 2], op: &UpdateOp<2>| match *op {
        UpdateOp::Insert { side, object, oid } => alive[side as usize].push((object, oid)),
        UpdateOp::Delete { side, oid, .. } => alive[side as usize].retain(|o| o.1 != oid),
    };
    live.apply(&primed).unwrap();
    primed.iter().for_each(|op| track(&mut alive, op));
    live.watch(spec.k).unwrap();
    // A self-join watches `P` alone, as both sides.
    let q_side = if spec.self_join { live.p() } else { live.q() };
    let snapshots = || (live.p().snapshot().unwrap(), q_side.snapshot().unwrap());
    let (snap_p, snap_q) = snapshots();
    let mut continuous = match (ContinuousCpq::new(&spec, &snap_p, &snap_q), &want) {
        (Ok(continuous), Some(_)) => Some(continuous),
        (Err(e), None) => {
            assert!(
                e.to_string().contains("symmetric"),
                "continuous priming: {e}"
            );
            None
        }
        (got, _) => panic!("continuous priming: {:?}", got.map(|c| c.pairs().len())),
    };
    // Step 0 is the primed state; step n follows the stream's n-th update.
    let watched = |side: Side| !(spec.self_join && side == Side::Q);
    for (step, op) in std::iter::once(None)
        .chain(stream.iter().map(Some))
        .enumerate()
    {
        if let Some(op) = op {
            live.apply(std::slice::from_ref(op)).unwrap();
            track(&mut alive, op);
            let (snap_p, snap_q) = snapshots();
            match (continuous.as_mut(), *op) {
                (Some(continuous), UpdateOp::Insert { side, object, oid }) if watched(side) => {
                    continuous
                        .on_insert(side, object, oid, &snap_p, &snap_q)
                        .unwrap()
                }
                (Some(continuous), UpdateOp::Delete { side, oid, .. }) if watched(side) => {
                    continuous.on_delete(side, oid, &snap_p, &snap_q).unwrap()
                }
                _ => {}
            }
        }
        let [alive_p, alive_q] = &alive;
        agree(
            &format!("watch({}) at step {step}", spec.k),
            &oracle(alive_p, alive_q, &QuerySpec::cross(spec.k)),
            Ok(live.watched_pairs().expect("watching")),
        );
        if let Some(continuous) = &continuous {
            agree(
                &format!("continuous query at step {step}"),
                &oracle(alive_p, alive_q, &spec),
                Ok(continuous.pairs()),
            );
        }
    }
    let (snap_p, snap_q) = snapshots();
    agree(
        "live snapshots",
        &want,
        execute(
            snap_p.tree(),
            snap_q.tree(),
            &spec,
            algorithm,
            &cfg,
            ExecCtx::default(),
        )
        .map(pairs_of)
        .map_err(|e| e.to_string()),
    );

    // A service over each source; the ones holding no shards ignore the
    // scatter fan-out.
    let sharded_service = CpqService::start(
        Source::Sharded(
            TreePair::new(tree(case, &ps), tree(case, &qs)),
            ShardedPair {
                p: sharded(case, "p", &ps, 3),
                q: sharded(case, "q", &qs, 3),
            },
        ),
        service_config(ObsConfig::disabled()),
    );
    let request = QueryRequest {
        kind: if spec.self_join {
            QueryKind::SelfJoin
        } else {
            QueryKind::Cross
        },
        constraint: spec.constraint,
        ..QueryRequest::cross(spec.k, algorithm)
            .with_parallelism(cfg.parallelism)
            .with_scatter(case.shard_workers)
    };
    for (service, source) in [
        (static_service, "static"),
        (sharded_service, "sharded"),
        (live_service, "live"),
    ] {
        let response = service.execute(request).unwrap();
        let got = match response.status {
            QueryStatus::Completed => Ok(response.pairs),
            QueryStatus::Failed(e) => Err(e),
            other => panic!("{source} service: {other:?}"),
        };
        agree(&format!("{source} service"), &want, got);
        service.shutdown();
    }
}

fn run(seed: u64, cases: usize) {
    for index in 0..cases {
        check(&case_from(seed, index));
    }
}

#[test]
fn matrix_first_seed() {
    run(TIER1_SEEDS[0], CASES_PER_SEED);
}

#[test]
fn matrix_second_seed() {
    run(TIER1_SEEDS[1], CASES_PER_SEED);
}

/// `case_from` is a function of its two arguments alone, which is what
/// makes the line a failure prints worth pasting into [`REPLAY`].
#[test]
fn replay() {
    let (seed, index) = REPLAY;
    let case = case_from(seed, index);
    assert_eq!(format!("{case:?}"), format!("{:?}", case_from(seed, index)));
    check(&case);
}

/// The wide sweep (`scripts/ci.sh --full`, release mode): fresh seeds, so
/// fresh datasets, specs and streams.
#[test]
#[ignore = "release sweep tier; run via scripts/ci.sh --full"]
fn multi_seed_sweep() {
    for seed in 0..24 {
        run(0xF011_0000 + seed, CASES_PER_SEED);
    }
}
