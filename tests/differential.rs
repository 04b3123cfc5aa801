//! The differential harness: one generated case at a time, down every way a
//! query reaches the engine, against the O(n²) oracle.
//!
//! [`case_from`]`(seed, index)` derives a whole [`Case`] — datasets, tree
//! build, [`QuerySpec`], algorithm, [`CpqConfig`], pool size, update stream,
//! hazard — from two integers, and [`check`] sends it down every route:
//!
//! * `execute` on static trees, once per leaf-scan strategy;
//! * `execute_sharded` at S ∈ {1, 2, 3, 4} with the wire codec armed;
//! * a live set fed by a seeded insert/delete stream, its `watch(k)` and a
//!   [`ContinuousCpq`] for the case's spec compared at **every step**, then
//!   `execute` on the pinned snapshots of the final state;
//! * a [`CpqService`] over each [`Source`] variant;
//! * `k_closest_pairs_incremental` and `semi_closest_pairs` (unconstrained
//!   cross specs only; the semi-join against its own oracle).
//!
//! Every answer must equal the oracle's `(dist2 bits, p.oid, q.oid)` keys —
//! or, for a self-join with per-side windows, be the "symmetric" error from
//! every route. Three invariants ride on the static route: both leaf scans
//! cost the same disk accesses; on capacity-0 pools the configured
//! parallelism reports the same full [`CpqStats`](cpq::core::CpqStats) as
//! the sequential run; and every shard count agrees with every other
//! (each equals the oracle).
//!
//! The case's [`Hazard`] — a storage fault, a deadline or a cancel over slow
//! reads, or a non-finite coordinate — is armed for one call down each route
//! it reaches before that route's ordinary checks run on the same trees, and
//! every armed call is held to one outcome contract (see [`Hostile::call`]).
//! Every page file under a side's trees — static, sharded or live, the live
//! set in memory or, for half of the storage-fault cases, on disk — reads
//! through that side's [`FailureControl`]. A storage fault also meets the
//! live writers (`live-writer`), each side in turn deleting and inserting
//! again an object (32 at most: then their paths are resident) until one
//! fails. One that did not commit stopped its writer, which must refuse all
//! else naming it; each side's `LiveSet::stats` counters, the watcher, the
//! snapshots, the live service and, on disk, recovery must answer for
//! exactly what the set acknowledged.
//!
//! A failure prints `case_from(seed, index)` and the case's `Debug`; paste
//! the two integers into [`REPLAY`] and run `cargo test --test differential
//! replay` to get the same case again. DESIGN.md §8 lists the axes and the
//! per-feature suites this file replaced.

use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;
use std::time::Duration;

use cpq::core::{
    brute, execute, k_closest_pairs_incremental, pair_cmp, semi_closest_pairs, Algorithm,
    CancelToken, Constraint, CpqConfig, ExecCtx, HeightStrategy, KPruning, LeafScan, PairResult,
    QueryRun, QuerySpec, SortAlgorithm, TieStrategy, Traversal,
};
use cpq::datasets::{clustered, uniform, uniform_grid, ClusterSpec};
use cpq::geo::{pack_color, Point2, Rect2};
use cpq::live::UpdateOp::{self, Delete, Insert};
use cpq::live::{recover, ContinuousCpq, LiveConfig, LiveError, LiveSet, LiveTree, Side};
use cpq::rtree::{RTree, RTreeParams, RTreeResult};
use cpq::service::{
    CpqService, ObsConfig, QueryKind, QueryRequest, QueryStatus, ServiceConfig, Source, TreePair,
};
use cpq::shard::{execute_sharded, ShardConfig, ShardedPair, ShardedTree};
use cpq::storage::{
    BufferPool, FailingPageFile, FailureControl, MemPageFile, PageId, DEFAULT_PAGE_SIZE,
};
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

/// The routes each hazard kind reaches: [`run`] fails unless every seed's
/// run sees each bite on each of them, and [`BITES_PER_KIND`] times in all.
/// (`service` is the static source's.)
const REACH: [(&str, &str); 6] = [
    ("FailRead", FAULTED),
    ("Corrupt", FAULTED),
    ("Deadline", QUERIES),
    ("Cancel", QUERIES),
    ("NonFiniteObject", "static sharded live"),
    ("NonFiniteWindow", QUERIES),
];
const QUERIES: &str = "static sharded service sharded-service live live-service";
const FAULTED: &str =
    "static incremental semi sharded service sharded-service live live-service live-writer";
const BITES_PER_KIND: u32 = 5;

type Object = (Point2, u64);
/// A result pair as compared: raw distance bits, then the two oids.
type Key = (u64, u64, u64);
/// Bites per `(hazard kind, route)`: errors, partials, refusals.
type Tally = BTreeMap<(String, &'static str), [u32; 3]>;
/// One call's pairs and whether it completed.
type Answer = (Vec<PairResult<2>>, bool);
type Exact = Result<Vec<PairResult<2>>, String>;

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

/// A hostile condition, armed for one call down each route it reaches and
/// disarmed before that route's ordinary checks run on the same trees.
/// Latencies, deadlines and delays are in microseconds.
#[derive(Debug, Clone, Copy)]
enum Hazard {
    None,
    /// `(side, n)`: the `n`-th physical read (counted from arming) under
    /// the side's trees fails with an I/O error.
    FailRead(Side, u64),
    /// `(side, page)`: every read of the page under the side's trees fails
    /// its checksum.
    Corrupt(Side, u32),
    /// `(latency, deadline, n)`: reads slowed on both sides, the call under
    /// a deadline — racing, given `n`, an nth-read fault under `P`.
    Deadline(u64, u64, Option<u64>),
    /// `(latency, delay)`: reads slowed on both sides, and another thread
    /// cancels the call `delay` after it starts (`0`: before). A service
    /// has no cancel handle: there the delay is the request's deadline.
    Cancel(u64, u64),
    /// `(object, at)`: joins `P`'s objects at `at` — refused where trees
    /// are built and where the live set takes updates.
    NonFiniteObject(Point2, usize),
    /// The window of both sides, in place of the case's constraint: refused
    /// wherever a spec enters.
    NonFiniteWindow(Rect2),
}

impl Hazard {
    /// The variant's name: what the tally counts by.
    fn kind(&self) -> String {
        let name = format!("{self:?}");
        name.split('(').next().unwrap_or_default().to_owned()
    }
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
    hazard: Hazard,
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
        hazard: Hazard::None,
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
    // Drawn last, so that every axis above is what it was before these two.
    // Scrambled worker schedules ride on the parallel parity invariant.
    case.config.parallel_yield_seed = rng.random_bool(0.5).then(|| rng.next_u64());
    case.hazard = hazard(&mut rng, ps.len(), self_join);
    case
}

/// A hazard, weighted so each kind bites on every route it reaches within
/// one tier-1 seed — storage faults most, for the incremental join sees
/// only a tenth of the cases: small read ordinals, page ids the small trees
/// hold, deadlines and cancel delays a few slowed reads long.
fn hazard(rng: &mut Rng, n_p: usize, self_join: bool) -> Hazard {
    let side = pick(rng, &[Side::P, Side::Q]);
    let latency = pick(rng, &[20, 60]);
    let mut bad = [rng.random_range(0.0..1000.0), rng.random_range(0.0..1000.0)];
    bad[rng.random_range(0..2usize)] = pick(rng, &[f64::NAN, f64::INFINITY, f64::NEG_INFINITY]);
    match rng.random_range(0..10u32) {
        0 => Hazard::None,
        1..=3 => Hazard::FailRead(side, pick(rng, &[1, 2, 3, 4, 6, 9, 14, 30])),
        4..=6 => Hazard::Corrupt(side, rng.random_range(0..4u32)),
        7 => Hazard::Deadline(
            latency,
            pick(rng, &[0, 150, 500, 2000]),
            rng.random_bool(0.5).then(|| rng.random_range(3..30u64)),
        ),
        8 => Hazard::Cancel(latency, pick(rng, &[0, 150, 500, 2000])),
        _ if rng.random_bool(0.5) => {
            Hazard::NonFiniteObject(Point2::new(bad), rng.random_range(0..n_p + 1))
        }
        // A point, for `Rect::new` asserts corner order in debug builds,
        // which a NaN fails. A NaN window is unequal to itself, so a
        // self-join would refuse it as asymmetric before its corners count.
        _ => Hazard::NonFiniteWindow(Rect2::point(Point2::new(bad.map(|c| {
            match c.is_nan() && self_join {
                true => f64::INFINITY,
                false => c,
            }
        })))),
    }
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

/// The case's hazard, and what holding an armed call to the contract needs.
struct Hostile<'a> {
    hazard: Hazard,
    /// `P`'s and `Q`'s: every page file under a side's trees — static,
    /// sharded, live or behind a service — reads through it.
    controls: [Arc<FailureControl>; 2],
    /// What armed calls ask: the case's spec, or its non-finite-window twin.
    spec: QuerySpec<2>,
    /// Every pair the case's spec admits, for judging partials.
    admitted: HashSet<Key>,
    tally: &'a mut Tally,
}

impl Hostile<'_> {
    /// Arms the hazard for one call down `route` on cold `pools`, disarms it,
    /// and holds what came back to the contract: an error is the injected
    /// one; a call whose read ordinal fired never answers; a partial comes
    /// only from a deadline or a cancel — at most K pairs, strictly in
    /// `pair_cmp` order, each one the spec admits, and none (nor a page
    /// read) when the cancel came first; and every pool keeps its books.
    /// Returns what must still equal the oracle: a completed answer, or an
    /// error the hazard does not explain.
    fn call<E: ToString>(
        &mut self,
        route: &'static str,
        pools: &[&BufferPool],
        run: impl FnOnce(&QuerySpec<2>, &CancelToken) -> Result<Answer, E>,
    ) -> Option<Exact> {
        let (hazard, controls) = (self.hazard, &self.controls);
        if matches!(hazard, Hazard::None | Hazard::NonFiniteObject(..)) {
            return None;
        }
        pools.iter().for_each(|pool| pool.clear()); // so that reads reach the files
        controls.iter().for_each(|c| c.fail_read(0)); // restarts the read counts
        let mut token = CancelToken::new();
        match hazard {
            Hazard::FailRead(side, n) => controls[side as usize].fail_read(n),
            Hazard::Corrupt(side, page) => controls[side as usize].corrupt(PageId(page)),
            Hazard::Deadline(_, deadline, n) => {
                controls[0].fail_read(n.unwrap_or(0));
                token = CancelToken::expiring_in(Duration::from_micros(deadline));
            }
            Hazard::Cancel(_, 0) => token.cancel(),
            _ => {}
        }
        if let Hazard::Deadline(latency, ..) | Hazard::Cancel(latency, _) = hazard {
            let latency = Duration::from_micros(latency);
            controls.iter().for_each(|c| c.slow_reads(latency));
        }
        let got = std::thread::scope(|scope| {
            if let Hazard::Cancel(_, delay @ 1..) = hazard {
                let token = token.clone();
                scope.spawn(move || {
                    #[expect(clippy::disallowed_methods, reason = "the cancel lands mid-query")]
                    std::thread::sleep(Duration::from_micros(delay));
                    token.cancel();
                });
            }
            run(&self.spec, &token).map_err(|e| e.to_string())
        });
        let fired = match hazard {
            Hazard::FailRead(side, n) => controls[side as usize].reads_seen() >= n,
            Hazard::Deadline(_, _, Some(n)) => controls[0].reads_seen() >= n,
            _ => false,
        };
        let reads: u64 = controls.iter().map(|c| c.reads_seen()).sum();
        controls.iter().for_each(|c| c.disarm());
        for (b, io) in pools.iter().map(|pool| pool.stats_snapshot()) {
            let books = [b.logical_reads - b.hits, io.reads];
            assert_eq!(books, [b.misses; 2], "{route}: a pool's books");
        }
        let (said, refusal) = match hazard {
            Hazard::Corrupt(..) => ("is corrupt", false),
            Hazard::NonFiniteWindow(_) => ("finite corners", true),
            _ => ("injected read failure", false),
        };
        let bite = match got {
            Err(e) if e.contains(said) => 2 * refusal as usize,
            Err(e) => return Some(Err(e)),
            Ok((pairs, completed)) => {
                let n = pairs.len();
                assert!(!fired && !refusal, "{route}: answered {n} pairs");
                if completed {
                    return Some(Ok(pairs));
                }
                let timed = matches!(hazard, Hazard::Deadline(..) | Hazard::Cancel(..));
                let sorted = pairs.windows(2).all(|w| pair_cmp(&w[0], &w[1]).is_lt());
                let admitted = keys(&pairs).iter().all(|k| self.admitted.contains(k));
                assert!(
                    timed && sorted && admitted && n <= self.spec.k,
                    "{route}: {n} pairs"
                );
                if let Hazard::Cancel(_, 0) = hazard {
                    assert_eq!((n, reads), (0, 0), "{route}: work after a cancel");
                }
                1
            }
        };
        self.tally.entry((hazard.kind(), route)).or_default()[bite] += 1;
        None
    }

    /// One door the hazard's non-finite input knocks on: it must refuse.
    fn refused<T, E: ToString>(&mut self, route: &'static str, door: Result<T, E>) {
        let hazard = self.hazard;
        let Err(e) = door.map_err(|e| e.to_string()) else {
            panic!("{route}: took {hazard:?}");
        };
        assert!(e.contains("finite"), "{route}: refused for {e}");
        self.tally.entry((hazard.kind(), route)).or_default()[2] += 1;
    }
}

fn params(case: &Case) -> RTreeParams {
    RTreeParams::with_max_entries(case.fanout)
}

fn pool(pages: usize, control: &Arc<FailureControl>) -> BufferPool {
    let file = MemPageFile::new(DEFAULT_PAGE_SIZE);
    let file = FailingPageFile::new(Box::new(file), Arc::clone(control));
    BufferPool::with_lru(Box::new(file), pages)
}

fn tree(case: &Case, objects: &[Object], control: &Arc<FailureControl>) -> RTreeResult<RTree<2>> {
    let pool = pool(case.pool_pages, control);
    match case.bulk_fill {
        Some(fill) => RTree::bulk_load(pool, params(case), objects, fill),
        None => {
            let mut tree = RTree::new(pool, params(case))?;
            for &(p, oid) in objects {
                tree.insert(p, oid)?;
            }
            Ok(tree)
        }
    }
}

fn sharded(
    case: &Case,
    name: &str,
    objects: &[Object],
    shards: usize,
    control: &Arc<FailureControl>,
) -> RTreeResult<ShardedTree<2>> {
    ShardedTree::build(name, objects, shards, params(case), case.bulk_fill, |_| {
        pool(case.pool_pages, control)
    })
}

fn shard_pools<'a>(trees: &[&'a ShardedTree<2>]) -> Vec<&'a BufferPool> {
    let shards = trees.iter().flat_map(|t| t.shards());
    shards.map(|t| t.pool()).collect()
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
/// on the first answer that differs from the oracle's or breaks the hazard
/// contract. Bites of the case's hazard are counted into `tally`.
fn check(case: &Case, tally: &mut Tally) {
    let _replay = Replay(case);
    let (ps, qs) = objects(case);
    let (spec, algorithm, cfg) = (case.spec, case.algorithm, case.config);
    let want = oracle(&ps, &qs, &spec);
    let controls = [FailureControl::new(), FailureControl::new()];
    let (control_p, control_q) = (&controls[0], &controls[1]);
    let mut hostile = Hostile {
        hazard: case.hazard,
        controls: controls.clone(),
        spec: match case.hazard {
            Hazard::NonFiniteWindow(window) => spec.with_constraint(Constraint::window(window)),
            _ => spec,
        },
        admitted: match case.hazard {
            Hazard::Deadline(..) | Hazard::Cancel(..) => {
                let all = oracle(&ps, &qs, &QuerySpec { k: 1 << 44, ..spec });
                all.into_iter().flatten().collect()
            }
            _ => HashSet::new(),
        },
        tally,
    };
    let pairs_and_stats = |run: QueryRun<2>| {
        assert!(run.completed, "an uncancelled run reported incomplete");
        (run.outcome.pairs, run.outcome.stats)
    };
    let pairs_of = |run: QueryRun<2>| pairs_and_stats(run).0;
    let done = |got: Result<Answer, String>| {
        got.map(|(pairs, completed)| {
            assert!(completed, "an undated query timed out");
            pairs
        })
    };
    let run_on = |trees: [&RTree<2>; 2], spec: &QuerySpec<2>, token: &CancelToken| {
        let ctx = ExecCtx::default().with_cancel(token);
        let run = execute(trees[0], trees[1], spec, algorithm, &cfg, ctx);
        run.map(|run| (run.outcome.pairs, run.completed))
            .map_err(|e| e.to_string())
    };

    let service_config = |obs: ObsConfig| ServiceConfig {
        workers: 1,
        cpq: cfg,
        max_shards: 4,
        obs,
        ..ServiceConfig::default()
    };
    // The hazard's non-finite object among `P`'s, at every door that builds.
    if let Hazard::NonFiniteObject(object, at) = case.hazard {
        let mut poisoned = ps.clone();
        poisoned.insert(at, (object, u64::MAX));
        hostile.refused("static", tree(case, &poisoned, control_p));
        for shards in 1..=4 {
            hostile.refused("sharded", sharded(case, "p", &poisoned, shards, control_p));
        }
    }
    let static_service: CpqService<2> = CpqService::start(
        TreePair::new(
            tree(case, &ps, control_p).unwrap(),
            tree(case, &qs, control_q).unwrap(),
        ),
        service_config(ObsConfig::default()),
    );
    // A self-join is handed the case's distinct `Q` too, on every route:
    // the entry points must not read it.
    let trees = static_service.trees().expect("static source");
    let (tp, tq) = (&trees.p, &trees.q);
    let pools = [trees.p.pool(), trees.q.pool()];
    if case.shape == Shape::Heights {
        assert!(trees.p.height().abs_diff(trees.q.height()) >= 2);
    }

    // Armed: the case's own algorithm and parallelism.
    let armed = hostile.call("static", &pools, |spec, token| {
        run_on([tp, tq], spec, token)
    });
    if let Some(got) = armed {
        agree("armed static trees", &want, got);
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

    // The incremental distance join and the semi-join know neither
    // self-joins nor constraints. They take no token, so only storage faults
    // are armed on them.
    let faulted = matches!(case.hazard, Hazard::FailRead(..) | Hazard::Corrupt(..));
    if !spec.self_join && !spec.constraint.is_active() {
        // The incremental join breaks distance ties its own way: distances only.
        let mut rng = rng_for(case.seed, case.index, 0x14C);
        let inc = pick(&mut rng, &Traversal::ALL);
        let dists = |keys: &[Key]| keys.iter().map(|k| k.0).collect::<Vec<_>>();
        let want = dists(want.as_ref().expect("cross specs are valid"));
        let join = || k_closest_pairs_incremental(tp, tq, spec.k, inc);
        let armed = faulted.then(|| {
            hostile.call("incremental", &pools, |_, _| {
                join().map(|out| (out.pairs, true))
            })
        });
        let disarmed = join().map(|out| out.pairs).map_err(|e| e.to_string());
        for got in armed.flatten().into_iter().chain([disarmed]) {
            let got = got.unwrap_or_else(|e| panic!("incremental join, {inc:?}: {e}"));
            assert_eq!(dists(&keys(&got)), want, "incremental join, {inc:?}");
        }
        // The semi-join: one pair per `P` object, whatever K.
        let want = Some(keys(&brute::semi_closest_pairs_brute(&ps, &qs)));
        let semi = || semi_closest_pairs(tp, tq).map(|out| out.pairs);
        let armed = faulted.then(|| hostile.call("semi", &pools, |_, _| semi().map(|p| (p, true))));
        if let Some(got) = armed.flatten() {
            agree("armed semi-join", &want, got);
        }
        agree("semi-join", &want, semi().map_err(|e| e.to_string()));
    }

    // Scatter-gather at every shard count, subqueries and partials crossing
    // the byte codec. Each equals the oracle, so each equals every other.
    let shard_cfg = ShardConfig {
        workers: case.shard_workers,
        wire_codec: true,
        ..ShardConfig::default()
    };
    for shards in 1..=4 {
        let sp = sharded(case, "p", &ps, shards, control_p).unwrap();
        let sq = sharded(case, "q", &qs, shards, control_q).unwrap();
        let armed = hostile.call("sharded", &shard_pools(&[&sp, &sq]), |spec, token| {
            let run = execute_sharded(&sp, &sq, spec, algorithm, &cfg, &shard_cfg, Some(token));
            run.map(|run| (run.outcome.pairs, run.completed))
        });
        if let Some(got) = armed {
            agree(&format!("armed {shards} shards"), &want, got);
        }
        let run = execute_sharded(&sp, &sq, &spec, algorithm, &cfg, &shard_cfg, None);
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
    // deletes and re-inserts, every watcher compared at every step. Half of
    // the storage-fault cases keep it on disk, drawn apart from the case.
    let on_disk = faulted && rng_for(case.seed, case.index, 0xD15C).random_bool(0.5);
    let (pid, thread) = (std::process::id(), std::thread::current().id());
    let dir = on_disk.then(|| std::env::temp_dir().join(format!("cpq-live-{pid}-{thread:?}")));
    let mut live_cfg = LiveConfig::default();
    live_cfg.wal.sync = false;
    let live_tree = |side: &str, control: &Arc<FailureControl>| {
        let dir = dir.as_ref().map(|dir| dir.join(side));
        let file = |f| Box::new(FailingPageFile::new(f, Arc::clone(control))) as _;
        LiveTree::create(dir.as_deref(), params(case), &live_cfg, file).unwrap()
    };
    let live = LiveSet::from_trees(live_tree("p", control_p), live_tree("q", control_q));
    let live_service = CpqService::start(Source::Live(live), service_config(ObsConfig::disabled()));
    let Source::Live(live) = live_service.source() else {
        panic!("a live source");
    };
    if let Hazard::NonFiniteObject(object, _) = case.hazard {
        let poisoned = UpdateOp::Insert {
            side: Side::P,
            object,
            oid: u64::MAX,
        };
        hostile.refused("live", live.apply(&[poisoned]));
    }
    let (primed, stream) = update_stream(case, &ps, &qs);
    let mut alive: [Vec<Object>; 2] = [Vec::new(), Vec::new()];
    // Per side, the committed inserts, deletes that found their object and
    // deletes that found none: what `LiveSet::stats` must count.
    let mut acked = [(0u64, 0u64, 0u64); 2];
    let track = |alive: &mut [Vec<Object>; 2], acked: &mut [(u64, u64, u64); 2], op| match op {
        Insert { side, object, oid } => {
            alive[side as usize].push((object, oid));
            acked[side as usize].0 += 1;
        }
        Delete { side, oid, .. } => {
            let before = alive[side as usize].len();
            alive[side as usize].retain(|o| o.1 != oid);
            if alive[side as usize].len() < before {
                acked[side as usize].1 += 1;
            } else {
                acked[side as usize].2 += 1;
            }
        }
    };
    live.apply(&primed).unwrap();
    primed
        .iter()
        .for_each(|&op| track(&mut alive, &mut acked, op));
    live.watch(spec.k).unwrap();
    let snapshots = || (live.p().snapshot().unwrap(), live.q().snapshot().unwrap());
    let (snap_p, snap_q) = snapshots();
    if let Hazard::NonFiniteWindow(_) = case.hazard {
        let primed = ContinuousCpq::new(&hostile.spec, &snap_p, &snap_q);
        hostile.refused("live", primed);
    }
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
    // A self-join's maintenance sees `P`'s updates alone.
    let watched = |side: Side| !(spec.self_join && side == Side::Q);
    for (step, op) in std::iter::once(None)
        .chain(stream.iter().map(Some))
        .enumerate()
    {
        if let Some(op) = op {
            live.apply(std::slice::from_ref(op)).unwrap();
            track(&mut alive, &mut acked, *op);
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
        let watch_spec = QuerySpec::cross(spec.k);
        let watch_want = oracle(alive_p, alive_q, &watch_spec);
        agree(
            &format!("watch({}) at step {step}", spec.k),
            &watch_want,
            Ok(live.watched_pairs().expect("watching")),
        );
        if let Some(continuous) = &continuous {
            let want = match spec == watch_spec {
                true => watch_want,
                false => oracle(alive_p, alive_q, &spec),
            };
            agree(
                &format!("continuous query at step {step}"),
                &want,
                Ok(continuous.pairs()),
            );
        }
    }
    // The writers under a storage fault: `live-writer` in the module docs.
    let live_pools = [live.p().pool(), live.q().pool()];
    let turns = (0..alive[0].len().max(alive[1].len())).flat_map(|i| [(Side::P, i), (Side::Q, i)]);
    let turns = turns.filter_map(|(side, i)| Some((side, *alive[side as usize].get(i)?)));
    let redo = |(side, (object, oid))| [Delete { side, object, oid }, Insert { side, object, oid }];
    let cycle: Vec<_> = turns.flat_map(redo).take(32).collect();
    let mut failed = None;
    let writer = |_: &QuerySpec<2>, _: &CancelToken| -> Result<Answer, LiveError> {
        for op in cycle {
            let (Insert { side, object, oid } | Delete { side, object, oid }) = op;
            let applied = live.apply(&[op]);
            let committed = live.side(side).len() != alive[side as usize].len() as u64;
            if committed {
                track(&mut alive, &mut acked, op);
            }
            applied
                .inspect_err(|e| failed = Some((side, object, oid, committed, e.to_string())))?;
        }
        Ok((Vec::new(), true))
    };
    let armed = faulted.then(|| hostile.call("live-writer", &live_pools, writer));
    let unexplained = matches!(armed, Some(Some(Err(_))));
    assert!(!unexplained, "live-writer: {armed:?}");
    if let Some((side, object, oid, false, why)) = failed {
        let later = [Insert { side, object, oid }, Delete { side, object, oid }];
        let later = later.map(|op| live.apply(&[op]).map(drop));
        let checkpoint = dir.as_ref().map(|_| live.side(side).checkpoint().map(drop));
        let named = |e: LiveError| e.to_string().contains(why.as_str());
        for later in later.into_iter().chain(checkpoint) {
            assert!(later.is_err_and(named), "live-writer: it went on");
        }
    }
    // `LiveSet::stats` takes each side's writer lock and then its log's:
    // reading it here puts that path under the debug lock-order check.
    let (stats_p, stats_q) = live.stats();
    for (stats, acked) in [stats_p, stats_q].iter().zip(acked) {
        let counted = (stats.inserts, stats.deletes, stats.delete_misses);
        assert_eq!(counted, acked, "live stats against the acknowledged ops");
    }
    let [alive_p, alive_q] = &alive;
    if let Some(pairs) = live.watched_pairs() {
        let watched_want = oracle(alive_p, alive_q, &QuerySpec::cross(spec.k));
        agree("watch after the writers' updates", &watched_want, Ok(pairs));
    }
    let live_want = oracle(alive_p, alive_q, &spec);
    for (tree, objects) in [live.p(), live.q()].into_iter().zip(&alive) {
        let snap = tree.snapshot().unwrap();
        let valid = snap.tree().validate().unwrap().is_valid();
        let held = snap.tree().len() == objects.len() as u64;
        assert!(valid && held, "a live snapshot");
    }
    let (snap_p, snap_q) = snapshots();
    let trees = [snap_p.tree(), snap_q.tree()];
    let armed = hostile.call("live", &live_pools, |spec, t| run_on(trees, spec, t));
    if let Some(got) = armed {
        agree("armed live snapshots", &live_want, got);
    }
    let got = done(run_on(trees, &spec, &CancelToken::new()));
    agree("live snapshots", &live_want, got);
    drop((snap_p, snap_q));

    // A service over each source; the ones holding no shards ignore the
    // scatter fan-out.
    let (sp, sq) = (
        sharded(case, "p", &ps, 3, control_p).unwrap(),
        sharded(case, "q", &qs, 3, control_q).unwrap(),
    );
    let sharded_service = CpqService::start(
        Source::Sharded(
            TreePair::new(
                tree(case, &ps, control_p).unwrap(),
                tree(case, &qs, control_q).unwrap(),
            ),
            ShardedPair { p: sp, q: sq },
        ),
        service_config(ObsConfig::disabled()),
    );
    let ask = |service: &CpqService<2>, spec: &QuerySpec<2>, deadline: Option<Duration>| {
        let request = QueryRequest {
            kind: [QueryKind::Cross, QueryKind::SelfJoin][spec.self_join as usize],
            constraint: spec.constraint,
            deadline,
            ..QueryRequest::cross(spec.k, algorithm).with_scatter(case.shard_workers)
        };
        let response = service.execute(request).unwrap();
        match response.status {
            QueryStatus::Completed => Ok((response.pairs, true)),
            QueryStatus::TimedOut => Ok((response.pairs, false)),
            QueryStatus::Failed(e) => Err(e),
            QueryStatus::Dropped => panic!("the service dropped a query"),
        }
    };
    // No cancel handle reaches a service: a cancel's delay is its deadline.
    let deadline = match case.hazard {
        Hazard::Deadline(_, us, _) | Hazard::Cancel(_, us) => Some(Duration::from_micros(us)),
        _ => None,
    };
    // Every request carries a scatter fan-out, so the sharded service reads
    // its shard pools alone.
    let Source::Sharded(_, shards) = sharded_service.source() else {
        panic!("a sharded source");
    };
    let scatter_pools = shard_pools(&[&shards.p, &shards.q]);
    for (service, route, pools, want) in [
        (&static_service, "service", &pools[..], &want),
        (&sharded_service, "sharded-service", &scatter_pools, &want),
        (&live_service, "live-service", &live_pools, &live_want),
    ] {
        let armed = hostile.call(route, pools, |spec, _| ask(service, spec, deadline));
        if let Some(got) = armed {
            agree(&format!("armed {route}"), want, got);
        }
        agree(route, want, done(ask(service, &spec, None)));
    }
    for service in [static_service, sharded_service, live_service] {
        service.shutdown();
    }
    // A durable set's sides recover to what they acknowledged, and go on.
    if let Some(dir) = &dir {
        let back = |side| recover::<2, Point2>(&dir.join(side), params(case), &live_cfg);
        let recovered = ["p", "q"].map(|side| back(side).unwrap().0);
        let snaps = recovered.each_ref().map(|tree| tree.snapshot().unwrap());
        let trees = [snaps[0].tree(), snaps[1].tree()];
        let got = done(run_on(trees, &spec, &CancelToken::new()));
        agree("recovered live trees", &live_want, got);
        for tree in &recovered {
            tree.insert(Point2::new([0.0, 0.0]), u64::MAX).unwrap();
        }
    }
    let _ = dir.map(std::fs::remove_dir_all);
}

/// Runs every case of `seeds`, then asserts that each hazard kind bit —
/// an error, a partial or a refusal — on every route it reaches: a latency,
/// deadline or ordinal that never fires would otherwise pass unseen.
fn run(seeds: &[u64]) {
    let mut tally = Tally::new();
    for &seed in seeds {
        for index in 0..CASES_PER_SEED {
            check(&case_from(seed, index), &mut tally);
        }
    }
    for (kind, routes) in REACH {
        let bites = |route| {
            tally
                .get(&(kind.to_owned(), route))
                .map_or(0, |b| b.iter().sum())
        };
        let total: u32 = routes.split(' ').map(bites).sum();
        let idle = routes.split(' ').find(|&route| bites(route) == 0);
        assert!(
            total >= BITES_PER_KIND && idle.is_none(),
            "seeds {seeds:#x?}: {kind} bit {total} times, never on {idle:?}; \
             [errors, partials, refusals]: {tally:#?}"
        );
    }
}

#[test]
fn matrix_first_seed() {
    run(&TIER1_SEEDS[..1]);
}

#[test]
fn matrix_second_seed() {
    run(&TIER1_SEEDS[1..]);
}

/// `case_from` is a function of its two arguments alone, which is what
/// makes the line a failure prints worth pasting into [`REPLAY`].
#[test]
fn replay() {
    let (seed, index) = REPLAY;
    let case = case_from(seed, index);
    assert_eq!(format!("{case:?}"), format!("{:?}", case_from(seed, index)));
    check(&case, &mut Tally::new());
}

/// The wide sweep (`scripts/ci.sh --full`, release mode): fresh seeds, so
/// fresh datasets, specs, streams, hazards and worker schedules; the bites
/// are counted over all of them.
#[test]
#[ignore = "release sweep tier; run via scripts/ci.sh --full"]
fn multi_seed_sweep() {
    run(&(0..24).map(|seed| 0xF011_0000 + seed).collect::<Vec<_>>());
}
