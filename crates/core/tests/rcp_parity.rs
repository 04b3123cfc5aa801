//! Oracle parity for range-restricted (windowed) and colored K-CPQ.
//!
//! Every constrained variant — shared windows, per-side windows, colored
//! pairs, and their combinations — must return pairs **bit-identical**
//! (objects and distance bits) to the O(n²) brute-force oracle, which
//! applies the very same [`Constraint::admits_pair`] predicate the tree
//! engines gate their leaf scans with. A parity failure therefore always
//! means a *pruning* bug (a qualifying pair clipped away, or MINMINDIST
//! computed on the wrong rectangle), never predicate drift.
//!
//! The matrix: all five algorithms × parallelism T ∈ {1, 4} ×
//!
//! * windows admitting all / some / one / zero points,
//! * degenerate zero-area windows (on and off a data point),
//! * windows whose edges pass exactly through data coordinates
//!   (boundary inclusivity),
//! * duplicate-point tie storms (canonical `(dist2, oid, oid)` order),
//! * colored cross and self joins,
//! * `K` far larger than the constrained result set,
//! * randomized windows/colors/K against the oracle,
//!
//! plus one cost gate: node accesses must not grow as the window shrinks.
//!
//! Where the parallel contract requires it (brute-force leaf scans), the
//! full `CpqStats` of the T=4 run must equal the sequential run's.

use cpq_core::brute::{k_closest_pairs_brute_constrained, self_k_closest_pairs_brute_constrained};
use cpq_core::{
    k_closest_pairs_constrained, self_closest_pairs_constrained, Algorithm, Constraint, CpqConfig,
    PairResult,
};
use cpq_datasets::{clustered, uniform, uniform_grid, ClusterSpec, WORKSPACE_SIDE};
use cpq_geo::{pack_color, Point2, Rect2};
use cpq_rng::Rng;
use cpq_rtree::{RTree, RTreeParams};
use cpq_storage::{BufferPool, MemPageFile};

const ALL: [Algorithm; 5] = [
    Algorithm::Naive,
    Algorithm::Exhaustive,
    Algorithm::Simple,
    Algorithm::SortedDistances,
    Algorithm::Heap,
];

fn build(entries: &[(Point2, u64)]) -> RTree<2> {
    let pool = BufferPool::with_lru(Box::new(MemPageFile::new(1024)), 0);
    let mut tree = RTree::new(pool, RTreeParams::paper()).unwrap();
    for &(p, oid) in entries {
        tree.insert(p, oid).unwrap();
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

/// Round-robin colored entries: point `i` gets color `i % colors`.
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

/// Every algorithm × T ∈ {1, 4} against the cross-join oracle; the
/// parallel run's full stats must equal the sequential run's (leaf scans
/// are brute-force under the paper config).
fn assert_cross(
    tp: &RTree<2>,
    tq: &RTree<2>,
    ps: &[(Point2, u64)],
    qs: &[(Point2, u64)],
    k: usize,
    con: Constraint<2>,
    label: &str,
) {
    let oracle = k_closest_pairs_brute_constrained(ps, qs, k, &con);
    for alg in ALL {
        let cfg = CpqConfig::paper();
        let seq = k_closest_pairs_constrained(tp, tq, k, alg, &cfg, con).unwrap();
        let label = format!("{label} {} k={k}", alg.label());
        assert_same(&seq.pairs, &oracle, &format!("{label} t=1"));
        let par =
            k_closest_pairs_constrained(tp, tq, k, alg, &cfg.with_parallelism(4), con).unwrap();
        assert_same(&par.pairs, &oracle, &format!("{label} t=4"));
        assert_eq!(seq.stats, par.stats, "{label}: full stats parity");
    }
}

/// Self-join flavor of [`assert_cross`]; the constraint must be symmetric.
fn assert_self(tree: &RTree<2>, ps: &[(Point2, u64)], k: usize, con: Constraint<2>, label: &str) {
    let oracle = self_k_closest_pairs_brute_constrained(ps, k, &con);
    for alg in ALL {
        let cfg = CpqConfig::paper();
        let seq = self_closest_pairs_constrained(tree, k, alg, &cfg, con).unwrap();
        let label = format!("{label} {} k={k}", alg.label());
        assert_same(&seq.pairs, &oracle, &format!("{label} t=1"));
        let par =
            self_closest_pairs_constrained(tree, k, alg, &cfg.with_parallelism(4), con).unwrap();
        assert_same(&par.pairs, &oracle, &format!("{label} t=4"));
        assert_eq!(seq.stats, par.stats, "{label}: full stats parity");
    }
}

#[test]
fn shared_window_selectivity_sweep() {
    let p = uniform(350, 101);
    let q = uniform(300, 102);
    let (ps, qs) = (indexed(&p.points), indexed(&q.points));
    let (tp, tq) = (build(&ps), build(&qs));
    let s = WORKSPACE_SIDE;
    // All points, a quadrant, a small patch, and a window off the data.
    let windows = [
        Rect2::from_corners([0.0, 0.0], [s, s]),
        Rect2::from_corners([0.0, 0.0], [s / 2.0, s / 2.0]),
        Rect2::from_corners([400.0, 400.0], [520.0, 530.0]),
        Rect2::from_corners([2.0 * s, 2.0 * s], [3.0 * s, 3.0 * s]),
    ];
    for w in windows {
        for k in [1usize, 10, 500] {
            assert_cross(
                &tp,
                &tq,
                &ps,
                &qs,
                k,
                Constraint::window(w),
                "shared-window",
            );
        }
    }
}

#[test]
fn per_side_windows_cross() {
    let p = uniform(300, 103);
    let q = uniform(300, 104);
    let (ps, qs) = (indexed(&p.points), indexed(&q.points));
    let (tp, tq) = (build(&ps), build(&qs));
    let wp = Rect2::from_corners([0.0, 0.0], [600.0, 1000.0]);
    let wq = Rect2::from_corners([400.0, 0.0], [1000.0, 1000.0]);
    for k in [1usize, 25] {
        // Both sides, one side only, and side windows that leave no
        // qualifying pairs close together (disjoint strips still admit
        // pairs across the gap — the result set is cross products of
        // the two strips).
        assert_cross(
            &tp,
            &tq,
            &ps,
            &qs,
            k,
            Constraint::windows(Some(wp), Some(wq)),
            "two-sided",
        );
        assert_cross(
            &tp,
            &tq,
            &ps,
            &qs,
            k,
            Constraint::windows(Some(wp), None),
            "p-side-only",
        );
        assert_cross(
            &tp,
            &tq,
            &ps,
            &qs,
            k,
            Constraint::windows(None, Some(wq)),
            "q-side-only",
        );
    }
}

#[test]
fn degenerate_and_edge_windows() {
    // Grid-snapped data: window corners can land *exactly* on point
    // coordinates, exercising boundary inclusivity of `contains_point`
    // and the zero-extent clip arithmetic.
    let p = uniform_grid(300, 105, 50.0);
    let q = uniform_grid(300, 106, 50.0);
    let (ps, qs) = (indexed(&p.points), indexed(&q.points));
    let (tp, tq) = (build(&ps), build(&qs));
    // A grid site guaranteed occupied on the P side.
    let site = ps[0].0;
    let (x, y) = (site.coord(0), site.coord(1));
    let windows = [
        // Zero-area window sitting exactly on a data point.
        Rect2::from_corners([x, y], [x, y]),
        // Zero-area window at a half-cell offset (between grid sites).
        Rect2::from_corners([x + 25.0, y + 25.0], [x + 25.0, y + 25.0]),
        // Zero-width vertical line through a grid column.
        Rect2::from_corners([x, 0.0], [x, WORKSPACE_SIDE]),
        // Edges exactly on grid coordinates: points on the boundary are in.
        Rect2::from_corners([x, y], [x + 100.0, y + 100.0]),
    ];
    for w in windows {
        for k in [1usize, 10, 10_000] {
            assert_cross(&tp, &tq, &ps, &qs, k, Constraint::window(w), "edge-window");
            assert_self(&tp, &ps, k, Constraint::window(w), "edge-window-self");
        }
    }
}

#[test]
fn tie_storm_constrained() {
    // Few distinct sites, many copies each: every distance (including
    // zero) ties massively, so result membership is decided entirely by
    // the canonical (dist2, p.oid, q.oid) order.
    let mut rng = Rng::seed_from_u64(107);
    let sites: Vec<Point2> = (0..25)
        .map(|_| {
            Point2::from([
                (rng.random_range(0..20u32) as f64) * 5.0,
                (rng.random_range(0..20u32) as f64) * 5.0,
            ])
        })
        .collect();
    let storm = |n: usize, rng: &mut Rng| -> Vec<Point2> {
        (0..n)
            .map(|_| sites[rng.random_range(0..sites.len())])
            .collect()
    };
    let p = storm(300, &mut rng);
    let q = storm(300, &mut rng);
    let (ps, qs) = (indexed(&p), indexed(&q));
    let (tp, tq) = (build(&ps), build(&qs));
    let w = Rect2::from_corners([10.0, 10.0], [70.0, 70.0]);
    for k in [1usize, 10, 1000] {
        assert_cross(&tp, &tq, &ps, &qs, k, Constraint::window(w), "tie-storm");
        assert_self(&tp, &ps, k, Constraint::window(w), "tie-storm-self");
    }
}

#[test]
fn colored_cross_and_self() {
    let p = uniform(300, 108);
    let q = uniform(250, 109);
    for colors in [1u16, 2, 3] {
        let ps = colored(&p.points, colors);
        let qs = colored(&q.points, colors);
        let (tp, tq) = (build(&ps), build(&qs));
        for k in [1usize, 20] {
            // colors == 1 paints everything alike: a colored query over
            // one such set on both sides must come back empty.
            assert_cross(&tp, &tq, &ps, &qs, k, Constraint::colored(), "colored");
            assert_self(&tp, &ps, k, Constraint::colored(), "colored-self");
            // Colored + window combined.
            let w = Rect2::from_corners([100.0, 100.0], [800.0, 800.0]);
            assert_cross(
                &tp,
                &tq,
                &ps,
                &qs,
                k,
                Constraint::window(w).with_colored(),
                "colored-window",
            );
            assert_self(
                &tp,
                &ps,
                k,
                Constraint::window(w).with_colored(),
                "colored-window-self",
            );
        }
    }
}

#[test]
fn k_larger_than_constrained_result() {
    let p = uniform(400, 110);
    let q = uniform(400, 111);
    let (ps, qs) = (indexed(&p.points), indexed(&q.points));
    let (tp, tq) = (build(&ps), build(&qs));
    // A patch admitting only a handful of points per side; K dwarfs the
    // number of qualifying pairs, so the engine must return *all* of them
    // and nothing more.
    let w = Rect2::from_corners([480.0, 480.0], [560.0, 560.0]);
    let oracle = k_closest_pairs_brute_constrained(&ps, &qs, usize::MAX, &Constraint::window(w));
    assert!(
        !oracle.is_empty() && oracle.len() < 3000,
        "window should admit a small non-empty pair set, got {}",
        oracle.len()
    );
    assert_cross(
        &tp,
        &tq,
        &ps,
        &qs,
        oracle.len() + 1000,
        Constraint::window(w),
        "k-overflow",
    );
    assert_self(&tp, &ps, 10_000, Constraint::window(w), "k-overflow-self");
}

/// The windowed traversal must *use* the window rather than scan and
/// post-filter: on clustered data, unbuffered (so disk accesses are node
/// accesses), shrinking the window must never cost more node accesses.
#[test]
fn node_accesses_do_not_grow_as_window_shrinks() {
    let p = clustered(1_500, ClusterSpec::default(), 3);
    let q = clustered(1_500, ClusterSpec::default(), 4);
    let (tp, tq) = (build(&indexed(&p.points)), build(&indexed(&q.points)));
    let accesses: Vec<(f64, u64)> = [1.0, 0.5, 0.25, 0.125]
        .into_iter()
        .map(|frac| {
            let side = WORKSPACE_SIDE * frac;
            let con = Constraint::window(Rect2::from_corners([0.0, 0.0], [side, side]));
            let out = k_closest_pairs_constrained(
                &tp,
                &tq,
                10,
                Algorithm::Heap,
                &CpqConfig::paper(),
                con,
            )
            .unwrap();
            (frac, out.stats.disk_accesses())
        })
        .collect();
    for pair in accesses.windows(2) {
        assert!(
            pair[1].1 <= pair[0].1,
            "node accesses grew as the window shrank: {accesses:?}"
        );
    }
}

/// One seeded property sweep: `rounds` random constraint shapes (random
/// windows — sometimes per-side, sometimes degenerate — random color
/// counts, random K) against the oracle. Heap and STD only, to keep the
/// runtime proportionate; the fixed cases cover all five algorithms.
fn randomized_sweep(master_seed: u64, rounds: u32) {
    let mut rng = Rng::seed_from_u64(master_seed);
    let p = uniform(250, master_seed.wrapping_add(1));
    let q = uniform(250, master_seed.wrapping_add(2));
    for round in 0..rounds {
        let colors = [1u16, 2, 4][rng.random_range(0..3usize)];
        let (ps, qs) = (colored(&p.points, colors), colored(&q.points, colors));
        let (tp, tq) = (build(&ps), build(&qs));
        let rand_window = |rng: &mut Rng| -> Rect2 {
            let x0 = rng.random_range(0.0..WORKSPACE_SIDE);
            let y0 = rng.random_range(0.0..WORKSPACE_SIDE);
            // Extent 0 (degenerate) up to 60% of the workspace.
            let wx = rng.random_range(0.0..WORKSPACE_SIDE * 0.6);
            let wy = rng.random_range(0.0..WORKSPACE_SIDE * 0.6);
            Rect2::from_corners([x0, y0], [x0 + wx, y0 + wy])
        };
        let con = match rng.random_range(0..4u32) {
            0 => Constraint::window(rand_window(&mut rng)),
            1 => Constraint::windows(Some(rand_window(&mut rng)), Some(rand_window(&mut rng))),
            2 => Constraint::window(rand_window(&mut rng)).with_colored(),
            _ => Constraint::colored(),
        };
        let k = [1usize, 7, 400][rng.random_range(0..3usize)];
        let oracle = k_closest_pairs_brute_constrained(&ps, &qs, k, &con);
        for alg in [Algorithm::SortedDistances, Algorithm::Heap] {
            for threads in [0usize, 4] {
                let cfg = CpqConfig::paper().with_parallelism(threads);
                let out = k_closest_pairs_constrained(&tp, &tq, k, alg, &cfg, con).unwrap();
                assert_same(
                    &out.pairs,
                    &oracle,
                    &format!(
                        "seed {master_seed} round {round} {} k={k} t={threads}",
                        alg.label()
                    ),
                );
            }
        }
        // Symmetric constraints also run as self-joins against the oracle.
        if con.is_symmetric() {
            let oracle = self_k_closest_pairs_brute_constrained(&ps, k, &con);
            let out =
                self_closest_pairs_constrained(&tp, k, Algorithm::Heap, &CpqConfig::paper(), con)
                    .unwrap();
            assert_same(
                &out.pairs,
                &oracle,
                &format!("seed {master_seed} self round {round}"),
            );
        }
    }
}

#[test]
fn randomized_constraints_match_oracle() {
    randomized_sweep(112, 12);
}

/// Release-tier multi-seed sweep (`scripts/ci.sh --full` runs it with
/// `--include-ignored`): fresh datasets *and* fresh constraint shapes per
/// seed, ~100 additional randomized oracle comparisons.
#[test]
#[ignore = "release sweep tier; run via scripts/ci.sh --full"]
fn multi_seed_randomized_sweep() {
    for seed in 200..225u64 {
        randomized_sweep(seed, 4);
    }
}

#[test]
fn unconstrained_constraint_is_plain_kcpq() {
    // Constraint::none() must take the exact code path the plain API
    // takes: same pairs, same stats.
    let p = uniform(300, 115);
    let q = uniform(300, 116);
    let (ps, qs) = (indexed(&p.points), indexed(&q.points));
    let (tp, tq) = (build(&ps), build(&qs));
    for alg in ALL {
        let cfg = CpqConfig::paper();
        let plain = cpq_core::k_closest_pairs(&tp, &tq, 30, alg, &cfg).unwrap();
        let con = k_closest_pairs_constrained(&tp, &tq, 30, alg, &cfg, Constraint::none()).unwrap();
        assert_same(&con.pairs, &plain.pairs, &format!("none() {}", alg.label()));
        assert_eq!(plain.stats, con.stats, "none() stats {}", alg.label());
    }
}
