//! Windowed/colored continuous K-CPQ exactness over live trees.
//!
//! At every step of randomized update streams, a *constrained*
//! [`ContinuousCpq`] watch must hold exactly the pairs a from-scratch
//! constrained engine query over the current snapshots would return —
//! raw distance bits included. The insert path's early-exit (a new point
//! outside its side's window generates no candidate probe) and the
//! delete path's constrained refill are exactly where an incremental
//! implementation could silently drift from the oracle.

use cpq_core::{
    k_closest_pairs_constrained, self_closest_pairs_constrained, Algorithm, Constraint, CpqConfig,
    PairResult, QuerySpec,
};
use cpq_datasets::uniform_grid;
use cpq_geo::{pack_color, Point2, Rect2};
use cpq_live::tree::LiveConfig;
use cpq_live::{ContinuousCpq, LiveTree, Side};
use cpq_rng::Rng;
use cpq_rtree::{RTreeParams, ValidateOptions};

fn keys(pairs: &[PairResult<2>]) -> Vec<(u64, u64, u64)> {
    pairs
        .iter()
        .map(|r| (r.dist2.get().to_bits(), r.p.oid, r.q.oid))
        .collect()
}

/// Cross form: randomized insert/delete stream over coarse gridded data
/// (ties everywhere), with a window covering roughly a quarter of it.
/// Every step compares the watch against a constrained recompute.
#[test]
fn windowed_cross_stream_matches_constrained_recompute() {
    let data = uniform_grid(130, 0xACE, 200.0);
    let cfg = CpqConfig::default();
    let window = Rect2::from_corners([0.0, 0.0], [600.0, 600.0]);
    let con = Constraint::window(window);
    for k in [1usize, 6] {
        let build = || {
            LiveTree::<2>::new_in_memory(RTreeParams::paper(), &LiveConfig::default())
                .expect("live tree")
        };
        let (p, q) = (build(), build());
        let mut cont = ContinuousCpq::new(
            &QuerySpec::cross(k).with_constraint(con),
            &p.snapshot().expect("snap"),
            &q.snapshot().expect("snap"),
        )
        .expect("continuous");
        let mut rng = Rng::seed_from_u64(0xC0FFEE ^ k as u64);
        let mut alive: Vec<(Side, Point2, u64)> = Vec::new();
        let mut steps = 0u64;
        let check = |cont: &ContinuousCpq<2>, step: u64| {
            let sp = p.snapshot().expect("snap p");
            let sq = q.snapshot().expect("snap q");
            let want =
                k_closest_pairs_constrained(sp.tree(), sq.tree(), k, Algorithm::Heap, &cfg, con)
                    .expect("recompute");
            assert_eq!(
                keys(&cont.pairs()),
                keys(&want.pairs),
                "k {k} step {step} diverged"
            );
        };
        for (i, pt) in data.points.iter().enumerate() {
            if !alive.is_empty() && rng.random_bool(0.35) {
                let idx = (rng.next_u64() % alive.len() as u64) as usize;
                let (side, vp, void) = alive.swap_remove(idx);
                let tree = if side == Side::P { &p } else { &q };
                assert!(tree.delete(vp, void).expect("delete"));
                cont.on_delete(
                    side,
                    void,
                    &p.snapshot().expect("snap"),
                    &q.snapshot().expect("snap"),
                )
                .expect("on_delete");
                steps += 1;
                check(&cont, steps);
            }
            let side = if rng.random_bool(0.5) {
                Side::Q
            } else {
                Side::P
            };
            let oid = i as u64;
            let tree = if side == Side::P { &p } else { &q };
            tree.insert(*pt, oid).expect("insert");
            alive.push((side, *pt, oid));
            cont.on_insert(
                side,
                *pt,
                oid,
                &p.snapshot().expect("snap"),
                &q.snapshot().expect("snap"),
            )
            .expect("on_insert");
            steps += 1;
            check(&cont, steps);
        }
        assert!(steps >= 100, "stream too short: {steps}");
    }
}

/// Colored + windowed self-join stream: colors alternate, the window
/// clips a corner, and every step must match the constrained recompute.
#[test]
fn colored_windowed_self_stream_matches_recompute() {
    let data = uniform_grid(110, 0xFEED, 200.0);
    let cfg = CpqConfig::default();
    let window = Rect2::from_corners([200.0, 0.0], [1000.0, 800.0]);
    let con = Constraint::window(window).with_colored();
    let k = 5usize;
    let live: LiveTree<2> =
        LiveTree::new_in_memory(RTreeParams::paper(), &LiveConfig::default()).expect("live");
    let snap = live.snapshot().expect("snap");
    let mut cont = ContinuousCpq::new(&QuerySpec::self_join(k).with_constraint(con), &snap, &snap)
        .expect("continuous");
    drop(snap);
    let mut rng = Rng::seed_from_u64(0xAB5E);
    let mut alive: Vec<(Point2, u64)> = Vec::new();
    let mut steps = 0u64;
    let check = |cont: &ContinuousCpq<2>, live: &LiveTree<2>, step: u64| {
        let snap = live.snapshot().expect("snap");
        let want = self_closest_pairs_constrained(snap.tree(), k, Algorithm::Heap, &cfg, con)
            .expect("recompute");
        assert_eq!(keys(&cont.pairs()), keys(&want.pairs), "step {step}");
    };
    for (i, pt) in data.points.iter().enumerate() {
        if !alive.is_empty() && rng.random_bool(0.3) {
            let idx = (rng.next_u64() % alive.len() as u64) as usize;
            let (vp, void) = alive.swap_remove(idx);
            assert!(live.delete(vp, void).expect("delete"));
            cont.on_delete_self(void, &live.snapshot().expect("snap"))
                .expect("on_delete");
            steps += 1;
            check(&cont, &live, steps);
        }
        // Alternating colors packed into the oid's color channel.
        let oid = pack_color(i as u64, (i % 2) as u16);
        live.insert(*pt, oid).expect("insert");
        alive.push((*pt, oid));
        cont.on_insert_self(*pt, oid, &live.snapshot().expect("snap"))
            .expect("on_insert");
        steps += 1;
        check(&cont, &live, steps);
    }
    assert!(steps >= 100, "stream too short: {steps}");
}

/// A live tree populated only with points inside a window validates
/// against that window as a required bound — and the bound check really
/// fires when a point lies outside it.
#[test]
fn snapshot_validates_against_window_bounds() {
    let window = Rect2::from_corners([100.0, 100.0], [500.0, 500.0]);
    let live: LiveTree<2> =
        LiveTree::new_in_memory(RTreeParams::paper(), &LiveConfig::default()).expect("live");
    let data = uniform_grid(200, 0xB0B, 50.0);
    let mut kept = 0u64;
    for (i, pt) in data.points.iter().enumerate() {
        if window.contains_point(pt) {
            live.insert(*pt, i as u64).expect("insert");
            kept += 1;
        }
    }
    assert!(kept > 10, "window should keep a meaningful subset");
    let snap = live.snapshot().expect("snap");
    let report = snap
        .tree()
        .validate_with_options(ValidateOptions {
            unique_oids: true,
            bounds: Some(window),
        })
        .expect("validate");
    assert!(report.is_valid(), "violations: {:?}", report.violations);
    assert_eq!(report.points, kept);

    // One point outside the window must trip the bounds invariant.
    live.insert(Point2::new([900.0, 900.0]), 1_000_000)
        .expect("insert");
    let snap = live.snapshot().expect("snap");
    let report = snap
        .tree()
        .validate_with_options(ValidateOptions {
            unique_oids: true,
            bounds: Some(window),
        })
        .expect("validate");
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.contains("outside required bounds")),
        "expected a bounds violation, got: {:?}",
        report.violations
    );
}
