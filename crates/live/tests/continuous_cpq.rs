//! Continuous K-CPQ exactness: at every step of randomized ≥100-step
//! update streams — cross-tree and self-join, on tie-storm gridded data —
//! the incrementally maintained result set is bit-identical to a
//! from-scratch engine recompute.

use cpq_core::{k_closest_pairs, self_closest_pairs, Algorithm, CpqConfig, PairResult, QuerySpec};
use cpq_datasets::uniform_grid;
use cpq_geo::Point2;
use cpq_live::tree::LiveConfig;
use cpq_live::{ContinuousCpq, LiveSet, LiveTree, Side, UpdateOp};
use cpq_rng::Rng;
use cpq_rtree::RTreeParams;

fn keys(pairs: &[PairResult<2>]) -> Vec<(u64, u64, u64)> {
    pairs
        .iter()
        .map(|r| (r.dist2.get().to_bits(), r.p.oid, r.q.oid))
        .collect()
}

/// Builds a randomized stream mixing inserts and deletes over `data`,
/// tracking live membership so deletes always target a present point.
fn stream(data: &[Point2], sides: bool, seed: u64, delete_p: f64) -> Vec<UpdateOp<2>> {
    let mut rng = Rng::seed_from_u64(seed);
    let mut ops = Vec::new();
    let mut alive: Vec<(Side, Point2, u64)> = Vec::new();
    for (i, p) in data.iter().enumerate() {
        if !alive.is_empty() && rng.random_bool(delete_p) {
            let idx = (rng.next_u64() % alive.len() as u64) as usize;
            let (side, vp, void) = alive.swap_remove(idx);
            ops.push(UpdateOp::Delete {
                side,
                object: vp,
                oid: void,
            });
        }
        let side = if sides && rng.random_bool(0.5) {
            Side::Q
        } else {
            Side::P
        };
        let oid = i as u64;
        ops.push(UpdateOp::Insert {
            side,
            object: *p,
            oid,
        });
        alive.push((side, *p, oid));
    }
    ops
}

/// Cross form through [`LiveSet::apply`] + [`LiveSet::watch`]: 120+ steps
/// on a coarse grid (distance ties everywhere), K chosen to sit in the
/// saturated regime most of the time. Every step compares against a full
/// engine recompute, raw distance bits included.
#[test]
fn cross_stream_is_bit_identical_to_recompute_each_step() {
    let data = uniform_grid(130, 0xFACE, 200.0);
    let cfg = CpqConfig::default();
    for k in [1usize, 7] {
        let set: LiveSet<2> =
            LiveSet::new_in_memory(RTreeParams::paper(), &LiveConfig::default()).expect("set");
        set.watch(k).expect("watch");
        let ops = stream(&data.points, true, 0xD1CE ^ k as u64, 0.35);
        assert!(ops.len() >= 100, "stream too short: {}", ops.len());
        for (step, op) in ops.iter().enumerate() {
            set.apply(std::slice::from_ref(op)).expect("apply");
            let got = set.watched_pairs().expect("watching");
            let sp = set.p().snapshot().expect("snap p");
            let sq = set.q().snapshot().expect("snap q");
            let want =
                k_closest_pairs(sp.tree(), sq.tree(), k, Algorithm::Heap, &cfg).expect("recompute");
            assert_eq!(
                keys(&got),
                keys(&want.pairs),
                "k {k} step {step} diverged after {op:?}"
            );
        }
    }
}

/// Self-join form driven directly through [`ContinuousCpq`] on one live
/// tree, same per-step bit-identity bar.
#[test]
fn self_stream_is_bit_identical_to_recompute_each_step() {
    let data = uniform_grid(120, 0xBEEF, 200.0);
    let cfg = CpqConfig::default();
    let k = 6usize;
    let live: LiveTree<2> =
        LiveTree::new_in_memory(RTreeParams::paper(), &LiveConfig::default()).expect("live");
    let snap = live.snapshot().expect("snap");
    let mut cont = ContinuousCpq::new(&QuerySpec::self_join(k), &snap, &snap).expect("continuous");
    drop(snap);
    let mut rng = Rng::seed_from_u64(4242);
    let mut alive: Vec<(Point2, u64)> = Vec::new();
    let mut steps = 0;
    for (i, p) in data.points.iter().enumerate() {
        if !alive.is_empty() && rng.random_bool(0.35) {
            let idx = (rng.next_u64() % alive.len() as u64) as usize;
            let (vp, void) = alive.swap_remove(idx);
            assert!(live.delete(vp, void).expect("delete"));
            cont.on_delete_self(void, &live.snapshot().expect("snap"))
                .expect("on_delete");
            steps += 1;
            check_self(&live, &cont, k, &cfg, steps);
        }
        let oid = i as u64;
        live.insert(*p, oid).expect("insert");
        alive.push((*p, oid));
        cont.on_insert_self(*p, oid, &live.snapshot().expect("snap"))
            .expect("on_insert");
        steps += 1;
        check_self(&live, &cont, k, &cfg, steps);
    }
    assert!(steps >= 100, "stream too short: {steps}");
    // The economics: the incremental path must not be recomputing every
    // step in disguise.
    let st = cont.stats();
    assert!(
        st.refills < steps / 2,
        "refilled {} times over {steps} steps",
        st.refills
    );
}

fn check_self(live: &LiveTree<2>, cont: &ContinuousCpq<2>, k: usize, cfg: &CpqConfig, step: u64) {
    let snap = live.snapshot().expect("snap");
    let want = self_closest_pairs(snap.tree(), k, Algorithm::Heap, cfg).expect("recompute");
    assert_eq!(
        keys(&cont.pairs()),
        keys(&want.pairs),
        "self step {step} diverged"
    );
}

/// Tie storm: many points on the *same* grid node so the K-th distance
/// is massively tied; the canonical order must keep the maintained set
/// and the recomputed set identical through inserts and deletes.
#[test]
fn tie_storm_stays_exact() {
    let cfg = CpqConfig::default();
    let k = 5usize;
    let set: LiveSet<2> =
        LiveSet::new_in_memory(RTreeParams::paper(), &LiveConfig::default()).expect("set");
    set.watch(k).expect("watch");
    // A 3x3 lattice with unit spacing: every adjacent pair ties at 1.0,
    // every diagonal at 2.0 — replicated into both sides.
    let mut ops: Vec<UpdateOp<2>> = Vec::new();
    let mut oid = 0u64;
    for x in 0..3 {
        for y in 0..3 {
            for side in [Side::P, Side::Q] {
                ops.push(UpdateOp::Insert {
                    side,
                    object: Point2::new([x as f64, y as f64]),
                    oid,
                });
                oid += 1;
            }
        }
    }
    // Then tear half of it down again.
    let teardown: Vec<UpdateOp<2>> = ops
        .iter()
        .take(9)
        .map(|op| match *op {
            UpdateOp::Insert { side, object, oid } => UpdateOp::Delete { side, object, oid },
            UpdateOp::Delete { .. } => unreachable!(),
        })
        .collect();
    ops.extend(teardown);
    for (step, op) in ops.iter().enumerate() {
        set.apply(std::slice::from_ref(op)).expect("apply");
        let got = set.watched_pairs().expect("watching");
        let sp = set.p().snapshot().expect("snap p");
        let sq = set.q().snapshot().expect("snap q");
        let want =
            k_closest_pairs(sp.tree(), sq.tree(), k, Algorithm::Heap, &cfg).expect("recompute");
        assert_eq!(keys(&got), keys(&want.pairs), "tie-storm step {step}");
    }
}
