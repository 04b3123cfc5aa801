//! The paper's Inequalities 1 and 2, and the metric identities the pruning
//! rules lean on, over seeded random point sets and their MBRs.

use cpq_geo::{
    max_max_dist2, min_max_dist2, min_min_dist2, pt_dist2, pt_mindist2, pt_minmaxdist2, Point, Rect,
};
use cpq_rng::Rng;

const CASES: u64 = 256;

fn pointset(rng: &mut Rng, max: usize) -> Vec<Point<2>> {
    let n = rng.random_range(1..max);
    let mut coord = || rng.random_range(-1000.0..1000.0);
    (0..n).map(|_| Point([coord(), coord()])).collect()
}

fn mbr(points: &[Point<2>]) -> Rect<2> {
    Rect::bounding(points.iter().copied()).unwrap()
}

#[test]
fn mbr_metrics_bound_every_contained_pair() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(seed);
        let (ps, qs) = (pointset(&mut rng, 12), pointset(&mut rng, 12));
        let (mp, mq) = (mbr(&ps), mbr(&qs));
        let (lo, mid, hi) = (
            min_min_dist2(&mp, &mq),
            min_max_dist2(&mp, &mq),
            max_max_dist2(&mp, &mq),
        );
        // Ordered, and symmetric in their arguments.
        assert!(lo <= mid && mid <= hi, "seed {seed}: {lo:?} {mid:?} {hi:?}");
        assert_eq!(
            (lo, mid, hi),
            (
                min_min_dist2(&mq, &mp),
                min_max_dist2(&mq, &mp),
                max_max_dist2(&mq, &mp)
            ),
            "seed {seed}"
        );
        // Inequality 1: MINMINDIST <= dist(p, q) <= MAXMAXDIST for every
        // contained pair. Inequality 2: some pair lies within MINMAXDIST.
        let dists = ps
            .iter()
            .flat_map(|p| qs.iter().map(move |q| pt_dist2(p, q)));
        for d in dists.clone() {
            assert!(lo.get() <= d.get() + 1e-9, "seed {seed}: MINMINDIST");
            assert!(d.get() <= hi.get() + 1e-9, "seed {seed}: MAXMAXDIST");
        }
        let closest = dists.min().unwrap();
        assert!(closest.get() <= mid.get() + 1e-9, "seed {seed}: MINMAXDIST");
        // Translating both rectangles moves no metric (up to rounding).
        let delta = [rng.random_range(-50.0..50.0), rng.random_range(-50.0..50.0)];
        let (tp, tq) = (mp.translated(&delta), mq.translated(&delta));
        for (moved, still) in [
            (min_min_dist2(&tp, &tq), lo),
            (min_max_dist2(&tp, &tq), mid),
            (max_max_dist2(&tp, &tq), hi),
        ] {
            assert!((moved.get() - still.get()).abs() < 1e-6, "seed {seed}");
        }
    }
}

/// The point-to-MBR specializations keep the Roussopoulos guarantees.
#[test]
fn point_to_mbr_metrics_bracket_the_nearest_point() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(seed);
        let p = pointset(&mut rng, 2)[0];
        let qs = pointset(&mut rng, 12);
        let mq = mbr(&qs);
        let nearest = qs.iter().map(|q| pt_dist2(&p, q)).min().unwrap();
        assert!(
            pt_mindist2(&p, &mq).get() <= nearest.get() + 1e-9,
            "seed {seed}"
        );
        assert!(
            nearest.get() <= pt_minmaxdist2(&p, &mq).get() + 1e-9,
            "seed {seed}"
        );
    }
}
