//! Validates the analytic cost model against measured disk accesses on
//! uniform workloads: within `[0.9, 1.2]` of the measured count (the model
//! reads 1.02-1.16 of it here) and monotone in the workload knobs.

use cpq_core::costmodel::estimate_1cp_cost;
use cpq_core::{k_closest_pairs, Algorithm, CpqConfig};
use cpq_datasets::{uniform, Dataset};
use cpq_rtree::RTree;

mod common;

fn measured_accesses(tp: &RTree<2>, tq: &RTree<2>) -> u64 {
    tp.pool().set_capacity(0);
    tq.pool().set_capacity(0);
    tp.pool().reset_stats();
    tq.pool().reset_stats();
    let out = k_closest_pairs(tp, tq, 1, Algorithm::Heap, &CpqConfig::paper()).unwrap();
    out.stats.disk_accesses()
}

fn predicted_accesses(tp: &RTree<2>, p: &Dataset, tq: &RTree<2>, q: &Dataset) -> f64 {
    // Ample buffer for the statistics walk (not part of the measurement).
    tp.pool().set_capacity(512);
    tq.pool().set_capacity(512);
    let sp = tp.level_stats().unwrap();
    let sq = tq.level_stats().unwrap();
    estimate_1cp_cost(&sp, &p.workspace, tp.len(), &sq, &q.workspace, tq.len())
        .expect("overlapping workspaces")
        .disk_accesses
}

#[test]
fn model_within_a_fifth_on_overlapping_uniform_data() {
    for (np, nq, seed) in [
        (5_000, 5_000, 1u64),
        (10_000, 5_000, 3),
        (20_000, 20_000, 5),
    ] {
        let p = uniform(np, seed);
        let q = uniform(nq, seed + 1); // same workspace: 100% overlap
        let tp = common::build(&p.points, 512);
        let tq = common::build(&q.points, 512);
        let predicted = predicted_accesses(&tp, &p, &tq, &q);
        let measured = measured_accesses(&tp, &tq) as f64;
        let ratio = predicted / measured;
        assert!(
            (0.9..=1.2).contains(&ratio),
            "{np}x{nq}: predicted {predicted:.0}, measured {measured:.0}, ratio {ratio:.2}"
        );
    }
}

#[test]
fn model_tracks_partial_overlap() {
    let p = uniform(10_000, 11);
    let tp = common::build(&p.points, 512);
    let mut predictions = Vec::new();
    let mut measurements = Vec::new();
    for overlap in [0.25, 0.5, 1.0] {
        let q = uniform(10_000, 12).with_overlap(&p, overlap);
        let tq = common::build(&q.points, 512);
        predictions.push(predicted_accesses(&tp, &p, &tq, &q));
        measurements.push(measured_accesses(&tp, &tq) as f64);
    }
    // Both sequences increase with overlap, and the model stays within
    // `[0.9, 1.2]` of the measurement at every point.
    for w in predictions.windows(2) {
        assert!(
            w[0] < w[1],
            "prediction must grow with overlap: {predictions:?}"
        );
    }
    for w in measurements.windows(2) {
        assert!(
            w[0] < w[1],
            "measurement must grow with overlap: {measurements:?}"
        );
    }
    for (pr, me) in predictions.iter().zip(&measurements) {
        let ratio = pr / me;
        assert!(
            (0.9..=1.2).contains(&ratio),
            "ratio {ratio:.2} (predicted {pr:.0}, measured {me:.0})"
        );
    }
}

#[test]
fn model_ranks_cardinalities_correctly() {
    // Bigger inputs -> more accesses, in both model and reality.
    let p = uniform(4_000, 21);
    let tp = common::build(&p.points, 512);
    let q_small = uniform(4_000, 22);
    let q_large = uniform(40_000, 23);
    let tq_small = common::build(&q_small.points, 512);
    let tq_large = common::build(&q_large.points, 512);
    let pred_small = predicted_accesses(&tp, &p, &tq_small, &q_small);
    let pred_large = predicted_accesses(&tp, &p, &tq_large, &q_large);
    assert!(pred_small < pred_large);
    let meas_small = measured_accesses(&tp, &tq_small);
    let meas_large = measured_accesses(&tp, &tq_large);
    assert!(meas_small < meas_large);
}
