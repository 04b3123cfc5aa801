//! The zero-overhead contract of the instrumentation layer.
//!
//! [`execute`] monomorphizes over the [`ExecCtx`]'s [`Probe`]; with
//! [`NullProbe`] (ENABLED = false) every probe call site must vanish, so
//! a run lent a `NullProbe` and a token has to produce **bit-identical
//! pairs and identical deterministic work counters** to the plain wrappers for
//! all five algorithms, both join kinds, and K ∈ {1, 100}. A divergence
//! means a probe hook leaked work (a counter bump, a clock read, an
//! ordering change) into the uninstrumented hot path.
//!
//! The same sweep with a [`ProfileProbe`] cross-checks the profile against
//! `CpqStats`: the probe's independently-accumulated distance count must
//! equal the engine's, and node accesses must be non-zero wherever the
//! engine did work — catching hooks that are wired but miscounting.
//!
//! Every run gets **freshly built identical trees**: `disk_accesses_*` are
//! buffer-pool miss deltas, so a cache warmed by a previous run would make
//! them diverge for environmental (not instrumentation) reasons.

use cpq_core::{
    execute, k_closest_pairs, self_closest_pairs, Algorithm, CancelToken, CpqConfig, ExecCtx,
    NullProbe, PairResult, ProfileProbe, QuerySpec,
};
use cpq_datasets::uniform;
use cpq_rtree::RTree;

mod common;

/// A deterministic fresh tree pair: identical across calls (same seeds,
/// same insertion order, cold caches), so repeated runs see identical
/// buffer behavior.
fn fresh_pair() -> (RTree<2>, RTree<2>) {
    (
        common::build(&uniform(400, 11).points, 32),
        common::build(&uniform(350, 12).points, 32),
    )
}

const ALL_ALGORITHMS: [Algorithm; 5] = [
    Algorithm::Naive,
    Algorithm::Exhaustive,
    Algorithm::Simple,
    Algorithm::SortedDistances,
    Algorithm::Heap,
];

fn assert_bit_identical(got: &[PairResult<2>], want: &[PairResult<2>], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: result count");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.p.oid, w.p.oid, "{what}: pair {i} p-oid");
        assert_eq!(g.q.oid, w.q.oid, "{what}: pair {i} q-oid");
        assert_eq!(
            g.dist2.get().to_bits(),
            w.dist2.get().to_bits(),
            "{what}: pair {i} dist2 bits"
        );
    }
}

#[test]
fn null_probe_is_bit_identical_to_plain_path() {
    let cfg = CpqConfig::paper();
    for algorithm in ALL_ALGORITHMS {
        for k in [1usize, 100] {
            let what = format!("{} k={k}", algorithm.label());

            let (tp, tq) = fresh_pair();
            let plain = k_closest_pairs(&tp, &tq, k, algorithm, &cfg).unwrap();
            let (tp, tq) = fresh_pair();
            let inst = execute(
                &tp,
                &tq,
                &QuerySpec::cross(k),
                algorithm,
                &cfg,
                ExecCtx::default()
                    .with_cancel(&CancelToken::new())
                    .with_probe(&mut NullProbe),
            )
            .unwrap();
            assert!(inst.completed, "{what}: uncancelled run completes");
            assert_bit_identical(&inst.outcome.pairs, &plain.pairs, &format!("cross {what}"));
            assert_eq!(
                inst.outcome.stats, plain.stats,
                "cross {what}: CpqStats must be identical"
            );

            let (tp, _) = fresh_pair();
            let plain = self_closest_pairs(&tp, k, algorithm, &cfg).unwrap();
            let (tp, _) = fresh_pair();
            let inst = execute(
                &tp,
                &tp,
                &QuerySpec::self_join(k),
                algorithm,
                &cfg,
                ExecCtx::default()
                    .with_cancel(&CancelToken::new())
                    .with_probe(&mut NullProbe),
            )
            .unwrap();
            assert_bit_identical(&inst.outcome.pairs, &plain.pairs, &format!("self {what}"));
            assert_eq!(
                inst.outcome.stats, plain.stats,
                "self {what}: CpqStats must be identical"
            );
        }
    }
}

#[test]
fn profile_probe_agrees_with_engine_counters() {
    let cfg = CpqConfig::paper();
    for algorithm in ALL_ALGORITHMS {
        let what = algorithm.label();
        let (tp, tq) = fresh_pair();
        let mut probe = ProfileProbe::new();
        let run = execute(
            &tp,
            &tq,
            &QuerySpec::cross(100),
            algorithm,
            &cfg,
            ExecCtx::default()
                .with_cancel(&CancelToken::new())
                .with_probe(&mut probe),
        )
        .unwrap();
        let profile = probe.into_profile();

        // Results are also unchanged under an *active* probe.
        let (tp, tq) = fresh_pair();
        let plain = k_closest_pairs(&tp, &tq, 100, algorithm, &cfg).unwrap();
        assert_bit_identical(&run.outcome.pairs, &plain.pairs, what);
        assert_eq!(run.outcome.stats, plain.stats, "{what}: stats under probe");

        // The probe counts distances independently of CpqStats (deltas per
        // leaf scan vs. a global counter); they must agree exactly.
        assert_eq!(
            profile.dist_computations, run.outcome.stats.dist_computations,
            "{what}: probe vs engine distance count"
        );
        // Both roots were visited, and leaves were reached on both sides
        // (level 0 is the leaf level in the per-level vectors).
        assert!(
            profile.node_accesses_p.first().copied().unwrap_or(0) > 0,
            "{what}: p-tree leaf accesses"
        );
        assert!(
            profile.node_accesses_q.first().copied().unwrap_or(0) > 0,
            "{what}: q-tree leaf accesses"
        );
        assert!(profile.scan_ns > 0, "{what}: leaf scans timed");
    }
}
