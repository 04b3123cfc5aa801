//! "The exact counts did not move", as a test: the full [`CpqStats`] of the
//! five algorithms × K ∈ {1, 100} × pool ∈ {0, 32} pages, cross and self,
//! on a seeded 1,000-point clustered / 1,000-point uniform pair of paper
//! trees under `CpqConfig::paper()`, pinned to the values of the commit
//! before the threshold-first leaf kernel (PR 18's parent). A change to
//! CP1–CP3, the bounds or the K-heap that alters the threshold trajectory —
//! and with it pruning, node reads or the paper's disk accesses — fails here
//! instead of in a traced benchmark run read by eye.
//!
//! After an *intended* change of the work done, replace [`GOLDEN`] with the
//! table the failure prints and say why in the commit.

use cpq_core::{execute, Algorithm, CpqConfig, ExecCtx, QuerySpec};
use cpq_datasets::{clustered, uniform, ClusterSpec};
use std::fmt::Write;

mod common;
use common::build;

/// One line per run: disk accesses P, Q; node pairs; pairs pruned; distance
/// computations; queue inserts; queue peak.
const GOLDEN: &str = "\
cross NAIVE k=1 pool=0: 4641 4641 4641 0 1000000 0 0
cross NAIVE k=100 pool=0: 4641 4641 4641 0 1000000 0 0
cross EXH k=1 pool=0: 179 179 179 2210 39346 0 0
cross EXH k=100 pool=0: 204 204 204 2185 44867 0 0
cross SIM k=1 pool=0: 177 177 177 2212 38814 0 0
cross SIM k=100 pool=0: 203 203 203 2186 44563 0 0
cross STD k=1 pool=0: 176 176 176 2213 38434 0 0
cross STD k=100 pool=0: 200 200 200 2189 43882 0 0
cross HEAP k=1 pool=0: 175 175 175 2089 38280 299 286
cross HEAP k=100 pool=0: 193 193 193 1754 42268 634 621
self NAIVE k=1 pool=0: 10134 0 5067 0 499500 0 0
self NAIVE k=100 pool=0: 10134 0 5067 0 499500 0 0
self EXH k=1 pool=0: 212 0 106 1689 9824 0 0
self EXH k=100 pool=0: 392 0 196 1599 19844 0 0
self SIM k=1 pool=0: 212 0 106 1689 9824 0 0
self SIM k=100 pool=0: 392 0 196 1599 19844 0 0
self STD k=1 pool=0: 218 0 109 1686 10191 0 0
self STD k=100 pool=0: 372 0 186 1609 18654 0 0
self HEAP k=1 pool=0: 202 0 101 84 9486 1710 1696
self HEAP k=100 pool=0: 310 0 155 36 15272 1758 1744
cross NAIVE k=1 pool=32: 77 351 4641 0 1000000 0 0
cross NAIVE k=100 pool=32: 77 351 4641 0 1000000 0 0
cross EXH k=1 pool=32: 77 76 179 2210 39346 0 0
cross EXH k=100 pool=32: 77 87 204 2185 44867 0 0
cross SIM k=1 pool=32: 77 76 177 2212 38814 0 0
cross SIM k=100 pool=32: 77 87 203 2186 44563 0 0
cross STD k=1 pool=32: 79 74 176 2213 38434 0 0
cross STD k=100 pool=32: 79 86 200 2189 43882 0 0
cross HEAP k=1 pool=32: 90 80 175 2089 38280 299 286
cross HEAP k=100 pool=32: 98 85 193 1754 42268 634 621
self NAIVE k=1 pool=32: 573 0 5067 0 499500 0 0
self NAIVE k=100 pool=32: 573 0 5067 0 499500 0 0
self EXH k=1 pool=32: 84 0 106 1689 9824 0 0
self EXH k=100 pool=32: 89 0 196 1599 19844 0 0
self SIM k=1 pool=32: 84 0 106 1689 9824 0 0
self SIM k=100 pool=32: 89 0 196 1599 19844 0 0
self STD k=1 pool=32: 88 0 109 1686 10191 0 0
self STD k=100 pool=32: 91 0 186 1609 18654 0 0
self HEAP k=1 pool=32: 79 0 101 84 9486 1710 1696
self HEAP k=100 pool=32: 100 0 155 36 15272 1758 1744
";

#[test]
fn full_stats_of_every_algorithm_are_the_parents() {
    let p = clustered(1000, ClusterSpec::default(), 18);
    let q = uniform(1000, 19);
    let cfg = CpqConfig::paper();
    let mut got = String::new();
    for pool in [0, 32] {
        let (tp, tq) = (build(&p.points, pool), build(&q.points, pool));
        for (join, tq) in [("cross", &tq), ("self", &tp)] {
            let algs = [Algorithm::Naive].into_iter().chain(Algorithm::EVALUATED);
            for alg in algs {
                for k in [1, 100] {
                    let spec = match join {
                        "self" => QuerySpec::self_join(k),
                        _ => QuerySpec::cross(k),
                    };
                    // Every run starts cold, so a row does not depend on
                    // the rows before it.
                    tp.pool().clear();
                    tq.pool().clear();
                    let run = execute(&tp, tq, &spec, alg, &cfg, ExecCtx::default());
                    let s = run.unwrap().outcome.stats;
                    writeln!(
                        got,
                        "{join} {} k={k} pool={pool}: {} {} {} {} {} {} {}",
                        alg.label(),
                        s.disk_accesses_p,
                        s.disk_accesses_q,
                        s.node_pairs_processed,
                        s.pairs_pruned,
                        s.dist_computations,
                        s.queue_inserts,
                        s.queue_peak,
                    )
                    .unwrap();
                }
            }
        }
    }
    assert!(got == GOLDEN, "work counts moved; the run measured:\n{got}");
}
