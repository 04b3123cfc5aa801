//! Multi-threaded registry stress test: many threads hammering shared
//! counters, gauges, and histograms through the registry must lose nothing —
//! the handles carry *exact* counts, not approximations.

use cpq_obs::{lint_exposition, Registry};
use std::sync::Arc;

const THREADS: u64 = 8;
const ITERS: u64 = 10_000;

#[test]
fn concurrent_updates_are_exact() {
    let reg = Arc::new(Registry::new());
    // Pre-register so every thread resolves the same instruments.
    let ops = reg.counter("stress_ops_total", "ops", &[]);
    let hist = reg.histogram("stress_latency", "lat", &[]);

    std::thread::scope(|s| {
        for t in 0..THREADS {
            let reg = Arc::clone(&reg);
            s.spawn(move || {
                // Re-resolve inside the thread: get-or-create must return
                // the same underlying instrument.
                let ops = reg.counter("stress_ops_total", "ops", &[]);
                let labeled = reg.counter(
                    "stress_labeled_total",
                    "per-thread",
                    &[("thread", &t.to_string())],
                );
                let hist = reg.histogram("stress_latency", "lat", &[]);
                let gauge = reg.gauge("stress_level", "level", &[]);
                for i in 0..ITERS {
                    ops.inc();
                    labeled.add(2);
                    hist.record(i % 1024);
                    gauge.set(t as f64);
                }
            });
        }
    });

    // Every thread's updates landed in the handles registered above.
    assert_eq!(ops.get(), THREADS * ITERS);
    for t in 0..THREADS {
        let labeled = reg.counter(
            "stress_labeled_total",
            "per-thread",
            &[("thread", &t.to_string())],
        );
        assert_eq!(labeled.get(), 2 * ITERS);
    }
    let h = hist.snapshot();
    assert_eq!(h.count, THREADS * ITERS);
    // Every recorded value is < 1024 = 2^10, so the le=1024 bucket
    // already holds everything.
    let full: u64 = h.buckets.iter().sum::<u64>() + h.overflow;
    assert_eq!(full, h.count);
    assert_eq!(h.overflow, 0);
    let expected_sum: u64 = THREADS * (0..ITERS).map(|i| i % 1024).sum::<u64>();
    assert_eq!(h.sum, expected_sum);
    let level = reg.gauge("stress_level", "level", &[]).get();
    assert!((0.0..THREADS as f64).contains(&level));

    // The rendered exposition of the stressed registry must be lint-clean.
    lint_exposition(&reg.render_prometheus()).expect("stressed registry renders clean");
}

#[test]
fn snapshot_under_concurrent_writes_is_coherent() {
    // Histogram snapshots taken mid-write must satisfy count == Σ buckets
    // (torn-view freedom by construction) and sum must never exceed the
    // final total.
    let reg = Arc::new(Registry::new());
    let hist = reg.histogram("torn_check", "x", &[]);
    std::thread::scope(|s| {
        let writer = {
            let hist = Arc::clone(&hist);
            s.spawn(move || {
                for i in 0..50_000u64 {
                    hist.record(i % 100);
                }
            })
        };
        for _ in 0..200 {
            let snap = hist.snapshot();
            let total: u64 = snap.buckets.iter().sum::<u64>() + snap.overflow;
            assert_eq!(snap.count, total, "histogram count derives from buckets");
            std::thread::yield_now();
        }
        writer.join().unwrap();
    });
    let fin = hist.snapshot();
    assert_eq!(fin.count, 50_000);
}
