//! The metric tables of the benchmark and the container a run fills.
//!
//! `BENCHMARK.json` at the repo root declares the same names and units
//! (plus direction and bounds); `tests/smoke.rs` holds the two together.

use std::collections::BTreeMap;

/// The four workloads, in the order `run.sh` runs them.
pub const WORKLOADS: [&str; 4] = ["kcpq_hot", "kcpq_cold", "svc_mix", "live_rw"];

/// End-to-end metrics `(name, unit)`; every workload reports all of them
/// from the untraced run. The sixth number the issue asks for, the failed
/// share, is `failed / attempted` of the result line: it is 0 on a
/// healthy run, and `BENCHMARK.json` may only list metrics that never are.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p95", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics `(name, unit)`, reported by the traced run. A metric
/// whose layer the workload does not exercise reads 0 there (README,
/// "Per-layer metrics", says which workloads measure which).
pub const PER_LAYER: [(&str, &str); 60] = [
    ("geo.pt_dist2_within_ns", "ns"),
    ("geo.min_min_dist2_ns", "ns"),
    ("storage.pool_hit_ns", "ns"),
    ("storage.pool_hit_ns_2t", "ns"),
    ("storage.pool_miss_ns", "ns"),
    ("storage.file_read_ns", "ns"),
    ("storage.crc32_ns_per_page", "ns"),
    ("storage.pool_misses_per_op", "count"),
    ("storage.pool_hit_rate", "ratio"),
    ("storage.evictions_per_op", "count"),
    ("storage.write_page_ns", "ns"),
    ("storage.sched_op_ms_p50", "ms"),
    ("storage.sched_prefetch_hit_rate", "ratio"),
    ("storage.sched_prefetch_waste_per_op", "count"),
    ("storage.sched_coalesce_ratio", "ratio"),
    ("rtree.read_node_hit_ns", "ns"),
    ("rtree.decode_ns", "ns"),
    ("rtree.node_reads_per_op", "count"),
    ("rtree.node_access_share", "ratio"),
    ("rtree.read_node_miss_ns", "ns"),
    ("rtree.insert_us", "us"),
    ("rtree.delete_us", "us"),
    ("rtree.build_insert_s", "s"),
    ("rtree.bulk_load_s", "s"),
    ("core.gen_ms_per_op", "ms"),
    ("core.scan_ms_per_op", "ms"),
    ("core.other_ms_per_op", "ms"),
    ("core.dist_computations_per_op", "count"),
    ("core.node_pairs_per_op", "count"),
    ("core.pairs_pruned_per_op", "count"),
    ("core.heap_high_watermark", "count"),
    ("core.kheap_offer_ns", "ns"),
    ("core.scan_ms_per_op_sweep", "ms"),
    ("core.parallel2_op_ms_p50", "ms"),
    ("core.probe_overhead_frac", "ratio"),
    ("shard.scatter_op_ms_p50", "ms"),
    ("shard.classic_op_ms_p50", "ms"),
    ("shard.codec_roundtrip_us", "us"),
    ("shard.pairs_pruned_frac", "ratio"),
    ("live.insert_us_p50", "us"),
    ("live.delete_us_p50", "us"),
    ("live.wal_commit_us", "us"),
    ("live.wal_flushes_per_commit", "ratio"),
    ("live.wal_bytes_per_op", "bytes"),
    ("live.snapshot_ns", "ns"),
    ("live.continuous_insert_us", "us"),
    ("live.continuous_delete_us", "us"),
    ("live.refills_per_1k_ops", "count"),
    ("live.checkpoint_ms", "ms"),
    ("live.reader_query_ms_p50", "ms"),
    ("live.recover_s", "s"),
    ("live.disk_bytes_per_point", "bytes"),
    ("service.queue_wait_ms_p50", "ms"),
    ("service.exec_ms_p50", "ms"),
    ("service.overhead_us", "us"),
    ("service.plan_ns", "ns"),
    ("service.queue_push_pop_ns", "ns"),
    ("service.worker_util", "ratio"),
    ("service.shed_frac", "ratio"),
    ("obs.profile_overhead_frac", "ratio"),
];

/// Counts that repeat exactly for one seed on the workloads that report
/// them from the engine's own counters (the smoke test compares them
/// across runs).
pub const EXACT_COUNTS: [&str; 6] = [
    "storage.pool_misses_per_op",
    "rtree.node_reads_per_op",
    "core.dist_computations_per_op",
    "core.node_pairs_per_op",
    "core.pairs_pruned_per_op",
    "core.heap_high_watermark",
];

/// Workloads whose ops run one at a time on one thread, so that every
/// count in [`EXACT_COUNTS`] is a function of the seed alone.
pub const EXACT_WORKLOADS: [&str; 2] = ["kcpq_hot", "kcpq_cold"];

/// The metrics one run reports, keyed by declared name.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, f64>,
    /// Total time of every cycle of the untraced run, in run order (ms):
    /// written to the result file, so that a disturbed run can be told
    /// from a slow build.
    pub cycle_ms: Vec<f64>,
}

impl Metrics {
    /// Every metric of `table` preset to 0.
    pub fn zeroed(table: &[(&'static str, &'static str)]) -> Self {
        Metrics {
            values: table.iter().map(|&(name, _)| (name, 0.0)).collect(),
            cycle_ms: Vec::new(),
        }
    }

    /// Sets a declared metric. `None` (a statistic over zero samples)
    /// stores NaN, which the JSON writer renders as `null`.
    pub fn set(&mut self, name: &'static str, value: impl Into<Option<f64>>) {
        let slot = self
            .values
            .get_mut(name)
            .unwrap_or_else(|| panic!("metric `{name}` is not declared in report.rs"));
        *slot = value.into().unwrap_or(f64::NAN);
    }

    /// Reads a metric back (0 when never set).
    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// `(name, value)` in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.values.iter().map(|(k, v)| (*k, *v))
    }
}

/// Fills `op_ms_p50`, `op_ms_p95` and `ops_per_s` from the op times (ms)
/// of a run's quietest cycles and the seconds those ops took.
pub fn set_latency_metrics(m: &mut Metrics, mut op_ms: Vec<f64>, seconds: f64) {
    m.set("ops_per_s", op_ms.len() as f64 / seconds);
    crate::stats::sort(&mut op_ms);
    m.set("op_ms_p50", crate::stats::percentile(&op_ms, 50.0));
    m.set("op_ms_p95", crate::stats::percentile(&op_ms, 95.0));
}

/// The same for a workload that runs one op at a time: the ops took the
/// sum of their times (the harness's checking between them is not the
/// system's time), so `ops_per_s` is 1 / mean.
pub fn set_serial_latency_metrics(m: &mut Metrics, cycles: Vec<Vec<f64>>) {
    m.cycle_ms = cycles.iter().map(|c| c.iter().sum()).collect();
    let op_ms = crate::stats::quietest(cycles, |c| c.iter().sum()).concat();
    let seconds = op_ms.iter().sum::<f64>() / 1e3;
    set_latency_metrics(m, op_ms, seconds);
}

/// Unit of a declared metric.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map_or("", |(_, u)| *u)
}
