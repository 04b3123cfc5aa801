//! Service-level observability: the metrics registry wiring, the bridged
//! buffer-pool counters, and the slow-query log.
//!
//! One [`ServiceObs`] lives inside a [`CpqService`](crate::CpqService) when
//! observability is on. Workers feed it one [`QueryProfile`] per executed
//! query; scrapers read it through
//! [`CpqService::render_metrics`](crate::CpqService::render_metrics) (or the
//! HTTP listener in [`crate::http`]), which refreshes the bridged series
//! from the service's query ledger and the buffer pools at scrape time.

use crate::stats::{ServiceStats, ALGORITHMS, OUTCOMES};
use cpq_check::sync::Arc;
use cpq_core::Algorithm;
use cpq_live::{ApplyReport, LiveStats};
use cpq_obs::{Counter, Gauge, Histogram, QueryProfile, Registry, SlowQueryLog};
use cpq_storage::BufferPool;
use std::time::Duration;

/// Observability knobs of a [`CpqService`](crate::CpqService).
#[derive(Debug, Clone, Copy)]
pub struct ObsConfig {
    /// Master switch. Off: workers run the uninstrumented engine path
    /// (`NullProbe` — zero overhead), no registry exists, and
    /// [`CpqService::render_metrics`](crate::CpqService::render_metrics)
    /// returns an empty body.
    pub enabled: bool,
    /// Queries with end-to-end latency at or above this threshold have
    /// their full profile captured in the slow-query log. `None` disables
    /// capture (counters still run).
    pub slow_query_threshold: Option<Duration>,
    /// Profiles retained by the slow-query log (oldest evicted).
    pub slow_log_capacity: usize,
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig {
            enabled: true,
            slow_query_threshold: Some(Duration::from_millis(100)),
            slow_log_capacity: 128,
        }
    }
}

impl ObsConfig {
    /// Observability fully off (the pre-observability service behavior).
    pub fn disabled() -> Self {
        ObsConfig {
            enabled: false,
            slow_query_threshold: None,
            slow_log_capacity: 0,
        }
    }
}

struct TreeBridge {
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    hit_ratio: Arc<Gauge>,
}

/// Bridged `cpq_wal_*` / `cpq_live_*` series for one live tree. Present
/// (as zeros) on static services too, so dashboards keyed on the family
/// names never 404; refreshed only when the service actually serves a
/// live set.
struct LiveBridge {
    wal_records: Arc<Counter>,
    wal_bytes: Arc<Counter>,
    wal_commits: Arc<Counter>,
    wal_flushes: Arc<Counter>,
    wal_checkpoints: Arc<Counter>,
    inserts: Arc<Counter>,
    deletes: Arc<Counter>,
    delete_misses: Arc<Counter>,
    pages_retired: Arc<Counter>,
    pages_freed: Arc<Counter>,
    free_failures: Arc<Counter>,
    epoch: Arc<Gauge>,
    active_pins: Arc<Gauge>,
    pages_pending: Arc<Gauge>,
}

fn live_bridge(registry: &Registry, tree: &str) -> LiveBridge {
    let update = |op: &str| {
        registry.counter(
            "cpq_live_updates_total",
            "committed streaming updates, by tree and op (bridged from the live trees)",
            &[("tree", tree), ("op", op)],
        )
    };
    let pages = |event: &str| {
        registry.counter(
            "cpq_live_pages_total",
            "copy-on-write page turnover, by tree and event (retired = superseded; freed = reclaimed once unpinned)",
            &[("tree", tree), ("event", event)],
        )
    };
    LiveBridge {
        wal_records: registry.counter(
            "cpq_wal_records_total",
            "records appended to the write-ahead log, by tree",
            &[("tree", tree)],
        ),
        wal_bytes: registry.counter(
            "cpq_wal_bytes_total",
            "bytes appended to the write-ahead log (framing included), by tree",
            &[("tree", tree)],
        ),
        wal_commits: registry.counter(
            "cpq_wal_commits_total",
            "acknowledged commit durability waits, by tree",
            &[("tree", tree)],
        ),
        wal_flushes: registry.counter(
            "cpq_wal_flushes_total",
            "physical WAL flushes (one write and at most one fsync each; a wait already covered adds none), by tree",
            &[("tree", tree)],
        ),
        wal_checkpoints: registry.counter(
            "cpq_wal_checkpoints_total",
            "sharp checkpoints taken (each truncates the log), by tree",
            &[("tree", tree)],
        ),
        inserts: update("insert"),
        deletes: update("delete"),
        delete_misses: update("delete-miss"),
        pages_retired: pages("retired"),
        pages_freed: pages("freed"),
        free_failures: registry.counter(
            "cpq_live_free_failures_total",
            "page frees that failed during epoch reclamation (each leaks one page), by tree",
            &[("tree", tree)],
        ),
        epoch: registry.gauge(
            "cpq_live_epoch",
            "latest published epoch (one publish per committed update), by tree",
            &[("tree", tree)],
        ),
        active_pins: registry.gauge(
            "cpq_live_active_pins",
            "epoch pins currently held (read at scrape time), by tree: reader snapshots, plus one for a durable tree's last checkpoint",
            &[("tree", tree)],
        ),
        pages_pending: registry.gauge(
            "cpq_live_pages_pending",
            "retired pages not yet reclaimable because an older epoch is pinned, by tree",
            &[("tree", tree)],
        ),
    }
}

impl LiveBridge {
    fn refresh(&self, stats: &LiveStats) {
        if let Some(w) = &stats.wal {
            self.wal_records.store(w.records);
            self.wal_bytes.store(w.bytes);
            self.wal_commits.store(w.commits);
            self.wal_flushes.store(w.flushes);
            self.wal_checkpoints.store(w.checkpoints);
        }
        self.inserts.store(stats.inserts);
        self.deletes.store(stats.deletes);
        self.delete_misses.store(stats.delete_misses);
        self.pages_retired.store(stats.epoch.pages_retired);
        self.pages_freed.store(stats.epoch.pages_freed);
        self.free_failures.store(stats.free_failures);
        self.epoch.set(stats.epoch.epoch as f64);
        self.active_pins.set(stats.epoch.active_pins as f64);
        self.pages_pending.set(stats.epoch.pages_pending as f64);
    }
}

/// The observability state of one service: registry, pre-registered
/// instruments, and the slow-query log.
pub struct ServiceObs {
    registry: Registry,
    /// `cpq_queries_total`, laid out like the ledger it is bridged from.
    queries: [[Arc<Counter>; OUTCOMES.len()]; ALGORITHMS.len()],
    /// `cpq_plan_queries_total`, by `algorithm as usize`.
    plan_queries: [Arc<Counter>; ALGORITHMS.len()],
    latency_us: Arc<Histogram>,
    queue_wait_us: Arc<Histogram>,
    node_accesses_p: Arc<Counter>,
    node_accesses_q: Arc<Counter>,
    dist_computations: Arc<Counter>,
    pairs_pruned: Arc<Counter>,
    node_pairs_processed: Arc<Counter>,
    heap_inserts: Arc<Counter>,
    shard_queries: Arc<Counter>,
    shard_pairs_generated: Arc<Counter>,
    shard_pairs_pruned: Arc<Counter>,
    shard_pairs_opened: Arc<Counter>,
    shard_subqueries: Arc<Counter>,
    shard_bound_updates: Arc<Counter>,
    plan_scatter: Arc<Counter>,
    sheds: Arc<Counter>,
    queue_depth: Arc<Gauge>,
    slow_observed: Arc<Counter>,
    slow_evicted: Arc<Counter>,
    apply_batches: Arc<Counter>,
    apply_ops: Arc<Counter>,
    bridge_p: TreeBridge,
    bridge_q: TreeBridge,
    live_bridge_p: LiveBridge,
    live_bridge_q: LiveBridge,
    slow_log: SlowQueryLog,
}

fn bridge(registry: &Registry, tree: &str) -> TreeBridge {
    TreeBridge {
        hits: registry.counter(
            "cpq_buffer_reads_total",
            "buffer-pool logical reads by tree and result (bridged from the pool at scrape time)",
            &[("tree", tree), ("result", "hit")],
        ),
        misses: registry.counter(
            "cpq_buffer_reads_total",
            "buffer-pool logical reads by tree and result (bridged from the pool at scrape time)",
            &[("tree", tree), ("result", "miss")],
        ),
        hit_ratio: registry.gauge(
            "cpq_buffer_hit_ratio",
            "buffer-pool hit ratio in [0,1] (bridged from the pool at scrape time)",
            &[("tree", tree)],
        ),
    }
}

impl ServiceObs {
    /// Builds the registry with every family pre-registered — the full
    /// algorithm × outcome matrix shows (as zeros) before any traffic — and
    /// keeps a handle to every series it updates, so recording a query
    /// never looks a series up.
    pub(crate) fn new(config: &ObsConfig) -> Self {
        let registry = Registry::new();
        let queries = ALGORITHMS.map(|a| {
            OUTCOMES.map(|outcome| {
                registry.counter(
                    "cpq_queries_total",
                    "queries executed, by algorithm and outcome (bridged from the service's ledger at scrape time)",
                    &[("algorithm", a.label()), ("outcome", outcome)],
                )
            })
        });
        let plan_queries = ALGORITHMS.map(|a| {
            registry.counter(
                "cpq_plan_queries_total",
                "planner-executed queries, by chosen algorithm",
                &[("algorithm", a.label())],
            )
        });
        let threshold_us = config
            .slow_query_threshold
            .map(|d| d.as_micros() as u64)
            // No threshold: nothing is slow enough, so the log stays empty.
            .unwrap_or(u64::MAX);
        ServiceObs {
            queries,
            plan_queries,
            latency_us: registry.histogram(
                "cpq_query_latency_microseconds",
                "end-to-end query latency (admission to response), microseconds",
                &[],
            ),
            queue_wait_us: registry.histogram(
                "cpq_queue_wait_microseconds",
                "time queued before a worker picked the query up, microseconds",
                &[],
            ),
            node_accesses_p: registry.counter(
                "cpq_node_accesses_total",
                "R-tree node accesses during query execution, by tree",
                &[("tree", "p")],
            ),
            node_accesses_q: registry.counter(
                "cpq_node_accesses_total",
                "R-tree node accesses during query execution, by tree",
                &[("tree", "q")],
            ),
            dist_computations: registry.counter(
                "cpq_dist_computations_total",
                "leaf-level distance-kernel invocations",
                &[],
            ),
            pairs_pruned: registry.counter(
                "cpq_pairs_pruned_total",
                "candidate node pairs pruned by MINMINDIST > T",
                &[],
            ),
            node_pairs_processed: registry.counter(
                "cpq_node_pairs_processed_total",
                "node pairs processed (recursive calls or heap pops)",
                &[],
            ),
            heap_inserts: registry.counter(
                "cpq_heap_inserts_total",
                "insertions into the HEAP algorithm's priority queue",
                &[],
            ),
            shard_queries: registry.counter(
                "cpq_shard_queries_total",
                "queries executed by the scatter-gather sharded path",
                &[],
            ),
            shard_pairs_generated: registry.counter(
                "cpq_shard_pairs_total",
                "shard pairs by scatter outcome (generated = pruned + opened on completed runs)",
                &[("result", "generated")],
            ),
            shard_pairs_pruned: registry.counter(
                "cpq_shard_pairs_total",
                "shard pairs by scatter outcome (generated = pruned + opened on completed runs)",
                &[("result", "pruned")],
            ),
            shard_pairs_opened: registry.counter(
                "cpq_shard_pairs_total",
                "shard pairs by scatter outcome (generated = pruned + opened on completed runs)",
                &[("result", "opened")],
            ),
            shard_subqueries: registry.counter(
                "cpq_shard_subqueries_total",
                "shard-pair engine subqueries that ran to completion",
                &[],
            ),
            shard_bound_updates: registry.counter(
                "cpq_shard_bound_updates_total",
                "successful tightenings of the cross-shard global distance bound",
                &[],
            ),
            plan_scatter: registry.counter(
                "cpq_plan_scatter_total",
                "planned queries for which the planner chose scatter-gather fan-out",
                &[],
            ),
            sheds: registry.counter(
                "cpq_sheds_total",
                "requests shed by admission control, never executed (bridged from the service's ledger at scrape time)",
                &[],
            ),
            queue_depth: registry.gauge(
                "cpq_queue_depth",
                "requests currently waiting for a worker (read at scrape time)",
                &[],
            ),
            slow_observed: registry.counter(
                "cpq_slow_queries_total",
                "queries at or above the slow-query latency threshold",
                &[],
            ),
            slow_evicted: registry.counter(
                "cpq_slow_log_evictions_total",
                "slow-query profiles evicted because the log was full",
                &[],
            ),
            apply_batches: registry.counter(
                "cpq_live_apply_batches_total",
                "update batches accepted through the service's apply_updates entry point",
                &[],
            ),
            apply_ops: registry.counter(
                "cpq_live_apply_ops_total",
                "individual update operations applied through apply_updates",
                &[],
            ),
            bridge_p: bridge(&registry, "p"),
            bridge_q: bridge(&registry, "q"),
            live_bridge_p: live_bridge(&registry, "p"),
            live_bridge_q: live_bridge(&registry, "q"),
            slow_log: SlowQueryLog::new(threshold_us, config.slow_log_capacity),
            registry,
        }
    }

    /// The underlying registry (for snapshots or extra instruments).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The slow-query log.
    pub fn slow_log(&self) -> &SlowQueryLog {
        &self.slow_log
    }

    /// Records one accepted `apply_updates` batch.
    pub(crate) fn record_apply(&self, report: &ApplyReport) {
        self.apply_batches.inc();
        self.apply_ops.add(report.applied as u64);
    }

    /// Records the work of one executed query, which ran `algorithm`, from
    /// its completed profile, and offers the profile to the slow-query log.
    /// (The query itself is counted in the service's ledger.)
    pub(crate) fn record_query(&self, algorithm: Algorithm, profile: &QueryProfile) {
        if profile.planned {
            self.plan_queries[algorithm as usize].inc();
            if profile.plan_scatter > 0 {
                self.plan_scatter.inc();
            }
        }
        self.latency_us.record(profile.latency_us());
        self.queue_wait_us.record(profile.queue_wait_us);
        self.node_accesses_p
            .add(profile.node_accesses_p.iter().sum());
        self.node_accesses_q
            .add(profile.node_accesses_q.iter().sum());
        self.dist_computations.add(profile.dist_computations);
        self.pairs_pruned.add(profile.pairs_pruned);
        self.node_pairs_processed.add(profile.node_pairs_processed);
        self.heap_inserts.add(profile.heap_inserts);
        if profile.shard_pairs_generated > 0 {
            self.shard_queries.inc();
        }
        self.shard_pairs_generated
            .add(profile.shard_pairs_generated);
        self.shard_pairs_pruned.add(profile.shard_pairs_pruned);
        self.shard_pairs_opened.add(profile.shard_pairs_opened);
        self.shard_subqueries
            .add(profile.shard_subqueries_completed);
        self.shard_bound_updates.add(profile.shard_bound_updates);
        self.slow_log.observe(profile);
    }

    /// Refreshes the series that mirror external state — the query and
    /// shed counts of the service's ledger, the bridged buffer-pool
    /// counters/ratios and the queue-depth gauge — then renders the
    /// registry in Prometheus text-exposition format.
    ///
    /// The bridge uses `Counter::store` with the sources' *cumulative*
    /// totals (the pools' taken under each pool's single-lock
    /// [`stats_snapshot`](cpq_storage::BufferPool::stats_snapshot)), so the
    /// exposed series can never disagree with the sources' own books.
    pub(crate) fn render(
        &self,
        ledger: &ServiceStats,
        pool_p: &BufferPool,
        pool_q: &BufferPool,
        live: Option<&(LiveStats, LiveStats)>,
        queue_depth: usize,
    ) -> String {
        for (series, counts) in self.queries.iter().zip(&ledger.executed) {
            for (s, c) in series.iter().zip(counts) {
                s.store(c.get());
            }
        }
        self.sheds.store(ledger.shed.get());
        let (bp, _) = pool_p.stats_snapshot();
        self.bridge_p.hits.store(bp.hits);
        self.bridge_p.misses.store(bp.misses);
        self.bridge_p.hit_ratio.set(bp.hit_rate());
        let (bq, _) = pool_q.stats_snapshot();
        self.bridge_q.hits.store(bq.hits);
        self.bridge_q.misses.store(bq.misses);
        self.bridge_q.hit_ratio.set(bq.hit_rate());
        if let Some((lp, lq)) = live {
            self.live_bridge_p.refresh(lp);
            self.live_bridge_q.refresh(lq);
        }
        self.queue_depth.set(queue_depth as f64);
        self.slow_observed.store(self.slow_log.observed());
        self.slow_evicted.store(self.slow_log.evicted());
        self.registry.render_prometheus()
    }
}
