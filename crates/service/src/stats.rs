//! Service-level statistics: per-query samples aggregated into counts,
//! latency/queue-wait percentiles, and throughput.

use crate::request::QueryStatus;
use cpq_check::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

// The percentile math lives in cpq-obs (one implementation for the service
// and the benchmark harness); re-exported here so `cpq_service::Percentiles`
// keeps working.
pub use cpq_obs::Percentiles;

/// Executed queries whose samples feed the percentile summaries: the most
/// recent ones, so a service's memory does not grow with its uptime (1 MiB
/// of samples at 16 bytes each).
const SAMPLE_WINDOW: usize = 1 << 16;

#[derive(Default)]
struct Agg {
    /// `(latency, queue wait)` in µs of the [`SAMPLE_WINDOW`] most recent
    /// executed queries; a ring once full.
    recent: Vec<(u64, u64)>,
    /// Samples recorded over the service's life; modulo the window it is
    /// the ring's write slot.
    recorded: u64,
    completed: u64,
    timed_out: u64,
    failed: u64,
    shed: u64,
    query_disk_accesses: u64,
    first_response: Option<Instant>,
    last_response: Option<Instant>,
}

/// Aggregated view of a service's lifetime, as returned by
/// [`ServiceStats::summary`].
#[derive(Debug, Clone, Copy, Default)]
pub struct StatsSummary {
    /// Queries that ran to completion.
    pub completed: u64,
    /// Queries cut off by their deadline (answered partially).
    pub timed_out: u64,
    /// Queries that failed in the engine.
    pub failed: u64,
    /// Requests shed by admission control (never executed).
    pub shed: u64,
    /// End-to-end latency distribution over the most recent executed
    /// queries (a fixed window of 65,536); its `count` is the lifetime total.
    pub latency: Percentiles,
    /// Queue-wait distribution, windowed and counted like `latency`.
    pub queue_wait: Percentiles,
    /// Sum of per-query disk-access deltas (see the caveat on
    /// [`QueryResponse::stats`](crate::QueryResponse::stats)).
    pub query_disk_accesses: u64,
    /// Executed queries per second, measured first-response → last-response.
    /// Zero until two responses exist.
    pub throughput_qps: f64,
}

/// Thread-safe collector the workers feed; readable at any time.
///
/// The most recent samples are kept raw and summarized on demand — exact
/// percentiles over a fixed window, however long the service stays up.
#[derive(Default)]
pub struct ServiceStats {
    agg: Mutex<Agg>,
}

impl ServiceStats {
    /// Creates an empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> MutexGuard<'_, Agg> {
        self.agg.lock().expect("service stats mutex poisoned")
    }

    /// Records one executed query (any terminal status except `Dropped`).
    pub fn record_executed(
        &self,
        status: &QueryStatus,
        latency: Duration,
        queue_wait: Duration,
        disk_accesses: u64,
    ) {
        let now = Instant::now();
        let mut g = self.lock();
        match status {
            QueryStatus::Completed => g.completed += 1,
            QueryStatus::TimedOut => g.timed_out += 1,
            QueryStatus::Failed(_) => g.failed += 1,
            QueryStatus::Dropped => {}
        }
        let sample = (latency.as_micros() as u64, queue_wait.as_micros() as u64);
        let slot = (g.recorded % SAMPLE_WINDOW as u64) as usize;
        match g.recent.get_mut(slot) {
            Some(oldest) => *oldest = sample,
            None => g.recent.push(sample),
        }
        g.recorded += 1;
        g.query_disk_accesses += disk_accesses;
        g.first_response.get_or_insert(now);
        g.last_response = Some(now);
    }

    /// Records one request shed at admission.
    pub fn record_shed(&self) {
        self.lock().shed += 1;
    }

    /// Summarizes everything recorded so far.
    pub fn summary(&self) -> StatsSummary {
        let g = self.lock();
        let executed = g.completed + g.timed_out + g.failed;
        let throughput = match (g.first_response, g.last_response) {
            (Some(a), Some(b)) if b > a && executed >= 2 => {
                (executed - 1) as f64 / (b - a).as_secs_f64()
            }
            _ => 0.0,
        };
        let summarize = |pick: fn(&(u64, u64)) -> u64| {
            let mut samples: Vec<u64> = g.recent.iter().map(pick).collect();
            Percentiles {
                count: g.recorded,
                ..Percentiles::from_samples(&mut samples)
            }
        };
        let (latency, queue_wait) = (summarize(|s| s.0), summarize(|s| s.1));
        StatsSummary {
            completed: g.completed,
            timed_out: g.timed_out,
            failed: g.failed,
            shed: g.shed,
            latency,
            queue_wait,
            query_disk_accesses: g.query_disk_accesses,
            throughput_qps: throughput,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_summarize() {
        let stats = ServiceStats::new();
        stats.record_executed(
            &QueryStatus::Completed,
            Duration::from_micros(100),
            Duration::from_micros(10),
            5,
        );
        stats.record_executed(
            &QueryStatus::TimedOut,
            Duration::from_micros(300),
            Duration::from_micros(30),
            2,
        );
        stats.record_shed();
        let s = stats.summary();
        assert_eq!(s.completed, 1);
        assert_eq!(s.timed_out, 1);
        assert_eq!(s.shed, 1);
        assert_eq!(s.query_disk_accesses, 7);
        assert_eq!(s.latency.count, 2);
        assert_eq!(s.latency.max_us, 300);
        assert_eq!(s.queue_wait.p50_us, 10);
    }

    #[test]
    fn percentiles_cover_a_fixed_recent_window() {
        let stats = ServiceStats::new();
        let record = |latency_us: u64| {
            let latency = Duration::from_micros(latency_us);
            stats.record_executed(&QueryStatus::Completed, latency, latency, 0);
        };
        // Ten slow queries, then enough fast ones to push them all out.
        (0..10).for_each(|_| record(1_000_000));
        (0..SAMPLE_WINDOW).for_each(|_| record(5));
        let s = stats.summary();
        assert_eq!(s.completed, SAMPLE_WINDOW as u64 + 10);
        assert_eq!(s.latency.count, s.completed, "count is the lifetime total");
        assert_eq!((s.latency.max_us, s.queue_wait.max_us), (5, 5));
        assert_eq!(stats.lock().recent.len(), SAMPLE_WINDOW);
    }
}
