//! The service's query ledger: executed queries by algorithm × outcome,
//! plus sheds, each a lock-free [`Counter`]. Workers and `submit` count
//! each event here once; [`CpqService::stats`](crate::CpqService::stats)
//! sums the ledger, and `/metrics` copies it into `cpq_queries_total` and
//! `cpq_sheds_total` at scrape time.

use crate::request::QueryStatus;
use cpq_core::Algorithm;
use cpq_obs::Counter;

/// Every algorithm in declaration order, so `ALGORITHMS[a as usize] == a`.
pub(crate) const ALGORITHMS: [Algorithm; 5] = [
    Algorithm::Naive,
    Algorithm::Exhaustive,
    Algorithm::Simple,
    Algorithm::SortedDistances,
    Algorithm::Heap,
];

/// The `outcome` label of each ledger column ([`QueryStatus::label`]).
pub(crate) const OUTCOMES: [&str; 3] = ["completed", "timed-out", "failed"];

/// Lifetime counts of a service, as returned by
/// [`CpqService::stats`](crate::CpqService::stats) and
/// [`CpqService::shutdown`](crate::CpqService::shutdown). Per-query
/// latency is on every [`QueryResponse`](crate::QueryResponse) and in the
/// `cpq_query_latency_microseconds` / `cpq_queue_wait_microseconds`
/// histograms.
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
}

/// The ledger itself: counters only, updated without a lock.
#[derive(Default)]
pub(crate) struct ServiceStats {
    /// `executed[algorithm as usize][column]`, columns as in [`OUTCOMES`].
    pub(crate) executed: [[Counter; OUTCOMES.len()]; ALGORITHMS.len()],
    /// Requests shed at admission.
    pub(crate) shed: Counter,
}

impl ServiceStats {
    /// Counts one executed query (any terminal status except `Dropped`,
    /// which no worker produces).
    pub(crate) fn record_executed(&self, algorithm: Algorithm, status: &QueryStatus) {
        let column = match status {
            QueryStatus::Completed => 0,
            QueryStatus::TimedOut => 1,
            QueryStatus::Failed(_) => 2,
            QueryStatus::Dropped => return,
        };
        self.executed[algorithm as usize][column].inc();
    }

    /// Sums the ledger over algorithms.
    pub(crate) fn summary(&self) -> StatsSummary {
        let outcome = |column: usize| self.executed.iter().map(|row| row[column].get()).sum();
        StatsSummary {
            completed: outcome(0),
            timed_out: outcome(1),
            failed: outcome(2),
            shed: self.shed.get(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_tables_match_their_enums() {
        for (i, a) in ALGORITHMS.into_iter().enumerate() {
            assert_eq!(a as usize, i, "{}", a.label());
        }
        let statuses = [
            QueryStatus::Completed,
            QueryStatus::TimedOut,
            QueryStatus::Failed(String::new()),
        ];
        for (column, status) in statuses.iter().enumerate() {
            assert_eq!(OUTCOMES[column], status.label());
            let stats = ServiceStats::default();
            stats.record_executed(Algorithm::Simple, status);
            assert_eq!(stats.executed[Algorithm::Simple as usize][column].get(), 1);
        }
    }
}
