//! The slow-query log: the most recent full [`QueryProfile`]s of queries
//! whose end-to-end latency crossed a threshold.

use crate::profile::QueryProfile;
use cpq_check::sync::{Mutex, MutexGuard};
use std::collections::VecDeque;

/// Captures the complete work profile of every query slower than a
/// threshold, bounded by a fixed capacity (newest kept, oldest evicted —
/// recent forensics beat ancient ones).
///
/// Producers are the service's worker threads; consumers drain the log
/// into JSONL (one [`QueryProfile::to_json`] line per query) for a file or
/// an HTTP endpoint. A query reaches the lock only once it has already
/// been slow, so one mutex is all the traffic asks for.
pub struct SlowQueryLog {
    threshold_us: u64,
    capacity: usize,
    state: Mutex<State>,
}

#[derive(Default)]
struct State {
    kept: VecDeque<QueryProfile>,
    observed: u64,
    evicted: u64,
}

impl SlowQueryLog {
    /// Creates a log capturing queries with `latency_us() >= threshold_us`,
    /// retaining the `capacity` most recent profiles (at least one).
    pub fn new(threshold_us: u64, capacity: usize) -> Self {
        SlowQueryLog {
            threshold_us,
            capacity: capacity.max(1),
            state: Mutex::new(State::default()),
        }
    }

    fn state(&self) -> MutexGuard<'_, State> {
        self.state.lock().expect("slow-query log poisoned")
    }

    /// The capture threshold in microseconds.
    pub fn threshold_us(&self) -> u64 {
        self.threshold_us
    }

    /// Slow queries observed since creation (captured or evicted).
    pub fn observed(&self) -> u64 {
        self.state().observed
    }

    /// Captured profiles evicted because the log was full.
    pub fn evicted(&self) -> u64 {
        self.state().evicted
    }

    /// Offers a finished query's profile; clones and captures it when it is
    /// slow. Returns `true` when captured.
    pub fn observe(&self, profile: &QueryProfile) -> bool {
        if profile.latency_us() < self.threshold_us {
            return false;
        }
        let profile = profile.clone();
        let mut state = self.state();
        state.observed += 1;
        if state.kept.len() == self.capacity {
            state.kept.pop_front();
            state.evicted += 1;
        }
        state.kept.push_back(profile);
        true
    }

    /// Drains the captured profiles, oldest first.
    pub fn drain(&self) -> Vec<QueryProfile> {
        self.state().kept.drain(..).collect()
    }

    /// Drains the captured profiles as JSONL (one JSON object per line,
    /// trailing newline included when non-empty).
    pub fn drain_jsonl(&self) -> String {
        let mut out = String::new();
        for p in self.drain() {
            out.push_str(&p.to_json());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile_with_latency(id: u64, exec_us: u64) -> QueryProfile {
        QueryProfile {
            query_id: id,
            exec_us,
            ..Default::default()
        }
    }

    #[test]
    fn threshold_filters() {
        let log = SlowQueryLog::new(100, 8);
        assert!(!log.observe(&profile_with_latency(1, 99)));
        assert!(log.observe(&profile_with_latency(2, 100)));
        assert!(log.observe(&profile_with_latency(3, 5_000)));
        assert_eq!(log.observed(), 2);
        let drained = log.drain();
        assert_eq!(drained.len(), 2);
        assert_eq!(drained[0].query_id, 2);
    }

    #[test]
    fn bounded_keeps_newest() {
        let log = SlowQueryLog::new(0, 4);
        for i in 0..10 {
            log.observe(&profile_with_latency(i, 1));
        }
        let ids: Vec<u64> = log.drain().iter().map(|p| p.query_id).collect();
        assert_eq!(ids, vec![6, 7, 8, 9]);
        assert_eq!(log.evicted(), 6);
    }

    #[test]
    fn jsonl_one_line_per_query() {
        let log = SlowQueryLog::new(0, 8);
        log.observe(&profile_with_latency(1, 10));
        log.observe(&profile_with_latency(2, 20));
        let jsonl = log.drain_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines.iter().all(|l| l.starts_with('{') && l.ends_with('}')));
    }
}
