//! The per-query work profile: every observable the engine and service can
//! attribute to a single query, in one structure.

/// The structured work profile of one query.
///
/// Where the paper reports one aggregate number (disk accesses) per figure
/// point, this captures *why* an individual query cost what it did: which
/// tree level burned the node accesses, how much leaf work the kernel
/// did, how large the HEAP algorithm's priority queue grew, and where the
/// wall-clock went.
/// Serialized as one JSON line by the slow-query log.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueryProfile {
    /// Service-assigned query id (0 outside a service).
    pub query_id: u64,
    /// Algorithm label (`EXH`, `SIM`, `STD`, `HEAP`, `NAIVE`).
    pub algorithm: String,
    /// Join kind label (`cross`, `self`).
    pub kind: String,
    /// Requested `K`.
    pub k: u64,
    /// Terminal status label (`completed`, `timed-out`, `failed`).
    pub status: String,
    /// Node accesses on the `P` tree, indexed by tree level (0 = leaves).
    pub node_accesses_p: Vec<u64>,
    /// Node accesses on the `Q` tree, indexed by tree level. Empty for
    /// self-joins (both sides read the `P` tree and are charged to it).
    pub node_accesses_q: Vec<u64>,
    /// Buffer-pool hits during the query (approximate under concurrency —
    /// other workers' traffic on the shared pools lands in the same delta).
    pub buffer_hits: u64,
    /// Buffer-pool misses during the query (same caveat).
    pub buffer_misses: u64,
    /// Leaf-level distance-kernel invocations.
    pub dist_computations: u64,
    /// Candidate node pairs pruned by `MINMINDIST > T`.
    pub pairs_pruned: u64,
    /// Node pairs processed (recursive calls or heap pops).
    pub node_pairs_processed: u64,
    /// Insertions into the main priority structure (HEAP algorithm).
    pub heap_inserts: u64,
    /// Largest size reached by the main priority structure.
    pub heap_high_watermark: u64,
    /// Time spent queued before a worker picked the query up, microseconds.
    pub queue_wait_us: u64,
    /// Execution time on the worker, microseconds.
    pub exec_us: u64,
    /// Time inside candidate generation (`gen_cands`), nanoseconds.
    pub gen_ns: u64,
    /// Time inside leaf scanning (`scan_leaves`), nanoseconds.
    pub scan_ns: u64,
    /// Shard pairs generated by the scatter-gather planner (0 for
    /// unsharded runs; all `shard_*` fields stay 0 then).
    pub shard_pairs_generated: u64,
    /// Shard pairs pruned unopened (inter-shard `MINMINDIST` exceeded the
    /// cross-shard bound).
    pub shard_pairs_pruned: u64,
    /// Shard pairs opened as engine subqueries.
    pub shard_pairs_opened: u64,
    /// Opened shard subqueries that ran to completion.
    pub shard_subqueries_completed: u64,
    /// Successful CAS-tightenings of the cross-shard global bound.
    pub shard_bound_updates: u64,
    /// `true` when the service's query planner chose the execution knobs
    /// (algorithm / scatter); the `plan_*` fields below then
    /// record the decision. All-zero/false for hand-knobbed requests.
    pub planned: bool,
    /// Label of the planner rule that fired (`tiny`, `constrained`,
    /// `1cp`, `default`, `empty-side`, `window-off-data`).
    pub plan_reason: String,
    /// Scatter fan-out the planner asked for (`0` = classic path).
    pub plan_scatter: u64,
    /// The cost model's disk-access estimate backing the decision,
    /// rounded; `0` when statistics were unavailable.
    pub plan_est_accesses: u64,
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_arr(v: &[u64]) -> String {
    let items: Vec<String> = v.iter().map(|x| x.to_string()).collect();
    format!("[{}]", items.join(","))
}

impl QueryProfile {
    /// End-to-end latency in microseconds (queue wait + execution).
    pub fn latency_us(&self) -> u64 {
        self.queue_wait_us + self.exec_us
    }

    /// Total node accesses across both trees and all levels.
    pub fn node_accesses(&self) -> u64 {
        self.node_accesses_p.iter().sum::<u64>() + self.node_accesses_q.iter().sum::<u64>()
    }

    /// Serializes the profile as a single JSON line (no trailing newline) —
    /// the slow-query log's JSONL record format.
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"query_id\":{},\"algorithm\":{},\"kind\":{},\"k\":{},\"status\":{},",
                "\"latency_us\":{},\"queue_wait_us\":{},\"exec_us\":{},",
                "\"node_accesses_p\":{},\"node_accesses_q\":{},",
                "\"buffer_hits\":{},\"buffer_misses\":{},",
                "\"dist_computations\":{},\"pairs_pruned\":{},",
                "\"node_pairs_processed\":{},\"heap_inserts\":{},",
                "\"heap_high_watermark\":{},\"gen_ns\":{},\"scan_ns\":{},",
                "\"shard_pairs_generated\":{},\"shard_pairs_pruned\":{},",
                "\"shard_pairs_opened\":{},\"shard_subqueries_completed\":{},",
                "\"shard_bound_updates\":{},",
                "\"planned\":{},\"plan_reason\":{},",
                "\"plan_scatter\":{},\"plan_est_accesses\":{}}}"
            ),
            self.query_id,
            json_str(&self.algorithm),
            json_str(&self.kind),
            self.k,
            json_str(&self.status),
            self.latency_us(),
            self.queue_wait_us,
            self.exec_us,
            json_arr(&self.node_accesses_p),
            json_arr(&self.node_accesses_q),
            self.buffer_hits,
            self.buffer_misses,
            self.dist_computations,
            self.pairs_pruned,
            self.node_pairs_processed,
            self.heap_inserts,
            self.heap_high_watermark,
            self.gen_ns,
            self.scan_ns,
            self.shard_pairs_generated,
            self.shard_pairs_pruned,
            self.shard_pairs_opened,
            self.shard_subqueries_completed,
            self.shard_bound_updates,
            self.planned,
            json_str(&self.plan_reason),
            self.plan_scatter,
            self.plan_est_accesses,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_shape() {
        let p = QueryProfile {
            query_id: 7,
            algorithm: "HEAP".into(),
            kind: "cross".into(),
            k: 10,
            status: "completed".into(),
            node_accesses_p: vec![5, 2, 1],
            node_accesses_q: vec![4, 1],
            queue_wait_us: 10,
            exec_us: 90,
            ..Default::default()
        };
        let j = p.to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(!j.contains('\n'), "JSONL records are single lines");
        assert!(j.contains("\"algorithm\":\"HEAP\""));
        assert!(j.contains("\"node_accesses_p\":[5,2,1]"));
        assert!(j.contains("\"latency_us\":100"));
        assert!(j.contains("\"shard_pairs_generated\":0"));
        for gone in ["parallel", "worker_busy_ns", "early_outs", "sweep"] {
            assert!(!j.contains(gone), "no {gone} key in {j}");
        }
    }

    #[test]
    fn shard_fields_serialize() {
        let p = QueryProfile {
            shard_pairs_generated: 16,
            shard_pairs_pruned: 11,
            shard_pairs_opened: 5,
            shard_subqueries_completed: 5,
            shard_bound_updates: 9,
            ..Default::default()
        };
        let j = p.to_json();
        assert!(j.contains("\"shard_pairs_generated\":16"));
        assert!(j.contains("\"shard_pairs_pruned\":11"));
        assert!(j.contains("\"shard_pairs_opened\":5"));
        assert!(j.contains("\"shard_subqueries_completed\":5"));
        assert!(j.contains("\"shard_bound_updates\":9"));
    }

    #[test]
    fn plan_fields_serialize() {
        let p = QueryProfile {
            planned: true,
            plan_reason: "constrained".into(),
            plan_scatter: 0,
            plan_est_accesses: 123,
            ..Default::default()
        };
        let j = p.to_json();
        assert!(j.contains("\"planned\":true"));
        assert!(j.contains("\"plan_reason\":\"constrained\""));
        assert!(j.contains("\"plan_est_accesses\":123"));
        let unplanned = QueryProfile::default().to_json();
        assert!(unplanned.contains("\"planned\":false"));
        assert!(unplanned.contains("\"plan_reason\":\"\""));
    }

    #[test]
    fn totals() {
        let p = QueryProfile {
            node_accesses_p: vec![3, 1],
            node_accesses_q: vec![2],
            ..Default::default()
        };
        assert_eq!(p.node_accesses(), 6);
    }

    #[test]
    fn string_escaping() {
        let p = QueryProfile {
            status: "fail: \"disk\"\n".into(),
            ..Default::default()
        };
        assert!(p.to_json().contains("\"fail: \\\"disk\\\"\\n\""));
    }
}
