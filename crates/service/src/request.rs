//! The request/response vocabulary of the query service.

use cpq_core::{Algorithm, Constraint, CpqStats, PairResult, QuerySpec};
use cpq_obs::QueryProfile;
use std::time::Duration;

/// Which join shape a request asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryKind {
    /// K closest pairs between the service's `P` and `Q` trees.
    Cross,
    /// K closest pairs **within** the `P` tree (Self-CPQ; distinct objects,
    /// each unordered pair once).
    SelfJoin,
}

impl QueryKind {
    /// Short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            QueryKind::Cross => "cross",
            QueryKind::SelfJoin => "self",
        }
    }
}

/// One closest-pair query, as admitted by
/// [`CpqService::submit`](crate::CpqService::submit).
///
/// `K`, the algorithm, the deadline, and the result-pair constraint are
/// all per-request — the serving shape of the range closest-pair
/// literature, where one preprocessed structure answers a stream of
/// differently-parameterized queries. `D` is the service's dimensionality
/// (it defaults to 2, so unconstrained callers never spell it).
#[derive(Debug, Clone, Copy)]
pub struct QueryRequest<const D: usize = 2> {
    /// Number of closest pairs wanted (`1` enables the 1-CP special case).
    pub k: usize,
    /// Which of the paper's algorithms executes the query.
    pub algorithm: Algorithm,
    /// Cross-tree K-CPQ or self-join.
    pub kind: QueryKind,
    /// End-to-end budget measured from admission (queue wait counts
    /// against it). `None` falls back to the service default; `Some` here
    /// overrides it. An expired query stops within one node visit and
    /// responds [`QueryStatus::TimedOut`] with its partial result.
    pub deadline: Option<Duration>,
    /// Scatter-gather worker fan-out requested for this query. `None` or
    /// `0` runs the classic single-tree path; values `≥ 1` route the query
    /// over the service's sharded replicas (when started over a
    /// [`Source::Sharded`](crate::Source::Sharded); ignored otherwise),
    /// clamped to the service's
    /// [`max_shards`](crate::ServiceConfig::max_shards). Results are
    /// bit-identical either way — sharding only buys pruning and fan-out.
    pub scatter: Option<usize>,
    /// Result-pair constraint: per-side query windows and/or the colored
    /// (pair spans two categories) requirement. The default
    /// [`Constraint::none`] runs the plain K-CPQ path unchanged. Self-join
    /// requests must keep the constraint symmetric
    /// ([`Constraint::is_symmetric`]) or the query fails at execution.
    pub constraint: Constraint<D>,
    /// Let the service's query planner choose algorithm and scatter
    /// fan-out from the cost model and query shape, overriding whatever
    /// this request carries in those fields.
    /// The response's `request` echoes the *planned* knobs, and the
    /// profile records the decision (`planned` / `plan_reason` /
    /// `plan_est_accesses`).
    pub planned: bool,
}

impl<const D: usize> QueryRequest<D> {
    /// A cross-tree K-CPQ with no per-request deadline override.
    pub fn cross(k: usize, algorithm: Algorithm) -> Self {
        QueryRequest {
            k,
            algorithm,
            kind: QueryKind::Cross,
            deadline: None,
            scatter: None,
            constraint: Constraint::none(),
            planned: false,
        }
    }

    /// A self-join K-CPQ with no per-request deadline override.
    pub fn self_join(k: usize, algorithm: Algorithm) -> Self {
        QueryRequest {
            kind: QueryKind::SelfJoin,
            ..Self::cross(k, algorithm)
        }
    }

    /// A cross-tree K-CPQ whose execution knobs the service's planner
    /// picks. The `algorithm` field holds a placeholder until planning.
    pub fn planned_cross(k: usize) -> Self {
        QueryRequest {
            planned: true,
            ..Self::cross(k, Algorithm::Heap)
        }
    }

    /// A self-join K-CPQ whose execution knobs the planner picks.
    pub fn planned_self(k: usize) -> Self {
        QueryRequest {
            kind: QueryKind::SelfJoin,
            ..Self::planned_cross(k)
        }
    }

    /// What this request asks, as the [`QuerySpec`] the executors take.
    pub fn spec(&self) -> QuerySpec<D> {
        QuerySpec {
            k: self.k,
            self_join: self.kind == QueryKind::SelfJoin,
            constraint: self.constraint,
        }
    }

    /// Sets the result-pair constraint (windows and/or colored).
    pub fn with_constraint(mut self, constraint: Constraint<D>) -> Self {
        self.constraint = constraint;
        self
    }

    /// Sets the per-request deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Requests scatter-gather execution over the service's sharded
    /// replicas with this worker fan-out; clamped to the service's
    /// [`max_shards`](crate::ServiceConfig::max_shards) at execution time.
    pub fn with_scatter(mut self, workers: usize) -> Self {
        self.scatter = Some(workers);
        self
    }
}

/// Terminal state of an executed query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryStatus {
    /// The query ran to completion; `pairs` is the exact answer.
    Completed,
    /// The deadline expired mid-run; `pairs` holds the best pairs found
    /// before the cutoff (possibly none) — a partial, not-necessarily-final
    /// answer. The worker was released, not blocked.
    TimedOut,
    /// The engine failed (storage error, corrupt node, …).
    Failed(String),
    /// The service shut down before the query was executed. Produced only
    /// by [`QueryTicket::wait`](crate::QueryTicket::wait) when the reply
    /// channel died.
    Dropped,
}

impl QueryStatus {
    /// Short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            QueryStatus::Completed => "completed",
            QueryStatus::TimedOut => "timed-out",
            QueryStatus::Failed(_) => "failed",
            QueryStatus::Dropped => "dropped",
        }
    }
}

/// The answer to one [`QueryRequest`], delivered through the request's
/// [`QueryTicket`](crate::QueryTicket).
#[derive(Debug, Clone)]
pub struct QueryResponse<const D: usize> {
    /// Service-assigned id (admission order).
    pub id: u64,
    /// The request this answers. For planned requests
    /// ([`QueryRequest::planned`]) the algorithm and scatter fields
    /// carry the planner's choices, not the submitted placeholders.
    pub request: QueryRequest<D>,
    /// How the query ended.
    pub status: QueryStatus,
    /// Result pairs, ascending by distance (partial when `TimedOut`).
    pub pairs: Vec<PairResult<D>>,
    /// Engine work counters. `dist_computations` / `node_pairs_processed`
    /// are exact and deterministic; the `disk_accesses_*` deltas are exact
    /// in a single-worker service but *approximate* under concurrency,
    /// since other workers' faults on the shared pools land in the same
    /// counters (aggregate pool stats remain exact — see
    /// [`BufferPool::stats_snapshot`](cpq_storage::BufferPool::stats_snapshot)).
    pub stats: CpqStats,
    /// Time spent queued before a worker picked the query up.
    pub queue_wait: Duration,
    /// Execution time on the worker.
    pub exec: Duration,
    /// End-to-end latency: admission to response (`queue_wait + exec`).
    pub latency: Duration,
    /// The full work profile of this query, present when the service runs
    /// with observability on ([`ObsConfig::enabled`](crate::ObsConfig)).
    /// Boxed: the profile is an order of magnitude larger than the rest of
    /// the response and most callers only forward it.
    pub profile: Option<Box<QueryProfile>>,
}

/// The admission-time rejection: the queue was full (or the service was
/// shutting down), so the request was shed without executing. Contains the
/// request so callers can retry or degrade.
#[derive(Debug, Clone, Copy)]
pub struct Rejected<const D: usize = 2>(pub QueryRequest<D>);

impl<const D: usize> std::fmt::Display for Rejected<D> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "query rejected by admission control (k={}, {} {})",
            self.0.k,
            self.0.algorithm.label(),
            self.0.kind.label()
        )
    }
}

impl<const D: usize> std::error::Error for Rejected<D> {}
