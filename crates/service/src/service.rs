//! The query service proper: admission, the worker pool, and tickets.

use crate::http::MetricsServer;
use crate::obs::{ObsConfig, ServiceObs};
use crate::planner::{plan, PlannerInputs, QueryPlan};
use crate::queue::AdmissionQueue;
use crate::request::{QueryKind, QueryRequest, QueryResponse, QueryStatus, Rejected};
use crate::stats::{ServiceStats, StatsSummary};
use cpq_check::sync::atomic::{AtomicU64, Ordering};
use cpq_check::sync::{mpsc, Arc};
use cpq_core::{
    execute, CancelToken, CpqConfig, CpqStats, ExecCtx, ProfileProbe, QueryProfile, QueryRun,
};
use cpq_geo::Rect;
use cpq_live::{ApplyReport, LiveError, LiveSet, LiveTree, UpdateOp};
use cpq_rtree::{LevelStats, RTree};
use cpq_shard::{execute_sharded, ShardConfig, ShardReport, ShardedPair};
use cpq_storage::BufferPool;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The two read-only trees a service answers queries over.
///
/// Workers never mutate them — the whole query path is `&self` — so one
/// pair (and its two buffer pools) is shared by every worker without
/// copying. Self-join requests run on `p`.
pub struct TreePair<const D: usize> {
    /// The `P` tree (also the self-join target).
    pub p: RTree<D>,
    /// The `Q` tree.
    pub q: RTree<D>,
}

impl<const D: usize> TreePair<D> {
    /// Bundles two trees for serving.
    pub fn new(p: RTree<D>, q: RTree<D>) -> Self {
        TreePair { p, q }
    }
}

/// Tuning knobs of a [`CpqService`].
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Worker threads executing queries. `0` is allowed (admission-only;
    /// nothing drains the queue — useful for testing shed behavior).
    pub workers: usize,
    /// Admission-queue capacity; the `workers + queue_capacity` bound on
    /// in-flight queries is the service's whole memory commitment. Pushes
    /// beyond it shed.
    pub queue_capacity: usize,
    /// Engine configuration shared by all queries, used unchanged:
    /// `parallelism` included, so a value `≥ 2` runs every single-tree
    /// query on that many threads (total thread pressure
    /// `workers × parallelism`). Requests and the planner choose the
    /// algorithm and scatter fan-out, never the thread count.
    pub cpq: CpqConfig,
    /// Ceiling on per-request scatter-gather fan-out
    /// ([`QueryRequest::scatter`]). Only meaningful for services started
    /// over a [`Source::Sharded`]; the default of `1` lets scatter
    /// requests run but serializes their shard subqueries on one thread.
    /// Total thread pressure for scatter traffic is `workers × max_shards`.
    pub max_shards: usize,
    /// Deadline applied when a request does not carry its own. `None`
    /// means admitted queries may run arbitrarily long.
    pub default_deadline: Option<Duration>,
    /// Observability: metrics registry, per-query profiles, slow-query log.
    pub obs: ObsConfig,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            queue_capacity: 64,
            cpq: CpqConfig::paper(),
            max_shards: 1,
            default_deadline: None,
            obs: ObsConfig::default(),
        }
    }
}

struct Job<const D: usize> {
    id: u64,
    req: QueryRequest<D>,
    enqueued: Instant,
    deadline_at: Option<Instant>,
    reply: mpsc::Sender<QueryResponse<D>>,
}

/// What a service answers queries over.
// One `Source` lives per service, behind the `Arc<Shared>` — the variant
// size asymmetry never multiplies across a collection.
#[allow(clippy::large_enum_variant)]
pub enum Source<const D: usize> {
    /// A static read-only pair.
    Static(TreePair<D>),
    /// A static pair plus sharded replicas of the **same datasets**:
    /// requests carrying a [`QueryRequest::scatter`] fan-out run
    /// scatter-gather over the replicas, the rest on the pair. Both paths
    /// return bit-identical pairs for the same request, so callers can
    /// flip traffic between them freely.
    ///
    /// Caveat of the scatter path: profiles carry the `shard_*` counters
    /// but not per-level node accesses (the probe instruments only the
    /// single-tree engine); their buffer-hit/miss deltas are the shard
    /// pools'.
    Sharded(TreePair<D>, ShardedPair<D>),
    /// A mutable [`LiveSet`]: queries run on pinned epoch snapshots (each
    /// sees one committed state for its whole execution, no matter how
    /// many [`apply_updates`](CpqService::apply_updates) batches land
    /// mid-query), and `/metrics` gains the `cpq_wal_*` / `cpq_live_*`
    /// series bridged from the live trees.
    Live(LiveSet<D>),
}

impl<const D: usize> From<TreePair<D>> for Source<D> {
    fn from(trees: TreePair<D>) -> Self {
        Source::Static(trees)
    }
}

impl<const D: usize> Source<D> {
    /// The static pair, when there is one.
    fn trees(&self) -> Option<&TreePair<D>> {
        match self {
            Source::Static(trees) | Source::Sharded(trees, _) => Some(trees),
            Source::Live(_) => None,
        }
    }

    /// The two buffer pools behind the source (stable across snapshots,
    /// so the metrics bridges read the same books either way).
    fn pools(&self) -> (&BufferPool, &BufferPool) {
        match self {
            Source::Static(trees) | Source::Sharded(trees, _) => (trees.p.pool(), trees.q.pool()),
            Source::Live(live) => (live.p().pool(), live.q().pool()),
        }
    }
}

struct Shared<const D: usize> {
    source: Source<D>,
    queue: AdmissionQueue<Job<D>>,
    stats: ServiceStats,
    cpq: CpqConfig,
    max_shards: usize,
    default_deadline: Option<Duration>,
    next_id: AtomicU64,
    /// `Some` when observability is on; workers then run the instrumented
    /// engine path and feed profiles here.
    obs: Option<ServiceObs>,
    /// Per-level tree statistics for the planner's cost model, captured
    /// once at start (one O(nodes) walk per tree, static sources only —
    /// live trees churn with every batch, so the planner falls back to
    /// cardinality heuristics there).
    plan_stats: Option<(Vec<LevelStats<D>>, Vec<LevelStats<D>>)>,
    /// Root MBRs of the static pair for the planner, read once at start:
    /// the trees of a static or sharded source cannot change afterwards,
    /// and a planned request that read both root pages itself was billed
    /// two pool reads an explicit one is not. `(None, None)` and unused
    /// for a live source, which plans from a per-request snapshot.
    plan_workspaces: (Option<Rect<D>>, Option<Rect<D>>),
}

/// Handle for awaiting one submitted query's [`QueryResponse`].
pub struct QueryTicket<const D: usize> {
    id: u64,
    req: QueryRequest<D>,
    rx: mpsc::Receiver<QueryResponse<D>>,
}

impl<const D: usize> QueryTicket<D> {
    /// The service-assigned query id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Blocks until the response arrives. If the service is torn down
    /// before the query executes, returns a [`QueryStatus::Dropped`]
    /// response instead of hanging.
    pub fn wait(self) -> QueryResponse<D> {
        match self.rx.recv() {
            Ok(resp) => resp,
            Err(_) => QueryResponse {
                id: self.id,
                request: self.req,
                status: QueryStatus::Dropped,
                pairs: Vec::new(),
                stats: CpqStats::default(),
                queue_wait: Duration::ZERO,
                exec: Duration::ZERO,
                latency: Duration::ZERO,
                profile: None,
            },
        }
    }
}

/// A multi-threaded closest-pair query service.
///
/// ```text
/// submit() ──► [bounded admission queue] ──► worker × N ──► QueryTicket
///    │ full?                                   │
///    └──► Rejected (shed)          shared read-only R*-trees + buffer pools
/// ```
///
/// * **Admission control** — the queue is bounded; a full queue sheds
///   (`Err(Rejected)`) instead of buffering unboundedly or blocking the
///   producer.
/// * **Deadlines** — each query runs under a [`CancelToken`] carrying its
///   end-to-end deadline (queue wait included). Expiry stops the engine
///   within one node visit; the response is `TimedOut` with the partial
///   result, and the worker moves on.
/// * **Determinism** — workers execute queries with the plain
///   single-threaded engine over shared `&RTree`s; a query's result pairs
///   are bit-identical to a direct [`cpq_core::k_closest_pairs`] call no
///   matter how many workers run beside it.
pub struct CpqService<const D: usize> {
    shared: Arc<Shared<D>>,
    workers: Vec<JoinHandle<()>>,
}

impl<const D: usize> CpqService<D> {
    /// Starts the worker pool over `source` — a [`TreePair`] converts into
    /// [`Source::Static`].
    pub fn start(source: impl Into<Source<D>>, config: ServiceConfig) -> Self {
        let source = source.into();
        let plan_stats = source.trees().and_then(|trees| {
            // A stats walk that fails (storage error) only loses the cost
            // model; the planner degrades to cardinality rules.
            Some((trees.p.level_stats().ok()?, trees.q.level_stats().ok()?))
        });
        let plan_workspaces = source.trees().map_or((None, None), |trees| {
            (
                trees.p.root_mbr().ok().flatten(),
                trees.q.root_mbr().ok().flatten(),
            )
        });
        let shared = Arc::new(Shared {
            source,
            queue: AdmissionQueue::new(config.queue_capacity),
            stats: ServiceStats::default(),
            cpq: config.cpq,
            max_shards: config.max_shards.max(1),
            default_deadline: config.default_deadline,
            next_id: AtomicU64::new(0),
            obs: config.obs.enabled.then(|| ServiceObs::new(&config.obs)),
            plan_stats,
            plan_workspaces,
        });
        let workers = (0..config.workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("cpq-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    // analyze: allow(panic-path) — spawn fails only on OS resource
                    // exhaustion; the service cannot run without its workers.
                    .expect("spawn worker thread")
            })
            .collect();
        CpqService { shared, workers }
    }

    /// Admits a query, or sheds it when the queue is full.
    ///
    /// Admission stamps the queue-entry time; the effective deadline (the
    /// request's own, falling back to the service default) starts counting
    /// here, so time spent queued eats into the budget — a query that waits
    /// out its whole deadline in the queue is answered `TimedOut` without
    /// the engine doing any work.
    pub fn submit(&self, req: QueryRequest<D>) -> Result<QueryTicket<D>, Rejected<D>> {
        // ordering: Relaxed — a pure id allocator; only uniqueness matters,
        // and the id is handed to the queue through a mutex anyway.
        let id = self.shared.next_id.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = mpsc::channel();
        let enqueued = Instant::now();
        let deadline_at = req
            .deadline
            .or(self.shared.default_deadline)
            // A deadline past the end of the clock (`Duration::MAX`, the
            // natural override of a service default) is no deadline.
            .and_then(|d| enqueued.checked_add(d));
        let job = Job {
            id,
            req,
            enqueued,
            deadline_at,
            reply: tx,
        };
        match self.shared.queue.try_push(job) {
            Ok(()) => Ok(QueryTicket { id, req, rx }),
            Err(job) => {
                self.shared.stats.shed.inc();
                Err(Rejected(job.req))
            }
        }
    }

    /// Convenience: submit and block for the response.
    pub fn execute(&self, req: QueryRequest<D>) -> Result<QueryResponse<D>, Rejected<D>> {
        self.submit(req).map(QueryTicket::wait)
    }

    /// The service's lifetime counts so far: queries by outcome, and sheds.
    pub fn stats(&self) -> StatsSummary {
        self.shared.stats.summary()
    }

    /// Requests currently waiting for a worker.
    pub fn queue_depth(&self) -> usize {
        self.shared.queue.len()
    }

    /// The shared static trees (for reading pool statistics). `None` for
    /// a [`Source::Live`] service — use [`live`](Self::live) there.
    pub fn trees(&self) -> Option<&TreePair<D>> {
        self.shared.source.trees()
    }

    /// The live set behind a [`Source::Live`] service.
    pub fn live(&self) -> Option<&LiveSet<D>> {
        match &self.shared.source {
            Source::Live(live) => Some(live),
            _ => None,
        }
    }

    /// Applies a batch of streaming updates to the live set, each op
    /// durable and published to concurrent queries before the next starts.
    /// In-flight queries keep their pinned snapshots; queries admitted
    /// after return see the batch. Errors with [`LiveError::Invalid`] on a
    /// static service.
    pub fn apply_updates(&self, ops: &[UpdateOp<D>]) -> Result<ApplyReport, LiveError> {
        let Source::Live(live) = &self.shared.source else {
            return Err(LiveError::Invalid(
                "apply_updates on a static service; start it over Source::Live".into(),
            ));
        };
        let report = live.apply(ops)?;
        if let Some(obs) = &self.shared.obs {
            obs.record_apply(&report);
        }
        Ok(report)
    }

    /// The observability state, when enabled in [`ServiceConfig::obs`].
    pub fn obs(&self) -> Option<&ServiceObs> {
        self.shared.obs.as_ref()
    }

    /// Renders the Prometheus text exposition of the service's metrics,
    /// refreshing the bridged buffer-pool series at call time. Empty string
    /// when observability is off.
    pub fn render_metrics(&self) -> String {
        self.shared.render()
    }

    /// Drains the slow-query log (oldest first). Empty when observability
    /// is off or no query crossed the threshold.
    pub fn drain_slow_queries(&self) -> Vec<QueryProfile> {
        match &self.shared.obs {
            Some(obs) => obs.slow_log().drain(),
            None => Vec::new(),
        }
    }

    /// Drains the slow-query log as JSONL, one profile per line.
    pub fn drain_slow_queries_jsonl(&self) -> String {
        match &self.shared.obs {
            Some(obs) => obs.slow_log().drain_jsonl(),
            None => String::new(),
        }
    }

    /// Starts an HTTP listener serving `GET /metrics` (the exposition of
    /// [`render_metrics`](Self::render_metrics)) and `GET /healthz` on
    /// `addr` (port 0 binds an ephemeral port; see
    /// [`MetricsServer::addr`]). The listener holds the service state alive
    /// until dropped, so it keeps serving final metrics even after
    /// [`shutdown`](Self::shutdown).
    pub fn serve_metrics<A: std::net::ToSocketAddrs>(
        &self,
        addr: A,
    ) -> std::io::Result<MetricsServer> {
        let shared = Arc::clone(&self.shared);
        MetricsServer::start(addr, move || shared.render())
    }

    fn stop(&mut self) {
        self.shared.queue.close();
        for h in self.workers.drain(..) {
            // analyze: allow(panic-path) — a panicking worker is a bug; propagate
            // the panic instead of shutting down silently.
            h.join().expect("worker thread panicked");
        }
    }

    /// Stops admission, drains the backlog (admitted queries still
    /// execute), joins the workers, and returns the final statistics.
    pub fn shutdown(mut self) -> StatsSummary {
        self.stop();
        self.shared.stats.summary()
    }
}

impl<const D: usize> Drop for CpqService<D> {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Buffer-pool `(hits, misses)` accumulated so far by the pools a query
/// runs on: the shard pools when it scatters over `shards`, else the
/// source's pair (`p` alone for a self-join). The worker takes this before
/// and after a query and reports the delta in the profile. Under
/// concurrency other workers' faults land in the same pools, so the delta
/// is exact for a single-worker service and approximate otherwise (same
/// caveat as [`QueryResponse::stats`]'s disk accesses).
fn pool_totals<const D: usize>(
    shared: &Shared<D>,
    kind: QueryKind,
    shards: Option<&ShardedPair<D>>,
) -> (u64, u64) {
    fn sum<'a>(pools: impl Iterator<Item = &'a BufferPool>) -> (u64, u64) {
        pools
            .map(|pool| pool.stats_snapshot().0)
            .fold((0, 0), |(h, m), s| (h + s.hits, m + s.misses))
    }
    let cross = kind == QueryKind::Cross;
    match shards {
        Some(pair) => {
            let q = if cross { pair.q.shards() } else { &[] };
            sum(pair.p.shards().iter().chain(q).map(RTree::pool))
        }
        None => {
            let (p, q) = shared.source.pools();
            sum(std::iter::once(p).chain(cross.then_some(q)))
        }
    }
}

impl<const D: usize> Shared<D> {
    /// Refreshes the bridged series and renders the Prometheus exposition;
    /// empty when observability is off.
    fn render(&self) -> String {
        let Some(obs) = &self.obs else {
            return String::new();
        };
        let (pool_p, pool_q) = self.source.pools();
        let live = match &self.source {
            Source::Live(live) => Some(live.stats()),
            _ => None,
        };
        obs.render(&self.stats, pool_p, pool_q, live.as_ref(), self.queue.len())
    }

    /// Runs the planner for one planned request: gathers the cheap data
    /// statistics (cardinalities O(1); root MBRs and per-level stats as
    /// captured at start for a static source, from one snapshot per side
    /// for a live one) and applies the deterministic rules in
    /// [`crate::planner`]. A static source's pools are not touched.
    fn plan_query(&self, req: &QueryRequest<D>) -> QueryPlan {
        let (n_p, n_q, workspace_p, workspace_q) = match &self.source {
            Source::Static(trees) | Source::Sharded(trees, _) => (
                trees.p.len(),
                trees.q.len(),
                self.plan_workspaces.0,
                self.plan_workspaces.1,
            ),
            Source::Live(live) => {
                // A pinned snapshot per side, dropped before execution —
                // the query itself pins its own (possibly newer) epoch.
                let side = |t: &LiveTree<D>| {
                    t.snapshot()
                        .ok()
                        .map(|s| (s.tree().len(), s.tree().root_mbr().ok().flatten()))
                        .unwrap_or((0, None))
                };
                let (n_p, ws_p) = side(live.p());
                let (n_q, ws_q) = side(live.q());
                (n_p, n_q, ws_p, ws_q)
            }
        };
        let inputs = PlannerInputs {
            n_p,
            n_q,
            workspace_p,
            workspace_q,
            stats_p: self.plan_stats.as_ref().map(|(p, _)| p.as_slice()),
            stats_q: self.plan_stats.as_ref().map(|(_, q)| q.as_slice()),
            max_parallelism: 0,
            shards: match self.source {
                Source::Sharded(..) => self.max_shards,
                _ => 0,
            },
        };
        plan(&inputs, req.k, req.kind, &req.constraint)
    }
}

fn worker_loop<const D: usize>(shared: &Shared<D>) {
    while let Some(mut job) = shared.queue.pop() {
        let start = Instant::now();
        let queue_wait = start.duration_since(job.enqueued);
        // Planned requests: the planner's choices overwrite the request's
        // knobs before dispatch, so the rest of the loop (and the echoed
        // response) sees exactly what will execute. Planning time counts
        // against the query's execution budget.
        let query_plan = job.req.planned.then(|| shared.plan_query(&job.req));
        if let Some(p) = &query_plan {
            job.req.algorithm = p.algorithm;
            job.req.scatter = p.scatter;
        }
        let cancel = match job.deadline_at {
            Some(at) => CancelToken::with_deadline(at),
            None => CancelToken::new(),
        };
        // Shard-aware dispatch: a request carrying a scatter fan-out runs
        // over the sharded replicas (when this service holds them), clamped
        // to the configured ceiling.
        let scatter_workers = job.req.scatter.min(shared.max_shards);
        let shards = match &shared.source {
            Source::Sharded(_, pair) if scatter_workers >= 1 => Some(pair),
            _ => None,
        };
        let instrument = shared.obs.is_some();
        let buf_before = if instrument {
            pool_totals(shared, job.req.kind, shards)
        } else {
            (0, 0)
        };
        let mut probe = ProfileProbe::new();
        let cpq = shared.cpq;
        let mut shard_report = None;
        let spec = job.req.spec();
        // The single-tree engine over two borrowed trees — the static pair
        // or a live query's pinned snapshots; self-joins run on `p` alone.
        // With observability off the context keeps its default `NullProbe`
        // (compiled-out callbacks).
        let mut run_engine = |p: &RTree<D>, q: &RTree<D>| {
            let q = if spec.self_join { p } else { q };
            let ctx = ExecCtx::default().with_cancel(&cancel);
            if instrument {
                execute(
                    p,
                    q,
                    &spec,
                    job.req.algorithm,
                    &cpq,
                    ctx.with_probe(&mut probe),
                )
            } else {
                execute(p, q, &spec, job.req.algorithm, &cpq, ctx)
            }
            .map_err(|e| e.to_string())
        };
        let result = match (&shared.source, shards) {
            (_, Some(pair)) => {
                let shard_cfg = ShardConfig {
                    workers: scatter_workers,
                    query_id: job.id,
                    ..ShardConfig::default()
                };
                let q = if spec.self_join { &pair.p } else { &pair.q };
                execute_sharded(
                    &pair.p,
                    q,
                    &spec,
                    job.req.algorithm,
                    &cpq,
                    &shard_cfg,
                    Some(&cancel),
                )
                .map(|run| {
                    shard_report = Some(run.report);
                    QueryRun {
                        outcome: run.outcome,
                        completed: run.completed,
                    }
                })
                .map_err(|e| e.to_string())
            }
            (Source::Static(trees) | Source::Sharded(trees, _), None) => {
                run_engine(&trees.p, &trees.q)
            }
            // Live path: pin epoch snapshots for the query's whole
            // execution — one committed state end to end, no matter how
            // many update batches commit mid-query. Self-joins pin only P.
            (Source::Live(live), None) => match live.p().snapshot() {
                Err(e) => Err(e.to_string()),
                Ok(snap_p) if spec.self_join => run_engine(snap_p.tree(), snap_p.tree()),
                Ok(snap_p) => match live.q().snapshot() {
                    Err(e) => Err(e.to_string()),
                    Ok(snap_q) => run_engine(snap_p.tree(), snap_q.tree()),
                },
            },
        };
        let (status, pairs, stats) = match result {
            Ok(run) => (
                if run.completed {
                    QueryStatus::Completed
                } else {
                    QueryStatus::TimedOut
                },
                run.outcome.pairs,
                run.outcome.stats,
            ),
            Err(e) => (QueryStatus::Failed(e), Vec::new(), CpqStats::default()),
        };
        let exec = start.elapsed();
        let latency = job.enqueued.elapsed();
        shared.stats.record_executed(job.req.algorithm, &status);
        let profile = shared.obs.as_ref().map(|obs| {
            let profile = complete_profile(
                probe,
                shared,
                &job,
                shards,
                &status,
                &stats,
                shard_report,
                query_plan,
                buf_before,
                queue_wait,
                exec,
            );
            obs.record_query(job.req.algorithm, &profile);
            Box::new(profile)
        });
        // A client may have dropped its ticket; the response is then
        // discarded, which is fine — stats already captured it.
        let _ = job.reply.send(QueryResponse {
            id: job.id,
            request: job.req,
            status,
            pairs,
            stats,
            queue_wait,
            exec,
            latency,
            profile,
        });
    }
}

/// Fills the serving-layer fields of a probe-accumulated profile: identity,
/// outcome, buffer deltas, the work counters of [`CpqStats`] (which the
/// scatter path's shard subqueries fill too), and timings. The
/// engine-observable fields (node accesses per level, phase timings) were
/// already written by the [`ProfileProbe`] callbacks.
#[allow(clippy::too_many_arguments)]
fn complete_profile<const D: usize>(
    probe: ProfileProbe,
    shared: &Shared<D>,
    job: &Job<D>,
    shards: Option<&ShardedPair<D>>,
    status: &QueryStatus,
    stats: &CpqStats,
    shard_report: Option<ShardReport>,
    query_plan: Option<QueryPlan>,
    buf_before: (u64, u64),
    queue_wait: Duration,
    exec: Duration,
) -> QueryProfile {
    let mut profile = probe.into_profile();
    profile.query_id = job.id;
    profile.algorithm = job.req.algorithm.label().to_string();
    profile.kind = job.req.kind.label().to_string();
    profile.status = status.label().to_string();
    profile.k = job.req.k as u64;
    let (hits_after, misses_after) = pool_totals(shared, job.req.kind, shards);
    profile.buffer_hits = hits_after.saturating_sub(buf_before.0);
    profile.buffer_misses = misses_after.saturating_sub(buf_before.1);
    profile.dist_computations = stats.dist_computations;
    profile.pairs_pruned = stats.pairs_pruned;
    profile.node_pairs_processed = stats.node_pairs_processed;
    profile.heap_inserts = stats.queue_inserts;
    profile.heap_high_watermark = stats.queue_peak as u64;
    profile.queue_wait_us = queue_wait.as_micros() as u64;
    profile.exec_us = exec.as_micros() as u64;
    if let Some(r) = shard_report {
        profile.shard_pairs_generated = r.pairs_generated;
        profile.shard_pairs_pruned = r.pairs_pruned;
        profile.shard_pairs_opened = r.pairs_opened;
        profile.shard_subqueries_completed = r.subqueries_completed;
        profile.shard_bound_updates = r.bound_updates;
    }
    if let Some(p) = query_plan {
        profile.planned = true;
        profile.plan_reason = p.reason.to_string();
        profile.plan_scatter = p.scatter as u64;
        profile.plan_est_accesses = p.est_accesses.map(|a| a.round() as u64).unwrap_or(0);
    }
    profile
}
