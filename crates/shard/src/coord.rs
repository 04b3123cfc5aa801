//! The scatter-gather coordinator: plans shard pairs, fans them out to a
//! worker pool, gathers and merges the partial top-K lists.
//!
//! The run is the paper's branch-and-bound loop one level up. Planning
//! computes every shard pair's inter-shard `MINMINDIST` from the manifest
//! MBRs; dispatch ([`Scatter`]) hands pairs out best-first and prunes the
//! tail once the best remaining separation exceeds the shared bound;
//! every subquery is an ordinary sequential engine run that consumes and
//! publishes that bound ([`cpq_core::ExecCtx::with_scatter`]); the
//! gather step merges by the canonical total order ([`merge_top_k`]), so
//! the final top-K is bit-identical to the unsharded engine.
//!
//! With `ShardConfig::wire_codec` enabled, every subquery and partial
//! result — plus a [`BoundUpdate`] per finished subquery — is round-tripped
//! through the [`proto`](crate::proto) byte codec and the worker runs from
//! the *decoded* message, proving the wire protocol carries everything a
//! remote shard server would need.

use crate::build::ShardedTree;
use crate::merge::merge_top_k;
use crate::proto::{
    algorithm_from_code, BoundUpdate, PartialResult, ProtoError, ShardSubquery, WirePair,
};
use crate::scatter::{Scatter, Task};
use cpq_core::{
    execute, Algorithm, CancelToken, Constraint, CpqConfig, CpqStats, ExecCtx, PairResult,
    QueryOutcome, QueryRun, QuerySpec,
};
use cpq_geo::{min_min_dist2, SpatialObject};
use cpq_rtree::RTreeError;
use std::fmt;

/// Knobs of one sharded query run (independent of the engine-level
/// [`CpqConfig`], which configures each subquery).
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Worker threads draining the shard-pair queue. `0` is treated as `1`
    /// (the coordinator always runs subqueries on dedicated threads).
    pub workers: usize,
    /// Round-trip every subquery, bound update, and partial result through
    /// the byte codec and run from the decoded message — the in-process
    /// proof that the wire protocol is complete.
    pub wire_codec: bool,
    /// Query id stamped on protocol messages (diagnostics / correlation).
    pub query_id: u64,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            workers: 4,
            wire_codec: false,
            query_id: 0,
        }
    }
}

/// Shard-level work counters of one sharded run — the scatter analogue of
/// the engine's [`CpqStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardReport {
    /// Shard pairs generated at planning time.
    pub pairs_generated: u64,
    /// Shard pairs pruned unopened (`MINMINDIST > bound`).
    pub pairs_pruned: u64,
    /// Shard pairs actually opened as subqueries.
    pub pairs_opened: u64,
    /// Opened subqueries that ran to completion.
    pub subqueries_completed: u64,
    /// Successful tightenings of the cross-shard [`SharedBound`]
    /// ([`cpq_core::SharedBound`]).
    pub bound_updates: u64,
}

/// Outcome of a sharded K-CPQ: the merged pairs and counters.
#[derive(Debug, Clone)]
pub struct ShardRun<const D: usize, O: SpatialObject<D> = cpq_geo::Point<D>> {
    /// Merged result pairs (canonical order) and summed engine counters
    /// across all opened subqueries (`queue_peak` is the max, not a sum).
    pub outcome: QueryOutcome<D, O>,
    /// `true` when every generated shard pair was opened or pruned and
    /// every opened subquery finished; `false` when the cancel token
    /// tripped first (the pairs are then a valid partial answer).
    pub completed: bool,
    /// Shard-level counters.
    pub report: ShardReport,
}

/// Errors of a sharded run: a storage/tree failure inside a subquery, or a
/// codec failure in `wire_codec` mode.
#[derive(Debug)]
pub enum ShardError {
    /// A subquery's tree raised an error (exactly one surfaces).
    Tree(RTreeError),
    /// A protocol message failed to round-trip through the codec.
    Proto(ProtoError),
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardError::Tree(e) => write!(f, "shard subquery failed: {e}"),
            ShardError::Proto(e) => write!(f, "shard protocol error: {e}"),
        }
    }
}

impl std::error::Error for ShardError {}

impl From<RTreeError> for ShardError {
    fn from(e: RTreeError) -> Self {
        ShardError::Tree(e)
    }
}

impl From<ProtoError> for ShardError {
    fn from(e: ProtoError) -> Self {
        ShardError::Proto(e)
    }
}

/// Runs one K-CPQ over sharded datasets, scatter-gather across all shard
/// pairs: the sharded counterpart of [`cpq_core::execute`], bit-identical
/// to it over the unsharded datasets. For a self-join spec `q` must be `p`.
///
/// Shard pairs whose window-clipped manifest MBRs cannot contain a
/// qualifying pair are skipped at planning time. Fails with
/// [`RTreeError::InvalidParams`] when the spec is invalid (see
/// [`QuerySpec::validate`]).
pub fn execute_sharded<const D: usize, O: SpatialObject<D>>(
    p: &ShardedTree<D, O>,
    q: &ShardedTree<D, O>,
    spec: &QuerySpec<D>,
    algorithm: Algorithm,
    config: &CpqConfig,
    shard: &ShardConfig,
    cancel: Option<&CancelToken>,
) -> Result<ShardRun<D, O>, ShardError> {
    spec.validate()?;
    if spec.k == 0 || p.is_empty() || q.is_empty() {
        return Ok(ShardRun {
            outcome: QueryOutcome {
                pairs: Vec::new(),
                stats: CpqStats::default(),
            },
            completed: true,
            report: ShardReport::default(),
        });
    }
    let owned_cancel;
    let cancel = match cancel {
        Some(c) => c,
        None => {
            owned_cancel = CancelToken::new();
            &owned_cancel
        }
    };
    ShardedQuery {
        p,
        q,
        spec,
        algorithm,
        config,
        shard,
        cancel,
    }
    .run()
}

/// [`execute_sharded`] on an unconstrained cross spec. Kept for the
/// `benchmark/` package; new code calls [`execute_sharded`].
pub fn k_closest_pairs_sharded<const D: usize, O: SpatialObject<D>>(
    p: &ShardedTree<D, O>,
    q: &ShardedTree<D, O>,
    k: usize,
    algorithm: Algorithm,
    config: &CpqConfig,
    shard: &ShardConfig,
    cancel: Option<&CancelToken>,
) -> Result<ShardRun<D, O>, ShardError> {
    execute_sharded(p, q, &QuerySpec::cross(k), algorithm, config, shard, cancel)
}

/// Plans the shard-pair task set from the two manifests.
///
/// Cross queries enumerate the full grid. Self-joins enumerate the
/// diagonal (each shard self-joined) plus each unordered off-diagonal pair
/// once, run as an oriented cross query: the engine canonicalizes every
/// retained pair to `p.oid < q.oid`, which is exactly the orientation the
/// unsharded self-join produces (see [`crate::merge`] for why that matters
/// under distance ties).
fn plan<const D: usize, O: SpatialObject<D>>(
    p: &ShardedTree<D, O>,
    q: &ShardedTree<D, O>,
    self_join: bool,
    constraint: &Constraint<D>,
) -> Vec<Task> {
    let mut tasks = Vec::new();
    for mp in &p.manifest().shards {
        // Windows prune at planning time too: a shard whose MBR misses its
        // side's window holds no qualifying points, so every pair it is on
        // can be skipped unopened; surviving pairs are prioritized by the
        // MINMINDIST of the *clipped* MBRs (a tighter, still-exact lower
        // bound — same argument as the engine's candidate clipping).
        let Some(mbr_p) = constraint.clip_p(&mp.mbr()) else {
            continue;
        };
        for mq in &q.manifest().shards {
            if self_join && mq.id < mp.id {
                continue;
            }
            let Some(mbr_q) = constraint.clip_q(&mq.mbr()) else {
                continue;
            };
            let diagonal = self_join && mp.id == mq.id;
            let minmin = if diagonal {
                0.0
            } else {
                min_min_dist2(&mbr_p, &mbr_q).get()
            };
            tasks.push(Task {
                minmin_bits: minmin.to_bits(),
                shard_p: mp.id,
                shard_q: mq.id,
                self_join: diagonal,
                orient: self_join && !diagonal,
            });
        }
    }
    tasks
}

/// What one worker thread hands back at join time. Workers share only the
/// [`Scatter`] (queue + bound); results, stats, and errors travel through
/// the join handle, so the gather step needs no further synchronization.
struct WorkerOut<const D: usize, O: SpatialObject<D>> {
    partials: Vec<Vec<PairResult<D, O>>>,
    stats: CpqStats,
    subqueries_completed: u64,
    all_completed: bool,
    error: Option<ShardError>,
}

fn sum_stats(acc: &mut CpqStats, s: &CpqStats) {
    acc.disk_accesses_p += s.disk_accesses_p;
    acc.disk_accesses_q += s.disk_accesses_q;
    acc.node_pairs_processed += s.node_pairs_processed;
    acc.pairs_pruned += s.pairs_pruned;
    acc.dist_computations += s.dist_computations;
    acc.queue_inserts += s.queue_inserts;
    acc.queue_peak = acc.queue_peak.max(s.queue_peak);
}

/// One sharded query as its workers see it: what was asked, how each
/// subquery runs, and the token that stops them all.
struct ShardedQuery<'a, const D: usize, O: SpatialObject<D>> {
    p: &'a ShardedTree<D, O>,
    q: &'a ShardedTree<D, O>,
    spec: &'a QuerySpec<D>,
    algorithm: Algorithm,
    config: &'a CpqConfig,
    shard: &'a ShardConfig,
    cancel: &'a CancelToken,
}

impl<const D: usize, O: SpatialObject<D>> ShardedQuery<'_, D, O> {
    /// One worker: drain the dispatcher, run each claimed shard pair as an
    /// engine subquery against the shared bound, keep the partial top-K lists.
    fn worker_run(&self, sc: &Scatter) -> WorkerOut<D, O> {
        let mut out = WorkerOut {
            partials: Vec::new(),
            stats: CpqStats::default(),
            subqueries_completed: 0,
            all_completed: true,
            error: None,
        };
        while let Some(task) = sc.next() {
            let run = match self.run_task(sc, task) {
                Ok(run) => run,
                Err(e) => {
                    out.error = Some(e);
                    out.all_completed = false;
                    sc.cancel();
                    break;
                }
            };
            sum_stats(&mut out.stats, &run.outcome.stats);
            out.partials.push(run.outcome.pairs);
            if run.completed {
                out.subqueries_completed += 1;
            } else {
                // The cancel token tripped inside the subquery; stop dispatch
                // and keep whatever partials exist.
                out.all_completed = false;
                sc.cancel();
                break;
            }
        }
        if self.cancel.is_cancelled() {
            out.all_completed = false;
        }
        out
    }

    /// Runs one claimed shard pair, round-tripping the protocol messages when
    /// `wire_codec` is on (the subquery is then executed from the *decoded*
    /// message; the decoded partial is checked for fidelity against the
    /// in-memory pairs, which keep their geometry for the merge).
    fn run_task(&self, sc: &Scatter, task: Task) -> Result<QueryRun<D, O>, ShardError> {
        let (k, shard) = (self.spec.k, self.shard);
        let (shard_p, shard_q, self_join, orient, alg, constraint) = if shard.wire_codec {
            let msg = ShardSubquery {
                query_id: shard.query_id,
                shard_p: task.shard_p,
                shard_q: task.shard_q,
                k: k as u64,
                algorithm: crate::proto::algorithm_code(self.algorithm),
                self_join: task.self_join,
                orient_by_oid: task.orient,
                minmin_bits: task.minmin_bits,
                window_p: self.spec.constraint.window_p,
                window_q: self.spec.constraint.window_q,
                colored: self.spec.constraint.colored,
            };
            let decoded = ShardSubquery::decode(&msg.encode())?;
            (
                decoded.shard_p,
                decoded.shard_q,
                decoded.self_join,
                decoded.orient_by_oid,
                algorithm_from_code(decoded.algorithm)?,
                // Run from the *decoded* constraint: the proof the wire carries
                // the windows and the colored flag faithfully.
                decoded.constraint(),
            )
        } else {
            (
                task.shard_p,
                task.shard_q,
                task.self_join,
                task.orient,
                self.algorithm,
                self.spec.constraint,
            )
        };

        // A diagonal pair names one shard twice, so the self-join subquery
        // gets the same tree on both sides.
        let run = execute(
            self.p.shard(shard_p as usize),
            self.q.shard(shard_q as usize),
            &QuerySpec {
                k,
                self_join,
                constraint,
            },
            alg,
            self.config,
            ExecCtx::default()
                .with_cancel(self.cancel)
                .with_scatter(&sc.bound, orient),
        )?;

        if shard.wire_codec {
            // A remote shard server would ship exactly these two messages
            // back; prove they survive the codec and carry the run faithfully.
            let partial = PartialResult {
                query_id: shard.query_id,
                shard_p,
                shard_q,
                completed: run.completed,
                pairs: run
                    .outcome
                    .pairs
                    .iter()
                    .map(|pr| WirePair {
                        p_oid: pr.p.oid,
                        q_oid: pr.q.oid,
                        dist2_bits: pr.dist2.get().to_bits(),
                    })
                    .collect(),
            };
            let decoded = PartialResult::decode(&partial.encode())?;
            if decoded != partial {
                return Err(ShardError::Proto(ProtoError::Truncated));
            }
            let update = BoundUpdate {
                query_id: shard.query_id,
                bound_bits: sc.bound.get_d2().to_bits(),
            };
            let decoded = BoundUpdate::decode(&update.encode())?;
            // Re-applying the round-tripped bound is a no-op tighten (the
            // CAS-min ignores values at or above the current bound).
            sc.bound.tighten(f64::from_bits(decoded.bound_bits));
        }
        Ok(run)
    }

    /// Plans, scatters over the worker pool, gathers and merges.
    fn run(&self) -> Result<ShardRun<D, O>, ShardError> {
        let scatter = Scatter::new(plan(
            self.p,
            self.q,
            self.spec.self_join,
            &self.spec.constraint,
        ));
        let workers = self.shard.workers.max(1);
        let outs: Vec<WorkerOut<D, O>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| scope.spawn(|| self.worker_run(&scatter)))
                .collect();
            handles
                .into_iter()
                // analyze: allow(panic-path) — a panicking worker is a bug; propagate
                // the panic rather than fabricate a result.
                .map(|h| h.join().expect("shard workers never panic"))
                .collect()
        });

        let mut stats = CpqStats::default();
        let mut subqueries_completed = 0;
        let mut completed = true;
        let mut partials = Vec::new();
        for mut out in outs {
            if let Some(e) = out.error {
                return Err(e);
            }
            sum_stats(&mut stats, &out.stats);
            subqueries_completed += out.subqueries_completed;
            completed &= out.all_completed;
            partials.append(&mut out.partials);
        }

        let counts = scatter.counts();
        // A cancelled run may leave tasks neither opened nor pruned; a
        // finished one accounts for every generated pair.
        completed &= counts.opened + counts.pruned == counts.generated;
        let pairs = merge_top_k(partials, self.spec.k);
        Ok(ShardRun {
            outcome: QueryOutcome { pairs, stats },
            completed,
            report: ShardReport {
                pairs_generated: counts.generated,
                pairs_pruned: counts.pruned,
                pairs_opened: counts.opened,
                subqueries_completed,
                bound_updates: scatter.bound.updates(),
            },
        })
    }
}
