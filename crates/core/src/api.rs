//! Public entry points for the non-incremental algorithms.

use crate::bound::SharedBound;
use crate::cancel::CancelToken;
use crate::config::CpqConfig;
use crate::engine::{Ctx, ScatterCtx};
use crate::heap_alg::heap_run;
use crate::parallel::{run_parallel, SpecRuntime};
use crate::recursive::{exhaustive, naive, simple, sorted};
use crate::spec::{Constraint, QuerySpec};
use crate::types::{CpqStats, QueryOutcome, QueryRun};
use cpq_geo::SpatialObject;
use cpq_obs::{NullProbe, Probe, ProbeSide};
use cpq_rtree::{RTree, RTreeError, RTreeResult};

/// The five algorithms of the paper (Sections 3.1–3.5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algorithm {
    /// Recursive, no pruning at all (Section 3.1). Exponentially expensive;
    /// included for completeness and testing only.
    Naive,
    /// EXH — recursive with `MINMINDIST ≤ T` pruning (Section 3.2).
    Exhaustive,
    /// SIM — EXH plus eager `T` tightening via Inequality 2 (Section 3.3).
    Simple,
    /// STD — SIM plus ascending-MINMINDIST candidate ordering (Section 3.4).
    SortedDistances,
    /// HEAP — the iterative variant driven by a global min-heap
    /// (Section 3.5).
    Heap,
}

impl Algorithm {
    /// The four algorithms the paper evaluates (Naive is excluded there
    /// too, Section 4).
    pub const EVALUATED: [Algorithm; 4] = [
        Algorithm::Exhaustive,
        Algorithm::Simple,
        Algorithm::SortedDistances,
        Algorithm::Heap,
    ];

    /// Short label matching the paper's figures.
    pub fn label(&self) -> &'static str {
        match self {
            Algorithm::Naive => "NAIVE",
            Algorithm::Exhaustive => "EXH",
            Algorithm::Simple => "SIM",
            Algorithm::SortedDistances => "STD",
            Algorithm::Heap => "HEAP",
        }
    }
}

/// What one run carries besides the query itself: the optional
/// [`CancelToken`], the [`Probe`] and the optional scatter hookup. The
/// default is the plain run — no token, [`NullProbe`] (every probe call
/// site compiles to nothing), no shared bound.
pub struct ExecCtx<'a, P: Probe = NullProbe> {
    pub(crate) cancel: Option<&'a CancelToken>,
    pub(crate) probe: P,
    pub(crate) scatter: Option<ScatterCtx<'a>>,
}

impl Default for ExecCtx<'_, NullProbe> {
    fn default() -> Self {
        ExecCtx {
            cancel: None,
            probe: NullProbe,
            scatter: None,
        }
    }
}

impl<'a, P: Probe> ExecCtx<'a, P> {
    /// Polls `cancel` once per node-pair visit. When it trips, the run
    /// stops within one node visit and returns the K-heap's contents so
    /// far with [`QueryRun::completed`]` = false` — a best-effort partial
    /// answer, never an error. A token that never trips changes nothing,
    /// work counters included.
    pub fn with_cancel(mut self, cancel: &'a CancelToken) -> Self {
        self.cancel = Some(cancel);
        self
    }

    /// Sends per-node-access, per-leaf-scan and per-phase callbacks to
    /// `probe` (see [`cpq_obs::Probe`]); lend a [`cpq_obs::ProfileProbe`]
    /// to accumulate a full [`cpq_obs::QueryProfile`]. Instrumentation
    /// observes, it never steers: results and work counters are identical.
    pub fn with_probe<B: Probe>(self, probe: &'a mut B) -> ExecCtx<'a, &'a mut B> {
        ExecCtx {
            cancel: self.cancel,
            probe,
            scatter: self.scatter,
        }
    }

    /// Makes the run **one scatter-gather subquery** of a sharded query
    /// (the form the `cpq-shard` coordinator fans out).
    ///
    /// `shared` is the cross-shard global bound: it joins the engine's
    /// effective threshold `T` as an extra pruning term, and this subquery
    /// publishes its own live `T` back whenever it tightens — the exact
    /// protocol the parallel executor uses across the threads of one query,
    /// lifted to shard granularity. Pruning against it is strict (`> T`), so
    /// with a bound that stays at `+∞` the result is unchanged; with a live
    /// bound, only pairs that cannot belong to the *global* top-K are
    /// dropped.
    ///
    /// `orient_by_oid` canonicalizes every retained pair to `p.oid < q.oid`
    /// at construction — required by the off-diagonal subqueries of a
    /// sharded self-join, where the global canonical order does not know
    /// which shard a point came from.
    ///
    /// Scatter subqueries always run the plain sequential engine:
    /// `config.parallelism` is ignored (the coordinator's worker pool is the
    /// parallelism, and the speculative workers' task-local heaps do not
    /// apply the orientation rule).
    pub fn with_scatter(mut self, shared: &'a SharedBound, orient_by_oid: bool) -> Self {
        self.scatter = Some(ScatterCtx {
            bound: shared,
            orient: orient_by_oid,
        });
        self
    }
}

/// Runs one K-CPQ: the single way into the engine.
///
/// `spec` says what is asked — `K`, cross (`P × Q`) or self-join (`P × P`,
/// each unordered pair once with `p.oid < q.oid`; `tree_q` must then be
/// `tree_p`) and the result-pair [`Constraint`]; `ctx` says what rides
/// along (see [`ExecCtx`]). Pairs come back sorted by the canonical
/// `(dist2, oid, oid)` order, fewer than `K` when fewer qualify, and are
/// bit-identical to filtering the brute-force pair enumeration by the
/// constraint and keeping the K smallest. Work counters, including the
/// paper's disk-access metric, are in [`QueryOutcome::stats`].
///
/// `K = 1` automatically enables the 1-CP special case: the `MINMAXDIST`
/// bound of Inequality 2 (Sections 3.3–3.5).
///
/// Fails with [`RTreeError::InvalidParams`] when the spec is invalid (see
/// [`QuerySpec::validate`]).
pub fn execute<const D: usize, O: SpatialObject<D>, P: Probe>(
    tree_p: &RTree<D, O>,
    tree_q: &RTree<D, O>,
    spec: &QuerySpec<D>,
    algorithm: Algorithm,
    config: &CpqConfig,
    mut ctx: ExecCtx<'_, P>,
) -> RTreeResult<QueryRun<D, O>> {
    spec.validate()?;
    if spec.k == 0 || tree_p.is_empty() || tree_q.is_empty() {
        return Ok(QueryRun {
            outcome: QueryOutcome {
                pairs: Vec::new(),
                stats: CpqStats::default(),
            },
            completed: true,
        });
    }
    if config.parallelism > 1 && ctx.scatter.is_none() {
        // Intra-query parallel mode: same driver control flow (`run_leader`
        // below, called by `run_parallel`), plus speculative workers.
        // Results are bit-identical (see `parallel`).
        return run_parallel(tree_p, tree_q, spec, algorithm, config, &mut ctx);
    }
    run_leader(tree_p, tree_q, spec, algorithm, config, &mut ctx, None)
}

/// Finds the `K` closest pairs between the points of `tree_p` and `tree_q`:
/// [`execute`] on an unconstrained cross spec, outcome only.
pub fn k_closest_pairs<const D: usize, O: SpatialObject<D>>(
    tree_p: &RTree<D, O>,
    tree_q: &RTree<D, O>,
    k: usize,
    algorithm: Algorithm,
    config: &CpqConfig,
) -> RTreeResult<QueryOutcome<D, O>> {
    execute(
        tree_p,
        tree_q,
        &QuerySpec::cross(k),
        algorithm,
        config,
        ExecCtx::default(),
    )
    .map(|run| run.outcome)
}

/// The 1-CP convenience wrapper: the single closest pair.
pub fn closest_pair<const D: usize, O: SpatialObject<D>>(
    tree_p: &RTree<D, O>,
    tree_q: &RTree<D, O>,
    algorithm: Algorithm,
    config: &CpqConfig,
) -> RTreeResult<QueryOutcome<D, O>> {
    k_closest_pairs(tree_p, tree_q, 1, algorithm, config)
}

/// Self-CPQ (Section 6, future work): the `K` closest pairs **within** one
/// data set, pairing distinct points only and counting each unordered pair
/// once (results have `p.oid < q.oid`).
pub fn self_closest_pairs<const D: usize, O: SpatialObject<D>>(
    tree: &RTree<D, O>,
    k: usize,
    algorithm: Algorithm,
    config: &CpqConfig,
) -> RTreeResult<QueryOutcome<D, O>> {
    execute(
        tree,
        tree,
        &QuerySpec::self_join(k),
        algorithm,
        config,
        ExecCtx::default(),
    )
    .map(|run| run.outcome)
}

/// [`k_closest_pairs`] under a result-pair [`Constraint`]. Kept for the
/// `benchmark/` package; new code calls [`execute`].
pub fn k_closest_pairs_constrained<const D: usize, O: SpatialObject<D>>(
    tree_p: &RTree<D, O>,
    tree_q: &RTree<D, O>,
    k: usize,
    algorithm: Algorithm,
    config: &CpqConfig,
    constraint: Constraint<D>,
) -> RTreeResult<QueryOutcome<D, O>> {
    execute(
        tree_p,
        tree_q,
        &QuerySpec::cross(k).with_constraint(constraint),
        algorithm,
        config,
        ExecCtx::default(),
    )
    .map(|run| run.outcome)
}

/// [`self_closest_pairs`] under a result-pair [`Constraint`], which must be
/// symmetric (see [`QuerySpec::validate`]). Kept for the `benchmark/`
/// package; new code calls [`execute`].
pub fn self_closest_pairs_constrained<const D: usize, O: SpatialObject<D>>(
    tree: &RTree<D, O>,
    k: usize,
    algorithm: Algorithm,
    config: &CpqConfig,
    constraint: Constraint<D>,
) -> RTreeResult<QueryOutcome<D, O>> {
    execute(
        tree,
        tree,
        &QuerySpec::self_join(k).with_constraint(constraint),
        algorithm,
        config,
        ExecCtx::default(),
    )
    .map(|run| run.outcome)
}

/// [`k_closest_pairs`] with a [`CancelToken`] and a caller-supplied
/// [`Probe`]. Kept for the `benchmark/` package; new code calls [`execute`].
pub fn k_closest_pairs_instrumented<const D: usize, O: SpatialObject<D>, P: Probe>(
    tree_p: &RTree<D, O>,
    tree_q: &RTree<D, O>,
    k: usize,
    algorithm: Algorithm,
    config: &CpqConfig,
    cancel: &CancelToken,
    probe: &mut P,
) -> RTreeResult<QueryRun<D, O>> {
    execute(
        tree_p,
        tree_q,
        &QuerySpec::cross(k),
        algorithm,
        config,
        ExecCtx::default().with_cancel(cancel).with_probe(probe),
    )
}

/// The driver: the sequential control flow shared verbatim by sequential
/// runs (`par = None`) and the parallel executor's leader thread
/// (`par = Some`), which is what guarantees the two modes traverse, prune,
/// and retain identically.
pub(crate) fn run_leader<const D: usize, O: SpatialObject<D>, P: Probe>(
    tree_p: &RTree<D, O>,
    tree_q: &RTree<D, O>,
    spec: &QuerySpec<D>,
    algorithm: Algorithm,
    config: &CpqConfig,
    exec: &mut ExecCtx<'_, P>,
    par: Option<&SpecRuntime<D, O>>,
) -> RTreeResult<QueryRun<D, O>> {
    let mut ctx = Ctx::new(tree_p, tree_q, spec, config, exec, par);

    // A token that is already tripped (deadline expired while queued) stops
    // the run before it pays for the two root reads.
    if ctx.check_cancel().is_err() {
        return Ok(QueryRun {
            outcome: ctx.finish(),
            completed: false,
        });
    }

    // CP1: start from the two roots (one page access each; for a self-join
    // the second read hits the same pool).
    let (page_p, page_q) = (tree_p.root(), tree_q.root());
    let root_p = ctx.read_side(ProbeSide::P, page_p)?;
    let root_q = ctx.read_side(ProbeSide::Q, page_q)?;
    // analyze: allow(panic-path) — empty trees returned early above, so
    // both roots have MBRs.
    ctx.root_area_p = root_p.mbr().expect("non-empty root").area();
    // analyze: allow(panic-path) — same non-empty-root invariant as above.
    ctx.root_area_q = root_q.mbr().expect("non-empty root").area();
    if let Some(rt) = par {
        // Seed speculation with the root pair so the workers start
        // descending immediately.
        rt.push_spec(cpq_geo::Dist2::ZERO, page_p, page_q);
    }

    let completed = match match algorithm {
        Algorithm::Naive => naive(&mut ctx, &root_p, &root_q, page_p, page_q),
        Algorithm::Exhaustive => exhaustive(&mut ctx, &root_p, &root_q, page_p, page_q),
        Algorithm::Simple => simple(&mut ctx, &root_p, &root_q, page_p, page_q),
        Algorithm::SortedDistances => sorted(&mut ctx, &root_p, &root_q, page_p, page_q),
        Algorithm::Heap => heap_run(&mut ctx, &root_p, &root_q),
    } {
        Ok(()) => true,
        Err(RTreeError::Cancelled) => false,
        Err(e) => return Err(e),
    };
    Ok(QueryRun {
        outcome: ctx.finish(),
        completed,
    })
}
