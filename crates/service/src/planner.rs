//! The query planner: turns a query's *shape* (K, join kind, windows,
//! colors) plus cheap data statistics into concrete execution knobs —
//! algorithm and scatter fan-out — replacing hand-picked per-request
//! settings.
//!
//! The planner is **deterministic**: the same [`PlannerInputs`] and query
//! shape always yield the same [`QueryPlan`] (the golden tests pin the
//! whole decision table). It never affects *answers* — every algorithm
//! returns the same bit-identical pairs — only cost, so a misprediction
//! is a latency bug, not a correctness bug.
//!
//! ## Decision procedure
//!
//! 1. **Effective workload.** Each side's cardinality is scaled by the
//!    fraction of its workspace surviving the side's window (uniform-
//!    density assumption, the same one the cost model makes). A window
//!    that misses the workspace zeroes the side; the product
//!    `eff_p × eff_q` is the planner's notion of work.
//! 2. **Algorithm.**
//!    * no work (empty side, `k = 0`, or a window off the data) →
//!      [`Algorithm::Exhaustive`] — any algorithm returns empty; EXH has
//!      the cheapest setup;
//!    * tiny work (`< `[`SMALL_WORK`]) → [`Algorithm::Exhaustive`] —
//!      recursion over a handful of node pairs needs no ordering at all;
//!    * everything else — on one tree or scattered →
//!      [`Algorithm::SortedDistances`], the paper's best recursive
//!      variant. A service always runs behind an LRU buffer, and behind
//!      one the paper's own Figure 6b has the recursive algorithms beating
//!      HEAP from `B = 16` pages up: depth-first descent comes back to the
//!      pages it just read, best-first order jumps between subtrees.
//!      Measured by the clock on every request class HEAP used to get
//!      (`examples/heap_vs_std.rs`, EXPERIMENTS.md "PR 22"): STD is
//!      1.4–2.5x faster and misses no more — most on whole-space
//!      self-joins, which run without the MINMAX/MAXMAX bounds, so
//!      best-first degenerates to breadth-first over the zero-MINMINDIST
//!      diagonal and queues tens of thousands of node pairs. Scattered
//!      over S = 4 shards STD is 1.1–1.2x faster too. The `reason`
//!      label names the query's shape — `constrained`, `1cp`, `default` —
//!      for the profile. HEAP stays reachable by naming it on an
//!      unplanned request.
//! 3. **Cost estimate.** When per-level tree statistics are available,
//!    the analytic model ([`cpq_core::costmodel::estimate_1cp_cost`])
//!    predicts disk accesses over the *clipped* workspaces and effective
//!    cardinalities; the estimate is recorded in the plan (and profile).
//! 4. **Fan-out.** Scatter wins when replicas exist and the work is
//!    huge (`≥ `[`SCATTER_WORK`]): inter-shard MINMINDIST pruning
//!    removes whole subtree pairs a single-tree descent would still
//!    traverse. The fan-out is capped at [`MAX_FANOUT`]. The planner never
//!    chooses a thread count: that is the service's
//!    [`CpqConfig::parallelism`](cpq_core::CpqConfig::parallelism).

use crate::request::QueryKind;
use cpq_core::costmodel::estimate_1cp_cost;
use cpq_core::{Algorithm, Constraint};
use cpq_geo::Rect;
use cpq_rtree::LevelStats;

/// Below this effective pair-work product the planner picks the plain
/// recursive EXH algorithm: the whole query fits in a few node pairs.
pub const SMALL_WORK: f64 = 250_000.0;

/// At or above this effective pair-work product the planner prefers
/// scatter-gather over sharded replicas, when the service holds them.
pub const SCATTER_WORK: f64 = 100_000_000.0;

/// Ceiling on planner-chosen scatter fan-out (before the service's own
/// `max_shards` clamp).
pub const MAX_FANOUT: usize = 4;

/// Everything the planner knows about the data and the service, gathered
/// once per planned query (all O(1) reads; the root MBRs and per-level
/// statistics of a static source are captured once at service start, a
/// live source reads one root page per side from a pinned snapshot).
#[derive(Debug, Clone, Copy)]
pub struct PlannerInputs<'a, const D: usize> {
    /// Cardinality of the `P` tree.
    pub n_p: u64,
    /// Cardinality of the `Q` tree (equal to `n_p` for self-joins).
    pub n_q: u64,
    /// Root MBR of the `P` tree; `None` when empty or unknown.
    pub workspace_p: Option<Rect<D>>,
    /// Root MBR of the `Q` tree; `None` when empty or unknown.
    pub workspace_q: Option<Rect<D>>,
    /// Per-level statistics of the `P` tree for the cost model, when the
    /// service captured them (static sources; live trees skip the walk).
    pub stats_p: Option<&'a [LevelStats<D>]>,
    /// Per-level statistics of the `Q` tree.
    pub stats_q: Option<&'a [LevelStats<D>]>,
    /// Read by nothing; the service passes `0`. It stays only because the
    /// benchmark's planner probe builds these inputs as a struct literal,
    /// and goes with that literal (ROADMAP item 1(c)).
    pub max_parallelism: usize,
    /// Scatter fan-out available (`0` when the service holds no sharded
    /// replicas).
    pub shards: usize,
}

/// The planner's decision for one query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryPlan {
    /// Chosen algorithm.
    pub algorithm: Algorithm,
    /// Chosen scatter fan-out (`0` = classic single-tree path).
    pub scatter: usize,
    /// Cost-model disk-access estimate, when statistics allowed one.
    pub est_accesses: Option<f64>,
    /// Short label naming the rule that fired (recorded in the profile).
    pub reason: &'static str,
}

/// Fraction of a workspace surviving a window, under uniform density.
/// `None` window → 1; a window missing the workspace → 0; a zero-area
/// workspace (all points identical or collinear) degenerates to a
/// contains/misses test.
fn selectivity<const D: usize>(workspace: &Rect<D>, window: Option<&Rect<D>>) -> f64 {
    let Some(w) = window else { return 1.0 };
    let Some(clipped) = workspace.intersection(w) else {
        return 0.0;
    };
    let area = workspace.area();
    if area <= 0.0 {
        return 1.0; // degenerate workspace that the window touches
    }
    clipped.area() / area
}

/// Plans one query. Deterministic; see the module docs for the rules.
pub fn plan<const D: usize>(
    inputs: &PlannerInputs<'_, D>,
    k: usize,
    kind: QueryKind,
    constraint: &Constraint<D>,
) -> QueryPlan {
    // Self-joins read one tree on both sides.
    let (n_q, workspace_q, stats_q) = match kind {
        QueryKind::Cross => (inputs.n_q, inputs.workspace_q, inputs.stats_q),
        QueryKind::SelfJoin => (inputs.n_p, inputs.workspace_p, inputs.stats_p),
    };

    let sequential = |algorithm, est_accesses, reason| QueryPlan {
        algorithm,
        scatter: 0,
        est_accesses,
        reason,
    };

    let (Some(ws_p), Some(ws_q)) = (inputs.workspace_p, workspace_q) else {
        return sequential(Algorithm::Exhaustive, None, "empty-side");
    };
    if k == 0 || inputs.n_p == 0 || n_q == 0 {
        return sequential(Algorithm::Exhaustive, None, "empty-side");
    }

    let eff_p = inputs.n_p as f64 * selectivity(&ws_p, constraint.window_p.as_ref());
    let eff_q = n_q as f64 * selectivity(&ws_q, constraint.window_q.as_ref());
    let work = eff_p * eff_q;
    if work == 0.0 {
        return sequential(Algorithm::Exhaustive, None, "window-off-data");
    }
    if work < SMALL_WORK {
        return sequential(Algorithm::Exhaustive, None, "tiny");
    }

    // One algorithm past the tiny bar; the label names the query's shape.
    let algorithm = Algorithm::SortedDistances;
    let reason = if constraint.is_active() {
        "constrained"
    } else if k == 1 {
        "1cp"
    } else {
        "default"
    };

    // Cost model over the *clipped* workspaces and effective cardinalities
    // — the same uniform-density assumption as the selectivity step. The
    // clip can only be non-empty here (work > 0).
    let est_accesses = match (inputs.stats_p, stats_q) {
        (Some(sp), Some(sq)) => {
            let clip = |ws: &Rect<D>, win: Option<&Rect<D>>| match win {
                Some(w) => ws.intersection(w).unwrap_or(*ws),
                None => *ws,
            };
            estimate_1cp_cost(
                sp,
                &clip(&ws_p, constraint.window_p.as_ref()),
                eff_p.round() as u64,
                sq,
                &clip(&ws_q, constraint.window_q.as_ref()),
                eff_q.round() as u64,
            )
            .map(|c| c.disk_accesses)
        }
        _ => None,
    };

    let scatter = if inputs.shards >= 2 && work >= SCATTER_WORK {
        inputs.shards.min(MAX_FANOUT)
    } else {
        0
    };
    QueryPlan {
        algorithm,
        scatter,
        est_accesses,
        reason,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inputs(n: u64, side: f64) -> PlannerInputs<'static, 2> {
        let ws = Rect::from_corners([0.0, 0.0], [side, side]);
        PlannerInputs {
            n_p: n,
            n_q: n,
            workspace_p: Some(ws),
            workspace_q: Some(ws),
            stats_p: None,
            stats_q: None,
            max_parallelism: 0,
            shards: 0,
        }
    }

    #[test]
    fn tiny_work_runs_exhaustive() {
        let p = plan(&inputs(100, 10.0), 5, QueryKind::Cross, &Constraint::none());
        assert_eq!(p.algorithm, Algorithm::Exhaustive);
        assert_eq!(p.scatter, 0);
        assert_eq!(p.reason, "tiny");
    }

    #[test]
    fn window_selectivity_downgrades_algorithm() {
        // 10_000² raw work, but a 1%-area window on each side cuts the
        // effective product to 10_000 — back under the EXH bar even
        // though the constraint is active.
        let window = Rect::from_corners([0.0, 0.0], [1.0, 1.0]);
        let con = Constraint::window(window);
        let p = plan(&inputs(10_000, 10.0), 5, QueryKind::Cross, &con);
        assert_eq!(p.algorithm, Algorithm::Exhaustive);
        assert_eq!(p.reason, "tiny");
    }

    #[test]
    fn active_constraint_keeps_its_label_not_its_own_algorithm() {
        let window = Rect::from_corners([0.0, 0.0], [10.0, 10.0]);
        let con = Constraint::window(window);
        let p = plan(&inputs(10_000, 10.0), 1, QueryKind::Cross, &con);
        assert_eq!(p.algorithm, Algorithm::SortedDistances);
        assert_eq!(p.reason, "constrained");
    }

    #[test]
    fn one_cp_prefers_sorted_distances() {
        let p = plan(
            &inputs(10_000, 10.0),
            1,
            QueryKind::Cross,
            &Constraint::none(),
        );
        assert_eq!(p.algorithm, Algorithm::SortedDistances);
        assert_eq!(p.reason, "1cp");
    }

    #[test]
    fn window_off_the_data_is_planned_empty() {
        let window = Rect::from_corners([100.0, 100.0], [200.0, 200.0]);
        let con = Constraint::window(window);
        let p = plan(&inputs(10_000, 10.0), 5, QueryKind::Cross, &con);
        assert_eq!(p.algorithm, Algorithm::Exhaustive);
        assert_eq!(p.reason, "window-off-data");
    }

    #[test]
    fn big_work_fans_out_when_allowed() {
        let mut i = inputs(10_000, 10.0);
        let p = plan(&i, 10, QueryKind::Cross, &Constraint::none());
        assert_eq!(p.scatter, 0, "no replicas, no scatter");
        i.shards = 8;
        let p = plan(&i, 10, QueryKind::Cross, &Constraint::none());
        assert_eq!(p.scatter, MAX_FANOUT);
        // Fanned out or not, the algorithm is the sequential plan's.
        assert_eq!(p.algorithm, Algorithm::SortedDistances);
    }

    #[test]
    fn self_join_uses_p_side_only() {
        let mut i = inputs(10_000, 10.0);
        i.n_q = 0;
        i.workspace_q = None;
        let p = plan(&i, 10, QueryKind::SelfJoin, &Constraint::none());
        assert_eq!(p.algorithm, Algorithm::SortedDistances);
        assert_eq!(p.reason, "default");
    }
}
