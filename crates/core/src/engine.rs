//! Shared machinery of the CPQ algorithms: the query context, candidate
//! generation honoring the height strategy, leaf scanning, and the
//! threshold bounds of Inequalities 1 and 2.

use crate::api::ExecCtx;
use crate::bound::SharedBound;
use crate::cancel::CancelToken;
use crate::config::{CpqConfig, HeightStrategy, KPruning, LeafScan};
use crate::kheap::KHeap;
use crate::parallel::{SpecRuntime, TaskOut};
use crate::spec::{Constraint, QuerySpec};
use crate::types::{CpqStats, PairResult};
use cpq_check::sync::Arc;
use cpq_geo::{max_max_dist2, min_max_dist2, min_min_dist2_within, Dist2, Rect, SpatialObject};
use cpq_obs::{Probe, ProbeSide};
use cpq_rtree::{InnerEntry, LeafEntry, Node, RTree, RTreeError, RTreeResult};
use cpq_storage::PageId;
use std::time::Instant;

/// Scatter-gather hookup for one shard-pair subquery (`cpq-shard`).
///
/// The cross-shard [`SharedBound`] joins the engine's effective threshold
/// `T` as a third term (next to the K-heap threshold and the structural
/// MINMAX/MAXMAX bound), and the subquery publishes its own live `T` back
/// whenever it tightens — the exact protocol `SpecRuntime` uses across the
/// threads of one parallel query, lifted to shard granularity. Pruning
/// against it stays *strict* (`> T`), so a published bound can never drop
/// a pair that ties the K-th best.
#[derive(Clone, Copy)]
pub(crate) struct ScatterCtx<'a> {
    /// The cross-shard shared bound.
    pub bound: &'a SharedBound,
    /// Canonicalize each retained pair to `p.oid < q.oid` at construction.
    /// Used by the off-diagonal subqueries of a sharded self-join, whose
    /// global canonical order is oblivious to which shard a point came
    /// from: without the swap, a tie-storm could evict a pair locally that
    /// the unsharded self-join (which always retains the `p.oid < q.oid`
    /// orientation) would have kept.
    pub orient: bool,
}

/// One side of a candidate pair: either stay at the current node or descend
/// into one of its children.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Descend<const D: usize> {
    /// Keep processing the current node (used when only the other tree
    /// descends, per the height strategy).
    Stay,
    /// Descend into this child.
    Down(InnerEntry<D>),
}

/// Decides which sides of a node pair descend, honoring the height strategy
/// (Section 3.7). Shared by [`Ctx::gen_cands`] and the speculative workers'
/// candidate precomputation, which must replicate the driver's decision
/// exactly for the pair cache to be consistent.
pub(crate) fn descend_sides(
    p_leaf: bool,
    q_leaf: bool,
    level_p: u8,
    level_q: u8,
    height: HeightStrategy,
) -> (bool, bool) {
    match (p_leaf, q_leaf) {
        (true, true) => unreachable!("candidate generation on two leaves"),
        (true, false) => (false, true),
        (false, true) => (true, false),
        (false, false) => match height {
            // Lockstep whenever both are internal; levels may differ.
            HeightStrategy::FixAtLeaves => (true, true),
            // Equalize levels first: only the deeper-rooted (higher level)
            // side descends until levels match.
            HeightStrategy::FixAtRoot => (level_p >= level_q, level_q >= level_p),
        },
    }
}

/// A candidate pair of subtrees generated from one node pair.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Cand<const D: usize> {
    pub p: Descend<D>,
    pub q: Descend<D>,
    pub mbr_p: Rect<D>,
    pub mbr_q: Rect<D>,
    pub count_p: u64,
    pub count_q: u64,
    /// `MINMINDIST` of the pair — the pruning key.
    pub minmin: Dist2,
}

/// The projection of one leaf entry's MBR onto the sweep axis, plus enough
/// to find the entry again.
#[derive(Clone, Copy)]
struct SweepProj {
    /// Lower coordinate on the sweep axis (the sort key).
    lo: f64,
    /// Upper coordinate on the sweep axis (the gap is measured from here).
    hi: f64,
    /// Index into the originating leaf's entry slice.
    idx: u32,
}

/// Mutable state of one query run, shared by all algorithm variants.
///
/// Generic over the [`Probe`] so instrumentation monomorphizes away: with
/// [`cpq_obs::NullProbe`] (`ENABLED = false`) every probe call site and its
/// `Instant::now()` guard compiles to nothing.
pub(crate) struct Ctx<'a, const D: usize, O: SpatialObject<D>, P: Probe> {
    pub tp: &'a RTree<D, O>,
    pub tq: &'a RTree<D, O>,
    pub cfg: &'a CpqConfig,
    pub k: usize,
    pub kheap: KHeap<D, O>,
    /// Upper bound on the K-th result distance derived from Inequality 2
    /// (1-CP) or the MAXMAXDIST cardinality argument (K-CP). Kept separate
    /// from the K-heap threshold because it does not correspond to concrete
    /// result pairs.
    pub bound: Dist2,
    pub stats: CpqStats,
    pub root_area_p: f64,
    pub root_area_q: f64,
    /// Self-join mode (`P ≡ Q`): count each unordered pair once and never
    /// pair a point with itself. Disables the MINMAX/MAXMAX bounds, whose
    /// witness pairs may be a point with itself when the two sides share a
    /// subtree.
    pub self_join: bool,
    /// The result-pair constraint (windows / colored). An inactive
    /// constraint leaves every code path bit-identical to plain K-CPQ.
    /// Active constraints also disable the MINMAX/MAXMAX bounds: their
    /// witness pairs may be filtered out, and subtree cardinalities count
    /// non-qualifying points.
    pub constraint: Constraint<D>,
    /// Cooperative cancellation token, polled once per node-pair visit.
    /// `None` (the plain entry points) compiles down to a no-op check, so
    /// single-threaded results and work counters are untouched.
    pub cancel: Option<&'a CancelToken>,
    /// Per-query instrumentation sink (see the struct docs).
    pub probe: &'a mut P,
    /// The speculative-execution runtime when this query runs in parallel
    /// mode (`CpqConfig::parallelism > 1`). The driver thread — the one that
    /// owns this context — still executes the unchanged sequential control
    /// flow; the runtime only lets it consult caches that worker threads
    /// warm ahead of it. `None` compiles the consults away.
    pub par: Option<&'a SpecRuntime<D, O>>,
    /// Scatter-gather hookup when this run is one shard-pair subquery of a
    /// sharded query (see [`ScatterCtx`]). `None` compiles the extra
    /// threshold term and the publish calls away.
    pub scatter: Option<ScatterCtx<'a>>,
    /// Buffer-pool miss counts of the two trees when the run started; the
    /// sequential [`finish`](Self::finish) reports the deltas.
    misses_before: (u64, u64),
    /// Logical node reads on `P` (every [`read_side`](Self::read_side) call,
    /// cache hit or not). In parallel mode this ledger — not the buffer-pool
    /// miss delta, which speculation perturbs — is what
    /// [`finish`](Self::finish) reports as `disk_accesses_p`.
    pub ledger_p: u64,
    /// Logical node reads on `Q` (see `ledger_p`).
    pub ledger_q: u64,
    /// Scratch for the plane-sweep leaf scan (one buffer per side), reused
    /// across leaf pairs.
    sweep_p: Vec<SweepProj>,
    sweep_q: Vec<SweepProj>,
    /// Scratch for the two sides of candidate generation, reused across
    /// calls (the recursion never re-enters `gen_cands` while these are
    /// borrowed).
    sides_p: Vec<(Descend<D>, Rect<D>, u64)>,
    sides_q: Vec<(Descend<D>, Rect<D>, u64)>,
    /// Pools of cleared vectors for the per-level candidate lists: each
    /// recursion level takes one and returns it, so a steady-state descent
    /// allocates nothing.
    cand_pool: Vec<Vec<Cand<D>>>,
    keyed_pool: Vec<Vec<(Cand<D>, f64)>>,
}

/// The recursion step the four recursive algorithms hand to
/// [`Ctx::descend`]: process one child node pair at its pages.
pub(crate) type RecurseFn<'a, const D: usize, O, P> =
    fn(&mut Ctx<'a, D, O, P>, &Node<D, O>, &Node<D, O>, PageId, PageId) -> RTreeResult<()>;

impl<'a, const D: usize, O: SpatialObject<D>, P: Probe> Ctx<'a, D, O, P> {
    /// Sets up one run of `spec`; the cancel token, probe and scatter
    /// hookup are borrowed from `exec`.
    pub(crate) fn new(
        tp: &'a RTree<D, O>,
        tq: &'a RTree<D, O>,
        spec: &QuerySpec<D>,
        cfg: &'a CpqConfig,
        exec: &'a mut ExecCtx<'_, P>,
        par: Option<&'a SpecRuntime<D, O>>,
    ) -> Self {
        Ctx {
            tp,
            tq,
            cfg,
            k: spec.k,
            // K is outside input: preallocate for no more pairs than exist.
            kheap: KHeap::bounded(spec.k, tp.len().saturating_mul(tq.len())),
            bound: Dist2::INFINITY,
            stats: CpqStats::default(),
            root_area_p: 0.0,
            root_area_q: 0.0,
            self_join: spec.self_join,
            constraint: spec.constraint,
            cancel: exec.cancel,
            probe: &mut exec.probe,
            par,
            scatter: exec.scatter,
            misses_before: (
                tp.pool().buffer_stats().misses,
                tq.pool().buffer_stats().misses,
            ),
            ledger_p: 0,
            ledger_q: 0,
            sweep_p: Vec::new(),
            sweep_q: Vec::new(),
            sides_p: Vec::new(),
            sides_q: Vec::new(),
            cand_pool: Vec::new(),
            keyed_pool: Vec::new(),
        }
    }

    /// Takes a cleared candidate vector from the pool.
    pub(crate) fn take_cands(&mut self) -> Vec<Cand<D>> {
        self.cand_pool.pop().unwrap_or_default()
    }

    /// Returns a candidate vector to the pool for reuse.
    pub(crate) fn return_cands(&mut self, mut v: Vec<Cand<D>>) {
        v.clear();
        self.cand_pool.push(v);
    }

    /// Takes a cleared keyed-candidate vector (STD's sort decoration).
    pub(crate) fn take_keyed(&mut self) -> Vec<(Cand<D>, f64)> {
        self.keyed_pool.pop().unwrap_or_default()
    }

    /// Returns a keyed-candidate vector to the pool for reuse.
    pub(crate) fn return_keyed(&mut self, mut v: Vec<(Cand<D>, f64)>) {
        v.clear();
        self.keyed_pool.push(v);
    }

    /// The effective pruning threshold `T`.
    ///
    /// In a scatter subquery the cross-shard [`SharedBound`] joins as a
    /// third term: a pair strictly farther than *any* subquery's genuine
    /// upper bound on the global K-th distance cannot be a global result,
    /// so pruning on it is exact (ties survive — the comparison is strict).
    #[inline]
    pub(crate) fn t(&self) -> Dist2 {
        let t = self.kheap.threshold().min(self.bound);
        match self.scatter {
            Some(sc) => t.min(sc.bound.get()),
            None => t,
        }
    }

    /// Publishes this run's live local threshold to the cross-shard bound
    /// (no-op outside scatter mode). Called wherever the threshold can
    /// tighten: after a leaf scan and after [`apply_bounds`](Self::apply_bounds).
    ///
    /// Publishes `min(kheap.threshold, bound)` — both terms are witnessed
    /// by concrete point pairs *of this shard pair*, which are global
    /// pairs, so each is a genuine global upper bound.
    #[inline]
    fn publish_scatter(&self) {
        if let Some(sc) = self.scatter {
            sc.bound
                .publish_threshold(self.kheap.threshold().min(self.bound));
        }
    }

    /// Offers a leaf pair to the K-heap, canonicalizing the orientation to
    /// `p.oid < q.oid` first when the scatter context asks for it (the
    /// off-diagonal subqueries of a sharded self-join). `min_min_dist2` is
    /// bitwise symmetric under the swap, so the recomputed (or carried)
    /// distance is unchanged.
    #[inline]
    fn offer_pair(&mut self, ep: &LeafEntry<D, O>, eq: &LeafEntry<D, O>) -> bool {
        let r = match self.scatter {
            Some(sc) if sc.orient && ep.oid > eq.oid => PairResult::new(*eq, *ep),
            _ => PairResult::new(*ep, *eq),
        };
        self.kheap.offer(r)
    }

    /// [`offer_pair`](Self::offer_pair) with the distance already computed
    /// by the threshold-aware kernel (the plane-sweep path).
    #[inline]
    fn offer_pair_d2(&mut self, ep: &LeafEntry<D, O>, eq: &LeafEntry<D, O>, d2: Dist2) -> bool {
        let r = match self.scatter {
            Some(sc) if sc.orient && ep.oid > eq.oid => PairResult::with_dist2(*eq, *ep, d2),
            _ => PairResult::with_dist2(*ep, *eq, d2),
        };
        self.kheap.offer(r)
    }

    /// Cancellation point, called once per node-pair visit by every
    /// algorithm's main loop. [`RTreeError::Cancelled`] unwinds the run;
    /// the driver (`run_leader`) catches it and hands back the K-heap's
    /// partial contents.
    ///
    /// In parallel mode this is also where a speculative worker's storage
    /// error surfaces into the driver: any error observed anywhere fails the
    /// query with exactly that one error, within one node visit.
    #[inline]
    pub(crate) fn check_cancel(&self) -> RTreeResult<()> {
        if let Some(rt) = self.par {
            rt.check_error()?;
        }
        match self.cancel {
            Some(token) if token.is_cancelled() => Err(RTreeError::Cancelled),
            _ => Ok(()),
        }
    }

    /// Reads one node of the given side, charging exactly one logical
    /// access to the side's ledger and probing it.
    ///
    /// Sequentially this is `RTree::read_node` plus the probe call the
    /// algorithms previously made inline. In parallel mode the node cache
    /// warmed by the speculative workers is consulted first; hit or miss,
    /// the ledger records the same +1 the sequential run's buffer pool
    /// would, which keeps reported disk accesses identical to a sequential
    /// run against unbuffered (`capacity = 0`) pools.
    pub(crate) fn read_side(
        &mut self,
        side: ProbeSide,
        page: PageId,
    ) -> RTreeResult<Arc<Node<D, O>>> {
        let tree = match side {
            ProbeSide::P => self.tp,
            ProbeSide::Q => self.tq,
        };
        let node = if let Some(rt) = self.par {
            match side {
                ProbeSide::P => self.ledger_p += 1,
                ProbeSide::Q => self.ledger_q += 1,
            }
            match rt.cached_node(side, page) {
                Some(node) => node,
                None => {
                    let node = Arc::new(tree.read_node(page)?);
                    rt.insert_node(side, page, node.clone());
                    node
                }
            }
        } else {
            Arc::new(tree.read_node(page)?)
        };
        if P::ENABLED {
            self.probe.node_access(side, node.level());
        }
        Ok(node)
    }

    /// Scans the object pairs of two leaves (step CP3 of every algorithm),
    /// dispatching on the configured [`LeafScan`] strategy.
    ///
    /// `stats.dist_computations` counts distance-kernel invocations: every
    /// `|P| × |Q|` pair under [`LeafScan::BruteForce`]; only the pairs
    /// surviving the axis-gap test under [`LeafScan::PlaneSweep`]. Results
    /// are identical either way — the K-heap's total order makes the
    /// retained set independent of enumeration order, and every pair skipped
    /// by the sweep is strictly farther than the live threshold `T`, so it
    /// can never belong to the K best.
    pub(crate) fn scan_leaves(&mut self, lp: &Node<D, O>, lq: &Node<D, O>) {
        // The probe wrapper: clock reads and the dist-computation delta are
        // gated on `P::ENABLED`, so `NullProbe` pays for neither.
        let start = if P::ENABLED {
            Some(Instant::now())
        } else {
            None
        };
        let dist_before = self.stats.dist_computations;
        let (kernel_early_outs, sweep_pairs_skipped) = match self.cfg.leaf_scan {
            // With `T` still infinite the gap test cannot reject anything,
            // so the sweep would pay its sorting overhead for nothing;
            // scan this pair exhaustively (it seeds the first threshold).
            LeafScan::PlaneSweep if !self.t().is_infinite() => self.scan_leaves_sweep(lp, lq),
            _ => self.scan_leaves_brute(lp, lq),
        };
        self.publish_scatter();
        if let Some(start) = start {
            self.probe.leaf_scan(
                self.stats.dist_computations - dist_before,
                kernel_early_outs,
                sweep_pairs_skipped,
                start.elapsed().as_nanos() as u64,
            );
        }
    }

    /// [`scan_leaves`](Self::scan_leaves) with the pair's page identity,
    /// the form every algorithm now calls.
    ///
    /// Sequentially it forwards unchanged. In parallel mode the pair cache
    /// is consulted: a speculative worker may already have scanned this
    /// leaf pair, recording its task-local top-K offers and the full
    /// brute-force kernel count. Replaying those offers into the global
    /// K-heap is lossless — an offer the task-local heap rejected was
    /// dominated by K recorded, canonically-smaller offers from the same
    /// task, so the global heap would reject it too — and the K-heap's
    /// total retention order makes the result independent of offer order.
    /// Parallel mode always uses brute-force scan semantics (even under
    /// [`LeafScan::PlaneSweep`]) so `dist_computations` is deterministic
    /// and thread-count-invariant; pairs are bit-identical either way.
    pub(crate) fn scan_leaves_at(
        &mut self,
        lp: &Node<D, O>,
        lq: &Node<D, O>,
        page_p: PageId,
        page_q: PageId,
    ) {
        let Some(rt) = self.par else {
            self.scan_leaves(lp, lq);
            return;
        };
        let start = if P::ENABLED {
            Some(Instant::now())
        } else {
            None
        };
        let dist_before = self.stats.dist_computations;
        match rt.cached_pair(page_p, page_q) {
            Some(task) => match &*task {
                TaskOut::Leaf { offers, dists } => {
                    self.stats.dist_computations += dists;
                    for offer in offers {
                        self.kheap.offer(*offer);
                    }
                }
                // Same pages mean the same nodes, so the worker classified
                // this pair as leaf/leaf exactly like the driver did.
                TaskOut::Inner(_) => unreachable!("leaf pair cached as inner"),
            },
            None => {
                self.scan_leaves_brute(lp, lq);
            }
        }
        rt.publish_threshold(self.t());
        if let Some(start) = start {
            self.probe.leaf_scan(
                self.stats.dist_computations - dist_before,
                0,
                0,
                start.elapsed().as_nanos() as u64,
            );
        }
    }

    /// CP3 exactly as the paper states it: all `|P| × |Q|` distances.
    ///
    /// Returns `(kernel_early_outs, sweep_pairs_skipped)` — both zero here:
    /// the brute path computes full distances and visits every pair.
    fn scan_leaves_brute(&mut self, lp: &Node<D, O>, lq: &Node<D, O>) -> (u64, u64) {
        for ep in lp.leaf_entries() {
            for eq in lq.leaf_entries() {
                if self.self_join && ep.oid >= eq.oid {
                    continue; // one orientation per unordered pair, no self-pairs
                }
                if !self
                    .constraint
                    .admits_pair(&ep.mbr(), ep.oid, &eq.mbr(), eq.oid)
                {
                    continue; // filtered before the kernel: not a computation
                }
                self.stats.dist_computations += 1;
                self.offer_pair(ep, eq);
            }
        }
        (0, 0)
    }

    /// Distance-based plane sweep over the two leaves' entry sequences.
    ///
    /// Both leaves' entries are projected onto the axis with the largest
    /// combined extent and each side is sorted by its lower coordinate
    /// (reusing the configured [`SortAlgorithm`](crate::SortAlgorithm)).
    /// Two cursors then walk the sorted runs in merged order: the run whose
    /// head has the smaller `lo` yields the next *anchor*, which scans
    /// forward through the other run only. Because lower coordinates ascend,
    /// the axis separation `other.lo - anchor.hi` is non-decreasing along
    /// that scan, and once its square alone exceeds the live threshold `T`
    /// no later pair can qualify — the inner scan stops. Survivors go
    /// through the threshold-aware distance kernel, which bails out
    /// mid-accumulation when the partial sum exceeds `T`.
    ///
    /// Every cross pair `(p, q)` is visited exactly once, from whichever
    /// entry comes first in merged order, so this enumerates the same pairs
    /// as a sweep over the materialized merged sequence while never
    /// stepping over same-side items.
    ///
    /// Returns `(kernel_early_outs, sweep_pairs_skipped)`: kernel calls that
    /// bailed out on the threshold, and pairs never visited thanks to the
    /// axis-gap break. Both counters are gated on `P::ENABLED`, so the
    /// uninstrumented monomorphization carries no bookkeeping (they read 0).
    fn scan_leaves_sweep(&mut self, lp: &Node<D, O>, lq: &Node<D, O>) -> (u64, u64) {
        let eps = lp.leaf_entries();
        let eqs = lq.leaf_entries();
        if eps.is_empty() || eqs.is_empty() {
            return (0, 0);
        }
        // analyze: allow(panic-path) — guarded by the emptiness check above.
        let bp = lp.mbr().expect("non-empty leaf has an MBR");
        // analyze: allow(panic-path) — guarded by the emptiness check above.
        let bq = lq.mbr().expect("non-empty leaf has an MBR");
        let mut axis = 0;
        let mut best = f64::NEG_INFINITY;
        for d in 0..D {
            let lo = bp.lo().coord(d).min(bq.lo().coord(d));
            let hi = bp.hi().coord(d).max(bq.hi().coord(d));
            if hi - lo > best {
                best = hi - lo;
                axis = d;
            }
        }

        let mut ps = std::mem::take(&mut self.sweep_p);
        let mut qs = std::mem::take(&mut self.sweep_q);
        for (side, entries) in [(&mut ps, eps), (&mut qs, eqs)] {
            side.clear();
            side.extend(entries.iter().enumerate().map(|(i, e)| {
                let r = e.mbr();
                SweepProj {
                    lo: r.lo().coord(axis),
                    hi: r.hi().coord(axis),
                    idx: i as u32,
                }
            }));
            // The `(lo, idx)` key is a total order, so stable and unstable
            // sort algorithms all produce the same sequence.
            self.cfg.sort.sort_by(side, |a, b| {
                a.lo.total_cmp(&b.lo).then_with(|| a.idx.cmp(&b.idx))
            });
        }

        // `T` only changes when an offer lands, so it is hoisted out of the
        // loop and refreshed exactly then — the break still fires as early
        // as the freshest bound allows.
        let mut t = self.t();
        let mut early_outs = 0u64;
        let mut visited = 0u64;
        let (mut i, mut j) = (0, 0);
        while i < ps.len() && j < qs.len() {
            if ps[i].lo <= qs[j].lo {
                let a = ps[i];
                i += 1;
                for b in &qs[j..] {
                    let gap = b.lo - a.hi;
                    if gap > 0.0 && gap * gap > t.get() {
                        break; // later items only move farther along the axis
                    }
                    if P::ENABLED {
                        visited += 1;
                    }
                    let (ep, eq) = (&eps[a.idx as usize], &eqs[b.idx as usize]);
                    if self.self_join && ep.oid >= eq.oid {
                        continue; // one orientation per unordered pair
                    }
                    if !self
                        .constraint
                        .admits_pair(&ep.mbr(), ep.oid, &eq.mbr(), eq.oid)
                    {
                        continue; // filtered before the kernel
                    }
                    self.stats.dist_computations += 1;
                    match min_min_dist2_within(&ep.mbr(), &eq.mbr(), t) {
                        Some(d2) => {
                            if self.offer_pair_d2(ep, eq, d2) {
                                t = self.t();
                            }
                        }
                        None => {
                            if P::ENABLED {
                                early_outs += 1;
                            }
                        }
                    }
                }
            } else {
                let b = qs[j];
                j += 1;
                for a in &ps[i..] {
                    let gap = a.lo - b.hi;
                    if gap > 0.0 && gap * gap > t.get() {
                        break;
                    }
                    if P::ENABLED {
                        visited += 1;
                    }
                    let (ep, eq) = (&eps[a.idx as usize], &eqs[b.idx as usize]);
                    if self.self_join && ep.oid >= eq.oid {
                        continue;
                    }
                    if !self
                        .constraint
                        .admits_pair(&ep.mbr(), ep.oid, &eq.mbr(), eq.oid)
                    {
                        continue;
                    }
                    self.stats.dist_computations += 1;
                    match min_min_dist2_within(&ep.mbr(), &eq.mbr(), t) {
                        Some(d2) => {
                            if self.offer_pair_d2(ep, eq, d2) {
                                t = self.t();
                            }
                        }
                        None => {
                            if P::ENABLED {
                                early_outs += 1;
                            }
                        }
                    }
                }
            }
        }
        let skipped = if P::ENABLED {
            (eps.len() as u64) * (eqs.len() as u64) - visited
        } else {
            0
        };
        self.sweep_p = ps;
        self.sweep_q = qs;
        (early_outs, skipped)
    }

    /// Generates the candidate subtree pairs for a node pair into `out`,
    /// honoring the height strategy (Section 3.7). Never called on two
    /// leaves.
    ///
    /// With `prune` set, combinations whose `MINMINDIST` exceeds the current
    /// threshold `T` are dropped during generation (counted in
    /// `pairs_pruned`) instead of being materialized and filtered later; the
    /// threshold-aware kernel stops accumulating axis gaps as soon as the
    /// partial sum crosses `T`. Dropping them cannot weaken
    /// [`apply_bounds`](Self::apply_bounds): both `MINMAXDIST` and
    /// `MAXMAXDIST` of a dropped candidate are `>= MINMINDIST > T`, so any
    /// bound it could have contributed exceeds the current effective
    /// threshold and would never bind. `Naive` passes `prune = false` — it
    /// must descend into everything.
    pub(crate) fn gen_cands(
        &mut self,
        np: &Node<D, O>,
        nq: &Node<D, O>,
        prune: bool,
        out: &mut Vec<Cand<D>>,
    ) {
        let start = if P::ENABLED {
            Some(Instant::now())
        } else {
            None
        };
        let (descend_p, descend_q) = descend_sides(
            np.is_leaf(),
            nq.is_leaf(),
            np.level(),
            nq.level(),
            self.cfg.height,
        );

        // analyze: allow(panic-path) — the engine only visits non-empty nodes
        // (the tree stores none).
        let whole_p = (np.mbr().expect("non-empty node"), np.subtree_count());
        // analyze: allow(panic-path) — same non-empty-node invariant as above.
        let whole_q = (nq.mbr().expect("non-empty node"), nq.subtree_count());

        // Window clipping (range-restricted queries): each side's MBR is
        // replaced by `MBR ∩ window` before scoring — a valid tighter lower
        // bound, since every qualifying point lies in both — and a side
        // whose MBR misses its window is dropped *silently* (it contains no
        // qualifying points; no `pairs_pruned` increment, so the driver and
        // the speculative workers' cached candidate lists stay identical).
        let con = self.constraint;
        let mut sides_p = std::mem::take(&mut self.sides_p);
        let mut sides_q = std::mem::take(&mut self.sides_q);
        sides_p.clear();
        sides_q.clear();
        if descend_p {
            sides_p.extend(np.inner_entries().iter().filter_map(|e| {
                let mbr = con.clip_p(&e.mbr)?;
                Some((Descend::Down(*e), mbr, e.count))
            }));
        } else if let Some(mbr) = con.clip_p(&whole_p.0) {
            sides_p.push((Descend::Stay, mbr, whole_p.1));
        }
        if descend_q {
            sides_q.extend(nq.inner_entries().iter().filter_map(|e| {
                let mbr = con.clip_q(&e.mbr)?;
                Some((Descend::Down(*e), mbr, e.count))
            }));
        } else if let Some(mbr) = con.clip_q(&whole_q.0) {
            sides_q.push((Descend::Stay, mbr, whole_q.1));
        }

        // T cannot change during generation (no offers happen here), so one
        // read suffices; `INFINITY` disables the prune and the kernel's
        // early exit alike.
        let t = if prune { self.t() } else { Dist2::INFINITY };
        out.reserve(sides_p.len() * sides_q.len());
        for (dp, mbr_p, count_p) in &sides_p {
            for (dq, mbr_q, count_q) in &sides_q {
                let minmin = match min_min_dist2_within(mbr_p, mbr_q, t) {
                    Some(d) => d,
                    None => {
                        self.stats.pairs_pruned += 1;
                        continue;
                    }
                };
                out.push(Cand {
                    p: *dp,
                    q: *dq,
                    mbr_p: *mbr_p,
                    mbr_q: *mbr_q,
                    count_p: *count_p,
                    count_q: *count_q,
                    minmin,
                });
            }
        }
        self.sides_p = sides_p;
        self.sides_q = sides_q;
        if let Some(start) = start {
            self.probe.gen_phase(start.elapsed().as_nanos() as u64);
        }
    }

    /// [`gen_cands`](Self::gen_cands) with the pair's page identity, the
    /// form every algorithm now calls.
    ///
    /// Sequentially it forwards unchanged. In parallel mode the pair cache
    /// is consulted first: speculative workers precompute the full
    /// candidate list at `T = ∞` (no pruning), so the driver filters it by
    /// the live threshold instead of re-running the kernels. The filter is
    /// exact: the threshold-aware kernel returns `None` iff the full
    /// `MINMINDIST` (which the worker recorded, bitwise) exceeds `T`, so
    /// surviving candidates, their order, and the `pairs_pruned` increments
    /// all match the sequential run. On a cache miss the driver computes
    /// inline and pushes the surviving candidates to the speculation queue
    /// as look-ahead for the workers.
    pub(crate) fn gen_cands_at(
        &mut self,
        np: &Node<D, O>,
        nq: &Node<D, O>,
        page_p: PageId,
        page_q: PageId,
        prune: bool,
        out: &mut Vec<Cand<D>>,
    ) {
        let Some(rt) = self.par else {
            self.gen_cands(np, nq, prune, out);
            return;
        };
        match rt.cached_pair(page_p, page_q) {
            Some(task) => {
                let start = if P::ENABLED {
                    Some(Instant::now())
                } else {
                    None
                };
                match &*task {
                    TaskOut::Inner(cands) => {
                        let t = if prune { self.t() } else { Dist2::INFINITY };
                        for c in cands {
                            if c.minmin > t {
                                self.stats.pairs_pruned += 1;
                            } else {
                                out.push(*c);
                            }
                        }
                    }
                    TaskOut::Leaf { .. } => unreachable!("inner pair cached as leaf"),
                }
                if let Some(start) = start {
                    self.probe.gen_phase(start.elapsed().as_nanos() as u64);
                }
            }
            None => {
                self.gen_cands(np, nq, prune, out);
                // Look-ahead: offer the surviving candidates to the workers
                // (the worker that would have produced this pair's cache
                // entry never ran, so nobody else will push its children).
                for c in out.iter() {
                    rt.push_spec(c.minmin, spec_page(&c.p, page_p), spec_page(&c.q, page_q));
                }
            }
        }
        rt.publish_threshold(self.t());
    }

    /// Tightens `bound` from the candidates of the current node pair:
    ///
    /// * `K = 1`: Inequality 2 — at least one point pair lies within
    ///   `min over candidates of MINMAXDIST` (step CP2 of SIM/STD/HEAP);
    /// * `K > 1` with [`KPruning::MaxMaxDist`]: the smallest `x` such that
    ///   candidates with `MAXMAXDIST ≤ x` are guaranteed (by subtree
    ///   cardinalities) to contain at least `K` point pairs.
    ///
    /// Disabled in self-join mode (witness pairs may be degenerate) and
    /// under any active constraint (witness pairs may be filtered out and
    /// cardinalities count non-qualifying points).
    pub(crate) fn apply_bounds(&mut self, cands: &[Cand<D>]) {
        if self.self_join || self.constraint.is_active() || cands.is_empty() {
            return;
        }
        let before = self.bound;
        if self.k == 1 {
            for c in cands {
                let mm = min_max_dist2(&c.mbr_p, &c.mbr_q);
                if mm < self.bound {
                    self.bound = mm;
                }
            }
        } else if self.cfg.k_pruning == KPruning::MaxMaxDist {
            let mut maxes: Vec<(Dist2, u64)> = cands
                .iter()
                .map(|c| {
                    (
                        max_max_dist2(&c.mbr_p, &c.mbr_q),
                        c.count_p.saturating_mul(c.count_q),
                    )
                })
                .collect();
            maxes.sort_by_key(|a| a.0);
            let mut cum: u64 = 0;
            for (mx, n) in maxes {
                cum = cum.saturating_add(n);
                if cum >= self.k as u64 {
                    if mx < self.bound {
                        self.bound = mx;
                    }
                    break;
                }
            }
        }
        if self.bound < before {
            self.publish_scatter();
        }
    }

    /// Reads the child nodes named by a candidate (re-using the current
    /// nodes for `Stay` sides) and invokes `f` on the pair, passing the
    /// pair's page identity through for the speculation caches.
    ///
    /// Each `Down` side costs one logical page read on the corresponding
    /// tree — this is where the algorithms' disk accesses happen (see
    /// [`read_side`](Self::read_side) for what that means in parallel
    /// mode).
    pub(crate) fn descend(
        &mut self,
        np: &Node<D, O>,
        nq: &Node<D, O>,
        page_p: PageId,
        page_q: PageId,
        cand: &Cand<D>,
        f: RecurseFn<'a, D, O, P>,
    ) -> RTreeResult<()> {
        match (&cand.p, &cand.q) {
            (Descend::Down(ep), Descend::Down(eq)) => {
                let a = self.read_side(ProbeSide::P, ep.child)?;
                let b = self.read_side(ProbeSide::Q, eq.child)?;
                f(self, &a, &b, ep.child, eq.child)
            }
            (Descend::Down(ep), Descend::Stay) => {
                let a = self.read_side(ProbeSide::P, ep.child)?;
                f(self, &a, nq, ep.child, page_q)
            }
            (Descend::Stay, Descend::Down(eq)) => {
                let b = self.read_side(ProbeSide::Q, eq.child)?;
                f(self, np, &b, page_p, eq.child)
            }
            (Descend::Stay, Descend::Stay) => {
                unreachable!("candidate with no descent")
            }
        }
    }

    /// Finishes the run: sorts the result pairs and fills in the disk-access
    /// deltas measured from the two buffer pools.
    ///
    /// In parallel mode the pools also absorb the speculative workers'
    /// traffic, so the physical miss delta no longer describes the query;
    /// the driver's logical ledger — which charges +1 per node read whether
    /// it was served from the speculation cache or the pool — is reported
    /// instead. The ledger equals the sequential miss delta exactly when
    /// the pools cache nothing (`capacity = 0`, the paper's zero-buffer
    /// configuration); with a warm buffer the two modes count different
    /// things by design (logical vs. physical reads).
    pub(crate) fn finish(mut self) -> crate::types::QueryOutcome<D, O> {
        let misses_before = self.misses_before;
        let same_tree = std::ptr::eq(self.tp, self.tq);
        if self.par.is_some() {
            // Self-join: both sides read the one shared tree; fold the
            // charges into P like the pool-delta path does.
            self.stats.disk_accesses_p = if same_tree {
                self.ledger_p + self.ledger_q
            } else {
                self.ledger_p
            };
            self.stats.disk_accesses_q = if same_tree { 0 } else { self.ledger_q };
        } else {
            self.stats.disk_accesses_p = self.tp.pool().buffer_stats().misses - misses_before.0;
            if same_tree {
                // Self-join: both sides share one pool; report the total once.
                self.stats.disk_accesses_q = 0;
            } else {
                self.stats.disk_accesses_q = self.tq.pool().buffer_stats().misses - misses_before.1;
            }
        }
        crate::types::QueryOutcome {
            pairs: self.kheap.into_sorted(),
            stats: self.stats,
        }
    }
}

/// The page a candidate side leads to: the child page for a `Down` side,
/// the unchanged current page for a `Stay` side. Shared by the heap
/// algorithm's queue items and the speculation pushes.
#[inline]
pub(crate) fn spec_page<const D: usize>(side: &Descend<D>, current: PageId) -> PageId {
    match side {
        Descend::Down(e) => e.child,
        Descend::Stay => current,
    }
}
