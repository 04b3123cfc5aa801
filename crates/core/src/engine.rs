//! Shared machinery of the CPQ algorithms: the query context and the
//! paper's three steps, each written once — CP1 [`Ctx::open_pair`] (take a
//! node pair), CP2 [`candidates`] (generate and bound its candidate pairs,
//! honoring the height strategy and the windows), CP3 [`scan_brute`] and
//! the plane sweep (scan two leaves) — plus the threshold bounds of
//! Inequalities 1 and 2. The driver reaches CP2/CP3 through
//! [`Ctx::gen_cands`] / [`Ctx::scan_leaves`], the speculative workers call
//! [`candidates`] / [`scan_brute`] directly: there is no second copy that
//! could drift.

use crate::api::ExecCtx;
use crate::bound::SharedBound;
use crate::cancel::CancelToken;
use crate::config::{CpqConfig, HeightStrategy, KPruning, LeafScan};
use crate::kheap::KHeap;
use crate::parallel::{SpecRuntime, TaskOut};
use crate::spec::{Constraint, QuerySpec};
use crate::types::{CpqStats, DiskMeter, PairResult};
use cpq_geo::{max_max_dist2, min_max_dist2, min_min_dist2_within, Dist2, Point, Rect};
use cpq_obs::{Probe, ProbeSide};
use cpq_rtree::{Entries, InnerEntry, LeafEntry, NodeView, RTree, RTreeError, RTreeResult};
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

/// One side of a node pair as [`candidates`] crosses it: where it leads,
/// the clipped MBR that is scored and stored, the subtree cardinality.
type Side<const D: usize> = (Descend<D>, Rect<D>, u64);

/// The two side buffers of [`candidates`], reused across calls.
#[derive(Default)]
pub(crate) struct GenScratch<const D: usize> {
    p: Vec<Side<D>>,
    q: Vec<Side<D>>,
}

/// Fills one side of [`candidates`]: the node's children when the side
/// descends, the node itself otherwise.
///
/// Window clipping (range-restricted queries): the MBR is replaced by
/// `MBR ∩ window` before scoring — a valid tighter lower bound, since every
/// qualifying point lies in both — and an entry whose MBR misses the window
/// is dropped *silently* (it contains no qualifying points; it is not a
/// pruned pair, at any `T`).
fn fill_side<const D: usize>(
    side: &mut Vec<Side<D>>,
    node: &NodeView<D>,
    descend: bool,
    clip: impl Fn(&Rect<D>) -> Option<Rect<D>>,
) {
    side.clear();
    if descend {
        side.extend(
            node.inner_entries()
                .iter()
                .filter_map(|e| Some((Descend::Down(e), clip(&e.mbr)?, e.count))),
        );
        return;
    }
    #[expect(clippy::expect_used, reason = "the engine visits only non-empty nodes")]
    let whole = node.mbr().expect("non-empty node");
    if let Some(mbr) = clip(&whole) {
        side.push((Descend::Stay, mbr, node.subtree_count()));
    }
}

/// CP2, the one candidate generator: appends the candidate subtree pairs of
/// a node pair to `out` in `P`-major cross order and returns how many
/// combinations it pruned. Never called on two leaves.
///
/// A combination whose `MINMINDIST` exceeds `t` is dropped during
/// generation instead of being materialized and filtered later; the
/// threshold-aware kernel stops accumulating axis gaps as soon as the
/// partial sum crosses `t`. Dropping it cannot weaken
/// [`Ctx::apply_bounds`]: both `MINMAXDIST` and `MAXMAXDIST` of a dropped
/// candidate are `>= MINMINDIST > t`, so any bound it could have contributed
/// would never bind.
///
/// The driver passes its live `T` (`∞` for Naive, which must descend into
/// everything); the speculative workers pass `∞` and the driver filters
/// their list by `minmin > T` later. The two agree bitwise — survivors,
/// order and pruned count — because the kernel returns `None` iff the full
/// sum exceeds `t` and accumulates it in the same order either way
/// (`gen_at_infinity_then_filter_equals_gen_at_t` below executes this).
pub(crate) fn candidates<const D: usize>(
    np: &NodeView<D>,
    nq: &NodeView<D>,
    height: HeightStrategy,
    constraint: &Constraint<D>,
    t: Dist2,
    scratch: &mut GenScratch<D>,
    out: &mut Vec<Cand<D>>,
) -> u64 {
    // Which sides descend (Section 3.7).
    let (descend_p, descend_q) = match (np.is_leaf(), nq.is_leaf()) {
        (true, true) => unreachable!("candidate generation on two leaves"),
        (true, false) => (false, true),
        (false, true) => (true, false),
        (false, false) => match height {
            // Lockstep whenever both are internal; levels may differ.
            HeightStrategy::FixAtLeaves => (true, true),
            // Equalize levels first: only the deeper-rooted (higher level)
            // side descends until levels match.
            HeightStrategy::FixAtRoot => (np.level() >= nq.level(), nq.level() >= np.level()),
        },
    };
    fill_side(&mut scratch.p, np, descend_p, |mbr| constraint.clip_p(mbr));
    fill_side(&mut scratch.q, nq, descend_q, |mbr| constraint.clip_q(mbr));

    let mut pruned = 0;
    out.reserve(scratch.p.len() * scratch.q.len());
    for (dp, mbr_p, count_p) in &scratch.p {
        for (dq, mbr_q, count_q) in &scratch.q {
            match min_min_dist2_within(mbr_p, mbr_q, t) {
                Some(minmin) => out.push(Cand {
                    p: *dp,
                    q: *dq,
                    mbr_p: *mbr_p,
                    mbr_q: *mbr_q,
                    count_p: *count_p,
                    count_q: *count_q,
                    minmin,
                }),
                None => pruned += 1,
            }
        }
    }
    pruned
}

/// `f64` lanes per chunk of [`LeafScratch`] (two SSE2 vectors, one AVX
/// vector). The kernel's inner loops run over `[f64; LANES]`, which compiles
/// to straight vector code with no remainder loop; 2 lanes measured the
/// same on `kcpq_hot`'s 14-to-21-entry leaves, 8 slower (more padding).
const LANES: usize = 4;

/// Scratch of [`scan_brute`], reused across leaf pairs: the admitted `Q`
/// points of the current pair as per-axis coordinate arrays
/// (`[chunk][axis][lane]`, entry `j` in lane `j % LANES` of chunk
/// `j / LANES`), and one row of squared distances.
///
/// The structure-of-arrays form lives here and not in the page: it is built
/// in `O(|Q|)` per leaf pair against the `O(|P|·|Q|)` it speeds up, and the
/// page format stays what the update path (`cpq-live`, node encode) already
/// pays for.
#[derive(Default)]
pub(crate) struct LeafScratch<const D: usize> {
    /// Point coordinates. Unused lanes of the last chunk hold `+∞`, which
    /// the kernel carries to a distance of `+∞`.
    q: Vec<[[f64; LANES]; D]>,
    /// The gathered entries' positions in the leaf.
    idx: Vec<u32>,
    /// Squared distance from the current `P` point to each gathered point.
    row: Vec<[f64; LANES]>,
}

impl<const D: usize> LeafScratch<D> {
    /// Gathers the entries of `eqs` that pass the `Q` window.
    fn gather(&mut self, eqs: Entries<'_, LeafEntry<D>>, constraint: &Constraint<D>) {
        self.q.clear();
        self.idx.clear();
        for (i, eq) in eqs.iter().enumerate() {
            if !constraint.admits_q(&eq.mbr()) {
                continue;
            }
            let (chunk, lane) = (self.idx.len() / LANES, self.idx.len() % LANES);
            if lane == 0 {
                self.q.push([[f64::INFINITY; LANES]; D]);
            }
            for d in 0..D {
                self.q[chunk][d][lane] = eq.object.coord(d);
            }
            self.idx.push(i as u32);
        }
        self.row.resize(self.q.len(), [0.0; LANES]);
    }

    /// Fills `row` with the squared distance from `p` to every gathered `q`
    /// and returns the smallest: `(q - p)²` summed in axis order from `0.0`
    /// — bit for bit what [`cpq_geo::min_min_dist2`] returns on the two
    /// points' MBRs, whose per-axis gap `max(q - p, p - q, 0)` is `|q - p|`.
    fn fill_row(&mut self, p: &Point<D>) -> f64 {
        let mut min = [f64::INFINITY; LANES];
        for (row, q) in self.row.iter_mut().zip(&self.q) {
            let mut acc = [0.0; LANES];
            for (d, qd) in q.iter().enumerate() {
                for l in 0..LANES {
                    let gap = qd[l] - p.coord(d);
                    acc[l] += gap * gap;
                }
            }
            for l in 0..LANES {
                min[l] = if acc[l] < min[l] { acc[l] } else { min[l] };
            }
            *row = acc;
        }
        min.into_iter().fold(f64::INFINITY, f64::min)
    }
}

/// Builds the result pair for two leaf entries at distance `d2`,
/// canonicalizing the orientation to `p.oid < q.oid` first when `orient` is
/// set (the off-diagonal subqueries of a sharded self-join, see
/// [`ScatterCtx::orient`]). `min_min_dist2` is bitwise symmetric under the
/// swap, so the distance computed before it is unchanged.
#[inline]
fn oriented<const D: usize>(
    orient: bool,
    ep: &LeafEntry<D>,
    eq: &LeafEntry<D>,
    d2: Dist2,
) -> PairResult<D> {
    if orient && ep.oid > eq.oid {
        PairResult::with_dist2(*eq, *ep, d2)
    } else {
        PairResult::with_dist2(*ep, *eq, d2)
    }
}

/// CP3 as the paper states it — every `|P| × |Q|` pair that survives the
/// self-join orientation rule and the constraint is a distance computation
/// — written to **test before it builds**; the one brute leaf kernel.
/// Returns the number of distance computations.
///
/// Per admitted `P` entry the distances to all admitted `Q` entries are one
/// vectorized pass ([`LeafScratch::fill_row`]); a [`PairResult`] is built
/// and offered to `kheap` only for a pair with `d2 <= kheap.threshold()`.
/// That is lossless: a pair strictly farther than the threshold meets a
/// full heap whose top is strictly closer, and [`KHeap::offer`] refuses it
/// — so the heap after every leaf pair, and with it the `T` trajectory, is
/// what offering all of them leaves. A tie at the threshold still goes to
/// the heap, whose `(dist2, oid, oid)` order decides it. The local `t` can
/// only have moved when an offer landed.
pub(crate) fn scan_brute<const D: usize>(
    lp: &NodeView<D>,
    lq: &NodeView<D>,
    self_join: bool,
    constraint: &Constraint<D>,
    orient: bool,
    scratch: &mut LeafScratch<D>,
    kheap: &mut KHeap<D>,
) -> u64 {
    let eqs = lq.leaf_entries();
    scratch.gather(eqs, constraint);
    let n = scratch.idx.len();
    if n == 0 {
        return 0;
    }
    // One orientation per unordered pair and no self-pairs; distinct colors.
    let admits = |oid_p: u64, oid_q: u64| {
        (!self_join || oid_p < oid_q) && constraint.admits_colors(oid_p, oid_q)
    };
    let mut dists = 0;
    let mut t = kheap.threshold().get();
    for ep in lp.leaf_entries() {
        if !constraint.admits_p(&ep.mbr()) {
            continue; // filtered before the kernel: not a computation
        }
        let nearest = scratch.fill_row(&ep.object);
        dists += if self_join || constraint.colored {
            let admitted = |&&i: &&u32| admits(ep.oid, eqs.get(i as usize).oid);
            scratch.idx.iter().filter(admitted).count() as u64
        } else {
            n as u64
        };
        if nearest > t {
            continue; // the whole row loses to `T`
        }
        for (&i, &d2) in scratch.idx.iter().zip(scratch.row.as_flattened()) {
            if d2 > t {
                continue;
            }
            // Read from the page only for a pair that may enter the heap.
            let eq = eqs.get(i as usize);
            if !admits(ep.oid, eq.oid) {
                continue;
            }
            if kheap.offer(oriented(orient, &ep, &eq, Dist2::new(d2))) {
                t = kheap.threshold().get();
            }
        }
    }
    dists
}

/// The projection of one leaf entry's MBR onto the sweep axis, plus enough
/// to find the entry again.
#[derive(Clone, Copy)]
struct SweepProj {
    /// Lower coordinate on the sweep axis (the sort key).
    lo: f64,
    /// Upper coordinate on the sweep axis (the gap is measured from here).
    hi: f64,
    /// Index of the entry in its leaf.
    idx: u32,
}

/// Mutable state of one query run, shared by all algorithm variants.
///
/// Generic over the [`Probe`] so instrumentation monomorphizes away: with
/// [`cpq_obs::NullProbe`] (`ENABLED = false`) every probe call site and its
/// `Instant::now()` guard compiles to nothing.
pub(crate) struct Ctx<'a, const D: usize, P: Probe> {
    pub tp: &'a RTree<D>,
    pub tq: &'a RTree<D>,
    pub cfg: &'a CpqConfig,
    pub k: usize,
    pub kheap: KHeap<D>,
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
    pub par: Option<&'a SpecRuntime<D>>,
    /// Scatter-gather hookup when this run is one shard-pair subquery of a
    /// sharded query (see [`ScatterCtx`]). `None` compiles the extra
    /// threshold term and the publish calls away.
    pub scatter: Option<ScatterCtx<'a>>,
    /// The disk-access meter, started with the run; the sequential
    /// [`finish`](Self::finish) reports it.
    meter: DiskMeter<'a>,
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
    /// Scratch for the brute leaf kernel, reused across leaf pairs.
    leaf_scratch: LeafScratch<D>,
    /// Scratch for candidate generation, reused across calls.
    gen_scratch: GenScratch<D>,
    /// Scratch for [`apply_bounds`](Self::apply_bounds) at `K > 1`: each
    /// candidate's `(MAXMAXDIST, pair count)`, reused across node pairs.
    maxes: Vec<(Dist2, u64)>,
    /// Pools of cleared vectors for the per-level candidate lists: each
    /// recursion level takes one and returns it, so a steady-state descent
    /// allocates nothing.
    cand_pool: Vec<Vec<Cand<D>>>,
    keyed_pool: Vec<Vec<(Cand<D>, f64)>>,
}

/// The recursion step the four recursive algorithms hand to
/// [`Ctx::descend`]: process one child node pair at its pages.
pub(crate) type RecurseFn<'a, const D: usize, P> =
    fn(&mut Ctx<'a, D, P>, &NodeView<D>, &NodeView<D>, PageId, PageId) -> RTreeResult<()>;

impl<'a, const D: usize, P: Probe> Ctx<'a, D, P> {
    /// Sets up one run of `spec`; the cancel token, probe and scatter
    /// hookup are borrowed from `exec`.
    pub(crate) fn new(
        tp: &'a RTree<D>,
        tq: &'a RTree<D>,
        spec: &QuerySpec<D>,
        cfg: &'a CpqConfig,
        exec: &'a mut ExecCtx<'_, P>,
        par: Option<&'a SpecRuntime<D>>,
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
            meter: DiskMeter::start(tp, tq),
            ledger_p: 0,
            ledger_q: 0,
            sweep_p: Vec::new(),
            sweep_q: Vec::new(),
            leaf_scratch: LeafScratch::default(),
            gen_scratch: GenScratch::default(),
            maxes: Vec::new(),
            cand_pool: Vec::new(),
            keyed_pool: Vec::new(),
        }
    }

    /// Returns a candidate vector ([`open_pair`](Self::open_pair) took it
    /// from the pool) for reuse.
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

    /// Whether retained pairs are canonicalized to `p.oid < q.oid` (see
    /// [`ScatterCtx::orient`]).
    #[inline]
    fn orient(&self) -> bool {
        self.scatter.is_some_and(|sc| sc.orient)
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
    /// Sequentially this is `RTree::read_node` plus the probe call. In
    /// parallel mode the node cache warmed by the speculative workers is
    /// consulted first; hit or miss, the ledger records the same +1 the
    /// sequential run's buffer pool would, which keeps reported disk
    /// accesses identical to a sequential run against unbuffered
    /// (`capacity = 0`) pools.
    pub(crate) fn read_side(&mut self, side: ProbeSide, page: PageId) -> RTreeResult<NodeView<D>> {
        let tree = match side {
            ProbeSide::P => self.tp,
            ProbeSide::Q => self.tq,
        };
        let node = if let Some(rt) = self.par {
            match side {
                ProbeSide::P => self.ledger_p += 1,
                ProbeSide::Q => self.ledger_q += 1,
            }
            rt.node(side, tree, page)?
        } else {
            tree.read_node(page)?
        };
        if P::ENABLED {
            self.probe.node_access(side, node.level());
        }
        Ok(node)
    }

    /// CP1, the prologue every algorithm opens a node pair with: the
    /// cancellation point, the `node_pairs_processed` count, then either
    /// the leaf scan (CP3, returning `None` — the pair is done) or the
    /// pair's candidate list (CP2) in a pooled vector the caller hands back
    /// through [`return_cands`](Self::return_cands).
    pub(crate) fn open_pair(
        &mut self,
        np: &NodeView<D>,
        nq: &NodeView<D>,
        page_p: PageId,
        page_q: PageId,
        prune: bool,
    ) -> RTreeResult<Option<Vec<Cand<D>>>> {
        self.check_cancel()?;
        self.stats.node_pairs_processed += 1;
        if np.is_leaf() && nq.is_leaf() {
            self.scan_leaves(np, nq, page_p, page_q);
            return Ok(None);
        }
        let mut cands = self.cand_pool.pop().unwrap_or_default();
        self.gen_cands(np, nq, page_p, page_q, prune, &mut cands);
        Ok(Some(cands))
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
    ///
    /// In parallel mode the pair cache is consulted first: a speculative
    /// worker may already have scanned this leaf pair, recording its
    /// task-local top-K offers and the brute kernel count. Replaying those
    /// offers into the global K-heap is lossless — an offer the task-local
    /// heap rejected was dominated by K recorded, canonically-smaller offers
    /// from the same task, so the global heap would reject it too — and the
    /// K-heap's total retention order makes the result independent of offer
    /// order. Parallel mode always uses brute-force scan semantics (even
    /// under [`LeafScan::PlaneSweep`]) so `dist_computations` is
    /// deterministic and thread-count-invariant; pairs are bit-identical
    /// either way.
    pub(crate) fn scan_leaves(
        &mut self,
        lp: &NodeView<D>,
        lq: &NodeView<D>,
        page_p: PageId,
        page_q: PageId,
    ) {
        // The probe wrapper: clock reads and the dist-computation delta are
        // gated on `P::ENABLED`, so `NullProbe` pays for neither.
        let start = P::ENABLED.then(Instant::now);
        let dist_before = self.stats.dist_computations;
        let cached = self.par.and_then(|rt| rt.cached_pair(page_p, page_q));
        match cached.as_deref() {
            Some(TaskOut::Leaf { offers, dists }) => {
                self.stats.dist_computations += dists;
                for offer in offers {
                    self.kheap.offer(*offer);
                }
            }
            // Same pages mean the same nodes, so the worker classified
            // this pair as leaf/leaf exactly like the driver did.
            Some(TaskOut::Inner(_)) => unreachable!("leaf pair cached as inner"),
            // With `T` still infinite the gap test cannot reject anything,
            // so the sweep would pay its sorting overhead for nothing;
            // scan this pair exhaustively (it seeds the first threshold).
            None if self.par.is_none()
                && self.cfg.leaf_scan == LeafScan::PlaneSweep
                && !self.t().is_infinite() =>
            {
                self.scan_leaves_sweep(lp, lq);
            }
            None => self.scan_leaves_brute(lp, lq),
        }
        self.publish_scatter();
        if let Some(rt) = self.par {
            rt.publish_threshold(self.t());
        }
        if let Some(start) = start {
            self.probe.leaf_scan(
                self.stats.dist_computations - dist_before,
                start.elapsed().as_nanos() as u64,
            );
        }
    }

    /// [`scan_brute`] into this run's K-heap and `dist_computations`.
    fn scan_leaves_brute(&mut self, lp: &NodeView<D>, lq: &NodeView<D>) {
        self.stats.dist_computations += scan_brute(
            lp,
            lq,
            self.self_join,
            &self.constraint,
            self.orient(),
            &mut self.leaf_scratch,
            &mut self.kheap,
        );
    }

    /// Distance-based plane sweep over the two leaves' entry sequences.
    ///
    /// Both leaves' entries are projected onto the axis with the largest
    /// combined extent and each side is sorted by its lower coordinate
    /// (reusing the configured [`SortAlgorithm`](crate::SortAlgorithm)).
    /// Two cursors then walk the sorted runs in merged order: the run whose
    /// head has the smaller `lo` yields the next *anchor*, which scans
    /// forward through the other run only
    /// ([`sweep_from`](Self::sweep_from)).
    ///
    /// Every cross pair `(p, q)` is visited exactly once, from whichever
    /// entry comes first in merged order, so this enumerates the same pairs
    /// as a sweep over the materialized merged sequence while never
    /// stepping over same-side items.
    // Out of line: the opt-in sweep inlined into `scan_leaves` enlarges
    // `open_pair`, which every algorithm runs per node pair; `svc_mix` ran
    // about 5% slower so (2 cores; EXPERIMENTS.md, "The sweep inlined").
    #[cold]
    #[inline(never)]
    fn scan_leaves_sweep(&mut self, lp: &NodeView<D>, lq: &NodeView<D>) {
        let eps = lp.leaf_entries();
        let eqs = lq.leaf_entries();
        if eps.is_empty() || eqs.is_empty() {
            return;
        }
        #[expect(clippy::expect_used, reason = "guarded by the emptiness check above.")]
        let bp = lp.mbr().expect("non-empty leaf has an MBR");
        #[expect(clippy::expect_used, reason = "guarded by the emptiness check above.")]
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

        // `T` only changes when an offer lands, so it lives out here and is
        // refreshed exactly then — the break still fires as early as the
        // freshest bound allows.
        let mut t = self.t();
        let (mut i, mut j) = (0, 0);
        while i < ps.len() && j < qs.len() {
            if ps[i].lo <= qs[j].lo {
                i += 1;
                let pair_of = |a: u32, b: u32| (eps.get(a as usize), eqs.get(b as usize));
                self.sweep_from(ps[i - 1], &qs[j..], pair_of, &mut t);
            } else {
                j += 1;
                let pair_of = |b: u32, a: u32| (eps.get(a as usize), eqs.get(b as usize));
                self.sweep_from(qs[j - 1], &ps[i..], pair_of, &mut t);
            }
        }
        self.sweep_p = ps;
        self.sweep_q = qs;
    }

    /// One anchor's forward scan through the other side's remaining run —
    /// the sweep's one inner loop, whichever side the anchor came from
    /// (`pair_of(anchor.idx, other.idx)` restores the `(P, Q)` orientation).
    ///
    /// Because lower coordinates ascend, the axis separation
    /// `other.lo - anchor.hi` is non-decreasing along the scan, and once its
    /// square alone exceeds the live threshold `t` no later pair can qualify
    /// — the scan stops. Survivors pass the same orientation and constraint
    /// filters as [`scan_brute`], then the threshold-aware kernel, which
    /// bails out mid-accumulation when the partial sum exceeds `t`.
    #[inline]
    fn sweep_from(
        &mut self,
        anchor: SweepProj,
        others: &[SweepProj],
        pair_of: impl Fn(u32, u32) -> (LeafEntry<D>, LeafEntry<D>),
        t: &mut Dist2,
    ) {
        for other in others {
            let gap = other.lo - anchor.hi;
            if gap > 0.0 && gap * gap > t.get() {
                break; // later items only move farther along the axis
            }
            let (ep, eq) = pair_of(anchor.idx, other.idx);
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
            if let Some(d2) = min_min_dist2_within(&ep.mbr(), &eq.mbr(), *t) {
                if self.kheap.offer(oriented(self.orient(), &ep, &eq, d2)) {
                    *t = self.t();
                }
            }
        }
    }

    /// CP2 on the driver: the candidates of a node pair into `out`, pruned
    /// by the live threshold `T` when `prune` is set (`Naive` passes
    /// `false` — it must descend into everything), `pairs_pruned` counted.
    ///
    /// Sequentially this is [`candidates`] at `T`. In parallel mode the pair
    /// cache is consulted first: speculative workers run [`candidates`] at
    /// `T = ∞`, so the driver filters their list by the live threshold
    /// instead of re-running the kernels — survivors, their order and the
    /// `pairs_pruned` increments all match the sequential run (see
    /// [`candidates`]). On a cache miss the driver computes inline and
    /// pushes the surviving candidates to the speculation queue as
    /// look-ahead for the workers.
    pub(crate) fn gen_cands(
        &mut self,
        np: &NodeView<D>,
        nq: &NodeView<D>,
        page_p: PageId,
        page_q: PageId,
        prune: bool,
        out: &mut Vec<Cand<D>>,
    ) {
        let start = P::ENABLED.then(Instant::now);
        // T cannot change during generation (no offers happen here), so one
        // read suffices; `INFINITY` disables the prune and the kernel's
        // early exit alike.
        let t = if prune { self.t() } else { Dist2::INFINITY };
        let cached = self.par.and_then(|rt| rt.cached_pair(page_p, page_q));
        match cached.as_deref() {
            Some(TaskOut::Inner(cands)) => {
                for c in cands {
                    if c.minmin > t {
                        self.stats.pairs_pruned += 1;
                    } else {
                        out.push(*c);
                    }
                }
            }
            Some(TaskOut::Leaf { .. }) => unreachable!("inner pair cached as leaf"),
            None => {
                self.stats.pairs_pruned += candidates(
                    np,
                    nq,
                    self.cfg.height,
                    &self.constraint,
                    t,
                    &mut self.gen_scratch,
                    out,
                );
            }
        }
        if let Some(start) = start {
            self.probe.gen_phase(start.elapsed().as_nanos() as u64);
        }
        if let Some(rt) = self.par {
            if cached.is_none() {
                // Look-ahead: offer the surviving candidates to the workers
                // (the worker that would have produced this pair's cache
                // entry never ran, so nobody else will push its children).
                for c in out.iter() {
                    rt.push_spec(c.minmin, spec_page(&c.p, page_p), spec_page(&c.q, page_q));
                }
            }
            rt.publish_threshold(self.t());
        }
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
            self.maxes.clear();
            self.maxes.extend(cands.iter().map(|c| {
                (
                    max_max_dist2(&c.mbr_p, &c.mbr_q),
                    c.count_p.saturating_mul(c.count_q),
                )
            }));
            self.maxes.sort_by_key(|a| a.0);
            let mut cum: u64 = 0;
            for &(mx, n) in &self.maxes {
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
        np: &NodeView<D>,
        nq: &NodeView<D>,
        page_p: PageId,
        page_q: PageId,
        cand: &Cand<D>,
        f: RecurseFn<'a, D, P>,
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
    pub(crate) fn finish(mut self) -> crate::types::QueryOutcome<D> {
        if self.par.is_some() {
            // A pool both sides read folds into P, as the meter does.
            let (p, q) = (self.ledger_p, self.ledger_q);
            (self.stats.disk_accesses_p, self.stats.disk_accesses_q) = match self.meter.shared() {
                true => (p + q, 0),
                false => (p, q),
            };
        } else {
            self.meter.fill(&mut self.stats);
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

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use cpq_geo::{min_min_dist2, pack_color, Point};
    use cpq_rng::Rng;
    use cpq_rtree::RTreeParams;
    use cpq_storage::{BufferPool, MemPageFile};

    /// `n` seeded points on a 16 × 16 integer grid (duplicate coordinates,
    /// distance ties) in an `M = 4` tree, oid `i` colored `i % 3`.
    pub(crate) fn grid_tree(n: u64, seed: u64) -> RTree<2> {
        let pool = BufferPool::with_lru(Box::new(MemPageFile::new(1024)), 16);
        let mut tree = RTree::new(pool, RTreeParams::with_max_entries(4)).unwrap();
        let mut rng = Rng::seed_from_u64(seed);
        for i in 0..n {
            let xy = [0, 0].map(|_| f64::from(rng.random_range(0..16u32)));
            tree.insert(Point(xy), pack_color(i, (i % 3) as u16))
                .unwrap();
        }
        tree
    }

    /// A seeded window with integer corners inside the grid.
    fn grid_window(rng: &mut Rng) -> Rect<2> {
        let lo = [0, 0].map(|_| f64::from(rng.random_range(0..10u32)));
        Rect::from_corners(lo, lo.map(|c| c + f64::from(rng.random_range(0..8u32))))
    }

    /// A seeded node of `tree`: the root, or some way down a random path.
    fn some_node(tree: &RTree<2>, rng: &mut Rng) -> NodeView<2> {
        let mut node = tree.read_node(tree.root()).unwrap();
        while !node.is_leaf() && rng.random_bool(0.6) {
            let down = node
                .inner_entries()
                .get(rng.random_range(0..node.len()))
                .child;
            node = tree.read_node(down).unwrap();
        }
        node
    }

    /// The sentence the speculative pair cache rests on (DESIGN §11): the
    /// workers' list generated at `T = ∞`, filtered by the driver's `T`, is
    /// what the driver generates at `T` itself — survivors, order (the
    /// `Debug` form prints every coordinate and `MINMINDIST` exactly) and
    /// pruned count.
    #[test]
    fn gen_at_infinity_then_filter_equals_gen_at_t() {
        let mut rng = Rng::seed_from_u64(15);
        let (tp, tq) = (grid_tree(80, 1), grid_tree(13, 2));
        let mut scratch = GenScratch::default();
        let mut pruned_total = 0;
        for _ in 0..2000 {
            let (np, nq) = (&some_node(&tp, &mut rng), &some_node(&tq, &mut rng));
            if np.is_leaf() && nq.is_leaf() {
                continue;
            }
            let height = [HeightStrategy::FixAtLeaves, HeightStrategy::FixAtRoot]
                [rng.random_range(0..2usize)];
            let mut window = || rng.random_bool(0.5).then(|| grid_window(&mut rng));
            let con = Constraint::windows(window(), window());
            let mut full = Vec::new();
            let none = candidates(
                np,
                nq,
                height,
                &con,
                Dist2::INFINITY,
                &mut scratch,
                &mut full,
            );
            assert_eq!(none, 0, "nothing is pruned at infinity");
            // Thresholds that tie a candidate exactly, and ones between.
            let mut ts = vec![Dist2::ZERO, Dist2::new(rng.random_range(0.0..300.0))];
            ts.extend(full.iter().map(|c| c.minmin));
            for t in ts {
                let mut at_t = Vec::new();
                let pruned = candidates(np, nq, height, &con, t, &mut scratch, &mut at_t);
                let kept: Vec<_> = full.iter().filter(|c| c.minmin <= t).collect();
                assert_eq!(format!("{kept:?}"), format!("{:?}", at_t));
                assert_eq!(pruned as usize, full.len() - kept.len());
                pruned_total += pruned;
            }
        }
        assert!(pruned_total > 1000, "the thresholds must actually prune");
    }

    /// CP3 as the sentence reads — the loop [`scan_brute`] replaced: every
    /// pair through the orientation rule and `admits_pair`, the rect-rect
    /// kernel, a `PairResult`, the heap.
    fn scan_literal(
        lp: &NodeView<2>,
        lq: &NodeView<2>,
        self_join: bool,
        constraint: &Constraint<2>,
        orient: bool,
        kheap: &mut KHeap<2>,
    ) -> u64 {
        let mut dists = 0;
        for ep in lp.leaf_entries() {
            for eq in lq.leaf_entries() {
                if self_join && ep.oid >= eq.oid {
                    continue;
                }
                if !constraint.admits_pair(&ep.mbr(), ep.oid, &eq.mbr(), eq.oid) {
                    continue;
                }
                dists += 1;
                let d2 = min_min_dist2(&ep.mbr(), &eq.mbr());
                kheap.offer(oriented(orient, &ep, &eq, d2));
            }
        }
        dists
    }

    /// Every leaf of `tree`.
    fn leaves(tree: &RTree<2>) -> Vec<NodeView<2>> {
        let (mut out, mut todo) = (Vec::new(), vec![tree.root()]);
        while let Some(page) = todo.pop() {
            let node = tree.read_node(page).unwrap();
            if node.is_leaf() {
                out.push(node);
            } else {
                todo.extend(node.inner_entries().iter().map(|e| e.child));
            }
        }
        out
    }

    /// A full heap of `k` pairs that all tie `like` in distance (its
    /// objects under the oids `(oid_p, 0..k)`): with `oid_p = u64::MAX` the
    /// top sorts after every real pair at that distance, with `oid_p = 0`
    /// before (nearly) every one.
    fn tied_heap(k: u64, like: &PairResult<2>, oid_p: u64) -> KHeap<2> {
        let mut heap = KHeap::new(k as usize);
        for oid_q in 0..k {
            let (mut p, mut q) = (like.p, like.q);
            (p.oid, q.oid) = (oid_p, oid_q);
            assert!(heap.offer(PairResult::with_dist2(p, q, like.dist2)));
        }
        heap
    }

    /// One leaf pair under one query shape: `(lp, lq, self_join,
    /// constraint, orient)`.
    type Shape<'a> = (&'a NodeView<2>, &'a NodeView<2>, bool, Constraint<2>, bool);

    /// Runs [`scan_literal`] and [`scan_brute`] from two copies of the
    /// `start` heap, requires identical distance counts and identical heaps
    /// (canonical order, `dist2` bits), and returns the pairs they hold.
    fn agree(
        (lp, lq, self_join, con, orient): Shape<'_>,
        scratch: &mut LeafScratch<2>,
        start: impl Fn() -> KHeap<2>,
    ) -> Vec<PairResult<2>> {
        let (mut want, mut got) = (start(), start());
        let d_want = scan_literal(lp, lq, self_join, &con, orient, &mut want);
        let d_got = scan_brute(lp, lq, self_join, &con, orient, scratch, &mut got);
        assert_eq!(d_got, d_want, "dists: {con:?} self {self_join}");
        let (want, got) = (want.into_sorted(), got.into_sorted());
        assert_eq!(got, want, "{con:?} self {self_join} orient {orient}");
        let bits = |v: &[PairResult<2>]| -> Vec<u64> {
            v.iter().map(|r| r.dist2.get().to_bits()).collect()
        };
        assert_eq!(bits(&got), bits(&want));
        got
    }

    /// [`agree`] over every leaf pair of two trees, every constraint shape
    /// and a set of starting heaps. Returns how many pairs were retained
    /// from empty heaps, how many real pairs entered a full heap whose top
    /// tied them, and how many such a heap refused.
    fn kernel_against_literal(tp: &RTree<2>, tq: &RTree<2>) -> [usize; 3] {
        // Overlapping, neither inside the other, most objects in each.
        let w1 = Rect::from_corners([0.0, 0.0], [9.0, 15.0]);
        let w2 = Rect::from_corners([6.0, 2.0], [15.0, 13.0]);
        let symmetric = [
            Constraint::none(),
            Constraint::window(w1),
            Constraint::colored(),
        ];
        let per_side = [
            Constraint::windows(Some(w1), Some(w2)),
            Constraint::windows(None, Some(w2)).with_colored(),
        ];
        let (leaves_p, leaves_q) = (leaves(tp), leaves(tq));
        // (Q side, self-join, constraint, orient). `orient` is what the
        // off-diagonal subquery of a sharded self-join sets: cross,
        // symmetric constraint.
        let mut queries = Vec::new();
        for con in symmetric {
            queries.push((&leaves_p, true, con, false));
            queries.push((&leaves_q, false, con, false));
            queries.push((&leaves_q, false, con, true));
        }
        queries.extend(per_side.map(|con| (&leaves_q, false, con, false)));

        let mut scratch = LeafScratch::default();
        let mut seen = [0; 3];
        for (leaves_q, self_join, con, orient) in queries {
            for lp in &leaves_p {
                for lq in leaves_q {
                    let shape = (lp, lq, self_join, con, orient);
                    // From empty heaps: one that fills at once, one that
                    // may, one that never does (so it keeps every pair).
                    let mut all = Vec::new();
                    for k in [1, 5, 1 << 20] {
                        all = agree(shape, &mut scratch, || KHeap::new(k));
                        seen[0] += all.len();
                    }
                    // From full heaps whose top ties the median pair of
                    // this leaf pair: under a larger oid pair the tie goes
                    // in, under a smaller one it stays out, and closer
                    // pairs go in either way.
                    let Some(like) = all.get(all.len() / 2) else {
                        continue;
                    };
                    let ties = |v: &[PairResult<2>]| {
                        let real = |r: &&PairResult<2>| r.dist2 == like.dist2 && all.contains(r);
                        v.iter().filter(real).count()
                    };
                    for k in [1, 4] {
                        let under_larger =
                            agree(shape, &mut scratch, || tied_heap(k, like, u64::MAX));
                        let under_smaller = agree(shape, &mut scratch, || tied_heap(k, like, 0));
                        seen[1] += ties(&under_larger);
                        seen[2] += ties(&all) - ties(&under_smaller);
                    }
                }
            }
        }
        seen
    }

    /// The threshold-first kernel against the loop it replaced: identical
    /// K-heaps (canonical order, `dist2` bits) and identical distance
    /// counts, on point data with duplicate coordinates.
    #[test]
    fn the_kernel_is_the_literal_loop() {
        let seen = kernel_against_literal(&grid_tree(80, 1), &grid_tree(30, 2));
        assert!(seen.iter().all(|&n| n > 1000), "points: {seen:?}");
    }
}
