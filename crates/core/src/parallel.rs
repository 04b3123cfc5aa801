//! Intra-query parallel K-CPQ execution: a deterministic sequential driver
//! plus speculative worker threads sharing a global bound.
//!
//! # The speculative-oracle model
//!
//! Parallelizing the paper's algorithms naively — splitting the node-pair
//! frontier across threads — makes results depend on interleaving: the
//! threshold `T` tightens in a different order, so different candidates are
//! pruned and different (tie-breaking) pairs can be retained. This module
//! takes a different route that keeps results **bit-identical** to the
//! sequential engine by construction:
//!
//! * The **driver** (the thread that called the query) runs the *unchanged*
//!   sequential control flow of whichever algorithm was requested — same
//!   traversal, same pruning decisions, same K-heap, same counters.
//! * `N - 1` **workers** race ahead of the driver. They pop node pairs in
//!   best-first `MINMINDIST` order from sharded work-stealing queues,
//!   fetch and decode the nodes (warming a shared node cache), precompute
//!   candidate lists at `T = ∞` for inner pairs and task-local top-K offer
//!   lists for leaf pairs (a shared pair cache), and enqueue the children
//!   of admitted candidates — skipping any whose `MINMINDIST` exceeds the
//!   shared **global bound**, an `AtomicU64` holding the bit pattern of an
//!   `f64` that every thread monotonically tightens by CAS.
//! * The driver *consults* those caches at its three expensive points
//!   (node reads, candidate generation, leaf scans) and falls back to
//!   computing inline on a miss. Because a cache hit returns exactly what
//!   the driver would have computed (see the determinism argument in
//!   `DESIGN.md` §11), speculation changes wall-clock time and nothing
//!   else.
//!
//! Speculation is therefore *performance-only*: a skipped task, a lost
//! steal race, or an aborted worker can never change the answer, only how
//! much of the work the driver has to redo itself. Cancellation keeps the
//! sequential semantics (the driver polls its token once per node pair, so
//! a timed-out partial answer is an exact sequential prefix), and a storage
//! error observed by *any* thread fails the query with exactly that error.
//!
//! # Memory ordering
//!
//! The shared bound uses `Relaxed` operations: it is a performance hint
//! whose staleness only costs redundant speculation (monotonicity is
//! enforced by the CAS loop, not by ordering). The caches and
//! queues live behind `Mutex`es, whose lock/unlock pairs provide all the
//! happens-before edges correctness needs. `shutdown` uses
//! `Release`/`Acquire` so a parked worker that observes it also observes
//! the final queue state.

use crate::api::{run_leader, ExecCtx};
use crate::bound::SharedBound;
use crate::cancel::CancelToken;
use crate::config::CpqConfig;
use crate::engine::{candidates, scan_brute, spec_page, Cand, GenScratch, LeafScratch};
use crate::kheap::KHeap;
use crate::spec::QuerySpec;
use crate::types::{PairResult, QueryRun};
use crate::Algorithm;
use cpq_check::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use cpq_check::sync::{self, Arc, Condvar, Mutex};
use cpq_geo::Dist2;
use cpq_obs::{Probe, ProbeSide};
use cpq_rng::Rng;
use cpq_rtree::{NodeView, RTree, RTreeError, RTreeResult};
use cpq_storage::PageId;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet};
use std::time::Duration;

/// One speculation request: a node pair to prefetch and precompute,
/// prioritized by `MINMINDIST`.
///
/// The distance is kept as raw `f64` bits: IEEE-754 ordering agrees with
/// numeric ordering for non-negative finite values, so the derived
/// lexicographic `Ord` pops pairs in ascending-distance order (page ids
/// break exact ties deterministically).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct SpecReq {
    minmin_bits: u64,
    page_p: u32,
    page_q: u32,
}

/// What a speculative task produced for one node pair.
pub(crate) enum TaskOut<const D: usize> {
    /// Inner pair: what the driver's own generator (`engine::candidates`)
    /// returns at `T = ∞` — the driver filters it by its live threshold,
    /// which reproduces the sequential result exactly.
    Inner(Vec<Cand<D>>),
    /// Leaf pair: the task-local top-K offers (in canonical order) plus the
    /// number of kernel invocations of the driver's own brute scan
    /// (`engine::scan_brute`). Replaying the offers into the driver's
    /// global K-heap is lossless (see `Ctx::scan_leaves`).
    Leaf {
        /// Task-local K best pairs, sorted by the canonical order.
        offers: Vec<PairResult<D>>,
        /// Brute-force kernel invocations for the pair (after the self-join
        /// orientation and constraint filters).
        dists: u64,
    },
}

#[inline]
fn pair_key(p: u32, q: u32) -> u64 {
    ((p as u64) << 32) | q as u64
}

/// Shared state of one parallel query: queues, caches, the global bound,
/// and error/abort/shutdown flags.
///
/// Created per query by [`run_parallel`] and borrowed by the driver's `Ctx`
/// (`Ctx::par`) and every worker for the duration of the run.
pub(crate) struct SpecRuntime<const D: usize> {
    /// Sharded speculation queues (one per worker): a min-heap of pending
    /// requests each. Pushes round-robin across shards; worker `w` pops its
    /// own shard first and steals from the others when it runs dry.
    shards: Vec<Mutex<BinaryHeap<Reverse<SpecReq>>>>,
    /// Pairs ever claimed for execution (superset of the pair-cache keys).
    /// Claiming before executing makes task execution exactly-once and
    /// lets pushes drop requests that are already in flight.
    claimed: Mutex<HashSet<u64>>,
    /// Node caches, one per side (a self-join populates both with
    /// the same tree's nodes; the duplication is harmless).
    nodes_p: Mutex<HashMap<u32, NodeView<D>>>,
    nodes_q: Mutex<HashMap<u32, NodeView<D>>>,
    /// Finished speculative tasks by pair key.
    pairs: Mutex<HashMap<u64, Arc<TaskOut<D>>>>,
    /// The shared global bound (see [`crate::SharedBound`]): an upper bound
    /// on the K-th result distance, monotonically tightened by CAS.
    /// Every published value is a genuine upper bound — the driver's live
    /// threshold `T`, or a worker's task-local K-th-best leaf distance —
    /// so a request skipped for exceeding it can never contain a result
    /// pair, making the skip performance-only.
    bound: SharedBound,
    /// Set by [`shutdown`](Self::shutdown) when the driver is done.
    shutdown: AtomicBool,
    /// Set when any worker observes an error: everyone winds down early.
    abort: AtomicBool,
    /// First error observed by a worker; the driver surfaces it via
    /// [`check_error`](Self::check_error) or at teardown.
    error: Mutex<Option<RTreeError>>,
    /// Park/wake for idle workers. Workers re-check the queues on every
    /// wake and time out periodically, so a lost notification costs at
    /// most one timeout interval, never a deadlock.
    idle: Mutex<()>,
    wake: Condvar,
    /// Round-robin cursor for the push side.
    push_cursor: AtomicU64,
    /// The query and the height strategy: what the workers hand to the
    /// driver's own CP2/CP3 functions, so a cached work product is what the
    /// driver computes inline on a miss.
    spec: QuerySpec<D>,
    height: crate::HeightStrategy,
    yield_seed: Option<u64>,
}

impl<const D: usize> SpecRuntime<D> {
    fn new(
        workers: usize,
        spec: &QuerySpec<D>,
        height: crate::HeightStrategy,
        yield_seed: Option<u64>,
    ) -> Self {
        SpecRuntime {
            shards: (0..workers.max(1))
                .map(|_| Mutex::new(BinaryHeap::new()))
                .collect(),
            claimed: Mutex::new(HashSet::new()),
            nodes_p: Mutex::new(HashMap::new()),
            nodes_q: Mutex::new(HashMap::new()),
            pairs: Mutex::new(HashMap::new()),
            bound: SharedBound::new(),
            shutdown: AtomicBool::new(false),
            abort: AtomicBool::new(false),
            error: Mutex::new(None),
            idle: Mutex::new(()),
            wake: Condvar::new(),
            push_cursor: AtomicU64::new(0),
            spec: *spec,
            height,
            yield_seed,
        }
    }

    /// The shared bound as a distance value.
    #[inline]
    fn bound_d2(&self) -> f64 {
        self.bound.get_d2()
    }

    /// Monotonically tightens the shared bound to `min(bound, d2)` (CAS
    /// min; see [`SharedBound::tighten`]).
    fn tighten(&self, d2: f64) {
        self.bound.tighten(d2);
    }

    /// Publishes the driver's live threshold `T` (an upper bound on the
    /// K-th result distance whenever it is finite).
    #[inline]
    pub(crate) fn publish_threshold(&self, t: Dist2) {
        self.bound.publish_threshold(t);
    }

    /// Surfaces the first worker-observed error into the driver, once.
    #[inline]
    pub(crate) fn check_error(&self) -> RTreeResult<()> {
        // ordering: Relaxed — advisory early-out; the error itself is
        // transferred under the `error` mutex, which provides the edge.
        if self.abort.load(Ordering::Relaxed) {
            if let Some(e) = sync::lock(&self.error).take() {
                return Err(e);
            }
        }
        Ok(())
    }

    /// Node-cache lookup.
    fn cached_node(&self, side: ProbeSide, page: PageId) -> Option<NodeView<D>> {
        sync::lock(self.node_map(side)).get(&page.0).cloned()
    }

    /// Caches a node read from `side`'s tree.
    fn insert_node(&self, side: ProbeSide, page: PageId, node: NodeView<D>) {
        sync::lock(self.node_map(side)).insert(page.0, node);
    }

    /// One node of `side`'s tree through the shared cache: the cached copy,
    /// or a pool read that fills the cache. The driver and the workers both
    /// fetch through here.
    pub(crate) fn node(
        &self,
        side: ProbeSide,
        tree: &RTree<D>,
        page: PageId,
    ) -> RTreeResult<NodeView<D>> {
        if let Some(node) = self.cached_node(side, page) {
            return Ok(node);
        }
        let node = tree.read_node(page)?;
        self.insert_node(side, page, node.clone());
        Ok(node)
    }

    fn node_map(&self, side: ProbeSide) -> &Mutex<HashMap<u32, NodeView<D>>> {
        match side {
            ProbeSide::P => &self.nodes_p,
            ProbeSide::Q => &self.nodes_q,
        }
    }

    /// Driver-side pair-cache lookup.
    pub(crate) fn cached_pair(&self, page_p: PageId, page_q: PageId) -> Option<Arc<TaskOut<D>>> {
        sync::lock(&self.pairs)
            .get(&pair_key(page_p.0, page_q.0))
            .cloned()
    }

    /// Enqueues a node pair for speculation unless the shared bound already
    /// rules it out or it was claimed before.
    pub(crate) fn push_spec(&self, minmin: Dist2, page_p: PageId, page_q: PageId) {
        if minmin.get() > self.bound_d2() {
            return; // performance-only skip: cannot contain a result pair
        }
        if sync::lock(&self.claimed).contains(&pair_key(page_p.0, page_q.0)) {
            return;
        }
        // ordering: Relaxed — round-robin cursor; any distribution of
        // pushes across shards is correct, balance is best-effort.
        let shard = (self.push_cursor.fetch_add(1, Ordering::Relaxed) as usize) % self.shards.len();
        sync::lock(&self.shards[shard]).push(Reverse(SpecReq {
            minmin_bits: minmin.get().to_bits(),
            page_p: page_p.0,
            page_q: page_q.0,
        }));
        self.wake.notify_one();
    }

    /// Pops the best pending request, own shard first, then stealing.
    fn pop_spec(&self, worker: usize) -> Option<SpecReq> {
        let n = self.shards.len();
        for i in 0..n {
            let shard = (worker + i) % n;
            let popped = sync::lock(&self.shards[shard]).pop();
            if let Some(Reverse(req)) = popped {
                return Some(req);
            }
        }
        None
    }

    /// Tells the workers the driver is done; they drain out and exit.
    fn shutdown(&self) {
        // ordering: Release — pairs with the workers' Acquire loads so a
        // worker observing shutdown also observes the final queue state
        // (module docs, "Memory ordering").
        self.shutdown.store(true, Ordering::Release);
        let _guard = sync::lock(&self.idle);
        self.wake.notify_all();
    }
}

/// One worker thread: pop best-first, claim, execute, push children.
fn worker_loop<const D: usize>(
    rt: &SpecRuntime<D>,
    worker: usize,
    tp: &RTree<D>,
    tq: &RTree<D>,
    cancel: Option<&CancelToken>,
) {
    let mut rng = rt.yield_seed.map(|seed| {
        Rng::seed_from_u64(seed.wrapping_add((worker as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)))
    });
    let mut maybe_yield = move || {
        if let Some(rng) = rng.as_mut() {
            if rng.random_bool(0.25) {
                std::thread::yield_now();
            }
        }
    };
    loop {
        // ordering: Acquire on `shutdown` (pairs with `shutdown`'s Release
        // so the final queue state is visible); Relaxed on `abort` (the
        // error rides the `error` mutex, the flag is only an early-out).
        if rt.shutdown.load(Ordering::Acquire) || rt.abort.load(Ordering::Relaxed) {
            break;
        }
        if cancel.is_some_and(|token| token.is_cancelled()) {
            break;
        }
        let Some(req) = rt.pop_spec(worker) else {
            let guard = sync::lock(&rt.idle);
            // ordering: Acquire/Relaxed — same pair as the loop head; the
            // re-check under the idle lock closes the park/notify race.
            if rt.shutdown.load(Ordering::Acquire) || rt.abort.load(Ordering::Relaxed) {
                break;
            }
            drop(sync::wait_timeout(
                &rt.wake,
                guard,
                Duration::from_micros(200),
            ));
            continue;
        };
        maybe_yield();
        // Claim: first worker in wins; stale duplicates (the same pair can
        // be generated from two different parents) are dropped here.
        if !sync::lock(&rt.claimed).insert(pair_key(req.page_p, req.page_q)) {
            continue;
        }
        if f64::from_bits(req.minmin_bits) > rt.bound_d2() {
            continue; // the bound tightened past it while queued
        }
        match exec_task(rt, req, tp, tq) {
            Ok(()) => {}
            Err(e) => {
                // First error wins; everyone winds down. Workers never
                // panic — a failed speculative read is an ordinary result.
                let mut slot = sync::lock(&rt.error);
                if slot.is_none() {
                    *slot = Some(e);
                }
                drop(slot);
                // ordering: Relaxed — the mutex release above already
                // published the error; the flag is only an early-out hint.
                rt.abort.store(true, Ordering::Relaxed);
                break;
            }
        }
        maybe_yield();
    }
}

/// Executes one speculative task: fetch both nodes, precompute the pair's
/// work product, cache it, and enqueue admitted children.
fn exec_task<const D: usize>(
    rt: &SpecRuntime<D>,
    req: SpecReq,
    tp: &RTree<D>,
    tq: &RTree<D>,
) -> RTreeResult<()> {
    let (page_p, page_q) = (PageId(req.page_p), PageId(req.page_q));
    let np = rt.node(ProbeSide::P, tp, page_p)?;
    let nq = rt.node(ProbeSide::Q, tq, page_q)?;

    let out = if np.is_leaf() && nq.is_leaf() {
        // Leaf pair: the driver's brute scan into a task-local K-heap. The
        // local top-K is lossless for the driver's global heap, and the
        // local K-th best (over real point pairs) is a valid global upper
        // bound.
        let max_pairs = (np.len() * nq.len()) as u64;
        let mut heap: KHeap<D> = KHeap::bounded(rt.spec.k, max_pairs);
        // No orientation: scatter subqueries never run in parallel mode.
        let dists = scan_brute(
            &np,
            &nq,
            rt.spec.self_join,
            &rt.spec.constraint,
            false,
            &mut LeafScratch::default(),
            &mut heap,
        );
        let local_t = heap.threshold();
        if !local_t.is_infinite() {
            rt.tighten(local_t.get());
        }
        TaskOut::Leaf {
            offers: heap.into_sorted(),
            dists,
        }
    } else {
        // Inner pair: the driver's generator at `T = ∞`, so the driver's
        // filtered view is bit-identical to what it would have generated
        // itself (nothing is pruned at `∞`; the count is dropped).
        let mut cands = Vec::new();
        candidates(
            &np,
            &nq,
            rt.height,
            &rt.spec.constraint,
            Dist2::INFINITY,
            &mut GenScratch::default(),
            &mut cands,
        );
        // The oracle knows the child pages are likely next: besides queueing
        // the pairs, hand the pages to the I/O scheduler as low-priority
        // hints (no-op on unscheduled pools). Pages this runtime already
        // decoded are skipped; the scheduler dedups the rest against its own
        // queues and in-flight reads.
        let mut hint_p: Vec<PageId> = Vec::new();
        let mut hint_q: Vec<PageId> = Vec::new();
        for c in &cands {
            let pp = spec_page(&c.p, page_p);
            let pq = spec_page(&c.q, page_q);
            rt.push_spec(c.minmin, pp, pq);
            if pp != page_p && rt.cached_node(ProbeSide::P, pp).is_none() {
                hint_p.push(pp);
            }
            if pq != page_q && rt.cached_node(ProbeSide::Q, pq).is_none() {
                hint_q.push(pq);
            }
        }
        for (tree, hints) in [(tp, &mut hint_p), (tq, &mut hint_q)] {
            if !hints.is_empty() {
                hints.sort_unstable();
                hints.dedup();
                tree.prefetch(hints);
            }
        }
        TaskOut::Inner(cands)
    };
    sync::lock(&rt.pairs).insert(pair_key(req.page_p, req.page_q), Arc::new(out));
    Ok(())
}

/// Runs one query in parallel mode: spawns the workers, runs the unchanged
/// sequential driver against the speculation runtime, tears everything
/// down, and surfaces any worker-observed error.
pub(crate) fn run_parallel<const D: usize, P: Probe>(
    tree_p: &RTree<D>,
    tree_q: &RTree<D>,
    spec: &QuerySpec<D>,
    algorithm: Algorithm,
    config: &CpqConfig,
    exec: &mut ExecCtx<'_, P>,
) -> RTreeResult<QueryRun<D>> {
    let workers = config.parallelism.saturating_sub(1);
    let runtime: SpecRuntime<D> =
        SpecRuntime::new(workers, spec, config.height, config.parallel_yield_seed);
    let cancel = exec.cancel;

    let leader = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let rt = &runtime;
                scope.spawn(move || worker_loop(rt, w, tree_p, tree_q, cancel))
            })
            .collect();
        let leader = run_leader(
            tree_p,
            tree_q,
            spec,
            algorithm,
            config,
            exec,
            Some(&runtime),
        );
        runtime.shutdown();
        for h in handles {
            #[expect(clippy::expect_used, reason = "a panicking worker is a bug; re-raise")]
            h.join().expect("worker threads never panic");
        }
        leader
    });

    // A storage error observed by a speculative worker fails the query even
    // when the driver never needed the failing page itself: exactly one
    // error surfaces, and reruns on the same trees start clean.
    let run = leader?;
    if let Some(e) = sync::lock(&runtime.error).take() {
        return Err(e);
    }
    Ok(run)
}

/// The worker path, deterministically: no thread, no race to win.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::{
        k_closest_pairs_brute_constrained as brute_cross,
        self_k_closest_pairs_brute_constrained as brute_self,
    };
    use crate::engine::tests::grid_tree;
    use crate::engine::Ctx;
    use crate::spec::Constraint;
    use crate::HeightStrategy;
    use cpq_geo::Rect;

    /// Sends every node pair below the roots through [`exec_task`] and
    /// through the driver's own CP2/CP3 — a sequential `Ctx` and one that
    /// consults the cache the task just filled — and checks that all three
    /// agree: leaf offers and `dists` exactly, candidate lists bitwise (the
    /// `Debug` form prints every coordinate and `MINMINDIST` exactly) with
    /// equal `pairs_pruned` at every threshold that ties a candidate. The
    /// tasks' merged leaf offers must also be the oracle's answer, so a
    /// defect in the one kernel or the one generator fails here too.
    /// Returns how many (inner, leaf) pairs it walked.
    fn walk(tp: &RTree<2>, tq: &RTree<2>, spec: &QuerySpec<2>, height: HeightStrategy) -> [u32; 2] {
        let cfg = CpqConfig {
            height,
            ..CpqConfig::paper()
        };
        let rt = SpecRuntime::new(1, spec, height, None);
        let mut merged: KHeap<2> = KHeap::new(spec.k);
        let mut walked = [0, 0];
        let mut todo = vec![(tp.root(), tq.root())];
        let mut seen = HashSet::new();
        while let Some((page_p, page_q)) = todo.pop() {
            if !seen.insert((page_p, page_q)) {
                continue;
            }
            let req = SpecReq {
                minmin_bits: 0,
                page_p: page_p.0,
                page_q: page_q.0,
            };
            exec_task(&rt, req, tp, tq).unwrap();
            let task = rt.cached_pair(page_p, page_q).expect("the task's output");
            let (np, nq) = (tp.read_node(page_p).unwrap(), tq.read_node(page_q).unwrap());
            let (mut exec_seq, mut exec_hit) = (ExecCtx::default(), ExecCtx::default());
            let mut seq = Ctx::new(tp, tq, spec, &cfg, &mut exec_seq, None);
            let mut hit = Ctx::new(tp, tq, spec, &cfg, &mut exec_hit, Some(&rt));
            match &*task {
                TaskOut::Leaf { offers, dists } => {
                    seq.scan_leaves(&np, &nq, page_p, page_q);
                    hit.scan_leaves(&np, &nq, page_p, page_q);
                    assert_eq!(*dists, seq.stats.dist_computations);
                    assert_eq!(hit.stats, seq.stats);
                    assert_eq!(*offers, seq.kheap.into_sorted());
                    assert_eq!(*offers, hit.kheap.into_sorted());
                    for offer in offers {
                        merged.offer(*offer);
                    }
                    walked[1] += 1;
                }
                TaskOut::Inner(full) => {
                    let ties = full.iter().map(|c| c.minmin);
                    for t in [Dist2::INFINITY, Dist2::ZERO].into_iter().chain(ties) {
                        (seq.bound, hit.bound) = (t, t);
                        let (mut own, mut cached) = (Vec::new(), Vec::new());
                        seq.gen_cands(&np, &nq, page_p, page_q, true, &mut own);
                        hit.gen_cands(&np, &nq, page_p, page_q, true, &mut cached);
                        assert_eq!(format!("{own:?}"), format!("{cached:?}"), "T = {t:?}");
                        assert_eq!(hit.stats, seq.stats, "T = {t:?}");
                    }
                    todo.extend(
                        full.iter()
                            .map(|c| (spec_page(&c.p, page_p), spec_page(&c.q, page_q))),
                    );
                    walked[0] += 1;
                }
            }
        }
        let points = |t: &RTree<2>| -> Vec<_> {
            let all = t.all_objects().unwrap();
            all.iter().map(|e| (e.object, e.oid)).collect()
        };
        let want = if spec.self_join {
            brute_self(&points(tp), spec.k, &spec.constraint)
        } else {
            brute_cross(&points(tp), &points(tq), spec.k, &spec.constraint)
        };
        assert_eq!(merged.into_sorted(), want, "{spec:?} {height:?}");
        walked
    }

    #[test]
    fn every_task_output_is_what_the_driver_computes() {
        // Different heights, so both strategies produce `Stay` sides.
        let (tp, tq) = (grid_tree(90, 3), grid_tree(30, 4));
        assert_ne!(tp.height(), tq.height());
        let mut walked = [0, 0];
        for height in [HeightStrategy::FixAtLeaves, HeightStrategy::FixAtRoot] {
            // Overlapping, neither inside the other, most points in each.
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
            for con in symmetric {
                let w = walk(
                    &tp,
                    &tp,
                    &QuerySpec::self_join(40).with_constraint(con),
                    height,
                );
                walked = [walked[0] + w[0], walked[1] + w[1]];
            }
            for con in symmetric.into_iter().chain(per_side) {
                let w = walk(&tp, &tq, &QuerySpec::cross(40).with_constraint(con), height);
                walked = [walked[0] + w[0], walked[1] + w[1]];
            }
        }
        assert!(walked[0] > 1000 && walked[1] > 6000, "walked {walked:?}");
    }
}

/// Model-checked harnesses for the speculation protocol (compiled only
/// under `RUSTFLAGS="--cfg cpq_model"`).
///
/// `run_parallel` itself spawns scoped threads, which the model scheduler
/// cannot register (see `cpq_check::thread`), so these harnesses drive the
/// protocol pieces of [`SpecRuntime`] directly — the shared-bound CAS, the
/// claim set, and the shard/steal queues — with modeled threads, which is
/// where all the cross-thread state of a parallel query lives.
#[cfg(all(test, cpq_model))]
mod model_tests {
    use super::*;
    use cpq_check::thread;
    use cpq_check::{model, model_dfs, model_pct, DfsOptions, PctOptions};

    type Rt = SpecRuntime<2>;

    fn runtime(workers: usize) -> Arc<Rt> {
        Arc::new(SpecRuntime::new(
            workers,
            &QuerySpec::cross(1),
            crate::HeightStrategy::default(),
            None,
        ))
    }

    #[test]
    fn dfs_bound_is_monotone_and_reaches_the_min() {
        let report = model(|| {
            let rt = runtime(1);
            let tighteners: Vec<_> = [4.0f64, 1.0f64]
                .into_iter()
                .map(|d2| {
                    let rt = Arc::clone(&rt);
                    thread::spawn(move || rt.tighten(d2))
                })
                .collect();
            // A racing reader: two successive observations of the bound
            // must never move upward, whatever the CAS interleaving.
            let first = rt.bound_d2();
            let second = rt.bound_d2();
            assert!(second <= first, "bound widened: {first} -> {second}");
            for t in tighteners {
                t.join().expect("tightener");
            }
            assert_eq!(rt.bound_d2(), 1.0, "the bound settles at the minimum");
        });
        assert!(report.complete, "the DFS must exhaust the interleavings");
        assert!(report.schedules > 1, "explored {}", report.schedules);
    }

    #[test]
    fn dfs_claim_protocol_executes_each_pair_once() {
        // The same pair is enqueued twice (as happens when two parents
        // generate it); two racing workers pop and claim. Exactly one
        // claim may win per pair — a double execution would double-count
        // speculation and double-insert into the pair cache.
        //
        // Preemption-bounded (CHESS-style): the two workers' shard-lock
        // loops make the unbounded tree blow past the schedule cap.
        let report = model_dfs(DfsOptions::smoke(), || {
            let rt = runtime(2);
            rt.push_spec(Dist2::new(1.0), PageId(3), PageId(4));
            rt.push_spec(Dist2::new(1.0), PageId(3), PageId(4));
            let executed = Arc::new(Mutex::new(Vec::new()));
            let workers: Vec<_> = (0..2)
                .map(|w| {
                    let rt = Arc::clone(&rt);
                    let executed = Arc::clone(&executed);
                    thread::spawn(move || {
                        while let Some(req) = rt.pop_spec(w) {
                            let fresh = rt
                                .claimed
                                .lock()
                                .expect("claimed set poisoned")
                                .insert(pair_key(req.page_p, req.page_q));
                            if fresh {
                                executed
                                    .lock()
                                    .expect("model lock")
                                    .push(pair_key(req.page_p, req.page_q));
                            }
                        }
                    })
                })
                .collect();
            for w in workers {
                w.join().expect("worker");
            }
            let executed = executed.lock().expect("model lock");
            assert_eq!(
                executed.as_slice(),
                &[pair_key(3, 4)],
                "a pair queued twice executes exactly once"
            );
        });
        assert!(report.complete);
    }

    #[test]
    fn pct_steal_protocol_loses_no_request() {
        // Four requests round-robined across two shards, two workers
        // popping own-shard-first and stealing: across 200 seeded
        // schedules every request is executed exactly once, whichever
        // worker wins each race.
        let opts = PctOptions::from_env();
        let want = opts.seeds.end - opts.seeds.start;
        let n = model_pct(opts, || {
            let rt = runtime(2);
            for p in 0..4u32 {
                rt.push_spec(Dist2::new(1.0 + f64::from(p)), PageId(p), PageId(p + 10));
            }
            let executed = Arc::new(Mutex::new(Vec::new()));
            let workers: Vec<_> = (0..2)
                .map(|w| {
                    let rt = Arc::clone(&rt);
                    let executed = Arc::clone(&executed);
                    thread::spawn(move || {
                        while let Some(req) = rt.pop_spec(w) {
                            let fresh = rt
                                .claimed
                                .lock()
                                .expect("claimed set poisoned")
                                .insert(pair_key(req.page_p, req.page_q));
                            if fresh {
                                executed
                                    .lock()
                                    .expect("model lock")
                                    .push(pair_key(req.page_p, req.page_q));
                            }
                        }
                    })
                })
                .collect();
            for w in workers {
                w.join().expect("worker");
            }
            let mut executed = executed.lock().expect("model lock").clone();
            executed.sort_unstable();
            let expect: Vec<u64> = (0..4u32).map(|p| pair_key(p, p + 10)).collect();
            assert_eq!(executed, expect, "every request executed exactly once");
        });
        assert_eq!(n, want);
    }
}
