//! The per-query instrumentation hook the engine threads through its entry
//! points.
//!
//! The contract is *zero overhead when off*: [`NullProbe`]'s methods are
//! empty `#[inline]` bodies and its `ENABLED` flag is `false`, so the
//! monomorphized uninstrumented engine contains no probe code at all — no
//! timestamp reads, no branches, identical results and work counters.
//! `cpq-core`'s `probe_overhead` test pins this down bit-for-bit.

use crate::profile::QueryProfile;

/// Which side of the query a tree event belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeSide {
    /// The `P` tree (also the self-join tree).
    P,
    /// The `Q` tree.
    Q,
}

/// Summary of one intra-query parallel execution, reported once per run by
/// the parallel executor's teardown (see `cpq-core`'s `parallel` module).
///
/// All counters describe *speculative* work — prefetch/precompute tasks the
/// worker threads performed alongside the deterministic sequential driver —
/// so none of them affect results or the paper's work counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ParallelReport {
    /// Worker threads that ran (total threads minus the driver).
    pub workers: u64,
    /// Speculative tasks executed across all workers.
    pub tasks: u64,
    /// Driver-side consultations answered from the speculation caches.
    pub cache_hits: u64,
    /// Tasks a worker popped from another worker's queue shard.
    pub steals: u64,
    /// Steal attempts that found every foreign shard empty.
    pub steal_misses: u64,
    /// Successful CAS-tightenings of the shared global bound.
    pub bound_updates: u64,
    /// Per-worker time spent executing tasks, nanoseconds.
    pub worker_busy_ns: Vec<u64>,
}

/// Per-query instrumentation callbacks.
///
/// Methods default to empty bodies so implementations override only what
/// they record. `ENABLED` gates the *caller-side* cost: the engine wraps
/// timestamp reads (`Instant::now`) in `if P::ENABLED` blocks, which the
/// compiler removes entirely for [`NullProbe`].
pub trait Probe {
    /// `false` only for [`NullProbe`]: lets call sites skip work (clocks,
    /// deltas) that would be observable overhead even with empty callbacks.
    const ENABLED: bool = true;

    /// One node was read on `side` at tree `level` (0 = leaf).
    #[inline]
    fn node_access(&mut self, side: ProbeSide, level: u8) {
        let _ = (side, level);
    }

    /// One leaf-pair scan finished: `dist_computations` kernel calls, of
    /// which `kernel_early_outs` bailed out on the threshold;
    /// `sweep_pairs_skipped` pairs were never visited thanks to the
    /// plane-sweep axis-gap break; the scan took `elapsed_ns`.
    #[inline]
    fn leaf_scan(
        &mut self,
        dist_computations: u64,
        kernel_early_outs: u64,
        sweep_pairs_skipped: u64,
        elapsed_ns: u64,
    ) {
        let _ = (
            dist_computations,
            kernel_early_outs,
            sweep_pairs_skipped,
            elapsed_ns,
        );
    }

    /// One candidate-generation pass (`gen_cands`) took `elapsed_ns`.
    #[inline]
    fn gen_phase(&mut self, elapsed_ns: u64) {
        let _ = elapsed_ns;
    }

    /// The parallel executor finished: speculation counters and per-worker
    /// phase timings for this run. Never called by sequential runs.
    #[inline]
    fn parallel_exec(&mut self, report: &ParallelReport) {
        let _ = report;
    }
}

/// A borrowed probe is a probe, so a caller can lend one to a run and read
/// what it accumulated afterwards.
impl<P: Probe> Probe for &mut P {
    const ENABLED: bool = P::ENABLED;

    #[inline]
    fn node_access(&mut self, side: ProbeSide, level: u8) {
        (**self).node_access(side, level);
    }

    #[inline]
    fn leaf_scan(
        &mut self,
        dist_computations: u64,
        kernel_early_outs: u64,
        sweep_pairs_skipped: u64,
        elapsed_ns: u64,
    ) {
        (**self).leaf_scan(
            dist_computations,
            kernel_early_outs,
            sweep_pairs_skipped,
            elapsed_ns,
        );
    }

    #[inline]
    fn gen_phase(&mut self, elapsed_ns: u64) {
        (**self).gen_phase(elapsed_ns);
    }

    #[inline]
    fn parallel_exec(&mut self, report: &ParallelReport) {
        (**self).parallel_exec(report);
    }
}

/// The no-op probe: the uninstrumented path.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullProbe;

impl Probe for NullProbe {
    const ENABLED: bool = false;
}

/// A probe accumulating a [`QueryProfile`].
///
/// Engine-observable fields (node accesses per level, kernel counters,
/// phase timings) are filled by the callbacks; the serving layer completes
/// the profile with identity, status, buffer deltas, and queue/exec
/// timings after the run.
#[derive(Debug, Clone, Default)]
pub struct ProfileProbe {
    /// The profile under construction.
    pub profile: QueryProfile,
}

impl ProfileProbe {
    /// Creates a probe with an empty profile.
    pub fn new() -> Self {
        Self::default()
    }

    /// Consumes the probe, returning the accumulated profile.
    pub fn into_profile(self) -> QueryProfile {
        self.profile
    }
}

fn bump_level(v: &mut Vec<u64>, level: u8) {
    let idx = level as usize;
    if v.len() <= idx {
        v.resize(idx + 1, 0);
    }
    v[idx] += 1;
}

impl Probe for ProfileProbe {
    #[inline]
    fn node_access(&mut self, side: ProbeSide, level: u8) {
        match side {
            ProbeSide::P => bump_level(&mut self.profile.node_accesses_p, level),
            ProbeSide::Q => bump_level(&mut self.profile.node_accesses_q, level),
        }
    }

    #[inline]
    fn leaf_scan(
        &mut self,
        dist_computations: u64,
        kernel_early_outs: u64,
        sweep_pairs_skipped: u64,
        elapsed_ns: u64,
    ) {
        self.profile.dist_computations += dist_computations;
        self.profile.kernel_early_outs += kernel_early_outs;
        self.profile.sweep_pairs_skipped += sweep_pairs_skipped;
        self.profile.scan_ns += elapsed_ns;
    }

    #[inline]
    fn gen_phase(&mut self, elapsed_ns: u64) {
        self.profile.gen_ns += elapsed_ns;
    }

    #[inline]
    fn parallel_exec(&mut self, report: &ParallelReport) {
        self.profile.parallel_workers = report.workers;
        self.profile.parallel_tasks = report.tasks;
        self.profile.parallel_cache_hits = report.cache_hits;
        self.profile.parallel_steals = report.steals;
        self.profile.parallel_steal_misses = report.steal_misses;
        self.profile.parallel_bound_updates = report.bound_updates;
        self.profile.worker_busy_ns = report.worker_busy_ns.clone();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn null_probe_is_disabled() {
        assert!(!NullProbe::ENABLED);
        // And its callbacks are callable no-ops.
        let mut p = NullProbe;
        p.node_access(ProbeSide::P, 3);
        p.leaf_scan(1, 2, 3, 4);
        p.gen_phase(5);
    }

    #[test]
    fn profile_probe_accumulates() {
        let mut p = ProfileProbe::new();
        p.node_access(ProbeSide::P, 2);
        p.node_access(ProbeSide::P, 0);
        p.node_access(ProbeSide::P, 0);
        p.node_access(ProbeSide::Q, 1);
        p.leaf_scan(10, 2, 40, 100);
        p.leaf_scan(5, 1, 0, 50);
        p.gen_phase(7);
        p.parallel_exec(&ParallelReport {
            workers: 3,
            tasks: 17,
            cache_hits: 9,
            steals: 4,
            steal_misses: 2,
            bound_updates: 6,
            worker_busy_ns: vec![100, 200, 300],
        });
        let prof = p.into_profile();
        assert_eq!(prof.node_accesses_p, vec![2, 0, 1]);
        assert_eq!(prof.node_accesses_q, vec![0, 1]);
        assert_eq!(prof.dist_computations, 15);
        assert_eq!(prof.kernel_early_outs, 3);
        assert_eq!(prof.sweep_pairs_skipped, 40);
        assert_eq!(prof.scan_ns, 150);
        assert_eq!(prof.gen_ns, 7);
        assert_eq!(prof.node_accesses(), 4);
        assert_eq!(prof.parallel_workers, 3);
        assert_eq!(prof.parallel_tasks, 17);
        assert_eq!(prof.parallel_cache_hits, 9);
        assert_eq!(prof.parallel_steals, 4);
        assert_eq!(prof.parallel_steal_misses, 2);
        assert_eq!(prof.parallel_bound_updates, 6);
        assert_eq!(prof.worker_busy_ns, vec![100, 200, 300]);
    }
}
