//! Configuration knobs for the closest-pair algorithms.

use crate::sorting::SortAlgorithm;
use crate::ties::TieStrategy;

/// How two R-trees of different heights are traversed together
/// (Section 3.7 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HeightStrategy {
    /// Descend both trees in lockstep; once the shorter tree reaches its
    /// leaves, keep descending only the taller tree. The "classic" spatial
    /// join treatment.
    FixAtLeaves,
    /// Descend only the taller tree until both subtrees sit at the same
    /// level, then descend in lockstep. The paper's novel proposal, found
    /// to be 10–40 % faster for SIM/HEAP (Section 4.2).
    #[default]
    FixAtRoot,
}

impl HeightStrategy {
    /// Short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            HeightStrategy::FixAtLeaves => "fix-at-leaves",
            HeightStrategy::FixAtRoot => "fix-at-root",
        }
    }
}

/// How the pruning threshold `T` is bounded for `K > 1`
/// (Section 3.8 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KPruning {
    /// `T` is the K-heap top distance once the heap fills (the simple
    /// modification of Section 3.8).
    KHeapOnly,
    /// Additionally bound `T` by the smallest `MAXMAXDIST` value `x` such
    /// that the candidate subtree pairs within `x` are guaranteed to contain
    /// at least `K` point pairs (using subtree cardinalities). This is the
    /// "alternative, although more complicated, modification" the paper's
    /// implementation uses.
    #[default]
    MaxMaxDist,
}

impl KPruning {
    /// Short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            KPruning::KHeapOnly => "kheap-only",
            KPruning::MaxMaxDist => "maxmaxdist",
        }
    }
}

/// How a pair of leaf nodes is scanned for closest point pairs (step CP3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LeafScan {
    /// Compute all `|P| × |Q|` distances — CP3 exactly as the paper states
    /// it, as a vectorized threshold-first kernel. The default: it measures
    /// faster than the sweep (DESIGN.md §18).
    #[default]
    BruteForce,
    /// Distance-based plane sweep: sort both leaves' entries along the axis
    /// with the largest combined extent and stop each inner scan as soon as
    /// the separation along that axis alone exceeds the live pruning
    /// threshold `T`. Identical results (the K-heap tie order is canonical),
    /// far fewer distance computations — and more wall time, because the
    /// sort and the pair-at-a-time kernel cost more than the computations
    /// they save.
    PlaneSweep,
}

impl LeafScan {
    /// Short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            LeafScan::BruteForce => "brute-force",
            LeafScan::PlaneSweep => "plane-sweep",
        }
    }
}

/// Full configuration of a closest-pair query run.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpqConfig {
    /// Tie-break strategy among equal-MINMINDIST candidates (STD and HEAP).
    /// The paper's winner, T1, is **not** the default here — [`TieStrategy::None`]
    /// is — so that experiments opt in explicitly; the harness uses T1.
    pub tie: TieStrategy,
    /// Treatment of trees with different heights.
    pub height: HeightStrategy,
    /// K-pruning bound for `K > 1`.
    pub k_pruning: KPruning,
    /// Sorting algorithm used by STD to order candidates (and by the
    /// plane-sweep leaf scan to order leaf entries).
    pub sort: SortAlgorithm,
    /// Leaf/leaf scanning strategy for step CP3.
    pub leaf_scan: LeafScan,
    /// Total thread count for intra-query parallel execution: `0` or `1`
    /// runs the classic sequential engine; `n > 1` runs the sequential
    /// driver plus `n - 1` speculative workers that prefetch and precompute
    /// node pairs against a shared global bound (see the `parallel` module).
    /// Results are bit-identical to sequential for any value.
    pub parallelism: usize,
    /// When set, speculative workers inject `thread::yield_now()` calls at
    /// scheduling points, driven by a deterministic per-worker RNG derived
    /// from this seed — a stress-testing knob that shakes out interleaving
    /// bugs (steal races, empty-queue shutdown, cancel-during-steal) without
    /// affecting results. `None` (the default) injects nothing.
    pub parallel_yield_seed: Option<u64>,
}

impl CpqConfig {
    /// The configuration the paper's main experiments use: T1 ties,
    /// fix-at-root heights, MAXMAXDIST K-pruning, merge sort, and CP3 as
    /// written (brute-force leaf scanning), so CPU-side counters stay
    /// comparable with the paper's.
    pub fn paper() -> Self {
        CpqConfig {
            tie: TieStrategy::T1,
            height: HeightStrategy::FixAtRoot,
            k_pruning: KPruning::MaxMaxDist,
            sort: SortAlgorithm::Merge,
            leaf_scan: LeafScan::BruteForce,
            parallelism: 0,
            parallel_yield_seed: None,
        }
    }

    /// This configuration with intra-query parallelism set to `threads`
    /// total threads (builder-style convenience for benchmarks and tests).
    pub fn with_parallelism(mut self, threads: usize) -> Self {
        self.parallelism = threads;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_and_paper_config() {
        let d = CpqConfig::default();
        assert_eq!(d.tie, TieStrategy::None);
        assert_eq!(d.height, HeightStrategy::FixAtRoot);
        assert_eq!(d.leaf_scan, LeafScan::BruteForce);
        let p = CpqConfig::paper();
        assert_eq!(p.tie, TieStrategy::T1);
        assert_eq!(p.k_pruning, KPruning::MaxMaxDist);
    }
}
