//! Analytic cost model for 1-CP queries — the paper's future work (b):
//! *"the analytical study of CPQs, extending related work in spatial joins
//! \[23\] and nearest-neighbor queries \[17\]"*.
//!
//! The model predicts the zero-buffer disk accesses of a well-pruning
//! algorithm (STD/HEAP) for two insertion-built R-trees over (near-)uniform
//! data with intersecting workspaces, from *statistics only* — per-level
//! node counts and mean node extents ([`LevelStats`]) plus the workspace
//! geometry. No query is executed.
//!
//! Ingredients, in the spirit of Theodoridis–Stefanakis–Sellis:
//!
//! 1. **Threshold estimate.** For `N_P`, `N_Q` points uniform in the shared
//!    region of area `A`, the number of cross pairs within distance `r` is
//!    `≈ N_P·N_Q·πr²/A`; setting it to 1 gives the expected 1-CP distance
//!    `T ≈ sqrt(A/(π·N_P·N_Q))`.
//! 2. **Qualifying node pairs.** A node pair is explored iff its
//!    `MINMINDIST ≤ T`. Treating node centers as uniform in their
//!    workspaces, per dimension the probability that two intervals of mean
//!    extents `e_P`, `e_Q` come within `T` is the band probability
//!    `Pr[|c_P − c_Q| ≤ (e_P + e_Q)/2 + T]`, computed exactly by
//!    integrating the interval-overlap kernel (see [`prob_within`]).
//!    Dimensions multiply (uniformity).
//! 3. **Accesses.** Reading the two roots costs 2; every qualifying pair at
//!    level `l < root` costs two node reads when descended into. Summing
//!    over levels gives the estimate.
//!
//! The model is *descriptive*, not exact: R-tree node extents are treated
//! as independent of position, and the threshold ignores edge effects. The
//! test-suite holds it to within a factor of 4 of measured cost on uniform
//! workloads across overlaps and cardinalities — good enough to rank plans,
//! which is what a query optimizer needs.

use cpq_geo::Rect;
use cpq_rtree::LevelStats;

/// Probability that `|x − y| ≤ w` for independent `x ~ U[a_lo, a_hi]`,
/// `y ~ U[b_lo, b_hi]`.
///
/// Evaluated by midpoint-rule integration of the overlap kernel (256
/// points); exact closed forms exist but carry a dozen case splits.
pub fn prob_within(a_lo: f64, a_hi: f64, b_lo: f64, b_hi: f64, w: f64) -> f64 {
    debug_assert!(a_hi >= a_lo && b_hi >= b_lo && w >= 0.0);
    let a_len = a_hi - a_lo;
    let b_len = b_hi - b_lo;
    if b_len == 0.0 {
        // Degenerate: y is a constant.
        if a_len == 0.0 {
            return if (a_lo - b_lo).abs() <= w { 1.0 } else { 0.0 };
        }
        let lo = (b_lo - w).max(a_lo);
        let hi = (b_lo + w).min(a_hi);
        return ((hi - lo).max(0.0)) / a_len;
    }
    if a_len == 0.0 || a_len > b_len {
        // Integrate over the narrower interval; also makes the numeric
        // result exactly symmetric in the two arguments.
        return prob_within(b_lo, b_hi, a_lo, a_hi, w);
    }
    const STEPS: usize = 256;
    let dx = a_len / STEPS as f64;
    let mut acc = 0.0;
    for i in 0..STEPS {
        let x = a_lo + (i as f64 + 0.5) * dx;
        let lo = (x - w).max(b_lo);
        let hi = (x + w).min(b_hi);
        acc += (hi - lo).max(0.0);
    }
    (acc * dx) / (a_len * b_len)
}

/// Output of the cost model.
#[derive(Debug, Clone)]
pub struct CostEstimate {
    /// Estimated 1-CP distance (the final pruning threshold).
    pub threshold: f64,
    /// Estimated qualifying node pairs per level (leaves first).
    pub pairs_per_level: Vec<f64>,
    /// Estimated total disk accesses with zero buffer.
    pub disk_accesses: f64,
}

/// Predicts the zero-buffer disk accesses of a 1-CP query between two trees
/// described by their level statistics and workspaces.
///
/// Returns `None` when the workspaces are disjoint (the threshold model
/// needs a shared region) or either tree is empty.
pub fn estimate_1cp_cost<const D: usize>(
    stats_p: &[LevelStats<D>],
    workspace_p: &Rect<D>,
    n_p: u64,
    stats_q: &[LevelStats<D>],
    workspace_q: &Rect<D>,
    n_q: u64,
) -> Option<CostEstimate> {
    if stats_p.is_empty() || stats_q.is_empty() || n_p == 0 || n_q == 0 {
        return None;
    }
    let shared = workspace_p.intersection(workspace_q)?;
    let shared_area = shared.area();
    if shared_area <= 0.0 {
        return None;
    }

    // Points of each set expected to fall inside the shared region.
    let np_eff = n_p as f64 * shared_area / workspace_p.area().max(f64::MIN_POSITIVE);
    let nq_eff = n_q as f64 * shared_area / workspace_q.area().max(f64::MIN_POSITIVE);
    if np_eff < 1.0 || nq_eff < 1.0 {
        return None;
    }
    let threshold = (shared_area / (std::f64::consts::PI * np_eff * nq_eff)).sqrt();

    // Pair levels bottom-up (leaves with leaves); a taller tree's extra top
    // levels contribute a constant handful of accesses, absorbed in the +2.
    let levels = stats_p.len().min(stats_q.len());
    let mut pairs_per_level = Vec::with_capacity(levels);
    let mut accesses = 2.0; // the two roots

    // Node centers modeled uniform in the workspace shrunk by half the
    // node extent on each side. A workspace narrower than the extent (a
    // window-clipped workspace can be arbitrarily small) pins the center
    // at the midpoint instead of inverting the interval.
    let center_range = |lo: f64, hi: f64, extent: f64| {
        let (c_lo, c_hi) = (lo + extent / 2.0, hi - extent / 2.0);
        if c_lo <= c_hi {
            (c_lo, c_hi)
        } else {
            let mid = (lo + hi) / 2.0;
            (mid, mid)
        }
    };
    for l in 0..levels {
        let sp = &stats_p[l];
        let sq = &stats_q[l];
        let mut prob = 1.0;
        for d in 0..D {
            let w = (sp.avg_extent[d] + sq.avg_extent[d]) / 2.0 + threshold;
            let (p_lo, p_hi) = center_range(
                workspace_p.lo().coord(d),
                workspace_p.hi().coord(d),
                sp.avg_extent[d],
            );
            let (q_lo, q_hi) = center_range(
                workspace_q.lo().coord(d),
                workspace_q.hi().coord(d),
                sq.avg_extent[d],
            );
            prob *= prob_within(p_lo, p_hi, q_lo, q_hi, w);
        }
        let pairs = sp.nodes as f64 * sq.nodes as f64 * prob;
        pairs_per_level.push(pairs);
        // Every qualifying pair below the root costs two node reads, the
        // leaf pairs included; for height-1 trees only the roots are read.
        if l + 1 < levels {
            accesses += 2.0 * pairs;
        }
    }

    Some(CostEstimate {
        threshold,
        pairs_per_level,
        disk_accesses: accesses,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prob_within_basic_identities() {
        // Same unit intervals, w = 0: P(|x-y| <= 0) = 0 for continuous.
        assert!(prob_within(0.0, 1.0, 0.0, 1.0, 0.0) < 1e-9);
        // w covering everything -> 1.
        assert!((prob_within(0.0, 1.0, 0.0, 1.0, 5.0) - 1.0).abs() < 1e-9);
        // Classic: P(|U1 - U2| <= 1/2) = 3/4 for unit uniforms.
        let p = prob_within(0.0, 1.0, 0.0, 1.0, 0.5);
        assert!((p - 0.75).abs() < 1e-3, "got {p}");
        // Disjoint far intervals with small w -> 0.
        assert_eq!(prob_within(0.0, 1.0, 10.0, 11.0, 1.0), 0.0);
        // Symmetry.
        let a = prob_within(0.0, 2.0, 1.0, 4.0, 0.7);
        let b = prob_within(1.0, 4.0, 0.0, 2.0, 0.7);
        assert!((a - b).abs() < 1e-9);
    }

    #[test]
    fn prob_within_degenerate_intervals() {
        // Point vs interval.
        assert!((prob_within(0.5, 0.5, 0.0, 1.0, 0.25) - 0.5).abs() < 1e-9);
        // Point vs point.
        assert_eq!(prob_within(1.0, 1.0, 1.2, 1.2, 0.1), 0.0);
        assert_eq!(prob_within(1.0, 1.0, 1.05, 1.05, 0.1), 1.0);
    }

    #[test]
    fn estimate_requires_shared_workspace() {
        let stats: Vec<LevelStats<2>> = vec![LevelStats {
            level: 0,
            nodes: 10,
            avg_extent: [1.0, 1.0],
            avg_occupancy: 10.0,
        }];
        let wa = Rect::from_corners([0.0, 0.0], [10.0, 10.0]);
        let wb = Rect::from_corners([20.0, 0.0], [30.0, 10.0]);
        assert!(estimate_1cp_cost(&stats, &wa, 100, &stats, &wb, 100).is_none());
        assert!(estimate_1cp_cost(&stats, &wa, 100, &stats, &wa, 100).is_some());
        assert!(estimate_1cp_cost(&stats, &wa, 0, &stats, &wa, 100).is_none());
    }

    #[test]
    fn workspace_narrower_than_node_extent_does_not_invert() {
        // A window-clipped workspace can be smaller than a level's mean
        // node extent; the center interval must collapse to the midpoint
        // instead of inverting (regression: planner-clipped estimates).
        let stats: Vec<LevelStats<2>> = vec![
            LevelStats {
                level: 0,
                nodes: 40,
                avg_extent: [12.0, 12.0],
                avg_occupancy: 10.0,
            },
            LevelStats {
                level: 1,
                nodes: 4,
                avg_extent: [60.0, 60.0],
                avg_occupancy: 10.0,
            },
        ];
        // 20-wide clipped workspace < 60-wide level-1 extent.
        let w = Rect::from_corners([40.0, 40.0], [60.0, 60.0]);
        let est = estimate_1cp_cost(&stats, &w, 200, &stats, &w, 200).unwrap();
        assert!(est.disk_accesses.is_finite() && est.disk_accesses >= 2.0);
        for pairs in &est.pairs_per_level {
            assert!(pairs.is_finite() && *pairs >= 0.0, "pairs {pairs}");
        }
    }

    #[test]
    fn two_levels_count_the_leaf_pairs_once() {
        let level = |level: u8, nodes: u64, extent: f64| LevelStats {
            level,
            nodes,
            avg_extent: [extent, extent],
            avg_occupancy: 10.0,
        };
        let stats: Vec<LevelStats<2>> = vec![level(0, 10, 10.0), level(1, 1, 100.0)];
        let w = Rect::from_corners([0.0, 0.0], [100.0, 100.0]);
        let est = estimate_1cp_cost(&stats, &w, 100, &stats, &w, 100).unwrap();
        let pairs_0 = est.pairs_per_level[0];
        assert!(pairs_0 > 0.0);
        assert_eq!(est.disk_accesses, 2.0 + 2.0 * pairs_0);
    }

    #[test]
    fn threshold_shrinks_with_cardinality() {
        let stats: Vec<LevelStats<2>> = vec![LevelStats {
            level: 0,
            nodes: 10,
            avg_extent: [1.0, 1.0],
            avg_occupancy: 10.0,
        }];
        let w = Rect::from_corners([0.0, 0.0], [100.0, 100.0]);
        let small = estimate_1cp_cost(&stats, &w, 1_000, &stats, &w, 1_000).unwrap();
        let large = estimate_1cp_cost(&stats, &w, 100_000, &stats, &w, 100_000).unwrap();
        assert!(large.threshold < small.threshold);
    }
}
