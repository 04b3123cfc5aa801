//! Tree parameters.

use crate::codec::{inner_entry_size, leaf_entry_size, NODE_HEADER_LEN};
use crate::error::{RTreeError, RTreeResult};

/// Which member of the R-tree family the tree behaves as.
///
/// The paper (Section 2.2) runs on R*-trees, "considered the most efficient
/// variant of the R-tree family"; the classic Guttman variants are provided
/// so that claim is testable — all variants share the same on-page layout
/// and search code, differing only in insertion heuristics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SplitPolicy {
    /// Beckmann et al. 1990: overlap-minimizing `ChooseSubtree` at the leaf
    /// level, forced reinsertion, margin-driven split.
    #[default]
    RStar,
    /// Guttman 1984 quadratic: dead-area seed picking, greedy distribution.
    /// No forced reinsertion; `ChooseSubtree` by least enlargement.
    GuttmanQuadratic,
    /// Guttman 1984 linear: normalized-separation seed picking, arbitrary
    /// distribution. No forced reinsertion.
    GuttmanLinear,
}

impl SplitPolicy {
    /// All variants, for ablation sweeps.
    pub const ALL: [SplitPolicy; 3] = [
        SplitPolicy::RStar,
        SplitPolicy::GuttmanQuadratic,
        SplitPolicy::GuttmanLinear,
    ];

    /// Short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            SplitPolicy::RStar => "rstar",
            SplitPolicy::GuttmanQuadratic => "quadratic",
            SplitPolicy::GuttmanLinear => "linear",
        }
    }
}

/// R-tree shape parameters: `M` and the insertion heuristics. The paper
/// fixes the rest as ratios of `M` (Section 4, after Beckmann et al.):
/// [`min_entries`](Self::min_entries) `m = M/3` and
/// [`reinsert_count`](Self::reinsert_count) `p = 30 % · M`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RTreeParams {
    /// Maximum entries per node, `M`.
    pub max_entries: usize,
    /// Insertion/split heuristics: R* (the paper's choice) or a Guttman
    /// variant.
    pub split_policy: SplitPolicy,
}

impl RTreeParams {
    /// The paper's experimental configuration: 1 KiB pages give `M = 21`,
    /// hence `m = 7` ("a reasonable choice according to \[1\]") and `p = 6`.
    pub fn paper() -> Self {
        Self::with_max_entries(21)
    }

    /// R* parameters with a given `M`.
    pub fn with_max_entries(max_entries: usize) -> Self {
        RTreeParams {
            max_entries,
            split_policy: SplitPolicy::default(),
        }
    }

    /// Minimum entries per node (except the root), `m = M/3`, at least 1.
    #[inline]
    pub fn min_entries(&self) -> usize {
        (self.max_entries / 3).max(1)
    }

    /// Entries removed by forced reinsertion on overflow, `p = 30 % · M`,
    /// at least 1. Unused by the Guttman variants, which never reinsert.
    #[inline]
    pub fn reinsert_count(&self) -> usize {
        (self.max_entries * 3 / 10).max(1)
    }

    /// Largest `M` such that both a leaf and an inner node with `M` entries
    /// fit a page of `page_size` bytes in `d` dimensions.
    pub fn for_page_size(page_size: usize, d: usize) -> Self {
        let per_entry = leaf_entry_size(d).max(inner_entry_size(d));
        let m = (page_size.saturating_sub(NODE_HEADER_LEN)) / per_entry;
        Self::with_max_entries(m.max(2))
    }

    /// Checks that `M >= 2` (so `1 <= m <= M/2` and `1 <= p <= M - m`) and
    /// that `M` entries fit `page_size`.
    pub fn validate(&self, page_size: usize, d: usize) -> RTreeResult<()> {
        if self.max_entries < 2 {
            return Err(RTreeError::InvalidParams("M must be at least 2".into()));
        }
        let per_entry = leaf_entry_size(d).max(inner_entry_size(d));
        let needed = NODE_HEADER_LEN + self.max_entries * per_entry;
        if needed > page_size {
            return Err(RTreeError::InvalidParams(format!(
                "M = {} needs {needed} bytes per page, page size is {page_size}",
                self.max_entries
            )));
        }
        Ok(())
    }
}

impl Default for RTreeParams {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_params_fit_1k_pages() {
        let p = RTreeParams::paper();
        assert_eq!(p.max_entries, 21);
        assert_eq!((p.min_entries(), p.reinsert_count()), (7, 6));
        p.validate(1024, 2).unwrap();
    }

    #[test]
    fn derived_params_fit_their_page() {
        for (ps, d) in [(512, 2), (1024, 2), (4096, 2), (1024, 3), (8192, 4)] {
            let p = RTreeParams::for_page_size(ps, d);
            p.validate(ps, d)
                .unwrap_or_else(|e| panic!("page {ps} d {d}: {e}"));
            // Maximality: M+1 must not fit.
            let bigger = RTreeParams::with_max_entries(p.max_entries + 1);
            assert!(
                bigger.validate(ps, d).is_err(),
                "page {ps} d {d} not maximal"
            );
        }
    }

    #[test]
    fn invalid_params_rejected() {
        assert!(RTreeParams::with_max_entries(1).validate(1024, 2).is_err());
        // Page too small.
        assert!(RTreeParams::paper().validate(128, 2).is_err());
    }
}
