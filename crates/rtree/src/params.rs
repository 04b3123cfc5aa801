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

/// R-tree shape parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RTreeParams {
    /// Maximum entries per node, `M`.
    pub max_entries: usize,
    /// Minimum entries per node (except the root), `m`.
    pub min_entries: usize,
    /// Entries removed by forced reinsertion on overflow, `p`
    /// (Beckmann et al. recommend 30 % of `M`). Ignored by the Guttman
    /// variants, which never reinsert.
    pub reinsert_count: usize,
    /// Insertion/split heuristics: R* (the paper's choice) or a Guttman
    /// variant.
    pub split_policy: SplitPolicy,
}

impl RTreeParams {
    /// The paper's experimental configuration: 1 KiB pages give `M = 21`,
    /// `m = M/3 = 7` ("a reasonable choice according to \[1\]"), `p = 30 % · M`.
    pub fn paper() -> Self {
        RTreeParams {
            max_entries: 21,
            min_entries: 7,
            reinsert_count: 6,
            split_policy: SplitPolicy::RStar,
        }
    }

    /// Parameters with a given `M` and the paper's ratios `m = M/3`,
    /// `p = 30 % · M` (at least 1 each).
    pub fn with_max_entries(max_entries: usize) -> Self {
        RTreeParams {
            max_entries,
            min_entries: (max_entries / 3).max(1),
            reinsert_count: (max_entries * 3 / 10).max(1),
            split_policy: SplitPolicy::default(),
        }
    }

    /// Largest `M` such that both a leaf and an inner node with `M` entries
    /// fit a page of `page_size` bytes in `d` dimensions, with the paper's
    /// ratios for `m` and `p`.
    pub fn for_page_size(page_size: usize, d: usize) -> Self {
        let per_entry = leaf_entry_size(d).max(inner_entry_size(d));
        let m = (page_size.saturating_sub(NODE_HEADER_LEN)) / per_entry;
        Self::with_max_entries(m.max(2))
    }

    /// Checks internal consistency and that `M` entries fit `page_size`.
    pub fn validate(&self, page_size: usize, d: usize) -> RTreeResult<()> {
        if self.max_entries < 2 {
            return Err(RTreeError::InvalidParams("M must be at least 2".into()));
        }
        if self.min_entries < 1 || self.min_entries * 2 > self.max_entries {
            return Err(RTreeError::InvalidParams(format!(
                "m = {} must satisfy 1 <= m <= M/2 = {}",
                self.min_entries,
                self.max_entries / 2
            )));
        }
        if self.reinsert_count == 0 || self.reinsert_count > self.max_entries - self.min_entries {
            return Err(RTreeError::InvalidParams(format!(
                "p = {} must satisfy 1 <= p <= M - m = {}",
                self.reinsert_count,
                self.max_entries - self.min_entries
            )));
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
        assert_eq!(p.min_entries, 7);
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
        assert!(RTreeParams {
            max_entries: 1,
            min_entries: 1,
            reinsert_count: 1,
            split_policy: SplitPolicy::RStar
        }
        .validate(1024, 2)
        .is_err());
        assert!(RTreeParams {
            max_entries: 10,
            min_entries: 6,
            reinsert_count: 3,
            split_policy: SplitPolicy::RStar
        }
        .validate(1024, 2)
        .is_err());
        assert!(RTreeParams {
            max_entries: 10,
            min_entries: 3,
            reinsert_count: 0,
            split_policy: SplitPolicy::RStar
        }
        .validate(1024, 2)
        .is_err());
        assert!(RTreeParams {
            max_entries: 10,
            min_entries: 3,
            reinsert_count: 8,
            split_policy: SplitPolicy::RStar
        }
        .validate(1024, 2)
        .is_err());
        // Page too small.
        assert!(RTreeParams::paper().validate(128, 2).is_err());
    }
}
