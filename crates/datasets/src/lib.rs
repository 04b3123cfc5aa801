//! Synthetic spatial dataset generators for the experiments.
//!
//! Three kinds of data appear in the paper's evaluation (Section 4):
//!
//! * **uniform ("random") sets** of 20 K–80 K points — [`uniform`];
//! * the **real Sequoia 2000 data** — 62,536 points representing sites in
//!   California. That data set is not redistributable here, so
//!   [`california_surrogate`] generates a deterministic *clustered*
//!   surrogate with the property the paper's conclusions rely on: strong
//!   spatial skew, so that node MBRs of the "real" tree rarely overlap node
//!   MBRs of a uniform tree even when the workspaces fully overlap
//!   (Section 4.3.2 explains the 2–20× speedups through exactly this
//!   effect);
//! * **workspace overlap control** — the paper varies the "portion of
//!   overlapping" between the two data sets' workspaces from 0 % to 100 %.
//!   [`Dataset::with_overlap`] reproduces this by translating a unit-square
//!   workspace horizontally so that the two workspaces share exactly the
//!   requested fraction of their extent.
//!
//! All generators are seeded and fully deterministic.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod clustered;
mod rects;
mod uniform;

pub use clustered::{california_surrogate, clustered, ClusterSpec, CALIFORNIA_SURROGATE_SIZE};
pub use rects::uniform_rects;
pub use uniform::{uniform, uniform_grid};

use cpq_geo::{Point2, Rect2};

/// A generated point set together with its workspace rectangle.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// The points.
    pub points: Vec<Point2>,
    /// The workspace all points lie in.
    pub workspace: Rect2,
    /// Human-readable name (used in experiment output).
    pub name: String,
}

impl Dataset {
    /// Creates a dataset, computing the workspace as the given rectangle.
    pub fn new(name: impl Into<String>, points: Vec<Point2>, workspace: Rect2) -> Self {
        let ds = Dataset {
            points,
            workspace,
            name: name.into(),
        };
        debug_assert!(
            ds.points.iter().all(|p| ds.workspace.contains_point(p)),
            "points must lie inside the workspace"
        );
        ds
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// `true` when the dataset holds no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Returns a copy of this dataset translated so that its workspace
    /// overlaps `other`'s workspace by exactly `fraction` of the extent
    /// along the x axis (`0.0` = disjoint but touching, `1.0` = identical
    /// placement), following the paper's "portion of overlapping" parameter.
    ///
    /// Both workspaces are assumed to have the same extent (the generators
    /// here all use the unit square scaled by [`WORKSPACE_SIDE`]).
    pub fn with_overlap(&self, other: &Dataset, fraction: f64) -> Dataset {
        assert!((0.0..=1.0).contains(&fraction), "overlap must be in [0, 1]");
        let width = self.workspace.extent(0);
        // Place self's workspace so its left edge sits at
        // other.left + (1 - fraction) * width.
        let target_left = other.workspace.lo().coord(0) + (1.0 - fraction) * width;
        let dx = target_left - self.workspace.lo().coord(0);
        let dy = other.workspace.lo().coord(1) - self.workspace.lo().coord(1);
        let delta = [dx, dy];
        Dataset {
            points: self.points.iter().map(|p| p.translated(&delta)).collect(),
            workspace: self.workspace.translated(&delta),
            name: format!("{}@{:.0}%", self.name, fraction * 100.0),
        }
    }

    /// Pairs `(point, oid)` ready for tree building; oids are the indexes.
    pub fn indexed(&self) -> Vec<(Point2, u64)> {
        self.points
            .iter()
            .enumerate()
            .map(|(i, &p)| (p, i as u64))
            .collect()
    }
}

/// Side length of every generated workspace. The absolute scale is
/// irrelevant to the algorithms (all metrics are relative); a non-unit value
/// exercises coordinate arithmetic beyond `[0, 1]`.
pub const WORKSPACE_SIDE: f64 = 1000.0;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overlap_translation_is_exact() {
        let a = uniform(1000, 1);
        let b = uniform(1000, 2);
        for f in [0.0, 0.25, 0.5, 1.0] {
            let b2 = b.with_overlap(&a, f);
            let inter = a.workspace.intersection_area(&b2.workspace);
            let expect = f * WORKSPACE_SIDE * WORKSPACE_SIDE;
            assert!(
                (inter - expect).abs() < 1e-6,
                "overlap {f}: got {inter}, expected {expect}"
            );
            // Every translated point stays in the translated workspace.
            for p in &b2.points {
                assert!(b2.workspace.contains_point(p));
            }
        }
    }

    #[test]
    fn zero_overlap_means_touching_workspaces() {
        let a = uniform(100, 1);
        let b = uniform(100, 2).with_overlap(&a, 0.0);
        assert_eq!(
            b.workspace.lo().coord(0),
            a.workspace.hi().coord(0),
            "0% overlap: workspaces adjacent"
        );
    }

    #[test]
    fn full_overlap_means_identical_workspace() {
        let a = uniform(100, 1);
        let b = uniform(100, 2).with_overlap(&a, 1.0);
        assert_eq!(b.workspace, a.workspace);
    }

    #[test]
    fn indexed_assigns_sequential_oids() {
        let a = uniform(10, 3);
        let idx = a.indexed();
        assert_eq!(idx.len(), 10);
        assert_eq!(idx[7].1, 7);
    }
}
