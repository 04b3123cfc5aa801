//! Geometry kernel for closest-pair query processing.
//!
//! This crate implements the geometric primitives and, crucially, the
//! MBR-to-MBR distance metrics defined in Section 2.3 of
//! *Corral, Manolopoulos, Theodoridis, Vassilakopoulos: "Closest Pair Queries
//! in Spatial Databases", SIGMOD 2000*:
//!
//! * [`min_min_dist2`] — `MINMINDIST(M_P, M_Q)`: the smallest possible
//!   distance between a point in `M_P` and a point in `M_Q` (0 when the
//!   rectangles intersect). Lower bound for every contained point pair
//!   (left side of the paper's Inequality 1).
//! * [`max_max_dist2`] — `MAXMAXDIST(M_P, M_Q)`: the largest possible
//!   distance between contained points (right side of Inequality 1).
//! * [`min_max_dist2`] — `MINMAXDIST(M_P, M_Q)`: an upper bound on the
//!   distance of *at least one* contained point pair (Inequality 2), derived
//!   from the MBR property that every face of a minimum bounding rectangle
//!   touches at least one data point.
//!
//! All comparison-oriented metrics are returned **squared** (suffix `2`):
//! squaring is monotone for the Euclidean metric, so every pruning comparison
//! in the query algorithms is valid on squared values and the `sqrt` is paid
//! only when a distance is reported to the user.
//!
//! [`Point`] is the one object type every layer indexes (the paper joins
//! two point sets); [`Rect`] is an MBR or a query window, never a stored
//! object.
//!
//! Everything is generic over the dimension `D` (const generic); the paper
//! focuses on 2-d data and notes the k-dimensional extension is
//! straightforward — here it genuinely is, and the test-suite exercises
//! `D ∈ {2, 3, 4}`.

mod color;
mod dist;
mod metrics;
mod point;
mod rect;

pub use color::{base_oid, color_of, pack_color, COLOR_BITS};
pub use dist::Dist2;
pub use metrics::{
    axis_gap, max_dist2, max_max_dist2, min_max_dist2, min_min_dist2, min_min_dist2_within,
    pt_dist2, pt_dist2_within,
};
pub use point::Point;
pub use rect::Rect;

/// Convenient alias for the 2-dimensional point used throughout the paper.
pub type Point2 = Point<2>;
/// Convenient alias for the 2-dimensional rectangle (MBR).
pub type Rect2 = Rect<2>;
