//! Edge cases of window clipping — the geometry the windowed scatter
//! planner leans on.
//!
//! The shard planner skips a shard whose MBR, clipped to the window, is
//! empty; these tests pin the awkward inputs of that contract: points
//! collinear on the window boundary (boundary inclusivity must agree
//! between `contains_point` and `intersection`), windows fully outside the
//! dataset MBR (clean empty intersections, never a panic or an inverted
//! rectangle), and duplicates sitting exactly on the window edge.

use cpq_geo::{Point, Point2, Rect, Rect2};
use cpq_rng::Rng;
use cpq_rtree::{RTree, RTreeParams, ValidateOptions};
use cpq_storage::{BufferPool, MemPageFile};

fn points(n: usize, seed: u64) -> Vec<Point2> {
    let mut rng = Rng::seed_from_u64(seed);
    (0..n)
        .map(|_| Point::new([rng.random_range(0.0..1000.0), rng.random_range(0.0..1000.0)]))
        .collect()
}

#[test]
fn window_outside_mbr_clips_to_nothing() {
    let pts = points(600, 41);
    let mbr = Rect::bounding(pts.iter().copied()).expect("non-empty input");
    // Disjoint on both axes, disjoint on one axis, and merely *touching*
    // the MBR corner (touching is not outside: a point can sit exactly on
    // the shared corner).
    let far = Rect2::from_corners([5_000.0, 5_000.0], [6_000.0, 6_000.0]);
    let beside = Rect2::from_corners([2_000.0, 0.0], [3_000.0, 1_000.0]);
    for w in [far, beside] {
        assert!(mbr.intersection(&w).is_none(), "window must miss the MBR");
    }
    let corner = mbr.hi();
    let touching = Rect::from_corners(
        *corner.coords(),
        [corner.coord(0) + 10.0, corner.coord(1) + 10.0],
    );
    let touch = mbr.intersection(&touching).expect("corner contact");
    assert_eq!(touch.area(), 0.0, "corner contact clips to a point");
}

#[test]
fn collinear_points_on_the_window_boundary_stay_inside() {
    // A vertical line of points at x = 500; the window's left edge sits
    // exactly on it. Boundary points are *in* (closed rectangles), so the
    // clip of the dataset MBR against the window must contain every point,
    // and a degenerate (zero-width) clipped rect must still behave.
    let pts: Vec<Point2> = (0..50)
        .map(|i| Point::new([500.0, i as f64 * 20.0]))
        .collect();
    let mbr = Rect::bounding(pts.iter().copied()).expect("mbr");
    assert_eq!(mbr.area(), 0.0, "collinear data has a zero-area MBR");
    let window = Rect2::from_corners([500.0, 0.0], [900.0, 2_000.0]);
    let clipped = mbr.intersection(&window).expect("edge contact intersects");
    assert_eq!(clipped.area(), 0.0);
    for p in &pts {
        assert!(window.contains_point(p), "boundary point {p:?} is inside");
        assert!(clipped.contains_point(p));
    }
    // One ulp to the left and the window no longer admits the line.
    let shifted = Rect2::from_corners(
        [f64::from_bits(500.0f64.to_bits() + 1), 0.0],
        [900.0, 2_000.0],
    );
    assert!(mbr.intersection(&shifted).is_none());
}

#[test]
fn tree_from_clipped_duplicates_validates_against_the_window() {
    // End to end through the R*-tree: insert only the points a window
    // admits (duplicates included), then validate the tree against the
    // window as a required bound. Exercises bulk structures + the
    // `ValidateOptions::bounds` invariant on ties sitting exactly on the
    // window edge.
    let window = Rect2::from_corners([200.0, 200.0], [600.0, 600.0]);
    let mut rng = Rng::seed_from_u64(43);
    let pool = BufferPool::with_lru(Box::new(MemPageFile::new(1024)), 0);
    let mut tree = RTree::<2>::new(pool, RTreeParams::paper()).unwrap();
    let mut kept = 0u64;
    for i in 0..400u64 {
        // Grid-snapped so many points land exactly on 200/600 edges.
        let p: Point2 = Point::new([
            (rng.random_range(0..11u32) as f64) * 100.0,
            (rng.random_range(0..11u32) as f64) * 100.0,
        ]);
        if window.contains_point(&p) {
            tree.insert(p, i).unwrap();
            kept += 1;
        }
    }
    assert!(
        kept > 20,
        "grid window should admit edge-sitting duplicates"
    );
    let report = tree
        .validate_with_options(ValidateOptions {
            unique_oids: true,
            bounds: Some(window),
        })
        .unwrap();
    assert!(report.is_valid(), "violations: {:?}", report.violations);
    assert_eq!(report.points, kept);
}
