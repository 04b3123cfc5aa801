//! The R*-tree split algorithm (Beckmann et al. 1990, Section 4.2).
//!
//! `ChooseSplitAxis` picks the axis minimizing the summed margins of all
//! candidate distributions (over both lower- and upper-corner sortings);
//! `ChooseSplitIndex` then picks the distribution on that axis with minimum
//! overlap between the two groups, breaking ties by minimum combined area.

use cpq_geo::Rect;

/// Anything with an MBR can be split: leaf entries (degenerate point MBRs)
/// and inner entries alike.
pub(crate) trait SplitItem<const D: usize>: Clone {
    /// The item's minimum bounding rectangle.
    fn mbr(&self) -> Rect<D>;
}

impl<const D: usize> SplitItem<D> for crate::entry::LeafEntry<D> {
    fn mbr(&self) -> Rect<D> {
        self.object.mbr()
    }
}

impl<const D: usize> SplitItem<D> for crate::entry::InnerEntry<D> {
    fn mbr(&self) -> Rect<D> {
        self.mbr
    }
}

/// Bounding box of a slice of items (caller guarantees non-empty).
fn bbox<const D: usize, T: SplitItem<D>>(items: &[T]) -> Rect<D> {
    let mut it = items.iter();
    #[expect(clippy::expect_used, reason = "callers never pass an empty slice")]
    let first = it.next().expect("bbox of empty slice").mbr();
    it.fold(first, |acc, e| acc.union(&e.mbr()))
}

/// Sum of margins of every legal distribution of `sorted` into a prefix and
/// a suffix group with at least `min` items each.
fn margin_sum<const D: usize, T: SplitItem<D>>(sorted: &[T], min: usize) -> f64 {
    let n = sorted.len();
    let mut total = 0.0;
    for k in min..=(n - min) {
        total += bbox(&sorted[..k]).margin() + bbox(&sorted[k..]).margin();
    }
    total
}

/// Splits `items` (typically `M + 1` entries of an overflowing node) into two
/// groups per the R* heuristics. Both groups contain at least `min` items.
///
/// # Panics
/// Panics if `items.len() < 2 * min`.
pub(crate) fn rstar_split<const D: usize, T: SplitItem<D>>(
    items: Vec<T>,
    min: usize,
) -> (Vec<T>, Vec<T>) {
    let n = items.len();
    assert!(
        n >= 2 * min,
        "cannot split {n} items with minimum group size {min}"
    );

    // ChooseSplitAxis: for every axis consider items sorted by lower corner
    // and by upper corner; pick the axis with the smallest total margin.
    let mut best_axis = 0;
    let mut best_axis_margin = f64::INFINITY;
    let mut best_sortings: Option<[Vec<T>; 2]> = None;
    for axis in 0..D {
        let mut by_lo = items.clone();
        by_lo.sort_by(|a, b| {
            a.mbr()
                .lo()
                .coord(axis)
                .total_cmp(&b.mbr().lo().coord(axis))
                .then(
                    a.mbr()
                        .hi()
                        .coord(axis)
                        .total_cmp(&b.mbr().hi().coord(axis)),
                )
        });
        let mut by_hi = items.clone();
        by_hi.sort_by(|a, b| {
            a.mbr()
                .hi()
                .coord(axis)
                .total_cmp(&b.mbr().hi().coord(axis))
                .then(
                    a.mbr()
                        .lo()
                        .coord(axis)
                        .total_cmp(&b.mbr().lo().coord(axis)),
                )
        });
        let margin = margin_sum(&by_lo, min) + margin_sum(&by_hi, min);
        if margin < best_axis_margin {
            best_axis_margin = margin;
            best_axis = axis;
            best_sortings = Some([by_lo, by_hi]);
        }
    }
    let _ = best_axis; // retained for debugging clarity
    #[expect(clippy::expect_used, reason = "D >= 1, so the axis loop chose one")]
    let sortings = best_sortings.expect("D >= 1");

    // ChooseSplitIndex: minimum overlap, ties by minimum combined area,
    // across both sortings of the chosen axis.
    let mut best: Option<(f64, f64, usize, usize)> = None; // (overlap, area, sorting, k)
    for (s, sorted) in sortings.iter().enumerate() {
        for k in min..=(n - min) {
            let r1 = bbox(&sorted[..k]);
            let r2 = bbox(&sorted[k..]);
            let overlap = r1.intersection_area(&r2);
            let area = r1.area() + r2.area();
            let better = match &best {
                None => true,
                Some((bo, ba, _, _)) => overlap < *bo || (overlap == *bo && area < *ba),
            };
            if better {
                best = Some((overlap, area, s, k));
            }
        }
    }
    #[expect(clippy::expect_used, reason = "min <= n - min, so a split was chosen")]
    let (_, _, s, k) = best.expect("at least one distribution");
    #[expect(clippy::expect_used, reason = "`s` indexes the two-element array.")]
    let mut chosen = sortings.into_iter().nth(s).expect("sorting index valid");
    let right = chosen.split_off(k);
    (chosen, right)
}

/// Guttman's quadratic split (R-tree, SIGMOD 1984).
///
/// `PickSeeds`: the pair of entries wasting the most area if grouped
/// together becomes the two seeds. Remaining entries are assigned greedily,
/// preferring the entry with the largest difference in group enlargement;
/// once a group must take everything left to reach `min`, it does.
pub(crate) fn quadratic_split<const D: usize, T: SplitItem<D>>(
    items: Vec<T>,
    min: usize,
) -> (Vec<T>, Vec<T>) {
    let n = items.len();
    assert!(
        n >= 2 * min,
        "cannot split {n} items with minimum group size {min}"
    );

    // PickSeeds: maximize dead area.
    let mut seed = (0usize, 1usize);
    let mut worst = f64::NEG_INFINITY;
    for i in 0..n {
        for j in i + 1..n {
            let a = items[i].mbr();
            let b = items[j].mbr();
            let dead = a.union(&b).area() - a.area() - b.area();
            if dead > worst {
                worst = dead;
                seed = (i, j);
            }
        }
    }

    let mut g1: Vec<T> = vec![items[seed.0].clone()];
    let mut g2: Vec<T> = vec![items[seed.1].clone()];
    let mut r1 = items[seed.0].mbr();
    let mut r2 = items[seed.1].mbr();
    let mut rest: Vec<T> = items
        .into_iter()
        .enumerate()
        .filter(|(i, _)| *i != seed.0 && *i != seed.1)
        .map(|(_, e)| e)
        .collect();

    while !rest.is_empty() {
        // If one group must absorb all remaining entries to reach `min`.
        if g1.len() + rest.len() == min {
            for e in rest.drain(..) {
                r1 = r1.union(&e.mbr());
                g1.push(e);
            }
            break;
        }
        if g2.len() + rest.len() == min {
            for e in rest.drain(..) {
                r2 = r2.union(&e.mbr());
                g2.push(e);
            }
            break;
        }
        // PickNext: entry with maximum preference between the groups.
        let mut best_idx = 0usize;
        let mut best_pref = f64::NEG_INFINITY;
        for (i, e) in rest.iter().enumerate() {
            let d1 = r1.enlargement(&e.mbr());
            let d2 = r2.enlargement(&e.mbr());
            let pref = (d1 - d2).abs();
            if pref > best_pref {
                best_pref = pref;
                best_idx = i;
            }
        }
        let e = rest.swap_remove(best_idx);
        let d1 = r1.enlargement(&e.mbr());
        let d2 = r2.enlargement(&e.mbr());
        // Tie chain: smaller enlargement, then smaller area, then fewer
        // entries (Guttman's Resolve ties rule).
        #[expect(clippy::expect_used, reason = "finite enlargements are never NaN")]
        let to_first = match d1.partial_cmp(&d2).expect("finite enlargements") {
            std::cmp::Ordering::Less => true,
            std::cmp::Ordering::Greater => false,
            std::cmp::Ordering::Equal => match r1.area().partial_cmp(&r2.area()) {
                Some(std::cmp::Ordering::Less) => true,
                Some(std::cmp::Ordering::Greater) => false,
                _ => g1.len() <= g2.len(),
            },
        };
        if to_first {
            r1 = r1.union(&e.mbr());
            g1.push(e);
        } else {
            r2 = r2.union(&e.mbr());
            g2.push(e);
        }
    }
    (g1, g2)
}

/// Guttman's linear split (R-tree, SIGMOD 1984).
///
/// `LinearPickSeeds`: along each dimension find the entry with the highest
/// low side and the one with the lowest high side; normalize their
/// separation by the total extent and pick the dimension with the greatest
/// normalized separation. Remaining entries are assigned by least
/// enlargement (a linear pass), with the same `min`-occupancy forcing as
/// the quadratic variant.
pub(crate) fn linear_split<const D: usize, T: SplitItem<D>>(
    items: Vec<T>,
    min: usize,
) -> (Vec<T>, Vec<T>) {
    let n = items.len();
    assert!(
        n >= 2 * min,
        "cannot split {n} items with minimum group size {min}"
    );

    let total = bbox(&items);
    let mut best_sep = f64::NEG_INFINITY;
    let mut seed = (0usize, 1usize);
    for d in 0..D {
        let mut highest_lo = 0usize;
        let mut lowest_hi = 0usize;
        for (i, e) in items.iter().enumerate() {
            if e.mbr().lo().coord(d) > items[highest_lo].mbr().lo().coord(d) {
                highest_lo = i;
            }
            if e.mbr().hi().coord(d) < items[lowest_hi].mbr().hi().coord(d) {
                lowest_hi = i;
            }
        }
        if highest_lo == lowest_hi {
            continue; // degenerate along this dimension
        }
        let extent = total.extent(d);
        let sep = if extent > 0.0 {
            (items[highest_lo].mbr().lo().coord(d) - items[lowest_hi].mbr().hi().coord(d)) / extent
        } else {
            f64::NEG_INFINITY
        };
        if sep > best_sep {
            best_sep = sep;
            seed = (lowest_hi, highest_lo);
        }
    }
    // When every dimension is degenerate (e.g. all-identical points) the
    // initial seed (0, 1) stands; min-occupancy forcing below still yields a
    // legal distribution.
    let (s0, s1) = (seed.0.min(seed.1), seed.0.max(seed.1));
    let mut g1: Vec<T> = vec![items[s0].clone()];
    let mut g2: Vec<T> = vec![items[s1].clone()];
    let mut r1 = items[s0].mbr();
    let mut r2 = items[s1].mbr();
    let mut rest: Vec<T> = items
        .into_iter()
        .enumerate()
        .filter(|(i, _)| *i != s0 && *i != s1)
        .map(|(_, e)| e)
        .collect();

    while let Some(e) = rest.pop() {
        if g1.len() + rest.len() + 1 == min {
            r1 = r1.union(&e.mbr());
            g1.push(e);
            continue;
        }
        if g2.len() + rest.len() + 1 == min {
            r2 = r2.union(&e.mbr());
            g2.push(e);
            continue;
        }
        if r1.enlargement(&e.mbr()) <= r2.enlargement(&e.mbr()) {
            r1 = r1.union(&e.mbr());
            g1.push(e);
        } else {
            r2 = r2.union(&e.mbr());
            g2.push(e);
        }
    }
    (g1, g2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::LeafEntry;
    use cpq_geo::Point;

    fn pts(coords: &[[f64; 2]]) -> Vec<LeafEntry<2>> {
        coords
            .iter()
            .enumerate()
            .map(|(i, &c)| LeafEntry::new(Point(c), i as u64))
            .collect()
    }

    #[test]
    fn splits_two_obvious_clusters() {
        // Two clusters far apart along x; the split must separate them.
        let items = pts(&[
            [0.0, 0.0],
            [0.1, 0.2],
            [0.2, 0.1],
            [100.0, 0.0],
            [100.1, 0.2],
            [100.2, 0.1],
        ]);
        let (a, b) = rstar_split(items, 2);
        let xa: Vec<f64> = a.iter().map(|e| e.object.coord(0)).collect();
        let xb: Vec<f64> = b.iter().map(|e| e.object.coord(0)).collect();
        let a_low = xa.iter().all(|&x| x < 50.0);
        let b_low = xb.iter().all(|&x| x < 50.0);
        assert_ne!(
            a_low, b_low,
            "groups must separate the clusters: {xa:?} vs {xb:?}"
        );
        assert_eq!(a.len() + b.len(), 6);
    }

    #[test]
    fn split_respects_minimum_occupancy() {
        let items = pts(&[
            [0.0, 0.0],
            [1.0, 0.0],
            [2.0, 0.0],
            [3.0, 0.0],
            [4.0, 0.0],
            [5.0, 0.0],
            [6.0, 0.0],
        ]);
        let (a, b) = rstar_split(items, 3);
        assert!(a.len() >= 3 && b.len() >= 3);
        assert_eq!(a.len() + b.len(), 7);
    }

    #[test]
    fn chooses_axis_with_better_separation() {
        // Clusters separated along y; x coordinates interleave.
        let items = pts(&[
            [0.0, 0.0],
            [5.0, 0.1],
            [10.0, 0.2],
            [0.0, 100.0],
            [5.0, 100.1],
            [10.0, 100.2],
        ]);
        let (a, b) = rstar_split(items, 2);
        let ya: Vec<f64> = a.iter().map(|e| e.object.coord(1)).collect();
        let a_low = ya.iter().all(|&y| y < 50.0) || ya.iter().all(|&y| y > 50.0);
        assert!(a_low, "group A must be one y-cluster: {ya:?}");
        let yb: Vec<f64> = b.iter().map(|e| e.object.coord(1)).collect();
        let b_low = yb.iter().all(|&y| y < 50.0) || yb.iter().all(|&y| y > 50.0);
        assert!(b_low, "group B must be one y-cluster: {yb:?}");
    }

    #[test]
    #[should_panic]
    fn too_few_items_panics() {
        let items = pts(&[[0.0, 0.0], [1.0, 1.0]]);
        let _ = rstar_split(items, 2);
    }

    #[test]
    fn duplicate_points_split_evenly_enough() {
        let items = pts(&[[1.0, 1.0]; 8]);
        let (a, b) = rstar_split(items, 3);
        assert!(a.len() >= 3 && b.len() >= 3);
        assert_eq!(a.len() + b.len(), 8);
    }

    type Splitter = fn(Vec<LeafEntry<2>>, usize) -> (Vec<LeafEntry<2>>, Vec<LeafEntry<2>>);

    fn all_splitters() -> Vec<(&'static str, Splitter)> {
        vec![
            ("rstar", rstar_split::<2, LeafEntry<2>>),
            ("quadratic", quadratic_split::<2, LeafEntry<2>>),
            ("linear", linear_split::<2, LeafEntry<2>>),
        ]
    }

    #[test]
    fn rstar_and_quadratic_separate_obvious_clusters() {
        // Guttman's *linear* split is deliberately excluded: its
        // area-enlargement criterion degenerates on near-collinear points
        // (a zero-area union is "free"), so it may legally mix clusters —
        // which is precisely why the R*-tree split replaced it.
        for (name, split) in all_splitters().into_iter().take(2) {
            let items = pts(&[
                [0.0, 0.0],
                [0.1, 0.2],
                [0.2, 0.1],
                [100.0, 0.0],
                [100.1, 0.2],
                [100.2, 0.1],
            ]);
            let (a, b) = split(items, 2);
            let a_low = a.iter().all(|e| e.object.coord(0) < 50.0);
            let b_low = b.iter().all(|e| e.object.coord(0) < 50.0);
            assert_ne!(a_low, b_low, "{name} failed to separate clusters");
        }
    }

    #[test]
    fn linear_split_seeds_land_in_different_groups() {
        // The linear guarantee is weaker: the two seed entries (extreme
        // along the best-separated axis) end up in different groups.
        let items = pts(&[
            [0.0, 10.0],
            [3.0, 35.0],
            [7.0, 22.0],
            [100.0, 15.0],
            [104.0, 40.0],
            [110.0, 28.0],
        ]);
        let (a, b) = linear_split(items, 2);
        let a_has_left = a.iter().any(|e| e.object == Point([0.0, 10.0]));
        let b_has_left = b.iter().any(|e| e.object == Point([0.0, 10.0]));
        let a_has_right = a.iter().any(|e| e.object == Point([110.0, 28.0]));
        let b_has_right = b.iter().any(|e| e.object == Point([110.0, 28.0]));
        assert!(a_has_left != b_has_left && a_has_right != b_has_right);
        assert!(a_has_left != a_has_right, "seeds must be separated");
    }

    #[test]
    fn every_splitter_respects_min_occupancy() {
        use cpq_rng::Rng;
        let mut rng = Rng::seed_from_u64(77);
        for trial in 0..50 {
            let n = rng.random_range(6..30usize);
            let min = rng.random_range(1..=n / 2);
            let coords: Vec<[f64; 2]> = (0..n)
                .map(|_| [rng.random_range(0.0..100.0), rng.random_range(0.0..100.0)])
                .collect();
            for (name, split) in all_splitters() {
                let (a, b) = split(pts(&coords), min);
                assert!(
                    a.len() >= min && b.len() >= min,
                    "{name} trial {trial}: groups {}/{} below min {min}",
                    a.len(),
                    b.len()
                );
                assert_eq!(a.len() + b.len(), n, "{name} lost entries");
            }
        }
    }

    #[test]
    fn every_splitter_handles_identical_points() {
        for (name, split) in all_splitters() {
            let (a, b) = split(pts(&[[5.0, 5.0]; 10]), 4);
            assert!(a.len() >= 4 && b.len() >= 4, "{name} on duplicates");
            assert_eq!(a.len() + b.len(), 10);
        }
    }

    #[test]
    fn quadratic_seeds_maximize_dead_area() {
        // Two far corners plus points between: the far pair must end in
        // different groups (they are the seeds).
        let items = pts(&[
            [0.0, 0.0],
            [50.0, 50.0],
            [49.0, 49.0],
            [100.0, 100.0],
            [1.0, 1.0],
            [51.0, 51.0],
        ]);
        let (a, b) = quadratic_split(items, 2);
        let a_has_origin = a.iter().any(|e| e.object == Point([0.0, 0.0]));
        let a_has_corner = a.iter().any(|e| e.object == Point([100.0, 100.0]));
        assert_ne!(
            a_has_origin, a_has_corner,
            "seeds must separate: {a:?} {b:?}"
        );
    }
}
