//! Sort-Tile-Recursive partitioning, shared by the bulk loader and the
//! shard planner.
//!
//! Two layers live here:
//!
//! * The crate-internal tiling primitives ([`Tileable`], [`chunk_balanced`],
//!   [`tile`]) that [`RTree::bulk_load`](crate::RTree::bulk_load) packs
//!   nodes with.
//! * The public [`StrTiling`]: a *recorded* STR partition of a point set
//!   into `S` spatial tiles. Unlike the bulk loader — which only needs the
//!   grouped output — the shard planner must later route arbitrary points
//!   (and rectangles) to tiles, so the tiling keeps the recursive cut tree
//!   and exposes a total assignment function [`StrTiling::tile_of`].
//!
//! The assignment rule is exact and deterministic: at a cut value `c` along
//! dimension `d`, points with `coord(d) < c` go left and points with
//! `coord(d) >= c` go right — the same rule the builder partitions with, so
//! build-time grouping and query-time assignment can never disagree.

use cpq_geo::{Point, Rect};

use crate::entry::{InnerEntry, LeafEntry};

/// Items that can be tiled: data points and already-built subtree entries.
pub(crate) trait Tileable<const D: usize>: Clone {
    fn key(&self, dim: usize) -> f64;
}

impl<const D: usize> Tileable<D> for LeafEntry<D> {
    fn key(&self, dim: usize) -> f64 {
        self.mbr().center().coord(dim)
    }
}

impl<const D: usize> Tileable<D> for InnerEntry<D> {
    fn key(&self, dim: usize) -> f64 {
        self.mbr.center().coord(dim)
    }
}

fn ceil_div(a: usize, b: usize) -> usize {
    a.div_ceil(b)
}

/// Splits `items` into consecutive chunks of roughly `target` items, merging
/// or rebalancing the tail so no chunk falls below `min` (chunks may exceed
/// `target` up to `max` to absorb a short tail).
pub(crate) fn chunk_balanced<T>(
    mut rest: Vec<T>,
    target: usize,
    min: usize,
    max: usize,
) -> Vec<Vec<T>> {
    debug_assert!(min <= target && target <= max);
    let mut out = Vec::new();
    while !rest.is_empty() {
        let mut take = target.min(rest.len());
        let rem = rest.len() - take;
        if rem > 0 && rem < min {
            if take + rem <= max {
                take += rem; // absorb the short tail
            } else {
                take = rest.len() - min; // leave a minimal valid tail
            }
        }
        let tail = rest.split_off(take);
        out.push(rest);
        rest = tail;
    }
    out
}

/// Recursively tiles `items` into groups of `min..=max` items (targeting
/// `cap` per group), preserving spatial locality along every dimension.
pub(crate) fn tile<const D: usize, T: Tileable<D>>(
    mut items: Vec<T>,
    cap: usize,
    min: usize,
    max: usize,
    dim: usize,
    out: &mut Vec<Vec<T>>,
) {
    if items.len() <= max {
        // Either the top-level call on a tiny dataset (a lone root may be
        // under-full) or a slab already no bigger than one node.
        if !items.is_empty() {
            out.push(items);
        }
        return;
    }
    items.sort_by(|a, b| a.key(dim).total_cmp(&b.key(dim)));
    if dim == D - 1 {
        out.extend(chunk_balanced(items, cap, min, max));
        return;
    }
    // Number of tiles needed overall, spread across the remaining dims.
    let tiles = ceil_div(items.len(), cap);
    let dims_left = (D - dim) as f64;
    let slabs = (tiles as f64).powf(1.0 / dims_left).ceil() as usize;
    let per_slab = ceil_div(items.len(), slabs.max(1)).max(min);
    for slab in chunk_balanced(items, per_slab, min, usize::MAX) {
        tile(slab, cap, min, max, dim + 1, out);
    }
}

/// One node of the recorded cut tree.
enum TileNode {
    /// A finished tile, identified by its dense index in `0..tiles`.
    Leaf(u32),
    /// An axis-aligned split: `cuts` is strictly increasing; child `i`
    /// covers coordinates in `[cuts[i-1], cuts[i])` along `dim` (the first
    /// and last children are open toward the workspace boundary).
    Split {
        dim: usize,
        cuts: Vec<f64>,
        children: Vec<TileNode>,
    },
}

/// A recorded STR partition of a point set into spatial tiles.
///
/// Built once from the data with [`StrTiling::build`]; afterwards
/// [`StrTiling::tile_of`] assigns *any* point of the space to exactly one
/// tile (the partition is total: tiles jointly cover all of `R^D`, and
/// [`StrTiling::tile_rects`] reports their restriction to the dataset MBR).
///
/// The tile count actually produced may be lower than requested when the
/// data cannot support that many distinct cuts (duplicate coordinates,
/// tiny inputs); it is never higher.
pub struct StrTiling<const D: usize> {
    root: TileNode,
    mbr: Option<Rect<D>>,
    tiles: usize,
}

impl<const D: usize> StrTiling<D> {
    /// Partitions `points` into (at most) `tiles` spatial tiles by
    /// sort-tile-recursive cuts: slabs along dimension 0, each slab cut
    /// again along dimension 1, and so on — the same sweep order the bulk
    /// loader packs nodes with.
    pub fn build(points: &[Point<D>], tiles: usize) -> Self {
        let budget = tiles.max(1);
        let mbr = Rect::bounding(points.iter().copied());
        let mut pts = points.to_vec();
        let mut next = 0u32;
        let root = Self::split_node(&mut pts, 0, budget, &mut next);
        StrTiling {
            root,
            mbr,
            tiles: next as usize,
        }
    }

    fn split_node(points: &mut [Point<D>], dim: usize, budget: usize, next: &mut u32) -> TileNode {
        if budget <= 1 || points.len() <= 1 || dim >= D {
            let id = *next;
            *next += 1;
            return TileNode::Leaf(id);
        }
        points.sort_by(|a, b| a.coord(dim).total_cmp(&b.coord(dim)));
        let n = points.len();
        let dims_left = D - dim;
        let slabs = if dims_left <= 1 {
            budget
        } else {
            ((budget as f64).powf(1.0 / dims_left as f64).ceil() as usize).clamp(1, budget)
        };
        // Budget split across slabs, heavier slabs first.
        let base = budget / slabs;
        let rem = budget % slabs;
        // Choose cut values at budget-proportional sorted positions, then
        // snap each to the *first* occurrence of its value so the grouping
        // below agrees exactly with the `coord >= cut` assignment rule.
        // Degenerate cuts (empty side, duplicate value) are dropped and
        // their budget merges into the following slab.
        let mut cuts: Vec<f64> = Vec::new();
        let mut bounds: Vec<usize> = Vec::new();
        let mut budgets: Vec<usize> = Vec::new();
        let mut cum = 0usize;
        let mut pending = 0usize;
        let mut prev = 0usize;
        for i in 0..slabs {
            let share = base + usize::from(i < rem);
            pending += share;
            cum += share;
            if i + 1 == slabs {
                break;
            }
            let idx = (n * cum) / budget;
            if idx == 0 || idx >= n {
                continue;
            }
            let cut = points[idx].coord(dim);
            let split_at = points.partition_point(|p| p.coord(dim) < cut);
            if split_at <= prev || split_at >= n {
                continue;
            }
            cuts.push(cut);
            bounds.push(split_at);
            budgets.push(pending);
            pending = 0;
            prev = split_at;
        }
        budgets.push(pending);
        if cuts.is_empty() {
            // No usable cut along this dimension (all coordinates equal):
            // spend the whole budget on the remaining dimensions.
            if dim + 1 < D {
                return Self::split_node(points, dim + 1, budget, next);
            }
            let id = *next;
            *next += 1;
            return TileNode::Leaf(id);
        }
        let mut children = Vec::with_capacity(bounds.len() + 1);
        let mut rest = points;
        let mut consumed = 0usize;
        for (i, &b) in bounds.iter().enumerate() {
            let (seg, tail) = rest.split_at_mut(b - consumed);
            consumed = b;
            rest = tail;
            children.push(Self::split_node(seg, dim + 1, budgets[i], next));
        }
        // analyze: allow(panic-path) — budgets has exactly bounds.len() + 1 entries.
        let last_budget = *budgets.last().expect("last slab budget");
        children.push(Self::split_node(rest, dim + 1, last_budget, next));
        TileNode::Split {
            dim,
            cuts,
            children,
        }
    }

    /// Number of tiles actually produced (`1..=` the requested count).
    pub fn tiles(&self) -> usize {
        self.tiles
    }

    /// MBR of the points the tiling was built from (`None` for an empty
    /// input).
    pub fn mbr(&self) -> Option<Rect<D>> {
        self.mbr
    }

    /// Assigns a point to its tile. Total over all of `R^D`: every point —
    /// in the build set or not — lands in exactly one tile.
    pub fn tile_of(&self, p: &Point<D>) -> usize {
        let mut node = &self.root;
        loop {
            match node {
                TileNode::Leaf(id) => return *id as usize,
                TileNode::Split {
                    dim,
                    cuts,
                    children,
                } => {
                    let c = p.coord(*dim);
                    let i = cuts.partition_point(|&cut| c >= cut);
                    node = &children[i];
                }
            }
        }
    }

    /// The tiles' rectangles, restricted to the dataset MBR, indexed by
    /// tile id. Pairwise interior-disjoint; their union is exactly the MBR.
    /// Empty for an empty build set.
    pub fn tile_rects(&self) -> Vec<Rect<D>> {
        let Some(mbr) = self.mbr else {
            return Vec::new();
        };
        let mut out: Vec<(u32, Rect<D>)> = Vec::new();
        Self::collect_rects(&self.root, mbr, &mut out);
        out.sort_by_key(|&(id, _)| id);
        out.into_iter().map(|(_, r)| r).collect()
    }

    fn collect_rects(node: &TileNode, current: Rect<D>, out: &mut Vec<(u32, Rect<D>)>) {
        match node {
            TileNode::Leaf(id) => out.push((*id, current)),
            TileNode::Split {
                dim,
                cuts,
                children,
            } => {
                for (i, child) in children.iter().enumerate() {
                    let lo_d = if i == 0 {
                        current.lo().coord(*dim)
                    } else {
                        cuts[i - 1]
                    };
                    let hi_d = if i == cuts.len() {
                        current.hi().coord(*dim)
                    } else {
                        cuts[i]
                    };
                    let mut lo = *current.lo().coords();
                    let mut hi = *current.hi().coords();
                    lo[*dim] = lo_d;
                    hi[*dim] = hi_d;
                    Self::collect_rects(child, Rect::from_corners(lo, hi), out);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpq_geo::Point2;

    /// Deterministic pseudo-random points (splitmix64 over the unit square
    /// scaled to the workspace) — no RNG dependency needed here.
    fn gen_points(n: usize, seed: u64) -> Vec<Point2> {
        let mut state = seed.wrapping_add(0x9E3779B97F4A7C15);
        let mut next = move || {
            state = state.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            (z ^ (z >> 31)) as f64 / u64::MAX as f64
        };
        (0..n)
            .map(|_| Point::new([next() * 1000.0, next() * 1000.0]))
            .collect()
    }

    #[test]
    fn every_point_lands_in_exactly_one_tile_and_tiles_cover_the_mbr() {
        for &(n, s) in &[(1usize, 4usize), (57, 2), (500, 4), (2000, 8), (999, 7)] {
            let pts = gen_points(n, n as u64);
            let tiling = StrTiling::build(&pts, s);
            assert!(tiling.tiles() >= 1 && tiling.tiles() <= s, "tile count");
            let rects = tiling.tile_rects();
            assert_eq!(rects.len(), tiling.tiles());
            let mbr = tiling.mbr().expect("non-empty input");
            let mut counts = vec![0usize; tiling.tiles()];
            for p in &pts {
                // `tile_of` is a total function, so "exactly one tile" holds
                // by construction; check the assignment is *consistent*:
                // the point sits inside its tile's rectangle.
                let t = tiling.tile_of(p);
                counts[t] += 1;
                assert!(
                    rects[t].contains_point(p),
                    "point {p:?} assigned to tile {t} but outside its rect"
                );
                // And in no *other* tile's interior-exclusive rect per the
                // assignment rule: tile_of is deterministic, so re-asking
                // gives the same answer.
                assert_eq!(tiling.tile_of(p), t);
            }
            // Tiles cover the dataset MBR: rect areas sum to the MBR area
            // (they are interior-disjoint slices of it by construction).
            let area = |r: &Rect<2>| {
                (r.hi().coord(0) - r.lo().coord(0)) * (r.hi().coord(1) - r.lo().coord(1))
            };
            let total: f64 = rects.iter().map(area).sum();
            let want = area(&mbr);
            assert!(
                (total - want).abs() <= want.abs() * 1e-9 + 1e-9,
                "tile rects cover {total}, MBR is {want}"
            );
            for (t, &c) in counts.iter().enumerate() {
                assert!(c > 0, "tile {t} is empty");
            }
        }
    }

    #[test]
    fn duplicate_coordinates_collapse_tiles_instead_of_splitting_on_ties() {
        // All points identical: only one tile can exist, and assignment
        // still works for arbitrary probes.
        let pts = vec![Point::new([5.0, 5.0]); 64];
        let tiling = StrTiling::build(&pts, 8);
        assert_eq!(tiling.tiles(), 1);
        assert_eq!(tiling.tile_of(&Point::new([5.0, 5.0])), 0);
        assert_eq!(tiling.tile_of(&Point::new([-100.0, 300.0])), 0);

        // One column of x-ties: x yields no cut, y still partitions.
        let pts: Vec<Point2> = (0..100).map(|i| Point::new([1.0, i as f64])).collect();
        let tiling = StrTiling::build(&pts, 4);
        assert!(tiling.tiles() > 1, "y cuts should still apply");
        let rects = tiling.tile_rects();
        for p in &pts {
            assert!(rects[tiling.tile_of(p)].contains_point(p));
        }
    }

    #[test]
    fn assignment_is_total_for_points_outside_the_build_set() {
        let pts = gen_points(800, 99);
        let tiling = StrTiling::build(&pts, 8);
        let probes = gen_points(500, 7);
        for p in probes {
            let t = tiling.tile_of(&p);
            assert!(t < tiling.tiles());
        }
        // Points far outside the workspace still route somewhere.
        assert!(tiling.tile_of(&Point::new([-1e9, 1e9])) < tiling.tiles());
    }

    #[test]
    fn tiles_are_roughly_balanced_on_uniform_data() {
        let pts = gen_points(4000, 11);
        let tiling = StrTiling::build(&pts, 8);
        assert_eq!(tiling.tiles(), 8);
        let mut counts = vec![0usize; 8];
        for p in &pts {
            counts[tiling.tile_of(p)] += 1;
        }
        let (min, max) = (*counts.iter().min().unwrap(), *counts.iter().max().unwrap());
        assert!(
            max <= min * 3,
            "uniform data should tile roughly evenly: {counts:?}"
        );
    }
}
