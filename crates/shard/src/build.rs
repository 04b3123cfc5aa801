//! Building sharded trees: an STR cut of the objects plus a per-shard
//! R*-tree.

use cpq_geo::{Point, Rect};
use cpq_rtree::{RTree, RTreeParams, RTreeResult};
use cpq_storage::BufferPool;

/// One dataset partitioned into spatial shards, each with its own R*-tree
/// over its own buffer pool (its own page file; in a deployment, its own
/// machine).
///
/// Shard ids are dense (`0..shards().len()`) and ordered by STR cut order;
/// every shard is non-empty, and the count actually produced can be below
/// the count requested.
pub struct ShardedTree<const D: usize> {
    shards: Vec<RTree<D>>,
    mbrs: Vec<Rect<D>>,
}

/// The two sharded datasets a cross-dataset sharded query runs over (the
/// sharded analogue of the service's `TreePair`).
pub struct ShardedPair<const D: usize> {
    /// Sharded `P` side.
    pub p: ShardedTree<D>,
    /// Sharded `Q` side.
    pub q: ShardedTree<D>,
}

impl<const D: usize> ShardedTree<D> {
    /// Partitions `objects` into (at most) `shards` spatial shards by an
    /// STR cut of their MBR centers and builds one R*-tree per shard, which
    /// receives its objects in their order in `objects`.
    ///
    /// `make_pool` supplies each shard's [`BufferPool`] (shard id as
    /// argument): a `MemPageFile` for tests, a `DiskPageFile` per shard to
    /// put the shards on disk. `fill = Some(f)` bulk-loads each shard tree
    /// by STR packing at that occupancy; `None` builds by repeated
    /// R*-insertion (the paper's construction). `name` is unused; the
    /// parameter is kept for the `benchmark/` package's call.
    pub fn build(
        _name: &str,
        objects: &[(Point<D>, u64)],
        shards: usize,
        params: RTreeParams,
        fill: Option<f64>,
        mut make_pool: impl FnMut(usize) -> BufferPool,
    ) -> RTreeResult<Self> {
        let centers: Vec<Point<D>> = objects.iter().map(|(o, _)| o.mbr().center()).collect();
        let mut trees = Vec::new();
        let mut mbrs = Vec::new();
        for group in str_groups(&centers, shards) {
            let group: Vec<(Point<D>, u64)> = group.into_iter().map(|i| objects[i]).collect();
            let pool = make_pool(trees.len());
            let tree = match fill {
                Some(f) => RTree::bulk_load(pool, params, &group, f)?,
                None => {
                    let mut tree = RTree::new(pool, params)?;
                    for &(o, oid) in &group {
                        tree.insert(o, oid)?;
                    }
                    tree
                }
            };
            let mbr = tree.root_mbr()?;
            #[expect(clippy::expect_used, reason = "the group is non-empty, so the tree is")]
            mbrs.push(mbr.expect("non-empty shard tree has a root MBR"));
            trees.push(tree);
        }
        Ok(ShardedTree {
            shards: trees,
            mbrs,
        })
    }

    /// The per-shard trees, indexed by shard id.
    pub fn shards(&self) -> &[RTree<D>] {
        &self.shards
    }

    /// One shard's tree.
    pub fn shard(&self, id: usize) -> &RTree<D> {
        &self.shards[id]
    }

    /// Each shard tree's root MBR, indexed by shard id: all the coordinator
    /// plans from.
    pub fn mbrs(&self) -> &[Rect<D>] {
        &self.mbrs
    }

    /// Total points across all shards.
    pub fn len(&self) -> u64 {
        self.shards.iter().map(|t| t.len()).sum()
    }

    /// Whether the sharded dataset holds no points.
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }
}

/// Cuts `centers` into at most `shards` spatial groups of indices by
/// sort-tile-recursive slabs: along dimension 0, each slab again along
/// dimension 1, and so on. Every group is non-empty and ascending, and
/// points with equal coordinates never land in two groups.
fn str_groups<const D: usize>(centers: &[Point<D>], shards: usize) -> Vec<Vec<usize>> {
    let mut idx: Vec<usize> = (0..centers.len()).collect();
    let mut groups = Vec::new();
    cut(centers, &mut idx, 0, shards.max(1), &mut groups);
    groups
}

/// Spends `budget` groups on `idx` from dimension `dim` on. Cuts sit at
/// budget-proportional ranks, each snapped back to the first point of its
/// coordinate; a cut that leaves a slab empty is dropped and its budget
/// merged into the next slab, and a dimension with no usable cut passes its
/// whole budget on to the next.
fn cut<const D: usize>(
    centers: &[Point<D>],
    idx: &mut [usize],
    dim: usize,
    budget: usize,
    out: &mut Vec<Vec<usize>>,
) {
    if budget <= 1 || idx.len() <= 1 || dim >= D {
        if !idx.is_empty() {
            let mut group = idx.to_vec();
            group.sort_unstable();
            out.push(group);
        }
        return;
    }
    let key = |i: usize| centers[i].coord(dim);
    idx.sort_by(|&a, &b| key(a).total_cmp(&key(b)));
    let n = idx.len();
    let slabs = if D - dim <= 1 {
        budget
    } else {
        ((budget as f64).powf(1.0 / (D - dim) as f64).ceil() as usize).clamp(1, budget)
    };
    // `(end, budget)` per slab; heavier slabs first.
    let mut slab_ends: Vec<(usize, usize)> = Vec::new();
    let (mut cum, mut pending, mut prev) = (0, 0, 0);
    for i in 0..slabs {
        let share = budget / slabs + usize::from(i < budget % slabs);
        pending += share;
        cum += share;
        if i + 1 == slabs {
            break;
        }
        let rank = n * cum / budget;
        if rank == 0 || rank >= n {
            continue;
        }
        let at = key(idx[rank]);
        let end = idx.partition_point(|&j| key(j) < at);
        if end <= prev || end >= n {
            continue;
        }
        slab_ends.push((end, pending));
        pending = 0;
        prev = end;
    }
    if slab_ends.is_empty() {
        return cut(centers, idx, dim + 1, budget, out);
    }
    slab_ends.push((n, pending));
    let mut start = 0;
    for (end, slab_budget) in slab_ends {
        cut(centers, &mut idx[start..end], dim + 1, slab_budget, out);
        start = end;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpq_geo::Point2;

    /// Deterministic pseudo-random points (splitmix64 over the unit square
    /// scaled to the workspace).
    fn gen_points(n: usize, seed: u64) -> Vec<Point2> {
        let mut state = seed;
        let mut next = move || cpq_rng::splitmix64(&mut state) as f64 / u64::MAX as f64;
        (0..n)
            .map(|_| Point([next() * 1000.0, next() * 1000.0]))
            .collect()
    }

    /// Asserts the partition contract and returns the group sizes.
    fn check(pts: &[Point2], shards: usize) -> Vec<usize> {
        let groups = str_groups(pts, shards);
        assert!(groups.len() <= shards.max(1), "{} groups", groups.len());
        let mut owner = vec![usize::MAX; pts.len()];
        for (g, group) in groups.iter().enumerate() {
            assert!(!group.is_empty(), "group {g} is empty");
            assert!(group.windows(2).all(|w| w[0] < w[1]), "group {g} order");
            for &i in group {
                assert_eq!(owner[i], usize::MAX, "index {i} in two groups");
                owner[i] = g;
            }
        }
        assert!(owner.iter().all(|&g| g != usize::MAX), "an index is lost");
        for (i, p) in pts.iter().enumerate() {
            let twin = pts.iter().position(|q| q == p).unwrap();
            assert_eq!(owner[i], owner[twin], "equal points {i}, {twin} split");
        }
        groups.iter().map(Vec::len).collect()
    }

    #[test]
    fn every_index_lands_in_exactly_one_group() {
        for (n, s) in [(0, 4), (1, 4), (57, 2), (500, 4), (2000, 8), (999, 7)] {
            let sizes = check(&gen_points(n, n as u64), s);
            assert_eq!(sizes.iter().sum::<usize>(), n);
        }
    }

    #[test]
    fn duplicate_coordinates_collapse_groups_instead_of_splitting_ties() {
        let same = vec![Point([5.0, 5.0]); 64];
        assert_eq!(check(&same, 8), vec![64]);

        // One column of x-ties: x yields no cut, y still partitions.
        let column: Vec<Point2> = (0..100).map(|i| Point([1.0, i as f64])).collect();
        assert!(check(&column, 4).len() > 1, "y cuts should still apply");

        // Ten sites, 600 points: cuts fall only between sites.
        let sites = gen_points(10, 42);
        let dup: Vec<Point2> = (0..600).map(|i| sites[i * 7 % 10]).collect();
        assert!(check(&dup, 8).len() <= 8);
    }

    #[test]
    fn groups_are_roughly_balanced_on_uniform_data() {
        let sizes = check(&gen_points(4000, 11), 8);
        assert_eq!(sizes.len(), 8);
        let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
        assert!(
            max <= &(min * 3),
            "uniform data should cut evenly: {sizes:?}"
        );
    }

    #[test]
    fn mbrs_are_the_shard_roots() {
        let objects: Vec<(Point2, u64)> = gen_points(700, 3).into_iter().zip(0..).collect();
        let tree = ShardedTree::build("p", &objects, 5, RTreeParams::paper(), None, |_| {
            BufferPool::with_lru(Box::new(cpq_storage::MemPageFile::new(1024)), 0)
        })
        .unwrap();
        assert_eq!(tree.mbrs().len(), tree.shards().len());
        for (mbr, shard) in tree.mbrs().iter().zip(tree.shards()) {
            assert_eq!(Some(*mbr), shard.root_mbr().unwrap());
        }
    }
}
