//! Building sharded trees: STR-tile partitioning plus a per-shard R*-tree.

use crate::proto::{ShardManifest, ShardMeta};
use cpq_geo::{Point, SpatialObject};
use cpq_rtree::{RTree, RTreeParams, RTreeResult, StrTiling};
use cpq_storage::BufferPool;

/// One dataset partitioned into spatial shards, each with its own R*-tree
/// over its own buffer pool (its own page file; in a deployment, its own
/// machine).
///
/// Shard ids are dense (`0..shard_count`) and ordered by STR tile order;
/// tiles that received no points are dropped, so every shard is non-empty
/// and the count actually produced can be below the count requested.
pub struct ShardedTree<const D: usize, O: SpatialObject<D> = Point<D>> {
    shards: Vec<RTree<D, O>>,
    manifest: ShardManifest<D>,
}

/// The two sharded datasets a cross-dataset sharded query runs over (the
/// sharded analogue of the service's `TreePair`).
pub struct ShardedPair<const D: usize, O: SpatialObject<D> = Point<D>> {
    /// Sharded `P` side.
    pub p: ShardedTree<D, O>,
    /// Sharded `Q` side.
    pub q: ShardedTree<D, O>,
}

impl<const D: usize, O: SpatialObject<D>> ShardedTree<D, O> {
    /// Partitions `objects` into (at most) `shards` spatial shards by STR
    /// tile of their MBR centers and builds one R*-tree per shard.
    ///
    /// `make_pool` supplies each shard's [`BufferPool`] (shard index as
    /// argument) — memory-backed for tests, one scheduled disk page file
    /// per shard for real deployments. `fill = Some(f)` bulk-loads each
    /// shard tree by STR packing at that occupancy; `None` builds by
    /// repeated R*-insertion (the paper's construction).
    pub fn build(
        name: &str,
        objects: &[(O, u64)],
        shards: usize,
        params: RTreeParams,
        fill: Option<f64>,
        mut make_pool: impl FnMut(usize) -> BufferPool,
    ) -> RTreeResult<Self> {
        let centers: Vec<Point<D>> = objects.iter().map(|(o, _)| o.mbr().center()).collect();
        let tiling = StrTiling::build(&centers, shards);
        let mut groups: Vec<Vec<(O, u64)>> = (0..tiling.tiles()).map(|_| Vec::new()).collect();
        for (i, &(o, oid)) in objects.iter().enumerate() {
            groups[tiling.tile_of(&centers[i])].push((o, oid));
        }

        let mut trees = Vec::new();
        let mut metas = Vec::new();
        for group in groups {
            if group.is_empty() {
                continue;
            }
            let shard_id = trees.len();
            let pool = make_pool(shard_id);
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
            // analyze: allow(panic-path) — the group is non-empty, so the tree is.
            let mbr = mbr.expect("non-empty shard tree has a root MBR");
            metas.push(ShardMeta {
                id: shard_id as u32,
                count: group.len() as u64,
                height: tree.height(),
                lo: *mbr.lo().coords(),
                hi: *mbr.hi().coords(),
            });
            trees.push(tree);
        }
        Ok(ShardedTree {
            shards: trees,
            manifest: ShardManifest {
                dataset: name.to_owned(),
                shards: metas,
            },
        })
    }

    /// Number of shards actually produced (`0` only for an empty dataset).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The per-shard trees, indexed by shard id.
    pub fn shards(&self) -> &[RTree<D, O>] {
        &self.shards
    }

    /// One shard's tree.
    pub fn shard(&self, id: usize) -> &RTree<D, O> {
        &self.shards[id]
    }

    /// The manifest the coordinator plans from.
    pub fn manifest(&self) -> &ShardManifest<D> {
        &self.manifest
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
