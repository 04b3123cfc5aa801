//! Sort-Tile-Recursive (STR) bulk loading (Leutenegger et al. 1997).
//!
//! The paper builds its R*-trees by repeated insertion; STR is provided for
//! callers that need to construct large trees quickly (e.g. ablation benches
//! comparing insertion-built vs packed trees). Packing sorts points by the
//! first coordinate, tiles them into slabs, recursively tiles each slab along
//! the remaining dimensions, and packs each tile into one leaf; upper levels
//! pack the resulting entries the same way by MBR center.

use crate::entry::{InnerEntry, LeafEntry};
use crate::error::{RTreeError, RTreeResult};
use crate::node::Node;
use crate::params::RTreeParams;
use crate::tiling::tile;
use crate::tree::{check_indexable, RTree};
use cpq_geo::Point;
use cpq_storage::BufferPool;

impl<const D: usize> RTree<D> {
    /// Builds a tree over `pool` by STR packing.
    ///
    /// `fill` in `(0, 1]` is the target node occupancy (e.g. `0.7` mimics
    /// the steady-state occupancy of insertion-built trees; `1.0` packs
    /// maximally). Nodes always satisfy the tree's `min_entries` bound
    /// except a lone root.
    /// A `fill` outside that range, or an object [`insert`](Self::insert)
    /// would refuse, is `InvalidParams`.
    pub fn bulk_load(
        pool: BufferPool,
        params: RTreeParams,
        objects: &[(Point<D>, u64)],
        fill: f64,
    ) -> RTreeResult<Self> {
        if !(fill > 0.0 && fill <= 1.0) {
            return Err(RTreeError::InvalidParams(format!(
                "bulk-load fill must be in (0, 1], got {fill}"
            )));
        }
        for (object, _) in objects {
            check_indexable(object)?;
        }
        let mut tree = RTree::new(pool, params)?;
        if objects.is_empty() {
            return Ok(tree);
        }
        let cap = ((params.max_entries as f64 * fill).floor() as usize)
            .clamp(params.min_entries(), params.max_entries);

        // Leaf level.
        let leaf_items: Vec<LeafEntry<D>> = objects
            .iter()
            .map(|&(o, oid)| LeafEntry::new(o, oid))
            .collect();
        let mut tiles: Vec<Vec<LeafEntry<D>>> = Vec::new();
        tile(
            leaf_items,
            cap,
            params.min_entries(),
            params.max_entries,
            0,
            &mut tiles,
        );
        let mut entries: Vec<InnerEntry<D>> = Vec::with_capacity(tiles.len());
        for group in tiles {
            let node = Node::Leaf(group);
            let id = tree.alloc_write(&node)?;
            #[expect(clippy::expect_used, reason = "tiles are non-empty input chunks")]
            entries.push(InnerEntry::new(
                node.mbr().expect("non-empty tile"),
                id,
                node.subtree_count(),
            ));
        }
        let mut height = 1u8;

        // Upper levels until a single entry remains.
        while entries.len() > 1 {
            let mut tiles: Vec<Vec<InnerEntry<D>>> = Vec::new();
            tile(
                entries,
                cap,
                params.min_entries(),
                params.max_entries,
                0,
                &mut tiles,
            );
            let mut next: Vec<InnerEntry<D>> = Vec::with_capacity(tiles.len());
            for group in tiles {
                let node = Node::Inner {
                    level: height,
                    entries: group,
                };
                let id = tree.alloc_write(&node)?;
                #[expect(clippy::expect_used, reason = "tiles are non-empty input chunks")]
                next.push(InnerEntry::new(
                    node.mbr().expect("non-empty tile"),
                    id,
                    node.subtree_count(),
                ));
            }
            entries = next;
            height += 1;
        }

        #[expect(clippy::expect_used, reason = "packing ends with exactly one root")]
        let root_entry = entries.pop().expect("at least one entry");
        tree.set_descriptor_after_bulk(root_entry.child, height, objects.len() as u64);
        Ok(tree)
    }
}
