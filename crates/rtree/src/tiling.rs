//! Sort-Tile-Recursive packing for the bulk loader: the tiling primitives
//! ([`Tileable`], [`chunk_balanced`], [`tile`]) that
//! [`RTree::bulk_load`](crate::RTree::bulk_load) groups entries into nodes
//! with.

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
