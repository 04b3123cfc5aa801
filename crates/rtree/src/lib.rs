//! R*-tree over a paged, buffer-managed store.
//!
//! This crate implements the access method the paper's experiments run on:
//! the R*-tree of *Beckmann, Kriegel, Schneider, Seeger (SIGMOD 1990)* — the
//! "most efficient variant of the R-tree family" per Section 2.2 of
//! *Corral et al. (SIGMOD 2000)* — storing 2-d (generically, `D`-d) points.
//! Points are the one object type: a leaf entry is a [`Point`](cpq_geo::Point)
//! and an oid, and every type here is generic over the dimension only.
//!
//! Nodes are serialized into fixed-size pages of a
//! [`BufferPool`](cpq_storage::BufferPool); every node visit is a logical
//! page read, and buffer misses are the *disk accesses* the experiments
//! count. The page is the node: [`RTree::read_node`] returns a
//! [`NodeView`] over the pool frame's bytes, which reads entries in place,
//! so no decoded copy of a page is kept beside it. The paper's exact
//! configuration (1 KiB pages, node capacity `M = 21`, minimum occupancy
//! `m = M/3 = 7`) is [`RTreeParams::paper`].
//!
//! Features:
//!
//! * **R\* insertion** — `ChooseSubtree` with overlap-minimization at the
//!   leaf level, forced reinsertion (30 % of `M+1`, once per level per data
//!   insert), and the R\* margin-driven split. The overlap rule visits the
//!   children in ascending `(area enlargement, area, index)` order and stops
//!   at the first whose overlap enlargement is `0.0`. The stop is exact:
//!   every term of an overlap enlargement is `>= 0.0` in floating point too.
//!   So the rule picks the child the literal `O(M²)` rule picks, and the
//!   trees are the same page for page, at about half the insert cost.
//! * **Deletion** with tree condensation and orphan reinsertion.
//! * **Queries** — window (range), point, and K-nearest-neighbor (best-first
//!   with MINDIST pruning).
//! * **Bulk loading** — Sort-Tile-Recursive packing, used by large-scale
//!   benchmarks when insertion-built trees are not required.
//! * **Validation** — a structural invariant checker used heavily by the
//!   property tests.
//! * Every inner entry carries the **cardinality of its subtree**, which the
//!   closest-pair algorithms use for the MAXMAXDIST-based K-pruning bound.

mod bulk;
mod codec;
mod entry;
mod error;
mod node;
mod params;
mod query;
mod split;
mod tiling;
mod tree;
mod treestats;
mod validate;

pub use codec::{Entries, EntryIter, NodeEntries, NodeView, PageEntry, NODE_HEADER_LEN};
pub use entry::{InnerEntry, LeafEntry};
pub use error::{RTreeError, RTreeResult};
pub use params::{RTreeParams, SplitPolicy};
pub use query::KnnNeighbor;
pub use tree::RTree;
pub use treestats::LevelStats;
pub use validate::{ValidateOptions, ValidationReport};
