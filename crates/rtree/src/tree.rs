//! The R*-tree proper: construction, insertion, deletion.

use crate::codec::{check_node, encode_node, NodeEntries, NodeView};
use crate::entry::{InnerEntry, LeafEntry};
use crate::error::{RTreeError, RTreeResult};
use crate::node::Node;
use crate::params::RTreeParams;
use crate::params::SplitPolicy;
use crate::split::{linear_split, quadratic_split, rstar_split};
use cpq_geo::{Point, Rect};
use cpq_storage::{BufferPool, PageId};
use std::cmp::Ordering;
use std::collections::{HashSet, VecDeque};
use std::sync::Arc;

/// Either kind of entry, used by forced reinsertion and orphan handling,
/// which move both data points (level 0) and whole subtrees (level ≥ 1).
#[derive(Debug, Clone, Copy)]
pub(crate) enum AnyEntry<const D: usize> {
    /// A data point destined for a leaf.
    Leaf(LeafEntry<D>),
    /// A subtree pointer destined for an inner node.
    Inner(InnerEntry<D>),
}

impl<const D: usize> AnyEntry<D> {
    pub(crate) fn mbr(&self) -> Rect<D> {
        match self {
            AnyEntry::Leaf(e) => e.mbr(),
            AnyEntry::Inner(e) => e.mbr,
        }
    }
}

/// An R*-tree storing `D`-dimensional [`Point`]s (the paper's setting) in a
/// paged buffer pool.
///
/// Levels count from the leaves: leaves are level 0 and the root is the
/// single node at level `height - 1`. Every node occupies one page; node
/// fetches go through the pool, so the pool's miss counter is exactly the
/// paper's "disk accesses" metric.
pub struct RTree<const D: usize> {
    pool: Arc<BufferPool>,
    params: RTreeParams,
    root: PageId,
    height: u8,
    len: u64,
    cow: Option<CowState>,
}

/// Copy-on-write bookkeeping for one uncommitted update batch.
///
/// While active, every node write to a page that predates the batch is
/// redirected to a freshly allocated page (the old page is *retired*, not
/// freed), so pages reachable from any previously published root are never
/// overwritten in place. Pages allocated within the batch stay writable in
/// place; a fresh page freed within the same batch is released immediately
/// since no snapshot can reference it.
#[derive(Debug, Default)]
struct CowState {
    /// Pages allocated during the current batch (writable in place).
    fresh: HashSet<PageId>,
    /// Pre-batch pages superseded or logically freed by the batch; they
    /// stay allocated until the caller decides no snapshot needs them.
    retired: Vec<PageId>,
}

/// The one check of what may be indexed, shared by [`RTree::insert`] and
/// [`RTree::bulk_load`]: a NaN or infinite coordinate would poison every
/// MBR above it and every distance computed against it.
pub(crate) fn check_indexable<const D: usize>(object: &Point<D>) -> RTreeResult<()> {
    if object.is_finite() {
        Ok(())
    } else {
        Err(RTreeError::InvalidParams(
            "cannot index a non-finite object".into(),
        ))
    }
}

impl<const D: usize> RTree<D> {
    /// Creates an empty tree over `pool`.
    pub fn new(pool: BufferPool, params: RTreeParams) -> RTreeResult<Self> {
        Self::from_descriptor(pool, params, (PageId::INVALID, 0, 0))
    }

    /// Re-attaches a tree whose pages already live in `pool` (e.g. after
    /// reopening a [`DiskPageFile`](cpq_storage::DiskPageFile)); the caller
    /// supplies the descriptor returned by [`descriptor`](Self::descriptor).
    pub fn from_descriptor(
        pool: BufferPool,
        params: RTreeParams,
        descriptor: (PageId, u8, u64),
    ) -> RTreeResult<Self> {
        Self::from_descriptor_shared(Arc::new(pool), params, descriptor)
    }

    /// [`from_descriptor`](Self::from_descriptor) over a shared pool: this
    /// is how epoch snapshots are materialized — a published `(root,
    /// height, len)` descriptor plus the writer's pool yields a read-only
    /// view whose pages copy-on-write updates never touch.
    pub fn from_descriptor_shared(
        pool: Arc<BufferPool>,
        params: RTreeParams,
        descriptor: (PageId, u8, u64),
    ) -> RTreeResult<Self> {
        params.validate(pool.page_size(), D)?;
        let (root, height, len) = descriptor;
        Ok(RTree {
            pool,
            params,
            root,
            height,
            len,
            cow: None,
        })
    }

    /// `(root page, height, object count)` — enough to re-attach the tree.
    pub fn descriptor(&self) -> (PageId, u8, u64) {
        (self.root, self.height, self.len)
    }

    /// Number of indexed objects.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// `true` when the tree holds no objects.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Height of the tree (0 when empty; 1 when the root is a leaf).
    pub fn height(&self) -> u8 {
        self.height
    }

    /// Root page id ([`PageId::INVALID`] when empty).
    pub fn root(&self) -> PageId {
        self.root
    }

    /// Tree parameters.
    pub fn params(&self) -> RTreeParams {
        self.params
    }

    /// The buffer pool backing the tree (for statistics and configuration).
    pub fn pool(&self) -> &BufferPool {
        &self.pool
    }

    /// A shareable handle to the backing pool, for attaching snapshot
    /// readers via [`from_descriptor_shared`](Self::from_descriptor_shared).
    pub fn pool_shared(&self) -> Arc<BufferPool> {
        Arc::clone(&self.pool)
    }

    /// Enters copy-on-write mode: from now on, updates never overwrite a
    /// page that existed before the current batch — modified nodes move to
    /// fresh pages and the superseded ones are *retired* (kept allocated)
    /// so concurrently published snapshots stay readable. Idempotent.
    pub fn cow_enable(&mut self) {
        if self.cow.is_none() {
            self.cow = Some(CowState::default());
        }
    }

    /// Drains the current copy-on-write batch and starts the next one,
    /// returning the pre-batch pages it stopped referencing: the caller
    /// owns freeing them once no reader snapshot can still reach them.
    /// Pages allocated by the drained batch become protected again: the
    /// caller is expected to publish the new descriptor, making them
    /// reachable from a snapshot. Panics outside COW mode (a programming
    /// error, not a data error).
    pub fn cow_take(&mut self) -> Vec<PageId> {
        #[expect(clippy::expect_used, reason = "cow_take without cow_enable is a bug")]
        let state = self.cow.as_mut().expect("cow_take without cow_enable");
        state.fresh.clear();
        std::mem::take(&mut state.retired)
    }

    /// Reads a node: the one node-read path. Counts one logical page read.
    ///
    /// The node is its page: the view shares the bytes of the pool's frame
    /// and reads entries from them in place. The page's node format is
    /// checked at most once per residency
    /// ([`BufferPool::read_checked`]), so a hit on a resident page costs
    /// the pool's hit and nothing else. Writers copy the entries out into
    /// an owned node.
    pub fn read_node(&self, id: PageId) -> RTreeResult<NodeView<D>> {
        self.pool
            .read_checked(id, |bytes| check_node::<D>(id, bytes))
            .map(NodeView::new)
    }

    /// Hints that these node pages will likely be read soon. On a pool
    /// backed by the I/O scheduler the pages are fetched at low priority
    /// in idle disk gaps so a later [`read_node`](Self::read_node) finds
    /// them ready; on a plain pool this is a no-op. Never moves the
    /// logical read/hit/miss counters — the paper's disk-access metric
    /// only sees demand traffic.
    pub fn prefetch(&self, ids: &[PageId]) {
        self.pool.prefetch(ids);
    }

    /// MBR of the whole tree (reads the root page), or `None` when empty.
    pub fn root_mbr(&self) -> RTreeResult<Option<Rect<D>>> {
        if !self.root.is_valid() {
            return Ok(None);
        }
        Ok(self.read_node(self.root)?.mbr())
    }

    pub(crate) fn write_node(&self, id: PageId, node: &Node<D>) -> RTreeResult<()> {
        let mut buf = vec![0u8; self.pool.page_size()];
        let len = encode_node(node, &mut buf)?;
        // The encoded prefix only: the rest of the page reads as zero.
        self.pool.write_page(id, &buf[..len])?;
        Ok(())
    }

    /// Writes `node` "at" `id`, honoring copy-on-write: outside COW mode
    /// (or when `id` is fresh within the current batch) this is an
    /// in-place write returning `id`; otherwise the node lands on a fresh
    /// page, `id` is retired, and the new id is returned for the caller to
    /// thread into the parent entry.
    fn place_node(&mut self, id: PageId, node: &Node<D>) -> RTreeResult<PageId> {
        let redirect = match &self.cow {
            Some(state) => !state.fresh.contains(&id),
            None => false,
        };
        if redirect {
            let new_id = self.alloc_write(node)?;
            if let Some(state) = self.cow.as_mut() {
                state.retired.push(id);
            }
            Ok(new_id)
        } else {
            self.write_node(id, node)?;
            Ok(id)
        }
    }

    pub(crate) fn alloc_write(&mut self, node: &Node<D>) -> RTreeResult<PageId> {
        let id = self.pool.allocate()?;
        self.write_node(id, node)?;
        if let Some(state) = self.cow.as_mut() {
            state.fresh.insert(id);
        }
        Ok(id)
    }

    /// Releases a node page, honoring copy-on-write: a pre-batch page is
    /// retired (snapshots may still read it), while a page fresh within
    /// the current batch — invisible to every snapshot — is freed
    /// immediately.
    fn free_or_retire(&mut self, id: PageId) -> RTreeResult<()> {
        match self.cow.as_mut() {
            Some(state) => {
                if state.fresh.remove(&id) {
                    self.pool.free_page(id)?;
                } else {
                    state.retired.push(id);
                }
                Ok(())
            }
            None => Ok(self.pool.free_page(id)?),
        }
    }

    /// Installs the root descriptor after a bulk load.
    pub(crate) fn set_descriptor_after_bulk(&mut self, root: PageId, height: u8, len: u64) {
        self.root = root;
        self.height = height;
        self.len = len;
    }

    #[expect(clippy::expect_used, reason = "entry_for links only non-empty nodes")]
    fn entry_for(&self, id: PageId, node: &Node<D>) -> InnerEntry<D> {
        InnerEntry::new(
            node.mbr().expect("entry_for on empty node"),
            id,
            node.subtree_count(),
        )
    }

    /// Inserts an object with an application object id.
    ///
    /// Duplicate objects (same geometry, same or different oid) are
    /// allowed, like in the paper's uniform datasets.
    pub fn insert(&mut self, object: Point<D>, oid: u64) -> RTreeResult<()> {
        check_indexable(&object)?;
        if !self.root.is_valid() {
            let node = Node::Leaf(vec![LeafEntry::new(object, oid)]);
            self.root = self.alloc_write(&node)?;
            self.height = 1;
            self.len = 1;
            return Ok(());
        }
        self.insert_at_level(AnyEntry::Leaf(LeafEntry::new(object, oid)), 0)?;
        self.len += 1;
        Ok(())
    }

    /// Inserts `entry` into a node at `level`, with R* overflow treatment.
    /// Does **not** touch `self.len` (also used for reinsertions).
    pub(crate) fn insert_at_level(&mut self, entry: AnyEntry<D>, level: u8) -> RTreeResult<()> {
        // Forced reinsertion is permitted once per level per data insert
        // (Beckmann et al.'s OverflowTreatment).
        let mut overflowed = vec![false; self.height as usize];
        let mut queue: VecDeque<(AnyEntry<D>, u8)> = VecDeque::new();
        queue.push_back((entry, level));
        while let Some((e, lvl)) = queue.pop_front() {
            let root_level = self.height - 1;
            debug_assert!(lvl <= root_level, "entry level beyond root");
            let (updated, split) =
                self.insert_rec(self.root, root_level, e, lvl, &mut overflowed, &mut queue)?;
            if let Some(sibling) = split {
                let new_root = Node::Inner {
                    level: root_level + 1,
                    entries: vec![updated, sibling],
                };
                self.root = self.alloc_write(&new_root)?;
                self.height += 1;
                overflowed.push(false);
            } else {
                // Under copy-on-write the root node may have moved to a
                // fresh page; in place mode this is a no-op.
                self.root = updated.child;
            }
        }
        Ok(())
    }

    /// Recursive insertion step. Returns the refreshed entry describing
    /// `node_id` and, if the node split, the entry of the new sibling.
    #[allow(
        clippy::too_many_arguments,
        reason = "the recursion carries the target level, the overflow flags and the reinsert queue down every level"
    )]
    fn insert_rec(
        &mut self,
        node_id: PageId,
        node_level: u8,
        entry: AnyEntry<D>,
        target_level: u8,
        overflowed: &mut [bool],
        queue: &mut VecDeque<(AnyEntry<D>, u8)>,
    ) -> RTreeResult<(InnerEntry<D>, Option<InnerEntry<D>>)> {
        let mut node = self.read_node(node_id)?.to_node();
        debug_assert_eq!(node.level(), node_level, "level mismatch on {node_id}");

        if node_level == target_level {
            match (&mut node, entry) {
                (Node::Leaf(es), AnyEntry::Leaf(e)) => es.push(e),
                (Node::Inner { entries, .. }, AnyEntry::Inner(e)) => entries.push(e),
                _ => {
                    return Err(RTreeError::InvariantViolation(format!(
                        "entry kind does not match node kind at level {node_level}"
                    )))
                }
            }
        } else {
            let idx = self.choose_subtree(&node, &entry.mbr());
            let child = node.inner_entries()[idx];
            let (updated, split) = self.insert_rec(
                child.child,
                node_level - 1,
                entry,
                target_level,
                overflowed,
                queue,
            )?;
            node.inner_entries_mut()[idx] = updated;
            if let Some(sibling) = split {
                node.inner_entries_mut().push(sibling);
            }
        }

        if node.len() > self.params.max_entries {
            let root_level = self.height - 1;
            // Forced reinsertion is an R*-only optimization; the Guttman
            // variants split immediately.
            let can_reinsert = self.params.split_policy == SplitPolicy::RStar
                && node_level < root_level
                && !overflowed[node_level as usize];
            if can_reinsert {
                overflowed[node_level as usize] = true;
                let removed = self.reinsert_select(&mut node);
                let placed = self.place_node(node_id, &node)?;
                for e in removed {
                    queue.push_back((e, node_level));
                }
                return Ok((self.entry_for(placed, &node), None));
            }
            let (a, b) = self.split_node(node);
            let a_id = self.place_node(node_id, &a)?;
            let b_id = self.alloc_write(&b)?;
            return Ok((self.entry_for(a_id, &a), Some(self.entry_for(b_id, &b))));
        }

        let placed = self.place_node(node_id, &node)?;
        Ok((self.entry_for(placed, &node), None))
    }

    /// `ChooseSubtree`: among the children of `node`, pick where an entry
    /// with MBR `mbr` should descend.
    ///
    /// R\* rule (the default):
    /// * Children are leaves (`node` at level 1): minimize **overlap
    ///   enlargement**, ties by area enlargement, then by area
    ///   ([`least_overlap_enlargement`]).
    /// * Otherwise: minimize **area enlargement**, ties by area.
    ///
    /// Guttman variants use the classic least-enlargement rule at every
    /// level. Every rule keeps the lowest index among equal keys.
    fn choose_subtree(&self, node: &Node<D>, mbr: &Rect<D>) -> usize {
        let entries = node.inner_entries();
        debug_assert!(!entries.is_empty(), "choose_subtree on empty node");
        if self.params.split_policy == SplitPolicy::RStar && node.level() == 1 {
            least_overlap_enlargement(entries, mbr)
        } else {
            let mut best = 0usize;
            let mut best_key = (f64::INFINITY, f64::INFINITY);
            for (i, e) in entries.iter().enumerate() {
                let key = (e.mbr.enlargement(mbr), e.mbr.area());
                if key < best_key {
                    best_key = key;
                    best = i;
                }
            }
            best
        }
    }

    /// Forced-reinsert selection: removes the `p` entries whose centers are
    /// farthest from the node MBR's center and returns them sorted by
    /// *increasing* distance (Beckmann et al.'s "close reinsert").
    fn reinsert_select(&self, node: &mut Node<D>) -> Vec<AnyEntry<D>> {
        let p = self
            .params
            .reinsert_count()
            .min(node.len() - self.params.min_entries());
        #[expect(clippy::expect_used, reason = "reinsert fires on overflowing nodes")]
        let center = node.mbr().expect("reinsert on empty node").center();
        match node {
            Node::Leaf(es) => {
                let mut idx: Vec<usize> = (0..es.len()).collect();
                idx.sort_by(|&a, &b| {
                    es[b]
                        .mbr()
                        .center()
                        .dist2(&center)
                        .total_cmp(&es[a].mbr().center().dist2(&center))
                });
                let removed_set: Vec<usize> = idx[..p].to_vec();
                let mut removed: Vec<(f64, AnyEntry<D>)> = removed_set
                    .iter()
                    .map(|&i| (es[i].mbr().center().dist2(&center), AnyEntry::Leaf(es[i])))
                    .collect();
                let mut keep: Vec<LeafEntry<D>> = Vec::with_capacity(es.len() - p);
                for (i, e) in es.iter().enumerate() {
                    if !removed_set.contains(&i) {
                        keep.push(*e);
                    }
                }
                *es = keep;
                removed.sort_by(|a, b| a.0.total_cmp(&b.0));
                removed.into_iter().map(|(_, e)| e).collect()
            }
            Node::Inner { entries, .. } => {
                let mut idx: Vec<usize> = (0..entries.len()).collect();
                idx.sort_by(|&a, &b| {
                    entries[b]
                        .mbr
                        .center()
                        .dist2(&center)
                        .total_cmp(&entries[a].mbr.center().dist2(&center))
                });
                let removed_set: Vec<usize> = idx[..p].to_vec();
                let mut removed: Vec<(f64, AnyEntry<D>)> = removed_set
                    .iter()
                    .map(|&i| {
                        (
                            entries[i].mbr.center().dist2(&center),
                            AnyEntry::Inner(entries[i]),
                        )
                    })
                    .collect();
                let mut keep: Vec<InnerEntry<D>> = Vec::with_capacity(entries.len() - p);
                for (i, e) in entries.iter().enumerate() {
                    if !removed_set.contains(&i) {
                        keep.push(*e);
                    }
                }
                *entries = keep;
                removed.sort_by(|a, b| a.0.total_cmp(&b.0));
                removed.into_iter().map(|(_, e)| e).collect()
            }
        }
    }

    fn split_node(&self, node: Node<D>) -> (Node<D>, Node<D>) {
        fn dispatch<const D: usize, T: crate::split::SplitItem<D>>(
            policy: SplitPolicy,
            items: Vec<T>,
            min: usize,
        ) -> (Vec<T>, Vec<T>) {
            match policy {
                SplitPolicy::RStar => rstar_split(items, min),
                SplitPolicy::GuttmanQuadratic => quadratic_split(items, min),
                SplitPolicy::GuttmanLinear => linear_split(items, min),
            }
        }
        let policy = self.params.split_policy;
        match node {
            Node::Leaf(es) => {
                let (a, b) = dispatch(policy, es, self.params.min_entries());
                (Node::Leaf(a), Node::Leaf(b))
            }
            Node::Inner { level, entries } => {
                let (a, b) = dispatch(policy, entries, self.params.min_entries());
                (
                    Node::Inner { level, entries: a },
                    Node::Inner { level, entries: b },
                )
            }
        }
    }

    /// Deletes one occurrence of `(object, oid)`. Returns `true` when found.
    ///
    /// Underflowing nodes are dissolved and their entries reinserted
    /// (Guttman's `CondenseTree`, as adopted by the R*-tree).
    pub fn delete(&mut self, object: Point<D>, oid: u64) -> RTreeResult<bool> {
        if !self.root.is_valid() {
            return Ok(false);
        }
        let mut orphans: Vec<(AnyEntry<D>, u8)> = Vec::new();
        let root_level = self.height - 1;
        let found =
            match self.delete_rec(self.root, root_level, true, &object, oid, &mut orphans)? {
                DeleteOutcome::NotFound => false,
                DeleteOutcome::Updated(e) => {
                    // Thread the root's possibly-new page id (copy-on-write).
                    self.root = e.child;
                    true
                }
                DeleteOutcome::Removed => {
                    unreachable!("the root is never condensed away by delete_rec")
                }
            };
        if !found {
            debug_assert!(orphans.is_empty());
            return Ok(false);
        }
        self.len -= 1;

        for (entry, level) in orphans {
            self.insert_at_level(entry, level)?;
        }

        // Shrink the root: an inner root with a single child is replaced by
        // that child; an empty leaf root empties the tree.
        loop {
            match self.read_node(self.root)?.entries() {
                NodeEntries::Inner(entries) if entries.len() == 1 => {
                    let child = entries.get(0).child;
                    let old_root = self.root;
                    self.free_or_retire(old_root)?;
                    self.root = child;
                    self.height -= 1;
                }
                NodeEntries::Leaf(es) if es.is_empty() => {
                    let old_root = self.root;
                    self.free_or_retire(old_root)?;
                    self.root = PageId::INVALID;
                    self.height = 0;
                    debug_assert_eq!(self.len, 0);
                    break;
                }
                _ => break,
            }
        }
        Ok(true)
    }

    fn delete_rec(
        &mut self,
        node_id: PageId,
        node_level: u8,
        is_root: bool,
        object: &Point<D>,
        oid: u64,
        orphans: &mut Vec<(AnyEntry<D>, u8)>,
    ) -> RTreeResult<DeleteOutcome<D>> {
        let mut node = self.read_node(node_id)?.to_node();
        match &mut node {
            Node::Leaf(es) => {
                let Some(pos) = es.iter().position(|e| e.object == *object && e.oid == oid) else {
                    return Ok(DeleteOutcome::NotFound);
                };
                es.remove(pos);
                if !is_root && es.len() < self.params.min_entries() {
                    for e in es.iter() {
                        orphans.push((AnyEntry::Leaf(*e), 0));
                    }
                    self.free_or_retire(node_id)?;
                    return Ok(DeleteOutcome::Removed);
                }
                let placed = self.place_node(node_id, &node)?;
                if node.is_empty() {
                    // Empty leaf root: report a placeholder entry; the caller
                    // shrinks the tree away.
                    return Ok(DeleteOutcome::Updated(InnerEntry::new(
                        object.mbr(),
                        placed,
                        0,
                    )));
                }
                Ok(DeleteOutcome::Updated(self.entry_for(placed, &node)))
            }
            Node::Inner { entries, .. } => {
                let mut found_at: Option<(usize, DeleteOutcome<D>)> = None;
                for (i, e) in entries.iter().enumerate() {
                    if !e.mbr.contains_point(object) {
                        continue;
                    }
                    match self.delete_rec(e.child, node_level - 1, false, object, oid, orphans)? {
                        DeleteOutcome::NotFound => continue,
                        outcome => {
                            found_at = Some((i, outcome));
                            break;
                        }
                    }
                }
                let Some((idx, outcome)) = found_at else {
                    return Ok(DeleteOutcome::NotFound);
                };
                match outcome {
                    DeleteOutcome::Updated(e) => entries[idx] = e,
                    DeleteOutcome::Removed => {
                        entries.remove(idx);
                    }
                    DeleteOutcome::NotFound => unreachable!(),
                }
                if !is_root && entries.len() < self.params.min_entries() {
                    for e in entries.iter() {
                        orphans.push((AnyEntry::Inner(*e), node_level));
                    }
                    self.free_or_retire(node_id)?;
                    return Ok(DeleteOutcome::Removed);
                }
                let placed = self.place_node(node_id, &node)?;
                Ok(DeleteOutcome::Updated(self.entry_for(placed, &node)))
            }
        }
    }
}

/// The R\* `ChooseSubtree` rule for a node whose children are leaves: the
/// index of the child whose enlargement to cover `mbr` adds the least
/// overlap with its siblings, ties by area enlargement, then by area, then
/// by the lower index.
///
/// Every child's overlap enlargement costs `O(M)` intersections, all of them
/// `O(M²)`, yet the answer is usually settled by the first one computed:
/// children are visited in ascending `(area enlargement, area, index)` order
/// and the first whose overlap enlargement is exactly `0.0` wins. That is
/// exact in floating point too. An overlap enlargement is a sum of terms
/// `A(E'∩F) − A(E∩F)` with `E ⊆ E'`: per axis the rounded extent of `E'∩F`
/// is at least that of `E∩F`, a rounded product of non-negative factors is
/// monotone in each, and `intersection_area` returns `0.0` as soon as an
/// extent is not positive — so each term, and the sum, is `>= +0.0`, and no
/// child visited later can have a smaller `(overlap, enlargement, area,
/// index)` key. Every overlap still computed sums its terms in sibling
/// order, bit for bit what the full scan computes.
///
/// The order needs comparable keys: when an enlargement or an area is NaN
/// (only coordinate spans beyond `f64::MAX` make one) the children are
/// visited in index order, all of them — the full scan.
fn least_overlap_enlargement<const D: usize>(entries: &[InnerEntry<D>], mbr: &Rect<D>) -> usize {
    let mut order: Vec<(f64, f64, usize)> = entries
        .iter()
        .enumerate()
        .map(|(i, e)| (e.mbr.enlargement(mbr), e.mbr.area(), i))
        .collect();
    let comparable = order
        .iter()
        .all(|&(enlargement, area, _)| !enlargement.is_nan() && !area.is_nan());
    if comparable {
        order.sort_by(|a, b| a.partial_cmp(b).unwrap_or(Ordering::Equal));
    }
    let mut best = (f64::INFINITY, f64::INFINITY, f64::INFINITY, 0);
    for (enlargement, area, i) in order {
        let e = &entries[i];
        let enlarged = e.mbr.union(mbr);
        let mut overlap = 0.0;
        for (j, other) in entries.iter().enumerate() {
            if i != j {
                overlap +=
                    enlarged.intersection_area(&other.mbr) - e.mbr.intersection_area(&other.mbr);
            }
        }
        if comparable && overlap == 0.0 {
            return i;
        }
        let key = (overlap, enlargement, area, i);
        if key < best {
            best = key;
        }
    }
    best.3
}

enum DeleteOutcome<const D: usize> {
    /// The object was not found under this node.
    NotFound,
    /// The object was removed; here is the refreshed entry for this node.
    Updated(InnerEntry<D>),
    /// This node underflowed and was dissolved into orphans.
    Removed,
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpq_rng::Rng;
    use cpq_storage::MemPageFile;

    /// The rule [`least_overlap_enlargement`] replaces, as it stood: every
    /// child's overlap enlargement against every sibling, in index order.
    fn full_scan<const D: usize>(entries: &[InnerEntry<D>], mbr: &Rect<D>) -> usize {
        let mut best = 0usize;
        let mut best_key = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
        for (i, e) in entries.iter().enumerate() {
            let enlarged = e.mbr.union(mbr);
            let mut overlap_delta = 0.0;
            for (j, other) in entries.iter().enumerate() {
                if i == j {
                    continue;
                }
                overlap_delta +=
                    enlarged.intersection_area(&other.mbr) - e.mbr.intersection_area(&other.mbr);
            }
            let key = (overlap_delta, enlarged.area() - e.mbr.area(), e.mbr.area());
            if key < best_key {
                best_key = key;
                best = i;
            }
        }
        best
    }

    fn build<const D: usize>(points: &[Point<D>], max_entries: usize) -> RTree<D> {
        let pool = BufferPool::with_lru(Box::new(MemPageFile::new(4096)), 4096);
        let mut tree = RTree::new(pool, RTreeParams::with_max_entries(max_entries)).unwrap();
        for (oid, p) in points.iter().enumerate() {
            tree.insert(*p, oid as u64).unwrap();
        }
        tree
    }

    /// The children of every level-1 node of `tree`.
    fn leaf_parents<const D: usize>(tree: &RTree<D>) -> Vec<Vec<InnerEntry<D>>> {
        let mut out = Vec::new();
        let mut stack = vec![tree.root()];
        while let Some(id) = stack.pop() {
            let node = tree.read_node(id).unwrap();
            if let NodeEntries::Inner(entries) = node.entries() {
                if node.level() == 1 {
                    out.push(entries.iter().collect());
                } else {
                    stack.extend(entries.iter().map(|e| e.child));
                }
            }
        }
        out
    }

    /// The children of a node built directly from their MBRs.
    fn inner_node<const D: usize>(rects: &[Rect<D>]) -> Vec<InnerEntry<D>> {
        rects
            .iter()
            .enumerate()
            .map(|(i, &mbr)| InnerEntry::new(mbr, PageId(i as u32), 1))
            .collect()
    }

    /// MBRs to insert under `entries`: per child its own MBR, its center,
    /// both corners, a face midpoint, a zero-extent slab across it, a point
    /// just outside and one far outside; plus random points of the node's
    /// MBR. Children that share an MBR (duplicates, identical points) tie
    /// exactly in enlargement and area on all of these.
    fn probes<const D: usize>(entries: &[InnerEntry<D>], r: &mut Rng) -> Vec<Rect<D>> {
        let node = entries
            .iter()
            .skip(1)
            .fold(entries[0].mbr, |a, e| a.union(&e.mbr));
        let mut out = Vec::new();
        for e in entries {
            let (lo, hi, c) = (e.mbr.lo().0, e.mbr.hi().0, e.mbr.center().0);
            let mut face = c;
            face[0] = lo[0];
            let mut slab_lo = c;
            let mut slab_hi = c;
            slab_lo[0] = lo[0];
            slab_hi[0] = hi[0];
            let near = lo.map(|v| v - 1.0);
            let far = hi.map(|v| v + 1e3);
            for p in [c, lo, hi, face, near, far] {
                out.push(Rect::point(Point(p)));
            }
            out.push(e.mbr);
            out.push(Rect::from_corners(slab_lo, slab_hi));
        }
        for _ in 0..entries.len() {
            let mut p = [0.0; D];
            for (d, v) in p.iter_mut().enumerate() {
                let (lo, hi) = (node.lo().coord(d), node.hi().coord(d));
                *v = if hi > lo { r.random_range(lo..hi) } else { lo };
            }
            out.push(Rect::point(Point(p)));
        }
        out
    }

    /// Both rules on every node of `nodes` (each given by its children),
    /// on the node as given, reversed (ties resolve by index) and with its
    /// first children duplicated at the end (exact ties in every key
    /// component). Returns how many choices were compared.
    fn same_choices<const D: usize>(nodes: Vec<Vec<InnerEntry<D>>>, seed: u64) -> usize {
        let mut r = Rng::seed_from_u64(seed);
        let mut compared = 0;
        for entries in nodes {
            let mut reversed = entries.clone();
            reversed.reverse();
            let mut doubled = entries.clone();
            doubled.extend_from_slice(&entries[..entries.len().div_ceil(2)]);
            for node in [entries, reversed, doubled] {
                for mbr in probes(&node, &mut r) {
                    assert_eq!(
                        least_overlap_enlargement(&node, &mbr),
                        full_scan(&node, &mbr),
                        "inserting {mbr:?} under {node:?}"
                    );
                    compared += 1;
                }
            }
        }
        assert!(compared > 0, "no node: the tree is too small");
        compared
    }

    fn points<const D: usize>(
        n: usize,
        seed: u64,
        coord: impl Fn(&mut Rng, usize) -> f64,
    ) -> Vec<Point<D>> {
        let mut r = Rng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let mut p = [0.0; D];
                for (d, v) in p.iter_mut().enumerate() {
                    *v = coord(&mut r, d);
                }
                Point(p)
            })
            .collect()
    }

    #[test]
    fn the_pruned_rule_chooses_what_the_full_scan_chooses() {
        let grid = |r: &mut Rng, _: usize| r.random_range(0u32..16) as f64 * 62.5;
        let uniform = |r: &mut Rng, _: usize| r.random_range(0.0..1000.0);
        let collinear = |r: &mut Rng, d: usize| {
            if d == 0 {
                r.random_range(0.0..1000.0)
            } else {
                500.0
            }
        };
        let three = |r: &mut Rng, _: usize| [0.0, 1.0, 2.0][r.random_range(0usize..3)];
        let mut compared = 0;
        for m in [4, 21] {
            compared += same_choices(leaf_parents(&build(&points::<2>(1500, 1, grid), m)), 11);
            compared += same_choices(
                leaf_parents(&build(&points::<2>(1500, 2, collinear), m)),
                12,
            );
            compared += same_choices(
                leaf_parents(&build(&points::<2>(600, 3, |_, _| 7.0), m)),
                13,
            );
            compared += same_choices(leaf_parents(&build(&points::<2>(600, 4, three), m)), 14);
            compared += same_choices(leaf_parents(&build(&points::<3>(1500, 5, uniform), m)), 15);
            compared += same_choices(leaf_parents(&build(&points::<3>(1500, 6, grid), m)), 16);
            // Children with zero extents: points, horizontal and vertical
            // segments, and a few proper boxes, `m` to a node.
            let mut r = Rng::seed_from_u64(7);
            let rects: Vec<Rect<2>> = (0..1500)
                .map(|i| {
                    let lo = [grid(&mut r, 0), grid(&mut r, 1)];
                    let w = r.random_range(0.0..80.0);
                    match i % 4 {
                        0 => Rect::from_corners(lo, lo),
                        1 => Rect::from_corners(lo, [lo[0] + w, lo[1]]),
                        2 => Rect::from_corners(lo, [lo[0], lo[1] + w]),
                        _ => Rect::from_corners(lo, [lo[0] + w, lo[1] + w]),
                    }
                })
                .collect();
            compared += same_choices(rects.chunks(m).map(inner_node).collect(), 17);
        }
        assert!(compared > 100_000, "only {compared} choices compared");
    }

    /// A one-entry inner node page whose entry's corners are `lo` and
    /// `hi`, as the codec writes it (a `lo > hi` corner is written as given).
    fn inner_page(lo: [f64; 2], hi: [f64; 2]) -> Vec<u8> {
        let node: Node<2> = Node::Inner {
            level: 1,
            entries: vec![InnerEntry::new(
                Rect::from_corners([0.0; 2], [1.0; 2]),
                PageId(7),
                3,
            )],
        };
        let mut page = vec![0u8; 1024];
        encode_node(&node, &mut page).unwrap();
        for (d, (l, h)) in lo.iter().zip(hi).enumerate() {
            let at = crate::codec::NODE_HEADER_LEN + 8 * d;
            page[at..at + 8].copy_from_slice(&l.to_le_bytes());
            page[at + 16..at + 24].copy_from_slice(&h.to_le_bytes());
        }
        page
    }

    /// On a page file that stores it intact (its checksum, where the file
    /// keeps one, matches), a node page whose inner entry has `lo > hi` is
    /// refused as `CorruptNode`: on the first read after a miss, on every
    /// read while it stays resident, and again after a write of the same
    /// bytes. The check runs on every one of those reads and on none of the
    /// hits on a frame whose bytes passed it.
    fn the_check_runs_once_per_residency_never_less(file: Box<dyn cpq_storage::PageFile>) {
        let pool = Arc::new(BufferPool::with_lru(file, 4));
        let id = pool.allocate().unwrap();
        let bad = inner_page([2.0, 0.0], [1.0, 1.0]);
        let good = inner_page([0.0, 0.0], [1.0, 1.0]);
        pool.write_page(id, &bad).unwrap();
        pool.clear();
        let tree =
            RTree::<2>::from_descriptor_shared(Arc::clone(&pool), RTreeParams::paper(), (id, 2, 3))
                .unwrap();
        let checks = std::cell::Cell::new(0);
        let read = || {
            pool.read_checked(id, |bytes| {
                checks.set(checks.get() + 1);
                check_node::<2>(id, bytes)
            })
        };
        let refused = |r: RTreeResult<()>| matches!(r, Err(RTreeError::CorruptNode { page, .. }) if page == id);
        let misses = pool.buffer_stats().misses;
        assert!(refused(read().map(drop)), "the first read after a miss");
        assert_eq!((pool.buffer_stats().misses - misses, checks.get()), (1, 1));
        assert!(refused(read().map(drop)), "a hit on the refused frame");
        assert!(refused(tree.read_node(id).map(drop)), "read_node");
        assert_eq!(checks.get(), 2, "a refused frame is checked again");
        pool.write_page(id, &bad).unwrap();
        assert!(refused(read().map(drop)), "after a write of the same bytes");
        assert_eq!(checks.get(), 3);
        pool.write_page(id, &good).unwrap();
        assert!(read().is_ok());
        assert_eq!(checks.get(), 4);
        for _ in 0..3 {
            let hits = pool.buffer_stats().hits;
            assert!(read().is_ok());
            assert_eq!(
                tree.read_node(id).unwrap().inner_entries().get(0).child,
                PageId(7)
            );
            assert_eq!(pool.buffer_stats().hits, hits + 2, "both reads hit");
        }
        assert_eq!(checks.get(), 4, "a hit on a checked frame checks nothing");
        // The bad bytes written over a checked frame are checked afresh.
        pool.write_page(id, &bad).unwrap();
        assert!(
            refused(tree.read_node(id).map(drop)),
            "after a write over checked bytes"
        );
        assert!(refused(read().map(drop)));
        assert_eq!(checks.get(), 5);
    }

    #[test]
    fn a_memory_page_is_checked_once_per_residency_never_less() {
        the_check_runs_once_per_residency_never_less(Box::new(MemPageFile::new(1024)));
    }

    #[test]
    fn a_disk_page_is_checked_once_per_residency_never_less() {
        let mut path = std::env::temp_dir();
        path.push(format!("cpq-rtree-check-{}.pages", std::process::id()));
        let file = cpq_storage::DiskPageFile::create(&path, 1024).unwrap();
        the_check_runs_once_per_residency_never_less(Box::new(file));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_nan_key_falls_back_to_the_full_scan() {
        // Spans beyond f64::MAX: an extent overflows to infinity, so an area
        // is `inf * 0` or an enlargement `inf - inf`, both NaN.
        let big = f64::MAX;
        // A NaN key compares equal to both neighbours in the sort, so
        // sorting would leave child 0 (enlargement 7) ahead of child 2
        // (enlargement 3), both of overlap enlargement 0.
        let unsortable = inner_node(&[
            Rect::from_corners([1.0, 1.0], [2.0, 6.0]),
            Rect::from_corners([-big, 0.0], [big, 0.0]),
            Rect::from_corners([1.0, 1.0], [2.0, 2.0]),
        ]);
        let origin = Rect::point(Point([0.0, 0.0]));
        assert_eq!(full_scan(&unsortable, &origin), 2);
        assert_eq!(least_overlap_enlargement(&unsortable, &origin), 2);
        let entries = inner_node(&[
            Rect::from_corners([-big, 0.0], [big, 0.0]),
            Rect::from_corners([-big, -big], [big, big]),
            Rect::from_corners([0.0, 0.0], [1.0, 1.0]),
            Rect::from_corners([2.0, 2.0], [3.0, 3.0]),
        ]);
        for mbr in [
            Rect::point(Point([0.5, 0.5])),
            Rect::point(Point([2.5, 2.5])),
            Rect::point(Point([-big, big])),
            Rect::from_corners([-big, -big], [big, big]),
        ] {
            assert_eq!(
                least_overlap_enlargement(&entries, &mbr),
                full_scan(&entries, &mbr)
            );
        }
    }
}
