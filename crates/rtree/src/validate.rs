//! Structural invariant checker.
//!
//! Used pervasively by the test-suite: after arbitrary interleavings of
//! inserts and deletes (and after bulk loads), the tree must satisfy every
//! R*-tree invariant. Violations are collected, not panicked, so tests can
//! print them all.

use crate::error::RTreeResult;
use crate::node::Node;
use crate::tree::RTree;
use cpq_geo::{Rect, SpatialObject};
use cpq_storage::PageId;
use std::collections::{HashMap, HashSet};

/// Optional extra invariants for [`RTree::validate_with_options`].
#[derive(Debug, Default, Clone, Copy)]
pub struct ValidateOptions<const D: usize> {
    /// Require every leaf `oid` to appear at most once in the tree.
    ///
    /// Duplicate oids are *allowed* by [`RTree::insert`] in general (the
    /// paper's uniform datasets carry duplicate geometry), so this is
    /// opt-in; streams that key updates by oid (the live-update path) turn
    /// it on because a duplicate there means a lost or double-applied
    /// update.
    pub unique_oids: bool,
    /// Require every leaf object's MBR to lie (boundary-inclusively)
    /// inside this rectangle. Used by windowed-query tests: a tree built
    /// from the points inside a query window must validate against the
    /// window itself.
    pub bounds: Option<Rect<D>>,
}

/// Outcome of [`RTree::validate`]: statistics plus any violations found.
#[derive(Debug, Default)]
pub struct ValidationReport {
    /// Total nodes visited.
    pub nodes: u64,
    /// Leaf nodes visited.
    pub leaves: u64,
    /// Data objects counted in leaves.
    pub points: u64,
    /// Nodes per level, indexed by level (0 = leaves).
    pub nodes_per_level: Vec<u64>,
    /// Human-readable invariant violations (empty means the tree is valid).
    pub violations: Vec<String>,
}

impl ValidationReport {
    /// `true` when no violations were recorded.
    pub fn is_valid(&self) -> bool {
        self.violations.is_empty()
    }
}

impl<const D: usize, O: SpatialObject<D>> RTree<D, O> {
    /// Walks the whole tree checking every structural invariant:
    ///
    /// 1. every child entry's MBR equals the child node's computed MBR
    ///    (tight MBRs);
    /// 2. every child entry's cardinality equals the child subtree's count;
    /// 3. node occupancy is within `m..=M` (the root is exempt from `m`,
    ///    and an inner root must have at least 2 entries);
    /// 4. node levels decrease by exactly one per edge and leaves sit at
    ///    level 0 (uniform depth);
    /// 5. the tree's `len()` equals the number of points in leaves and the
    ///    `height()` matches the root level;
    /// 6. no page is referenced twice (no aliasing, no cycles) — the
    ///    invariant copy-on-write bugs break first: a parent cloned onto a
    ///    fresh page that still links a sibling's *old* child, or a
    ///    retired page resurrected into two paths, shows up here even when
    ///    counts and MBRs still happen to balance.
    pub fn validate(&self) -> RTreeResult<ValidationReport> {
        self.validate_with_options(ValidateOptions::default())
    }

    /// [`validate`](Self::validate) plus the opt-in invariants in
    /// [`ValidateOptions`].
    pub fn validate_with_options(&self, opts: ValidateOptions<D>) -> RTreeResult<ValidationReport> {
        let mut report = ValidationReport::default();
        if !self.root().is_valid() {
            if !self.is_empty() {
                report
                    .violations
                    .push(format!("empty root but len() = {}", self.len()));
            }
            if self.height() != 0 {
                report
                    .violations
                    .push(format!("empty root but height() = {}", self.height()));
            }
            return Ok(report);
        }
        let root_node = self.read_node(self.root())?;
        if root_node.level() + 1 != self.height() {
            report.violations.push(format!(
                "root level {} inconsistent with height {}",
                root_node.level(),
                self.height()
            ));
        }
        let mut ctx = WalkCtx {
            visited: HashSet::new(),
            oids: HashMap::new(),
            opts,
        };
        ctx.visited.insert(self.root());
        let count = self.validate_rec(self.root(), &root_node, true, &mut report, &mut ctx)?;
        if count != self.len() {
            report.violations.push(format!(
                "tree len() = {} but leaves hold {count} points",
                self.len()
            ));
        }
        report.points = count;
        Ok(report)
    }

    fn validate_rec(
        &self,
        id: PageId,
        node: &Node<D, O>,
        is_root: bool,
        report: &mut ValidationReport,
        ctx: &mut WalkCtx<D>,
    ) -> RTreeResult<u64> {
        report.nodes += 1;
        let level = node.level() as usize;
        if report.nodes_per_level.len() <= level {
            report.nodes_per_level.resize(level + 1, 0);
        }
        report.nodes_per_level[level] += 1;

        let max = self.params().max_entries;
        let min = self.params().min_entries;
        if node.len() > max {
            report
                .violations
                .push(format!("{id}: {} entries exceed M = {max}", node.len()));
        }
        if is_root {
            match node {
                Node::Inner { entries, .. } if entries.len() < 2 => report.violations.push(
                    format!("{id}: inner root with {} < 2 entries", entries.len()),
                ),
                Node::Leaf(es) if es.is_empty() => report
                    .violations
                    .push(format!("{id}: empty leaf root should have been dropped")),
                _ => {}
            }
        } else if node.len() < min {
            report
                .violations
                .push(format!("{id}: {} entries below m = {min}", node.len()));
        }

        match node {
            Node::Leaf(es) => {
                report.leaves += 1;
                for e in es {
                    if !e.object.is_finite() {
                        report
                            .violations
                            .push(format!("{id}: non-finite object {:?}", e.object));
                    }
                    if ctx.opts.unique_oids {
                        if let Some(prev) = ctx.oids.insert(e.oid, id) {
                            report.violations.push(format!(
                                "{id}: oid {} already indexed in leaf {prev}",
                                e.oid
                            ));
                        }
                    }
                    if let Some(bounds) = &ctx.opts.bounds {
                        if !bounds.contains_rect(&e.object.mbr()) {
                            report.violations.push(format!(
                                "{id}: object {:?} (oid {}) outside required bounds {bounds:?}",
                                e.object, e.oid
                            ));
                        }
                    }
                }
                Ok(es.len() as u64)
            }
            Node::Inner { level, entries } => {
                let mut total = 0u64;
                for e in entries {
                    if !ctx.visited.insert(e.child) {
                        report.violations.push(format!(
                            "{id}: child page {} referenced more than once (aliasing or cycle)",
                            e.child
                        ));
                        continue; // do not recurse into an aliased subtree
                    }
                    let child = self.read_node(e.child)?;
                    if child.level() + 1 != *level {
                        report.violations.push(format!(
                            "{id}: child {} at level {} under parent level {level}",
                            e.child,
                            child.level()
                        ));
                    }
                    match child.mbr() {
                        Some(mbr) if mbr == e.mbr => {}
                        Some(mbr) => report.violations.push(format!(
                            "{id}: stale MBR for child {}: stored {:?}, computed {mbr:?}",
                            e.child, e.mbr
                        )),
                        None => report
                            .violations
                            .push(format!("{id}: child {} is empty", e.child)),
                    }
                    let child_count = child.subtree_count();
                    if child_count != e.count {
                        report.violations.push(format!(
                            "{id}: stale cardinality for child {}: stored {}, computed {child_count}",
                            e.child, e.count
                        ));
                    }
                    total += self.validate_rec(e.child, &child, false, report, ctx)?;
                }
                Ok(total)
            }
        }
    }

    /// Panics with all violations when the tree is invalid (test helper).
    pub fn assert_valid(&self) {
        // analyze: allow(panic-path) — assert_valid is a test helper
        // documented to panic on invalid trees.
        let report = self.validate().expect("validation walk failed");
        assert!(
            report.is_valid(),
            "R-tree invariant violations:\n{}",
            report.violations.join("\n")
        );
    }
}

/// Per-walk state shared across [`RTree::validate_rec`] calls.
struct WalkCtx<const D: usize> {
    /// Every page id seen so far; a duplicate is aliasing or a cycle.
    visited: HashSet<PageId>,
    /// First leaf page holding each oid (populated only under
    /// [`ValidateOptions::unique_oids`]).
    oids: HashMap<u64, PageId>,
    opts: ValidateOptions<D>,
}
