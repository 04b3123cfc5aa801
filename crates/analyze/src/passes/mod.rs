//! The pass registry and the shared call-graph closures passes consume.
//!
//! A pass is a pure function from the analyzed [`Workspace`] to
//! diagnostics; the registry fixes the run order and the set of valid
//! waiver targets. Adding a pass means: implement [`Pass`], list it in
//! [`registry`], add a broken-twin fixture under `fixtures/`, and
//! document it in DESIGN.md §17.

pub mod atomics;
pub mod lock_order;
pub mod ported;

use crate::diag::Diagnostic;
use crate::model::Workspace;
use std::collections::BTreeSet;

pub use crate::model::resolve_call;

/// One analysis pass.
pub trait Pass {
    /// Stable pass id — what waivers name and the report groups by.
    fn id(&self) -> &'static str;
    /// Runs the pass over the workspace, appending findings.
    fn run(&self, ws: &Workspace, graph: &Graph, out: &mut Vec<Diagnostic>);
}

/// All passes in run order.
pub fn registry() -> Vec<Box<dyn Pass>> {
    vec![
        Box::new(lock_order::LockOrder),
        Box::new(atomics::AtomicsPairing),
        Box::new(ported::OrderingComment),
        Box::new(ported::ForbidUnsafe),
        Box::new(ported::PanicPath),
        Box::new(ported::StdSyncDirect),
        Box::new(ported::MissingDocsAttr),
    ]
}

/// Every pass id a waiver may name: the registry's passes plus the one
/// id produced outside it (`waiver` structural findings).
pub fn known_pass_ids() -> Vec<&'static str> {
    let mut ids: Vec<&'static str> = registry().iter().map(|p| p.id()).collect();
    ids.push("waiver");
    ids
}

/// The approximate call graph and its transitive closures. Calls resolve
/// by bare name under the receiver discipline of
/// [`crate::model::resolve_call`] — a `len` or `insert` on a foreign
/// receiver must not weld unrelated crates' lock graphs together.
pub struct Graph {
    /// Transitive closure of lock ids a call into this function may
    /// acquire.
    pub locks: Vec<BTreeSet<String>>,
    /// Transitive closure of canonical atomic field ids it may touch.
    pub atomics: Vec<BTreeSet<String>>,
}

impl Graph {
    /// Builds the graph and runs the closure fixpoints.
    pub fn build(ws: &Workspace) -> Graph {
        let n = ws.functions.len();
        let mut callees: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, f) in ws.functions.iter().enumerate() {
            if f.is_test {
                continue;
            }
            let mut out = BTreeSet::new();
            for c in &f.calls {
                for t in resolve_call(ws, i, c) {
                    if t != i {
                        out.insert(t);
                    }
                }
            }
            callees[i] = out.into_iter().collect();
        }

        let mut locks: Vec<BTreeSet<String>> = vec![BTreeSet::new(); n];
        let mut atomics: Vec<BTreeSet<String>> = vec![BTreeSet::new(); n];
        for (i, f) in ws.functions.iter().enumerate() {
            if f.is_test {
                continue;
            }
            for l in &f.locks {
                locks[i].insert(l.lock_id.clone());
            }
            for a in &f.atomics {
                if crate::model::is_canonical(&a.field_id) {
                    atomics[i].insert(a.field_id.clone());
                }
            }
        }
        // Fixpoint: propagate callee facts to callers. The call graph is
        // shallow (no recursion of interest); 20 rounds is far past any
        // real chain length and bounds pathological cycles.
        fn union_into(v: &mut [BTreeSet<String>], dst: usize, src: usize) -> bool {
            if dst == src {
                return false;
            }
            let add: Vec<String> = v[src].difference(&v[dst]).cloned().collect();
            if add.is_empty() {
                false
            } else {
                v[dst].extend(add);
                true
            }
        }
        for _ in 0..20 {
            let mut changed = false;
            for (i, cs) in callees.iter().enumerate() {
                for &c in cs {
                    changed |= union_into(&mut locks, i, c);
                    changed |= union_into(&mut atomics, i, c);
                }
            }
            if !changed {
                break;
            }
        }
        Graph { locks, atomics }
    }
}

/// 1-based line ranges of test code in `file` (for token-stream passes
/// that must skip `#[cfg(test)]` code): gated item scopes plus
/// individually test-attributed functions.
pub fn test_line_ranges(ws: &Workspace, file: usize) -> Vec<(u32, u32)> {
    let mut out = ws.files[file].test_regions.clone();
    for f in ws.functions.iter().filter(|f| f.file == file && f.is_test) {
        let end = f
            .body
            .map(|(_, close)| ws.files[file].lexed.tokens[close].line)
            .unwrap_or(f.line);
        out.push((f.line, end));
    }
    out
}

/// Whether `line` falls inside any of `ranges`.
pub fn in_ranges(ranges: &[(u32, u32)], line: u32) -> bool {
    ranges.iter().any(|&(a, b)| line >= a && line <= b)
}
