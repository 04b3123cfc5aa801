//! Pass `lock-order`: lock-acquisition nesting over the approximate call
//! graph, with cycle detection.
//!
//! For every live guard in a function, two kinds of nesting edges are
//! collected: another lock acquired inside the guard's scope (directly or
//! through a resolved call), and a canonical atomic field touched inside
//! it (directly or through a call — how the Scatter queue lock nests over
//! the `SharedBound` CAS word shows up, since the bound is an atomic, not
//! a lock). Canonical lock→lock and lock→atomic orders are published as
//! `note` diagnostics — the report's record of the workspace's blessed
//! nesting discipline. A cycle in the lock→lock graph (including a
//! same-lock re-acquisition) is an `error`: two threads taking the
//! participating locks in different orders can deadlock.

use super::{Graph, Pass};
use crate::diag::{Diagnostic, Severity};
use crate::model::{is_canonical, Workspace};
use std::collections::{BTreeMap, BTreeSet};

/// See module docs.
pub struct LockOrder;

/// One nesting fact: `outer` is held at the point `inner` is acquired or
/// touched.
#[derive(Debug)]
struct Edge {
    outer: String,
    inner: String,
    /// True when `inner` is an atomic field, not a lock.
    atomic: bool,
    file: String,
    line: u32,
    col: u32,
    via: String,
}

fn collect_edges(ws: &Workspace, graph: &Graph) -> Vec<Edge> {
    let mut edges = Vec::new();
    for (fi, f) in ws.functions.iter().enumerate() {
        if f.is_test {
            continue;
        }
        let file = &ws.files[f.file];
        for outer in &f.locks {
            // Direct nested acquisitions.
            for inner in &f.locks {
                if inner.tok > outer.tok && inner.tok <= outer.scope_end {
                    edges.push(Edge {
                        outer: outer.lock_id.clone(),
                        inner: inner.lock_id.clone(),
                        atomic: false,
                        file: file.rel.clone(),
                        line: inner.line,
                        col: inner.col,
                        via: f.qname.clone(),
                    });
                }
            }
            // Direct atomic touches under the guard.
            for a in &f.atomics {
                if a.tok > outer.tok && a.tok <= outer.scope_end && is_canonical(&a.field_id) {
                    edges.push(Edge {
                        outer: outer.lock_id.clone(),
                        inner: a.field_id.clone(),
                        atomic: true,
                        file: file.rel.clone(),
                        line: a.line,
                        col: a.col,
                        via: f.qname.clone(),
                    });
                }
            }
            // Calls under the guard pull in the callee closures.
            for c in &f.calls {
                if c.tok <= outer.tok || c.tok > outer.scope_end {
                    continue;
                }
                for t in super::resolve_call(ws, fi, c) {
                    // Same-lock edges are kept: re-acquiring a held lock
                    // through a call is a self-deadlock the cycle check
                    // reports as a self-loop.
                    for lid in &graph.locks[t] {
                        edges.push(Edge {
                            outer: outer.lock_id.clone(),
                            inner: lid.clone(),
                            atomic: false,
                            file: file.rel.clone(),
                            line: c.line,
                            col: c.col,
                            via: format!("{} -> {}", f.qname, ws.functions[t].qname),
                        });
                    }
                    for aid in &graph.atomics[t] {
                        edges.push(Edge {
                            outer: outer.lock_id.clone(),
                            inner: aid.clone(),
                            atomic: true,
                            file: file.rel.clone(),
                            line: c.line,
                            col: c.col,
                            via: format!("{} -> {}", f.qname, ws.functions[t].qname),
                        });
                    }
                }
            }
        }
    }
    edges
}

/// Tarjan-free SCC detection sized for a lock graph: repeated DFS cycle
/// search over a handful of nodes.
fn find_cycles(adj: &BTreeMap<&str, BTreeSet<&str>>) -> Vec<Vec<String>> {
    let mut cycles: Vec<Vec<String>> = Vec::new();
    let mut reported: BTreeSet<String> = BTreeSet::new();
    for &start in adj.keys() {
        // Self-loop.
        if adj[start].contains(start) {
            if reported.insert(start.to_string()) {
                cycles.push(vec![start.to_string()]);
            }
            continue;
        }
        // DFS from `start`, looking for a path back to it.
        let mut stack: Vec<(&str, Vec<&str>)> = vec![(start, vec![start])];
        let mut visited: BTreeSet<&str> = BTreeSet::new();
        while let Some((node, path)) = stack.pop() {
            for &next in adj.get(node).map(|s| s.iter()).into_iter().flatten() {
                if next == start && path.len() > 1 {
                    let mut cyc: Vec<String> = path.iter().map(|s| s.to_string()).collect();
                    cyc.sort();
                    let key = cyc.join("|");
                    if reported.insert(key) {
                        cycles.push(cyc);
                    }
                } else if !path.contains(&next) && visited.insert(next) {
                    let mut p = path.clone();
                    p.push(next);
                    stack.push((next, p));
                }
            }
        }
    }
    cycles
}

impl Pass for LockOrder {
    fn id(&self) -> &'static str {
        "lock-order"
    }

    fn run(&self, ws: &Workspace, graph: &Graph, out: &mut Vec<Diagnostic>) {
        let edges = collect_edges(ws, graph);

        // Publish each distinct canonical nesting once, as a note.
        let mut seen: BTreeSet<(String, String)> = BTreeSet::new();
        for e in &edges {
            if !is_canonical(&e.outer) || e.outer == e.inner {
                continue;
            }
            if !seen.insert((e.outer.clone(), e.inner.clone())) {
                continue;
            }
            let what = if e.atomic {
                "atomic nesting"
            } else {
                "lock order"
            };
            out.push(Diagnostic::new(
                self.id(),
                Severity::Note,
                e.file.clone(),
                e.line,
                e.col,
                format!(
                    "{what}: `{}` held over `{}` (via {})",
                    e.outer, e.inner, e.via
                ),
            ));
        }

        // Cycle detection over lock→lock edges only.
        let mut adj: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
        for e in &edges {
            if !e.atomic {
                adj.entry(&e.outer).or_default().insert(&e.inner);
                adj.entry(&e.inner).or_default();
            }
        }
        for cyc in find_cycles(&adj) {
            // A witness location: the first collected edge inside the cycle.
            #[expect(clippy::expect_used, reason = "a cycle is made of edges")]
            let witness = edges
                .iter()
                .find(|e| !e.atomic && cyc.contains(&e.outer) && cyc.contains(&e.inner))
                .expect("cycle implies at least one member edge");
            let msg = if cyc.len() == 1 {
                format!(
                    "lock-order cycle: `{}` re-acquired while already held (via {}) — self-deadlock",
                    cyc[0], witness.via
                )
            } else {
                format!(
                    "lock-order cycle between {{{}}} — threads acquiring these in different orders can deadlock (witness: {})",
                    cyc.join(", "),
                    witness.via
                )
            };
            out.push(Diagnostic::new(
                self.id(),
                Severity::Error,
                witness.file.clone(),
                witness.line,
                witness.col,
                msg,
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(sources: &[(&str, &str)]) -> Vec<Diagnostic> {
        let ws = Workspace::from_sources(sources);
        let graph = Graph::build(&ws);
        let mut out = Vec::new();
        LockOrder.run(&ws, &graph, &mut out);
        out
    }

    const NESTED_OK: &str = "\
impl Pool {
    fn write_page(&self) {
        let st = self.state.lock().expect(\"poisoned\");
        let f = self.file.write().expect(\"poisoned\");
        st.note(f.len());
    }
    fn free_page(&self) {
        let st = self.state.lock().expect(\"poisoned\");
        let f = self.file.write().expect(\"poisoned\");
        st.note(f.len());
    }
}
";

    #[test]
    fn consistent_nesting_is_a_note_not_an_error() {
        let out = run(&[("crates/storage/src/lib.rs", NESTED_OK)]);
        assert!(out.iter().all(|d| d.severity == Severity::Note), "{out:?}");
        assert!(out.iter().any(|d| d
            .message
            .contains("`storage::Pool::state` held over `storage::Pool::file`")));
    }

    #[test]
    fn inverted_nesting_is_a_cycle_error() {
        let inverted = "\
impl Pool {
    fn a(&self) {
        let st = self.state.lock().expect(\"poisoned\");
        let f = self.file.write().expect(\"poisoned\");
        st.note(f.len());
    }
    fn b(&self) {
        let f = self.file.write().expect(\"poisoned\");
        let st = self.state.lock().expect(\"poisoned\");
        st.note(f.len());
    }
}
";
        let out = run(&[("crates/storage/src/lib.rs", inverted)]);
        let errs: Vec<_> = out
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .collect();
        assert_eq!(errs.len(), 1, "{out:?}");
        assert!(
            errs[0].message.contains("lock-order cycle"),
            "{}",
            errs[0].message
        );
        assert!(errs[0].message.contains("storage::Pool::state"));
        assert!(errs[0].message.contains("storage::Pool::file"));
    }

    #[test]
    fn nesting_through_a_call_is_discovered() {
        let src = "\
impl Pool {
    fn outer(&self) {
        let st = self.state.lock().expect(\"poisoned\");
        self.inner_io();
        st.touch();
    }
    fn inner_io(&self) {
        let f = self.file.write().expect(\"poisoned\");
        f.touch();
    }
}
";
        let out = run(&[("crates/storage/src/lib.rs", src)]);
        assert!(
            out.iter().any(|d| d.severity == Severity::Note
                && d.message
                    .contains("`storage::Pool::state` held over `storage::Pool::file`")
                && d.message.contains("outer -> storage::Pool::inner_io")),
            "{out:?}"
        );
    }

    #[test]
    fn atomic_touched_under_lock_is_published() {
        let srcs = [
            (
                "crates/shard/src/lib.rs",
                "\
impl Scatter {
    fn next(&self, bound: &SharedBound) {
        let st = self.state.lock().expect(\"poisoned\");
        let d2 = bound.get_d2();
        st.use_it(d2);
    }
}
",
            ),
            (
                "crates/core/src/lib.rs",
                "\
impl SharedBound {
    fn get_d2(&self) -> u64 {
        self.bits.load(Ordering::Relaxed)
    }
}
",
            ),
        ];
        let out = run(&srcs);
        assert!(
            out.iter().any(|d| d.severity == Severity::Note
                && d.message.contains("atomic nesting")
                && d.message
                    .contains("`shard::Scatter::state` held over `core::SharedBound::bits`")),
            "{out:?}"
        );
    }

    #[test]
    fn double_lock_of_same_mutex_is_self_deadlock() {
        let src = "\
impl Pool {
    fn oops(&self) {
        let a = self.state.lock().expect(\"poisoned\");
        let b = self.state.lock().expect(\"poisoned\");
        a.touch(b.len());
    }
}
";
        let out = run(&[("crates/storage/src/lib.rs", src)]);
        assert!(
            out.iter()
                .any(|d| d.severity == Severity::Error && d.message.contains("self-deadlock")),
            "{out:?}"
        );
    }
}
