//! Pass `atomics-pairing`: Release/Acquire pairing across the workspace.
//!
//! Grouping is by atomic field name (the last receiver segment): the
//! workspace convention is one field name per protocol (`cancelled`,
//! `shutdown`, `seq`, …), so a `Release` store in one crate pairs with an
//! `Acquire` load in another. Rules:
//!
//! * a store-side access (`store`/`swap`/`fetch_*`/CAS success) with
//!   `Release`/`AcqRel`/`SeqCst` requires an acquire-side access of the
//!   same field somewhere in the workspace, and vice versa — a one-sided
//!   fence synchronizes nothing;
//! * every `Relaxed` site's `// ordering:` justification must actually
//!   say `Relaxed` (the comment the `ordering-comment` pass requires to
//!   exist is cross-checked for content), and a `Relaxed` access to an
//!   atomic that elsewhere uses acquire/release ordering is flagged —
//!   matched by field *identity*, not name, so two unrelated atomics
//!   sharing a name don't conflate: mixing regimes on one atomic is how a
//!   protocol silently loses its edge.

use super::{Graph, Pass};
use crate::diag::{Diagnostic, Severity};
use crate::model::{AtomicKind, AtomicSite, Workspace};
use std::collections::BTreeMap;

/// See module docs.
pub struct AtomicsPairing;

/// How many preceding lines the `// ordering:` justification may sit
/// above its use — mirrors the `ordering-comment` pass window.
const WINDOW: u32 = 6;

fn is_release_side(s: &AtomicSite) -> bool {
    let writes = !matches!(s.kind, AtomicKind::Load);
    writes
        && s.orderings
            .iter()
            .any(|o| o == "Release" || o == "AcqRel" || o == "SeqCst")
}

fn is_acquire_side(s: &AtomicSite) -> bool {
    let reads = !matches!(s.kind, AtomicKind::Store);
    reads
        && s.orderings
            .iter()
            .any(|o| o == "Acquire" || o == "AcqRel" || o == "SeqCst")
}

fn uses_relaxed(s: &AtomicSite) -> bool {
    s.orderings.iter().any(|o| o == "Relaxed")
}

impl Pass for AtomicsPairing {
    fn id(&self) -> &'static str {
        "atomics-pairing"
    }

    fn run(&self, ws: &Workspace, _graph: &Graph, out: &mut Vec<Diagnostic>) {
        // field name → every non-test access of it, with its file index.
        let mut by_field: BTreeMap<&str, Vec<(usize, &AtomicSite)>> = BTreeMap::new();
        // field *identity* → accesses: the mixed-regime check must not
        // conflate two unrelated atomics that merely share a name.
        let mut by_id: BTreeMap<&str, Vec<&AtomicSite>> = BTreeMap::new();
        for f in &ws.functions {
            if f.is_test {
                continue;
            }
            for a in &f.atomics {
                by_field
                    .entry(a.field.as_str())
                    .or_default()
                    .push((f.file, a));
                by_id.entry(a.field_id.as_str()).or_default().push(a);
            }
        }

        for (field, sites) in &by_field {
            let has_release = sites.iter().any(|(_, s)| is_release_side(s));
            let has_acquire = sites.iter().any(|(_, s)| is_acquire_side(s));
            for (file, s) in sites {
                let rel = &ws.files[*file].rel;
                if is_release_side(s) && !has_acquire {
                    out.push(Diagnostic::new(
                        self.id(),
                        Severity::Error,
                        rel.clone(),
                        s.line,
                        s.col,
                        format!(
                            "`{}` on `{field}` publishes with Release but no workspace load acquires it — readers can observe the flag without the writes it should order",
                            method_name(s)
                        ),
                    ));
                }
                if is_acquire_side(s) && !has_release {
                    out.push(Diagnostic::new(
                        self.id(),
                        Severity::Error,
                        rel.clone(),
                        s.line,
                        s.col,
                        format!(
                            "`{}` on `{field}` acquires but no workspace store releases it — the Acquire synchronizes with nothing",
                            method_name(s)
                        ),
                    ));
                }
                if uses_relaxed(s) {
                    let id_group = &by_id[s.field_id.as_str()];
                    let id_has_fence = id_group.iter().any(|o| is_release_side(o))
                        || id_group.iter().any(|o| is_acquire_side(o));
                    if id_has_fence && !is_release_side(s) && !is_acquire_side(s) {
                        out.push(Diagnostic::new(
                            self.id(),
                            Severity::Warning,
                            rel.clone(),
                            s.line,
                            s.col,
                            format!(
                                "Relaxed access to `{field}`, which elsewhere uses acquire/release ordering — mixed regimes on one field forfeit the protocol's edge"
                            ),
                        ));
                    }
                    let justified = ws.comment_near(*file, s.line, WINDOW, "Relaxed")
                        || ws.comment_near(*file, s.line, WINDOW, "relaxed");
                    if !justified {
                        out.push(Diagnostic::new(
                            self.id(),
                            Severity::Warning,
                            rel.clone(),
                            s.line,
                            s.col,
                            format!(
                                "Relaxed access to `{field}` whose `// ordering:` justification does not argue Relaxed specifically"
                            ),
                        ));
                    }
                }
            }
        }
    }
}

fn method_name(s: &AtomicSite) -> &'static str {
    match s.kind {
        AtomicKind::Load => "load",
        AtomicKind::Store => "store",
        AtomicKind::Rmw => "read-modify-write",
        AtomicKind::Cas => "compare-exchange",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(sources: &[(&str, &str)]) -> Vec<Diagnostic> {
        let ws = Workspace::from_sources(sources);
        let graph = Graph::build(&ws);
        let mut out = Vec::new();
        AtomicsPairing.run(&ws, &graph, &mut out);
        out
    }

    /// The pairing findings alone; the Relaxed-justification sweep also
    /// runs and has its own tests below.
    fn errors(sources: &[(&str, &str)]) -> Vec<Diagnostic> {
        let mut out = run(sources);
        out.retain(|d| d.severity == Severity::Error);
        out
    }

    #[test]
    fn paired_release_acquire_is_clean() {
        let srcs = [(
            "crates/core/src/lib.rs",
            "\
impl Flag {
    fn set(&self) { self.done.store(true, Ordering::Release); }
    fn get(&self) -> bool { self.done.load(Ordering::Acquire) }
}
",
        )];
        assert!(errors(&srcs).is_empty());
    }

    #[test]
    fn release_store_with_relaxed_load_is_unpaired() {
        let srcs = [(
            "crates/core/src/lib.rs",
            "\
impl Flag {
    fn set(&self) { self.done.store(true, Ordering::Release); }
    fn get(&self) -> bool { self.done.load(Ordering::Relaxed) }
}
",
        )];
        let out = errors(&srcs);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("no workspace load acquires"));
        assert_eq!(out[0].line, 2);
    }

    #[test]
    fn acquire_load_without_release_store_is_unpaired() {
        let srcs = [(
            "crates/core/src/lib.rs",
            "\
impl Flag {
    fn set(&self) { self.done.store(true, Ordering::Relaxed); }
    fn get(&self) -> bool { self.done.load(Ordering::Acquire) }
}
",
        )];
        let out = errors(&srcs);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("synchronizes with nothing"));
    }

    #[test]
    fn pairing_is_workspace_wide_across_crates() {
        let srcs = [
            (
                "crates/parallel/src/lib.rs",
                "impl W { fn stop(&self) { self.shutdown.store(true, Ordering::Release); } }\n",
            ),
            (
                "crates/service/src/lib.rs",
                "impl S { fn poll(&self) -> bool { self.shutdown.load(Ordering::Acquire) } }\n",
            ),
        ];
        assert!(errors(&srcs).is_empty());
    }

    #[test]
    fn seqcst_counts_as_both_sides() {
        let srcs = [(
            "crates/core/src/lib.rs",
            "\
impl F {
    fn set(&self) { self.x.store(1, Ordering::SeqCst); }
    fn get(&self) -> u32 { self.x.load(Ordering::SeqCst) }
}
",
        )];
        assert!(errors(&srcs).is_empty());
    }

    #[test]
    fn relaxed_justification_text_is_checked() {
        let good = "\
impl C {
    fn bump(&self) {
        // ordering: Relaxed — a monotonic counter, no payload to order.
        self.hits.fetch_add(1, Ordering::Relaxed);
    }
}
";
        assert!(run(&[("crates/obs/src/lib.rs", good)]).is_empty());

        let vague = "\
impl C {
    fn bump(&self) {
        // ordering: fine because reasons.
        self.hits.fetch_add(1, Ordering::Relaxed);
    }
}
";
        let out = run(&[("crates/obs/src/lib.rs", vague)]);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("does not argue Relaxed"));
    }

    #[test]
    fn mixed_regimes_are_flagged() {
        let srcs = [(
            "crates/core/src/lib.rs",
            "\
impl F {
    fn set(&self) { self.flag.store(true, Ordering::Release); }
    fn get(&self) -> bool { self.flag.load(Ordering::Acquire) }
    fn peek(&self) -> bool {
        // ordering: Relaxed — diagnostic peek only.
        self.flag.load(Ordering::Relaxed)
    }
}
",
        )];
        let out = run(&srcs);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("mixed regimes"));
    }

    #[test]
    fn test_code_is_exempt() {
        let srcs = [(
            "crates/core/src/lib.rs",
            "\
#[cfg(test)]
mod tests {
    #[test]
    fn t() { X.store(true, Ordering::Release); }
}
",
        )];
        assert!(errors(&srcs).is_empty());
    }
}
