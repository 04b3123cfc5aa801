//! Passes ported from the retired `cpq_lint` line scanner, plus the
//! `missing-docs-attr` crate-hygiene check — all token-accurate now and
//! waived through the scoped `// analyze:` system instead of free-text
//! `// lint:` comments.

use super::{in_ranges, test_line_ranges, Graph, Pass};
use crate::diag::{Diagnostic, Severity};
use crate::lexer::TokKind;
use crate::model::{PanicKind, Workspace};

/// The crates whose library code must route sync primitives through the
/// `cpq_check` shim so `--cfg cpq_model` can model them.
pub const SHIM_MIGRATED_CRATES: &[&str] = &["storage", "obs", "core", "service", "shard", "live"];

/// Crates that are analysis/lint infrastructure themselves: their error
/// handling is CLI-style and exempt from `panic-path` (as the `check`
/// crate was under `cpq_lint`).
pub const INFRA_CRATES: &[&str] = &["check", "analyze"];

/// How many preceding lines an `// ordering:` justification may sit above
/// its `Ordering::` use.
pub const ORDERING_COMMENT_WINDOW: u32 = 6;

/// Pass `ordering-comment` — every atomic memory ordering use must carry
/// an `// ordering:` justification within [`ORDERING_COMMENT_WINDOW`]
/// lines. The model checker explores interleavings, not weak-memory
/// reorderings, so ordering *strength* is argued in prose at every site.
pub struct OrderingComment;

const ORDERING_VARIANTS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

impl Pass for OrderingComment {
    fn id(&self) -> &'static str {
        "ordering-comment"
    }

    fn run(&self, ws: &Workspace, _graph: &Graph, out: &mut Vec<Diagnostic>) {
        for (fi, file) in ws.files.iter().enumerate() {
            let tests = test_line_ranges(ws, fi);
            let toks = &file.lexed.tokens;
            let mut last_line = 0u32;
            for i in 0..toks.len() {
                // `Ordering :: <variant>` token sequence.
                if !toks[i].is_ident("Ordering") {
                    continue;
                }
                if !(toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
                    && toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
                    && toks.get(i + 3).is_some_and(|t| {
                        t.kind == TokKind::Ident && ORDERING_VARIANTS.contains(&t.text.as_str())
                    }))
                {
                    continue;
                }
                let line = toks[i].line;
                if in_ranges(&tests, line) || line == last_line {
                    continue;
                }
                last_line = line;
                if !ws.comment_near(fi, line, ORDERING_COMMENT_WINDOW, "ordering:") {
                    out.push(Diagnostic::new(
                        self.id(),
                        Severity::Error,
                        file.rel.clone(),
                        line,
                        toks[i].col,
                        format!(
                            "atomic memory ordering without an `// ordering:` justification within {ORDERING_COMMENT_WINDOW} lines"
                        ),
                    ));
                }
            }
        }
    }
}

/// Pass `forbid-unsafe` — every crate root declares
/// `#![forbid(unsafe_code)]`.
pub struct ForbidUnsafe;

/// Scans a crate root's tokens for `#![<attr>(<arg>)]`.
fn has_inner_attr(ws: &Workspace, fi: usize, attr: &str, arg: &str) -> bool {
    let toks = &ws.files[fi].lexed.tokens;
    (0..toks.len()).any(|i| {
        toks[i].is_punct('#')
            && toks.get(i + 1).is_some_and(|t| t.is_punct('!'))
            && toks.get(i + 2).is_some_and(|t| t.is_punct('['))
            && toks.get(i + 3).is_some_and(|t| t.is_ident(attr))
            && toks.get(i + 4).is_some_and(|t| t.is_punct('('))
            && toks.get(i + 5).is_some_and(|t| t.is_ident(arg))
    })
}

impl Pass for ForbidUnsafe {
    fn id(&self) -> &'static str {
        "forbid-unsafe"
    }

    fn run(&self, ws: &Workspace, _graph: &Graph, out: &mut Vec<Diagnostic>) {
        for (fi, file) in ws.files.iter().enumerate() {
            if file.is_crate_root && !has_inner_attr(ws, fi, "forbid", "unsafe_code") {
                out.push(Diagnostic::new(
                    self.id(),
                    Severity::Error,
                    file.rel.clone(),
                    1,
                    1,
                    "crate root is missing `#![forbid(unsafe_code)]`",
                ));
            }
        }
    }
}

/// Pass `missing-docs-attr` — every crate root opts into
/// `#![warn(missing_docs)]` so public-API documentation debt surfaces at
/// build time (rustc enforces the individual items; this pass enforces
/// that the enforcement is on).
pub struct MissingDocsAttr;

impl Pass for MissingDocsAttr {
    fn id(&self) -> &'static str {
        "missing-docs-attr"
    }

    fn run(&self, ws: &Workspace, _graph: &Graph, out: &mut Vec<Diagnostic>) {
        for (fi, file) in ws.files.iter().enumerate() {
            if file.is_crate_root
                && !has_inner_attr(ws, fi, "warn", "missing_docs")
                && !has_inner_attr(ws, fi, "deny", "missing_docs")
            {
                out.push(Diagnostic::new(
                    self.id(),
                    Severity::Error,
                    file.rel.clone(),
                    1,
                    1,
                    "crate root is missing `#![warn(missing_docs)]`",
                ));
            }
        }
    }
}

/// Pass `panic-path` — no `unwrap`, non-`poisoned` `expect`, or
/// `thread::sleep` in non-test library code. Binaries and infra crates
/// are exempt; the `expect("… poisoned …")` convention for propagating a
/// peer thread's panic is allowed implicitly.
pub struct PanicPath;

impl Pass for PanicPath {
    fn id(&self) -> &'static str {
        "panic-path"
    }

    fn run(&self, ws: &Workspace, _graph: &Graph, out: &mut Vec<Diagnostic>) {
        for f in &ws.functions {
            if f.is_test {
                continue;
            }
            let file = ws.file_of(f);
            if file.is_bin || INFRA_CRATES.contains(&file.krate.as_str()) {
                continue;
            }
            for p in &f.panics {
                let (flag, what) = match p.kind {
                    PanicKind::Unwrap => (true, "`unwrap()` in non-test library code (return an error, or waive with `// analyze: allow(panic-path)` + rationale)"),
                    PanicKind::Expect => (
                        !p.message.as_deref().is_some_and(|m| m.contains("poisoned")),
                        "`expect()` in non-test library code (only the \"poisoned\" lock convention is allowed implicitly; waive others with `// analyze: allow(panic-path)` + rationale)",
                    ),
                };
                if flag {
                    out.push(
                        Diagnostic::new(
                            self.id(),
                            Severity::Error,
                            file.rel.clone(),
                            p.line,
                            p.col,
                            what,
                        )
                        .in_fn(f.name.clone()),
                    );
                }
            }
            for c in &f.calls {
                if c.name == "sleep" {
                    out.push(
                        Diagnostic::new(
                            self.id(),
                            Severity::Error,
                            file.rel.clone(),
                            c.line,
                            c.col,
                            "`thread::sleep` in non-test library code (use a condvar/timeout, or waive with `// analyze: allow(panic-path)` + rationale)",
                        )
                        .in_fn(f.name.clone()),
                    );
                }
            }
        }
    }
}

/// Pass `std-sync-direct` — shim-migrated crates must not name
/// `std::sync` in library code; they import from `cpq_check::sync` so
/// `--cfg cpq_model` can swap the primitives for modeled ones.
pub struct StdSyncDirect;

impl Pass for StdSyncDirect {
    fn id(&self) -> &'static str {
        "std-sync-direct"
    }

    fn run(&self, ws: &Workspace, _graph: &Graph, out: &mut Vec<Diagnostic>) {
        for (fi, file) in ws.files.iter().enumerate() {
            if file.is_bin || !SHIM_MIGRATED_CRATES.contains(&file.krate.as_str()) {
                continue;
            }
            let tests = test_line_ranges(ws, fi);
            let toks = &file.lexed.tokens;
            let mut last_line = 0u32;
            for i in 0..toks.len() {
                if !(toks[i].is_ident("std")
                    && toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
                    && toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
                    && toks.get(i + 3).is_some_and(|t| t.is_ident("sync")))
                {
                    continue;
                }
                let line = toks[i].line;
                if in_ranges(&tests, line) || line == last_line {
                    continue;
                }
                last_line = line;
                out.push(Diagnostic::new(
                    self.id(),
                    Severity::Error,
                    file.rel.clone(),
                    line,
                    toks[i].col,
                    "direct std sync primitive in a shim-migrated crate; import from `cpq_check::sync` so `--cfg cpq_model` can model it",
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_pass(p: &dyn Pass, sources: &[(&str, &str)]) -> Vec<Diagnostic> {
        let ws = Workspace::from_sources(sources);
        let graph = Graph::build(&ws);
        let mut out = Vec::new();
        p.run(&ws, &graph, &mut out);
        out
    }

    #[test]
    fn ordering_without_comment_is_flagged() {
        let src = "fn f(x: &AtomicU32) {\n    x.store(1, Ordering::Relaxed);\n}\n";
        let out = run_pass(&OrderingComment, &[("crates/core/src/x.rs", src)]);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].line, 2);
    }

    #[test]
    fn ordering_with_nearby_comment_passes() {
        let src = "fn f(x: &AtomicU32) {\n    // ordering: Relaxed — plain counter.\n    x.store(1, Ordering::Relaxed);\n}\n";
        assert!(run_pass(&OrderingComment, &[("crates/core/src/x.rs", src)]).is_empty());
    }

    #[test]
    fn ordering_window_is_bounded() {
        let filler = "    let y = 1;\n".repeat(ORDERING_COMMENT_WINDOW as usize + 1);
        let src = format!(
            "fn f(x: &AtomicU32) {{\n    // ordering: too far away.\n{filler}    x.store(1, Ordering::Acquire);\n}}\n"
        );
        assert_eq!(
            run_pass(&OrderingComment, &[("crates/core/src/x.rs", &src)]).len(),
            1
        );
    }

    #[test]
    fn ordering_in_test_code_is_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { X.store(1, Ordering::SeqCst); }\n}\n";
        assert!(run_pass(&OrderingComment, &[("crates/core/src/x.rs", src)]).is_empty());
    }

    #[test]
    fn crate_roots_need_forbid_unsafe_and_missing_docs() {
        let bare = [("crates/core/src/lib.rs", "pub mod x;\n")];
        assert_eq!(run_pass(&ForbidUnsafe, &bare).len(), 1);
        assert_eq!(run_pass(&MissingDocsAttr, &bare).len(), 1);
        let ok = [(
            "crates/core/src/lib.rs",
            "#![forbid(unsafe_code)]\n#![warn(missing_docs)]\npub mod x;\n",
        )];
        assert!(run_pass(&ForbidUnsafe, &ok).is_empty());
        assert!(run_pass(&MissingDocsAttr, &ok).is_empty());
        // Non-root files carry no such requirement.
        let nonroot = [("crates/core/src/x.rs", "pub mod y;\n")];
        assert!(run_pass(&ForbidUnsafe, &nonroot).is_empty());
    }

    #[test]
    fn unwrap_is_flagged_in_lib_not_bins_or_infra() {
        let src = "fn f() { opt.unwrap(); }\n";
        assert_eq!(
            run_pass(&PanicPath, &[("crates/core/src/x.rs", src)]).len(),
            1
        );
        assert!(run_pass(&PanicPath, &[("crates/bench/src/bin/tool.rs", src)]).is_empty());
        assert!(run_pass(&PanicPath, &[("crates/check/src/x.rs", src)]).is_empty());
        assert!(run_pass(&PanicPath, &[("crates/analyze/src/x.rs", src)]).is_empty());
    }

    #[test]
    fn poisoned_expect_is_implicitly_allowed() {
        let ok = "fn f(m: &Mutex<u32>) { m.lock().expect(\"mutex poisoned\"); }\n";
        assert!(run_pass(&PanicPath, &[("crates/core/src/x.rs", ok)]).is_empty());
        let bad = "fn f(m: &Mutex<u32>) { m.lock().expect(\"fine\"); }\n";
        assert_eq!(
            run_pass(&PanicPath, &[("crates/core/src/x.rs", bad)]).len(),
            1
        );
    }

    #[test]
    fn sleep_is_flagged() {
        let src = "fn f(d: Duration) { std::thread::sleep(d); }\n";
        let out = run_pass(&PanicPath, &[("crates/core/src/x.rs", src)]);
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("thread::sleep"));
    }

    #[test]
    fn std_sync_applies_only_to_migrated_crates() {
        let src = "use std::sync::Arc;\nfn f() { let _ = Arc::new(1); }\n";
        assert_eq!(
            run_pass(&StdSyncDirect, &[("crates/storage/src/x.rs", src)]).len(),
            1
        );
        assert!(run_pass(&StdSyncDirect, &[("crates/rng/src/x.rs", src)]).is_empty());
        assert!(run_pass(&StdSyncDirect, &[("crates/check/src/x.rs", src)]).is_empty());
    }

    #[test]
    fn strings_and_comments_do_not_trip_token_passes() {
        let src = "// mentions std::sync in prose\nfn f() { let url = \"std::sync::Arc\"; use_it(url); }\n";
        assert!(run_pass(&StdSyncDirect, &[("crates/storage/src/x.rs", src)]).is_empty());
    }
}
