//! Pass `ordering-comment`, the one check kept from the retired
//! `cpq_lint` line scanner: the compiler has no lint for a missing
//! argument, and `atomics-pairing`'s Relaxed sweep reads the text this
//! pass demands.

use super::{in_ranges, test_line_ranges, Pass};
use crate::diag::{Diagnostic, Severity};
use crate::lexer::TokKind;
use crate::model::Workspace;

/// How many preceding lines an `// ordering:` justification may sit above
/// its `Ordering::` use.
pub const ORDERING_COMMENT_WINDOW: u32 = 6;

/// Pass `ordering-comment` — every atomic memory ordering use must carry
/// an `// ordering:` justification within [`ORDERING_COMMENT_WINDOW`]
/// lines. The model checker explores interleavings, not weak-memory
/// reorderings, so ordering *strength* is argued in prose at every site.
/// The infra crates are not in the workspace model (see
/// [`crate::model::INFRA_CRATES`]).
pub struct OrderingComment;

const ORDERING_VARIANTS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

impl Pass for OrderingComment {
    fn id(&self) -> &'static str {
        "ordering-comment"
    }

    fn run(&self, ws: &Workspace, out: &mut Vec<Diagnostic>) {
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

#[cfg(test)]
mod tests {
    use super::*;

    fn run_pass(p: &dyn Pass, sources: &[(&str, &str)]) -> Vec<Diagnostic> {
        let ws = Workspace::from_sources(sources);
        let mut out = Vec::new();
        p.run(&ws, &mut out);
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
    fn infra_crates_are_skipped() {
        let src = "fn f(x: &AtomicU32) {\n    x.store(1, Ordering::SeqCst);\n}\n";
        assert!(run_pass(&OrderingComment, &[("crates/check/src/model/shim.rs", src)]).is_empty());
        assert_eq!(
            run_pass(&OrderingComment, &[("crates/live/src/x.rs", src)]).len(),
            1
        );
    }

    #[test]
    fn strings_and_comments_do_not_trip_the_scan() {
        let src =
            "// Ordering::SeqCst in prose\nfn f() { let s = \"Ordering::Relaxed\"; use_it(s); }\n";
        assert!(run_pass(&OrderingComment, &[("crates/core/src/x.rs", src)]).is_empty());
    }
}
