//! The scoped waiver system.
//!
//! A waiver is a comment suppressing one pass's findings over one scope,
//! and it must say why:
//!
//! ```text
//! // analyze: allow(panic-path) — poisoned-lock expect is the crash policy
//! // analyze: allow-fn(panic-path) — the whole function is init-time
//! // analyze: allow-file(ordering-comment) — file-wide: all atomics here are counters
//! ```
//!
//! Scopes: `allow` covers the next code line below the comment (or its own
//! line, for trailing comments); `allow-fn` covers the whole function item
//! that follows; `allow-file` covers the file and must sit in the file
//! header (first [`FILE_SCOPE_WINDOW`] lines). The ` — rationale` tail is
//! mandatory. Structural problems are themselves diagnostics (`waiver`
//! pass): malformed grammar, unknown pass ids, mis-scoped placement — and
//! any waiver that suppressed nothing is a finding, so dead suppressions
//! cannot accumulate the way the old free-text `// lint: allow` ones did.

use crate::diag::{Diagnostic, Severity};
use crate::model::Workspace;

/// `allow-file` waivers must appear within this many lines of the top.
pub const FILE_SCOPE_WINDOW: u32 = 40;

/// The marker introducing a waiver comment.
pub const MARKER: &str = "analyze:";

/// What a waiver covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    /// The next code line (or the comment's own line when trailing).
    Line,
    /// The function item following the comment.
    Fn,
    /// The whole file.
    File,
}

/// One parsed waiver.
#[derive(Debug)]
pub struct Waiver {
    /// File index into [`Workspace::files`].
    pub file: usize,
    /// 1-based line of the waiver comment.
    pub line: u32,
    /// Coverage scope.
    pub scope: Scope,
    /// The pass id it suppresses.
    pub pass: String,
    /// The mandatory rationale.
    pub rationale: String,
    /// Set when the waiver suppressed at least one finding this run.
    pub used: bool,
}

/// All waivers in a workspace plus the structural diagnostics their
/// parsing produced.
#[derive(Debug, Default)]
pub struct Waivers {
    /// Parsed, structurally valid waivers.
    pub waivers: Vec<Waiver>,
    /// Malformed and mis-scoped findings (pass id `waiver`).
    pub problems: Vec<Diagnostic>,
}

/// The waiver text after the marker, or `None` when the comment is not a
/// waiver. A waiver is a *directive*: it must be a plain `//` comment with
/// the marker first — doc comments (`///`, `//!`) are documentation, so
/// grammar examples and prose quoting `analyze:` never parse as waivers.
fn waiver_body(comment: &str) -> Option<&str> {
    let rest = comment.strip_prefix("//")?;
    if rest.starts_with('/') || rest.starts_with('!') {
        return None;
    }
    rest.trim_start().strip_prefix(MARKER)
}

/// Extracts the parenthesized argument after `verb` in `rest`.
fn take_paren<'a>(rest: &'a str, verb: &str) -> Option<&'a str> {
    let rest = rest.strip_prefix(verb)?.strip_prefix('(')?;
    Some(&rest[..rest.find(')')?])
}

impl Waivers {
    /// Parses every waiver comment in the workspace, validating pass ids
    /// against `known_passes` and scope placement against the parsed item
    /// structure.
    pub fn collect(ws: &Workspace, known_passes: &[&str]) -> Waivers {
        let mut out = Waivers::default();
        for (fi, file) in ws.files.iter().enumerate() {
            for (li, comment) in file.lexed.comments.iter().enumerate() {
                let line = li as u32 + 1;
                let Some(body) = waiver_body(comment) else {
                    continue;
                };
                let body = body.trim_start();
                match parse_one(body, known_passes) {
                    Ok((scope, pass)) => {
                        let rationale = rationale_of(body).unwrap_or_default();
                        if rationale.is_empty() {
                            out.problems.push(waiver_diag(
                                &file.rel,
                                line,
                                format!(
                                    "waiver for `{pass}` has no rationale; append ` — <why this is safe>`"
                                ),
                            ));
                            continue;
                        }
                        if scope == Scope::File && line > FILE_SCOPE_WINDOW {
                            out.problems.push(waiver_diag(
                                &file.rel,
                                line,
                                format!(
                                    "mis-scoped: allow-file({pass}) must sit in the file header (first {FILE_SCOPE_WINDOW} lines), found at line {line}"
                                ),
                            ));
                            continue;
                        }
                        if scope == Scope::Fn {
                            let follows_fn = ws
                                .functions
                                .iter()
                                .any(|f| f.file == fi && f.line >= line && f.line <= line + 8);
                            if !follows_fn {
                                out.problems.push(waiver_diag(
                                    &file.rel,
                                    line,
                                    format!(
                                        "mis-scoped: allow-fn({pass}) does not precede a function item"
                                    ),
                                ));
                                continue;
                            }
                        }
                        out.waivers.push(Waiver {
                            file: fi,
                            line,
                            scope,
                            pass,
                            rationale,
                            used: false,
                        });
                    }
                    Err(msg) => out.problems.push(waiver_diag(&file.rel, line, msg)),
                }
            }
        }
        out
    }

    /// Splits `diags` into kept and waived, marking used waivers. The
    /// returned pairs carry the suppressing waiver's rationale for the
    /// report's audit trail.
    pub fn apply(
        &mut self,
        ws: &Workspace,
        diags: Vec<Diagnostic>,
    ) -> (Vec<Diagnostic>, Vec<(Diagnostic, String)>) {
        let mut kept = Vec::new();
        let mut waived = Vec::new();
        for d in diags {
            let fi = ws.files.iter().position(|f| f.rel == d.file);
            let hit = fi.and_then(|fi| {
                self.waivers
                    .iter()
                    .position(|w| w.file == fi && w.pass == d.pass && covers(ws, w, fi, &d))
            });
            match hit {
                Some(wi) => {
                    self.waivers[wi].used = true;
                    let rationale = self.waivers[wi].rationale.clone();
                    waived.push((d, rationale));
                }
                None => kept.push(d),
            }
        }
        (kept, waived)
    }

    /// Stale-waiver findings: every waiver that suppressed nothing.
    /// Run after [`Waivers::apply`] with the full diagnostic set.
    pub fn stale(&self, ws: &Workspace) -> Vec<Diagnostic> {
        self.waivers
            .iter()
            .filter(|w| !w.used)
            .map(|w| {
                waiver_diag(
                    &ws.files[w.file].rel,
                    w.line,
                    format!(
                        "stale waiver: allow{}({}) suppressed no finding this run; delete it",
                        match w.scope {
                            Scope::Line => "",
                            Scope::Fn => "-fn",
                            Scope::File => "-file",
                        },
                        w.pass
                    ),
                )
            })
            .collect()
    }
}

fn waiver_diag(file: &str, line: u32, message: String) -> Diagnostic {
    Diagnostic::new("waiver", Severity::Error, file, line, 1, message)
}

/// Does waiver `w` (already matched on file + pass) cover diagnostic `d`?
fn covers(ws: &Workspace, w: &Waiver, fi: usize, d: &Diagnostic) -> bool {
    match w.scope {
        Scope::File => true,
        Scope::Fn => {
            // The first function item at-or-after the waiver comment.
            let Some(f) = ws
                .functions
                .iter()
                .filter(|f| f.file == fi && f.line >= w.line)
                .min_by_key(|f| f.line)
            else {
                return false;
            };
            let end = f
                .body
                .map(|(_, close)| ws.files[fi].lexed.tokens[close].line)
                .unwrap_or(f.line);
            d.line >= f.line && d.line <= end
        }
        Scope::Line => {
            if d.line == w.line {
                return true;
            }
            // Comment-only lines between the waiver and the finding keep
            // the chain intact (stacked waivers above one line).
            if d.line < w.line {
                return false;
            }
            let content = &ws.files[fi].content;
            content
                .lines()
                .skip(w.line as usize)
                .take((d.line - w.line - 1) as usize)
                .all(|l| l.trim_start().starts_with("//"))
                && d.line <= w.line + 8
        }
    }
}

/// Parses the grammar after the `analyze:` marker; returns
/// `(scope, pass)` or a malformed-waiver message.
fn parse_one(body: &str, known_passes: &[&str]) -> Result<(Scope, String), String> {
    let (scope, verb) = if body.starts_with("allow-fn(") {
        (Scope::Fn, "allow-fn")
    } else if body.starts_with("allow-file(") {
        (Scope::File, "allow-file")
    } else if body.starts_with("allow(") {
        (Scope::Line, "allow")
    } else {
        return Err(format!(
            "malformed waiver: expected allow/allow-fn/allow-file(<pass>), got `{}`",
            body.chars().take(40).collect::<String>()
        ));
    };
    let pass = take_paren(body, verb)
        .ok_or_else(|| format!("malformed waiver: unbalanced parens after `{verb}`"))?;
    let pass = pass.trim();
    if !known_passes.contains(&pass) {
        return Err(format!(
            "malformed waiver: unknown pass `{pass}` (known: {})",
            known_passes.join(", ")
        ));
    }
    Ok((scope, pass.to_string()))
}

/// The rationale tail after ` — ` or ` -- `.
fn rationale_of(body: &str) -> Option<String> {
    for sep in [" — ", " -- "] {
        if let Some(at) = body.find(sep) {
            let r = body[at + sep.len()..].trim();
            if !r.is_empty() {
                return Some(r.to_string());
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    const PASSES: &[&str] = &["panic-path", "lock-order"];

    fn ws_of(src: &str) -> Workspace {
        Workspace::from_sources(&[("crates/demo/src/lib.rs", src)])
    }

    #[test]
    fn parses_line_waiver_with_rationale() {
        let ws = ws_of("// analyze: allow(panic-path) — startup only\nfn f() { x.unwrap(); }\n");
        let w = Waivers::collect(&ws, PASSES);
        assert!(w.problems.is_empty(), "{:?}", w.problems);
        assert_eq!(w.waivers.len(), 1);
        assert_eq!(w.waivers[0].scope, Scope::Line);
        assert_eq!(w.waivers[0].pass, "panic-path");
        assert_eq!(w.waivers[0].rationale, "startup only");
    }

    #[test]
    fn missing_rationale_is_malformed() {
        let ws = ws_of("// analyze: allow(panic-path)\nfn f() {}\n");
        let w = Waivers::collect(&ws, PASSES);
        assert_eq!(w.waivers.len(), 0);
        assert_eq!(w.problems.len(), 1);
        assert!(
            w.problems[0].message.contains("no rationale"),
            "{}",
            w.problems[0].message
        );
    }

    #[test]
    fn unknown_pass_is_malformed() {
        let ws = ws_of("// analyze: allow(no-such-pass) — why\nfn f() {}\n");
        let w = Waivers::collect(&ws, PASSES);
        assert!(w.problems[0]
            .message
            .contains("unknown pass `no-such-pass`"));
    }

    #[test]
    fn misscoped_fn_waiver_without_fn() {
        let src = "// analyze: allow-fn(panic-path) — nope\nstatic X: u32 = 0;\n";
        let ws = ws_of(src);
        let w = Waivers::collect(&ws, PASSES);
        assert!(
            w.problems[0].message.contains("mis-scoped"),
            "{:?}",
            w.problems
        );
    }

    #[test]
    fn misscoped_file_waiver_below_header() {
        let mut src = String::new();
        for _ in 0..50 {
            src.push_str("fn pad() {}\n");
        }
        src.push_str("// analyze: allow-file(panic-path) — too low\n");
        let ws = ws_of(&src);
        let w = Waivers::collect(&ws, PASSES);
        assert!(w.problems.iter().any(|p| p.message.contains("file header")));
    }

    #[test]
    fn apply_suppresses_and_marks_used() {
        let src = "\
fn f() {
    // analyze: allow(panic-path) — poisoned policy
    let v = x.unwrap();
}
";
        let ws = ws_of(src);
        let mut w = Waivers::collect(&ws, PASSES);
        let d = Diagnostic::new(
            "panic-path",
            Severity::Error,
            "crates/demo/src/lib.rs",
            3,
            13,
            "unwrap",
        );
        let (kept, waived) = w.apply(&ws, vec![d]);
        assert!(kept.is_empty());
        assert_eq!(waived.len(), 1);
        assert_eq!(waived[0].1, "poisoned policy");
        assert!(w.stale(&ws).is_empty());
    }

    #[test]
    fn unused_waiver_is_stale() {
        let ws = ws_of("// analyze: allow(panic-path) — nothing here\nfn f() {}\n");
        let mut w = Waivers::collect(&ws, PASSES);
        let (_, waived) = w.apply(&ws, Vec::new());
        assert!(waived.is_empty());
        let stale = w.stale(&ws);
        assert_eq!(stale.len(), 1);
        assert!(stale[0].message.contains("stale waiver"));
    }

    #[test]
    fn trailing_waiver_covers_its_own_line() {
        let src = "fn f() { x.unwrap(); } // analyze: allow(panic-path) — trailing\n";
        let ws = ws_of(src);
        let mut w = Waivers::collect(&ws, PASSES);
        let d = Diagnostic::new(
            "panic-path",
            Severity::Error,
            "crates/demo/src/lib.rs",
            1,
            12,
            "unwrap",
        );
        let (kept, _) = w.apply(&ws, vec![d]);
        assert!(kept.is_empty());
    }

    #[test]
    fn fn_waiver_covers_whole_function() {
        let src = "\
// analyze: allow-fn(panic-path) — whole fn is init-time
fn init() {
    a.unwrap();
    b.unwrap();
}
fn other() { c.unwrap(); }
";
        let ws = ws_of(src);
        let mut w = Waivers::collect(&ws, PASSES);
        let mk = |line| {
            Diagnostic::new(
                "panic-path",
                Severity::Error,
                "crates/demo/src/lib.rs",
                line,
                5,
                "unwrap",
            )
        };
        let (kept, waived) = w.apply(&ws, vec![mk(3), mk(4), mk(6)]);
        assert_eq!(waived.len(), 2, "covers init's two sites");
        assert_eq!(kept.len(), 1, "does not leak onto `other`");
        assert_eq!(kept[0].line, 6);
    }
}
