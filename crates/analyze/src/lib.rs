//! `cpq-analyze` — multi-pass static analysis over the workspace source.
//!
//! The analyzer lexes and parses every library source file into a
//! [`model::Workspace`] (functions, lock-guard scopes, atomic accesses
//! with their orderings, call edges), runs the pass registry over it, and
//! filters the findings through the scoped waiver system. The result is
//! one machine-readable `analysis_report.json` plus a process exit code
//! CI can gate on.
//!
//! Passes (see [`passes`]): `lock-order`, `atomics-pairing`,
//! `panic-surface`, `blocking-section`, and the checks ported from the
//! retired `cpq_lint` (`ordering-comment`, `forbid-unsafe`, `panic-path`,
//! `std-sync-direct`) plus `missing-docs-attr`.
//!
//! Everything here is dependency-free by design: the analyzer reads
//! source text, not rlibs, so it keeps working while the workspace it
//! scans is broken.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod diag;
pub mod json;
pub mod lexer;
pub mod model;
pub mod parse;
pub mod passes;
pub mod waiver;

use diag::{Diagnostic, Report};
use model::Workspace;
use passes::{Graph, PassCtx};
use waiver::Waivers;

/// Knobs for one analyzer run.
#[derive(Debug, Default)]
pub struct Options {
    /// Report waivers that suppressed nothing (`--stale`, on in
    /// `ci.sh --full`).
    pub stale: bool,
    /// Run the whole-workspace Relaxed-justification sweep
    /// (`--full-atomics`, on in `ci.sh --full`).
    pub full_atomics: bool,
    /// Injected "today" for expiry checks; `None` means the system clock.
    pub today: Option<(i64, u32, u32)>,
}

/// Runs every pass over an analyzed workspace and applies waivers.
pub fn run(ws: &Workspace, opts: Options) -> Report {
    let graph = Graph::build(ws);
    let ctx = PassCtx {
        full_atomics: opts.full_atomics,
    };
    let mut report = Report {
        files_scanned: ws.files.len(),
        functions: ws.functions.len(),
        ..Report::default()
    };

    let mut found: Vec<Diagnostic> = Vec::new();
    for pass in passes::registry() {
        report.passes.push(pass.id().to_string());
        pass.run(ws, &graph, &ctx, &mut found);
    }

    let known = passes::known_pass_ids();
    let today = opts.today.unwrap_or_else(waiver::today);
    let mut waivers = Waivers::collect(ws, &known, today);
    let (mut kept, waived) = waivers.apply(ws, found);

    // Waiver-system findings are never themselves waivable: a waiver
    // cannot argue away being malformed, expired, or stale.
    report.passes.push("waiver".to_string());
    kept.append(&mut waivers.problems);
    if opts.stale {
        kept.extend(waivers.stale(ws));
    }

    kept.sort_by(|a, b| (&a.file, a.line, a.col, a.pass).cmp(&(&b.file, b.line, b.col, b.pass)));
    report.diagnostics = kept;
    report.waived = waived;
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    const TODAY: (i64, u32, u32) = (2026, 8, 9);

    fn run_on(sources: &[(&str, &str)], opts: Options) -> Report {
        let ws = Workspace::from_sources(sources);
        run(
            &ws,
            Options {
                today: Some(TODAY),
                ..opts
            },
        )
    }

    #[test]
    fn clean_source_produces_no_failing_diagnostics() {
        let src = "\
#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! Docs.

/// Adds.
pub fn add(a: u32, b: u32) -> u32 {
    a + b
}
";
        let report = run_on(&[("crates/demo/src/lib.rs", src)], Options::default());
        assert_eq!(report.failing().count(), 0, "{:?}", report.diagnostics);
    }

    #[test]
    fn waived_finding_lands_in_the_audit_trail() {
        let src = "\
#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! Docs.

/// Fetches.
pub fn fetch(opt: Option<u32>) -> u32 {
    // analyze: allow(panic-path) — input validated by the caller's parser
    opt.unwrap()
}
";
        let report = run_on(&[("crates/demo/src/lib.rs", src)], Options::default());
        assert_eq!(report.failing().count(), 0, "{:?}", report.diagnostics);
        assert_eq!(report.waived.len(), 1);
        assert!(report.waived[0].1.contains("validated by the caller"));
    }

    #[test]
    fn unwaived_finding_fails_and_stale_waiver_reports_only_with_flag() {
        let src = "\
#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! Docs.

// analyze: allow(panic-path) — covers nothing
/// Adds.
pub fn add(a: u32, b: u32) -> u32 {
    a + b
}
";
        let quiet = run_on(&[("crates/demo/src/lib.rs", src)], Options::default());
        assert_eq!(quiet.failing().count(), 0);
        let loud = run_on(
            &[("crates/demo/src/lib.rs", src)],
            Options {
                stale: true,
                ..Options::default()
            },
        );
        let stale: Vec<_> = loud
            .diagnostics
            .iter()
            .filter(|d| d.message.contains("stale waiver"))
            .collect();
        assert_eq!(stale.len(), 1, "{:?}", loud.diagnostics);
    }

    #[test]
    fn report_serializes_and_parses() {
        let src = "#![forbid(unsafe_code)]\nfn f() { opt.unwrap(); }\n";
        let report = run_on(&[("crates/demo/src/lib.rs", src)], Options::default());
        assert!(report.failing().count() > 0);
        let text = json::render_report(&report);
        let v = json::parse(&text).expect("valid json");
        assert!(v.get("diagnostics").is_some());
    }
}
