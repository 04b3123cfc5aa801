//! `cpq-analyze` — multi-pass static analysis over the workspace source.
//!
//! The analyzer lexes and parses every library source file into a
//! [`model::Workspace`] (functions, lock-guard scopes, atomic accesses
//! with their orderings, call edges), runs the pass registry over it, and
//! filters the findings through the scoped waiver system. The result is
//! one machine-readable `analysis_report.json` plus a process exit code
//! CI can gate on.
//!
//! Passes (see [`passes`]): `lock-order`, `atomics-pairing`, and the
//! checks ported from the retired `cpq_lint` (`ordering-comment`,
//! `forbid-unsafe`, `panic-path`, `std-sync-direct`) plus
//! `missing-docs-attr`. There is one configuration: every pass, the
//! Relaxed-justification sweep and the stale-waiver audit run every time.
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
use passes::Graph;
use waiver::Waivers;

/// Runs every pass over an analyzed workspace and applies waivers.
pub fn run(ws: &Workspace) -> Report {
    let graph = Graph::build(ws);
    let mut report = Report {
        files_scanned: ws.files.len(),
        functions: ws.functions.len(),
        ..Report::default()
    };

    let mut found: Vec<Diagnostic> = Vec::new();
    for pass in passes::registry() {
        report.passes.push(pass.id().to_string());
        pass.run(ws, &graph, &mut found);
    }

    let known = passes::known_pass_ids();
    let mut waivers = Waivers::collect(ws, &known);
    let (mut kept, waived) = waivers.apply(ws, found);

    // Waiver-system findings are never themselves waivable: a waiver
    // cannot argue away being malformed, mis-scoped, or stale.
    report.passes.push("waiver".to_string());
    kept.append(&mut waivers.problems);
    kept.extend(waivers.stale(ws));

    kept.sort_by(|a, b| (&a.file, a.line, a.col, a.pass).cmp(&(&b.file, b.line, b.col, b.pass)));
    report.diagnostics = kept;
    report.waived = waived;
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_on(sources: &[(&str, &str)]) -> Report {
        run(&Workspace::from_sources(sources))
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
        let report = run_on(&[("crates/demo/src/lib.rs", src)]);
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
        let report = run_on(&[("crates/demo/src/lib.rs", src)]);
        assert_eq!(report.failing().count(), 0, "{:?}", report.diagnostics);
        assert_eq!(report.waived.len(), 1);
        assert!(report.waived[0].1.contains("validated by the caller"));
    }

    #[test]
    fn stale_waiver_is_a_finding() {
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
        let report = run_on(&[("crates/demo/src/lib.rs", src)]);
        let stale: Vec<_> = report
            .diagnostics
            .iter()
            .filter(|d| d.message.contains("stale waiver"))
            .collect();
        assert_eq!(stale.len(), 1, "{:?}", report.diagnostics);
    }

    #[test]
    fn report_serializes_and_parses() {
        let src = "#![forbid(unsafe_code)]\nfn f() { opt.unwrap(); }\n";
        let report = run_on(&[("crates/demo/src/lib.rs", src)]);
        assert!(report.failing().count() > 0);
        let text = json::render_report(&report);
        let v = json::parse(&text).expect("valid json");
        assert!(v.get("diagnostics").is_some());
    }
}
