//! `cpq-analyze` — static analysis over the workspace source.
//!
//! The analyzer lexes and parses every library source file into a
//! [`model::Workspace`] (functions and their atomic accesses with the
//! memory orderings they request) and runs the pass registry over it.
//! The result is one machine-readable `analysis_report.json` plus a
//! process exit code CI can gate on.
//!
//! Passes (see [`passes`]): `atomics-pairing` and `ordering-comment` — the
//! two checks rustc and clippy have no lint for, and that neither x86 nor
//! the SeqCst model checker can see fail. There is one configuration and
//! no waiver: both passes, the Relaxed-justification sweep included, run
//! every time. Lock order is checked where locks are taken, by
//! `cpq_check::sync` in every debug build, not here.
//!
//! Everything here is dependency-free by design: the analyzer reads
//! source text, not rlibs, so it keeps working while the workspace it
//! scans is broken.

pub mod diag;
pub mod json;
pub mod lexer;
pub mod model;
pub mod parse;
pub mod passes;

use diag::Report;
use model::Workspace;

/// Runs every pass over an analyzed workspace.
pub fn run(ws: &Workspace) -> Report {
    let mut report = Report {
        files_scanned: ws.files.len(),
        functions: ws.functions.len(),
        ..Report::default()
    };
    for pass in passes::registry() {
        report.passes.push(pass.id().to_string());
        pass.run(ws, &mut report.diagnostics);
    }
    report
        .diagnostics
        .sort_by(|a, b| (&a.file, a.line, a.col, a.pass).cmp(&(&b.file, b.line, b.col, b.pass)));
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
//! Docs.

/// Publishes.
pub fn publish(flag: &AtomicBool) {
    // ordering: Release — pairs with the Acquire load in `ready`.
    flag.store(true, Ordering::Release);
}

/// Reads.
pub fn ready(flag: &AtomicBool) -> bool {
    // ordering: Acquire — pairs with the Release store in `publish`.
    flag.load(Ordering::Acquire)
}
";
        let report = run_on(&[("crates/demo/src/lib.rs", src)]);
        assert!(report.diagnostics.is_empty(), "{:?}", report.diagnostics);
    }

    #[test]
    fn report_serializes_and_parses() {
        let src = "fn f(x: &AtomicU32) { x.store(1, Ordering::Relaxed); }\n";
        let report = run_on(&[("crates/demo/src/lib.rs", src)]);
        assert!(!report.diagnostics.is_empty());
        let text = json::render_report(&report);
        let v = json::parse(&text).expect("valid json");
        assert!(v.get("diagnostics").is_some());
    }
}
