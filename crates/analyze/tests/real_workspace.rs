//! Runs the analyzer over this repository — its one configuration, the
//! same as `ci.sh`'s gate — and pins the acceptance fact: zero findings.

use std::path::Path;

use cpq_analyze::model::Workspace;
use cpq_analyze::run;

fn scan_repo() -> Workspace {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    Workspace::scan(&root).expect("scan workspace sources")
}

#[test]
fn analyzer_is_clean_over_this_repository() {
    let report = run(&scan_repo());
    let failing = &report.diagnostics;
    assert!(
        failing.is_empty(),
        "findings over the live workspace:\n{}",
        failing
            .iter()
            .map(|d| d.render())
            .collect::<Vec<_>>()
            .join("\n")
    );
}
