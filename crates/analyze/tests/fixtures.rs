//! Broken-twin fixture tests: every new pass is pinned to an exact
//! diagnostic (pass, severity, file, line, message) from a fixture file
//! under `fixtures/`, and its fixed twin is pinned to silence. These
//! gates keep the passes honest — a regression that stops a pass firing
//! on its twin fails here, not in production triage.

use cpq_analyze::diag::{Diagnostic, Severity};
use cpq_analyze::model::Workspace;
use cpq_analyze::run;

fn analyze(sources: &[(&str, &str)]) -> Vec<Diagnostic> {
    run(&Workspace::from_sources(sources)).diagnostics
}

/// The diagnostics one pass emitted.
fn failing<'a>(diags: &'a [Diagnostic], pass: &str) -> Vec<&'a Diagnostic> {
    diags.iter().filter(|d| d.pass == pass).collect()
}

#[test]
fn atomics_broken_twin_reports_unpaired_release() {
    let diags = analyze(&[(
        "crates/core/src/flag.rs",
        include_str!("../fixtures/atomics_broken.rs"),
    )]);
    let hits = failing(&diags, "atomics-pairing");
    let errors: Vec<_> = hits
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .collect();
    assert_eq!(errors.len(), 1, "diagnostics: {diags:#?}");
    let d = errors[0];
    assert_eq!((d.file.as_str(), d.line), ("crates/core/src/flag.rs", 6));
    assert!(
        d.message.contains(
            "`store` on `ready` publishes with Release but no workspace load acquires it"
        ),
        "message: {}",
        d.message
    );
}

#[test]
fn atomics_broken_twin_flags_the_relaxed_reader_as_mixed_regime() {
    let diags = analyze(&[(
        "crates/core/src/flag.rs",
        include_str!("../fixtures/atomics_broken.rs"),
    )]);
    // The Relaxed reader of the released field is the other half of the
    // same bug: the sweep pins it as mixed-regime.
    assert!(
        diags.iter().any(|d| d.pass == "atomics-pairing"
            && d.severity == Severity::Warning
            && d.line == 10
            && d.message
                .contains("Relaxed access to `ready`, which elsewhere uses acquire/release")),
        "diagnostics: {diags:#?}"
    );
}

#[test]
fn atomics_fixed_twin_is_clean() {
    let diags = analyze(&[(
        "crates/core/src/flag.rs",
        include_str!("../fixtures/atomics_clean.rs"),
    )]);
    assert!(failing(&diags, "atomics-pairing").is_empty(), "{diags:#?}");
}
