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

/// Failing (non-note) diagnostics emitted by one pass.
fn failing<'a>(diags: &'a [Diagnostic], pass: &str) -> Vec<&'a Diagnostic> {
    diags
        .iter()
        .filter(|d| d.pass == pass && d.severity != Severity::Note)
        .collect()
}

#[test]
fn lock_order_broken_twin_reports_cycle() {
    let diags = analyze(&[(
        "crates/core/src/pool.rs",
        include_str!("../fixtures/lock_order_broken.rs"),
    )]);
    let hits = failing(&diags, "lock-order");
    assert_eq!(hits.len(), 1, "diagnostics: {diags:#?}");
    let d = hits[0];
    assert_eq!(d.severity, Severity::Error);
    assert_eq!(d.file, "crates/core/src/pool.rs");
    assert!(
        d.message.contains("lock-order cycle between")
            && d.message.contains("core::Pool::alpha")
            && d.message.contains("core::Pool::beta"),
        "message: {}",
        d.message
    );
}

#[test]
fn lock_order_fixed_twin_is_a_note_not_a_cycle() {
    let diags = analyze(&[(
        "crates/core/src/pool.rs",
        include_str!("../fixtures/lock_order_clean.rs"),
    )]);
    assert!(failing(&diags, "lock-order").is_empty(), "{diags:#?}");
    // The agreed nesting is still published, once, as a note.
    let notes: Vec<_> = diags
        .iter()
        .filter(|d| d.pass == "lock-order" && d.severity == Severity::Note)
        .collect();
    assert_eq!(notes.len(), 1, "{notes:#?}");
    assert!(
        notes[0]
            .message
            .contains("`core::Pool::alpha` held over `core::Pool::beta`"),
        "message: {}",
        notes[0].message
    );
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
