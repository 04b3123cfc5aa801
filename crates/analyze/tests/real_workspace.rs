//! Runs the analyzer over this repository — its one configuration, the
//! same as `ci.sh`'s gate — and pins the acceptance facts: zero
//! findings, and the lock-order pass
//! rediscovering the lock-nesting protocols the codebase is documented to
//! rely on.

use std::path::Path;

use cpq_analyze::diag::Severity;
use cpq_analyze::model::Workspace;
use cpq_analyze::run;

fn scan_repo() -> Workspace {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    Workspace::scan(&root).expect("scan workspace sources")
}

#[test]
fn analyzer_is_clean_over_this_repository() {
    let report = run(&scan_repo());
    let failing: Vec<_> = report
        .diagnostics
        .iter()
        .filter(|d| d.severity != Severity::Note)
        .collect();
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

#[test]
fn lock_order_rediscovers_known_nesting_protocols() {
    let report = run(&scan_repo());
    let notes: Vec<&str> = report
        .diagnostics
        .iter()
        .filter(|d| d.pass == "lock-order" && d.severity == Severity::Note)
        .map(|d| d.message.as_str())
        .collect();
    // Buffer pool: the frame map's state lock is held while taking the
    // storage file's lock on a miss (DESIGN.md §6).
    assert!(
        notes
            .iter()
            .any(|m| m
                .contains("`storage::BufferPool::state` held over `storage::BufferPool::file`")),
        "notes: {notes:#?}"
    );
    // Live trees: the writer mutex is held across the log's write and
    // fsync — the single-writer protocol of DESIGN.md §15.
    assert!(
        notes
            .iter()
            .any(|m| m.contains("`live::LiveTree::writer` held over `live::Wal::inner`")),
        "notes: {notes:#?}"
    );
    // Scatter-gather: the coordinator queue lock is held while the
    // shared bound's atomic is tightened (DESIGN.md §13).
    assert!(
        notes
            .iter()
            .any(|m| m.contains("`shard::Scatter::state` held over `core::SharedBound::bits`")),
        "notes: {notes:#?}"
    );
}
