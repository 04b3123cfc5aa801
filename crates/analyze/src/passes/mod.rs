//! The pass registry and the test-code line ranges passes skip.
//!
//! A pass is a pure function from the analyzed [`Workspace`] to
//! diagnostics; the registry fixes the run order. A pass exists only for
//! what rustc and clippy cannot check: adding one means implementing
//! [`Pass`], listing it in [`registry`], pinning a broken-twin fixture,
//! and recording in DESIGN.md §17 the seeded bug only it catches.

pub mod atomics;
pub mod ordering;

use crate::diag::Diagnostic;
use crate::model::Workspace;

/// One analysis pass.
pub trait Pass {
    /// Stable pass id — what the report groups by.
    fn id(&self) -> &'static str;
    /// Runs the pass over the workspace, appending findings.
    fn run(&self, ws: &Workspace, out: &mut Vec<Diagnostic>);
}

/// All passes in run order.
pub fn registry() -> Vec<Box<dyn Pass>> {
    vec![
        Box::new(atomics::AtomicsPairing),
        Box::new(ordering::OrderingComment),
    ]
}

/// 1-based line ranges of test code in `file` (for token-stream passes
/// that must skip `#[cfg(test)]` code): gated item scopes plus
/// individually test-attributed functions.
pub fn test_line_ranges(ws: &Workspace, file: usize) -> Vec<(u32, u32)> {
    let mut out = ws.files[file].test_regions.clone();
    for f in ws.functions.iter().filter(|f| f.file == file && f.is_test) {
        let end = f
            .body
            .map(|(_, close)| ws.files[file].lexed.tokens[close].line)
            .unwrap_or(f.line);
        out.push((f.line, end));
    }
    out
}

/// Whether `line` falls inside any of `ranges`.
pub fn in_ranges(ranges: &[(u32, u32)], line: u32) -> bool {
    ranges.iter().any(|&(a, b)| line >= a && line <= b)
}
