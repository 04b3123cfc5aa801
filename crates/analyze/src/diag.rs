//! Structured diagnostics: what a pass emits, how severities rank, and
//! the report shape serialized to `analysis_report.json`.

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Fails the run.
    Warning,
    /// Fails the run.
    Error,
}

impl Severity {
    /// Report string (`warning`/`error`).
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// One finding from one pass.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Emitting pass id (`atomics-pairing` or `ordering-comment`).
    pub pass: &'static str,
    /// Severity.
    pub severity: Severity,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Human-readable message.
    pub message: String,
}

impl Diagnostic {
    /// Builds a diagnostic.
    pub fn new(
        pass: &'static str,
        severity: Severity,
        file: impl Into<String>,
        line: u32,
        col: u32,
        message: impl Into<String>,
    ) -> Diagnostic {
        Diagnostic {
            pass,
            severity,
            file: file.into(),
            line,
            col,
            message: message.into(),
        }
    }

    /// `file:line:col: severity[pass] message` — the terminal rendering.
    pub fn render(&self) -> String {
        format!(
            "{}:{}:{}: {}[{}] {}",
            self.file,
            self.line,
            self.col,
            self.severity.as_str(),
            self.pass,
            self.message
        )
    }
}

/// The outcome of a full analyzer run, ready for serialization.
#[derive(Debug, Default)]
pub struct Report {
    /// Pass ids that ran, in order.
    pub passes: Vec<String>,
    /// Every finding; any one fails the run.
    pub diagnostics: Vec<Diagnostic>,
    /// Number of files scanned.
    pub files_scanned: usize,
    /// Number of functions analyzed.
    pub functions: usize,
}
