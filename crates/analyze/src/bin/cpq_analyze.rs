//! `cpq_analyze` — CLI driver for the workspace static analyzer.
//!
//! ```text
//! cpq_analyze [--root DIR] [--out FILE]
//! ```
//!
//! Scans the workspace at `--root` (default `.`), runs every pass, writes
//! the report to `--out` (default `target/analysis_report.json`), prints
//! the findings, and exits 1 when there is any — the CI gate. There is
//! nothing else to select and nothing to waive.

use cpq_analyze::json;
use cpq_analyze::model::Workspace;
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    root: PathBuf,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        root: PathBuf::from("."),
        out: PathBuf::from("target/analysis_report.json"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--root" => args.root = it.next().ok_or("--root wants a path")?.into(),
            "--out" => args.out = it.next().ok_or("--out wants a path")?.into(),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("cpq_analyze: {e}");
            return ExitCode::from(2);
        }
    };

    let ws = match Workspace::scan(&args.root) {
        Ok(ws) => ws,
        Err(e) => {
            eprintln!("cpq_analyze: {e}");
            return ExitCode::from(2);
        }
    };

    let report = cpq_analyze::run(&ws);

    if let Some(parent) = args.out.parent() {
        if !parent.as_os_str().is_empty() {
            let _ = std::fs::create_dir_all(parent);
        }
    }
    if let Err(e) = std::fs::write(&args.out, json::render_report(&report)) {
        eprintln!("cpq_analyze: cannot write {}: {e}", args.out.display());
        return ExitCode::from(2);
    }

    let failing = &report.diagnostics;
    for d in failing {
        eprintln!("{}", d.render());
    }
    println!(
        "cpq_analyze: {} file(s), {} function(s); {} finding(s) -> {}",
        report.files_scanned,
        report.functions,
        failing.len(),
        args.out.display()
    );
    if failing.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!("cpq_analyze: {} finding(s)", failing.len());
        ExitCode::from(1)
    }
}
