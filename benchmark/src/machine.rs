//! The machine descriptor stamped on every output, and the process's peak
//! memory.

use crate::json::{num, obj, text, Value};
use std::path::Path;
use std::process::Command;

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Filesystem type of the mount holding `dir`, from `/proc/mounts` (the
/// longest mount point that is a prefix of the canonical path).
fn filesystem_of(dir: &Path) -> String {
    let dir = dir.canonicalize().unwrap_or_else(|_| dir.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut it = line.split_whitespace();
            let (_, mount, fs) = (it.next()?, it.next()?, it.next()?);
            dir.starts_with(mount).then(|| (mount.len(), fs.to_owned()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_owned(), |(_, fs)| fs)
}

/// Where and on what the numbers were taken. `scratch` is the directory
/// the workloads put their page files and logs in.
pub fn descriptor(seed: u64, scratch: &Path) -> Value {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".to_owned(), |s| s.trim().to_owned());
    obj([
        ("nproc", num(nproc as f64)),
        ("kernel", text(kernel)),
        ("scratch_fs", text(filesystem_of(scratch))),
        // Every disk workload opens its files buffered (see README): the
        // latencies are the sandbox's page cache's, not a device's.
        ("direct_io", Value::Bool(false)),
        ("rustc", text(command_line("rustc", &["--version"]))),
        (
            "git_commit",
            text(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("seed", num(seed as f64)),
    ])
}

/// Peak resident set of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
