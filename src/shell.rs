//! An interactive mini spatial database shell over the `cpq` stack.
//!
//! The command interpreter is a plain function from a command line to a
//! report string, so it is fully unit-testable; `examples/shell.rs` wraps it
//! in a stdin REPL. Every feature of the reproduction is reachable:
//! dataset generation, index construction with any R-tree variant, buffer
//! configuration (including directory pinning), the classical queries, all
//! five CPQ algorithms plus the incremental competitors, self/semi variants,
//! validation and statistics.
//!
//! ```text
//! cpq> create a uniform 10000 1
//! cpq> create b clustered 8000 2
//! cpq> index a
//! cpq> index b quadratic
//! cpq> buffer a 64
//! cpq> cpq a b 5 heap
//! cpq> knn a 500 500 3
//! cpq> stats a
//! ```

use crate::core::{
    k_closest_pairs, k_closest_pairs_incremental, self_closest_pairs, semi_closest_pairs,
    Algorithm, CpqConfig, IncrementalConfig, Traversal,
};
use crate::datasets::{california_surrogate, clustered, uniform, ClusterSpec, Dataset};
use crate::geo::{Point2, Rect2};
use crate::rtree::{RTree, RTreeParams, SplitPolicy};
use crate::storage::{BufferPool, MemPageFile, DEFAULT_PAGE_SIZE};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The shell's mutable state: named datasets and named indexes.
#[derive(Default)]
pub struct Shell {
    datasets: BTreeMap<String, Dataset>,
    trees: BTreeMap<String, RTree<2>>,
}

/// Outcome of one command.
pub type ShellResult = Result<String, String>;

impl Shell {
    /// Creates an empty shell.
    pub fn new() -> Self {
        Self::default()
    }

    /// Executes one command line and returns its report.
    pub fn execute(&mut self, line: &str) -> ShellResult {
        let tokens: Vec<&str> = line.split_whitespace().collect();
        let Some(&command) = tokens.first() else {
            return Ok(String::new());
        };
        match command {
            "help" => Ok(HELP.trim().to_string()),
            "create" => self.cmd_create(&tokens[1..]),
            "index" => self.cmd_index(&tokens[1..]),
            "list" => self.cmd_list(),
            "buffer" => self.cmd_buffer(&tokens[1..]),
            "pin" => self.cmd_pin(&tokens[1..]),
            "knn" => self.cmd_knn(&tokens[1..]),
            "range" => self.cmd_range(&tokens[1..]),
            "cpq" => self.cmd_cpq(&tokens[1..]),
            "self" => self.cmd_self(&tokens[1..]),
            "semi" => self.cmd_semi(&tokens[1..]),
            "stats" => self.cmd_stats(&tokens[1..]),
            "validate" => self.cmd_validate(&tokens[1..]),
            other => Err(format!("unknown command {other:?}; try `help`")),
        }
    }

    fn dataset(&self, name: &str) -> Result<&Dataset, String> {
        self.datasets
            .get(name)
            .ok_or_else(|| format!("no dataset named {name:?}; `create` one first"))
    }

    fn tree(&self, name: &str) -> Result<&RTree<2>, String> {
        self.trees
            .get(name)
            .ok_or_else(|| format!("no index named {name:?}; `index {name}` first"))
    }

    fn cmd_create(&mut self, args: &[&str]) -> ShellResult {
        let [name, kind, rest @ ..] = args else {
            return Err("usage: create <name> uniform|clustered|real [n] [seed]".into());
        };
        let n: usize = rest.first().map_or(Ok(10_000), |s| {
            s.parse().map_err(|_| format!("bad count {s:?}"))
        })?;
        let seed: u64 = rest
            .get(1)
            .map_or(Ok(1), |s| s.parse().map_err(|_| format!("bad seed {s:?}")))?;
        let ds = match *kind {
            "uniform" => uniform(n, seed),
            "clustered" => clustered(n, ClusterSpec::default(), seed),
            "real" => california_surrogate(),
            other => return Err(format!("unknown dataset kind {other:?}")),
        };
        let detail = format!("{} points in {:?}", ds.len(), ds.workspace);
        self.datasets.insert(name.to_string(), ds);
        Ok(format!("dataset {name}: {detail}"))
    }

    fn cmd_index(&mut self, args: &[&str]) -> ShellResult {
        let [name, rest @ ..] = args else {
            return Err("usage: index <dataset> [rstar|quadratic|linear] [bulk]".into());
        };
        let policy = match rest.first() {
            None | Some(&"rstar") => SplitPolicy::RStar,
            Some(&"quadratic") => SplitPolicy::GuttmanQuadratic,
            Some(&"linear") => SplitPolicy::GuttmanLinear,
            Some(&"bulk") => SplitPolicy::RStar, // `index x bulk`
            Some(other) => return Err(format!("unknown variant {other:?}")),
        };
        let bulk = rest.contains(&"bulk");
        let ds = self.dataset(name)?.clone();
        let params = RTreeParams {
            split_policy: policy,
            ..RTreeParams::paper()
        };
        let pool = BufferPool::with_lru(Box::new(MemPageFile::new(DEFAULT_PAGE_SIZE)), 512);
        let tree = if bulk {
            RTree::bulk_load(pool, params, &ds.indexed(), 1.0).map_err(|e| e.to_string())?
        } else {
            let mut tree = RTree::new(pool, params).map_err(|e| e.to_string())?;
            for (i, &p) in ds.points.iter().enumerate() {
                tree.insert(p, i as u64).map_err(|e| e.to_string())?;
            }
            tree
        };
        let report = format!(
            "index {name}: {} points, height {}, {} pages, variant {}{}",
            tree.len(),
            tree.height(),
            tree.pool().num_pages(),
            policy.label(),
            if bulk { ", bulk-loaded" } else { "" }
        );
        self.trees.insert(name.to_string(), tree);
        Ok(report)
    }

    fn cmd_list(&self) -> ShellResult {
        let mut out = String::new();
        let _ = writeln!(out, "datasets:");
        for (name, ds) in &self.datasets {
            let _ = writeln!(out, "  {name}: {} points", ds.len());
        }
        let _ = writeln!(out, "indexes:");
        for (name, t) in &self.trees {
            let _ = writeln!(
                out,
                "  {name}: height {}, buffer {} frames, {} pinned",
                t.height(),
                t.pool().capacity(),
                t.pool().pinned_pages()
            );
        }
        Ok(out.trim_end().to_string())
    }

    fn cmd_buffer(&mut self, args: &[&str]) -> ShellResult {
        let [name, frames] = args else {
            return Err("usage: buffer <index> <frames>".into());
        };
        let frames: usize = frames
            .parse()
            .map_err(|_| format!("bad frame count {frames:?}"))?;
        let tree = self.tree(name)?;
        tree.pool().set_capacity(frames);
        tree.pool().reset_stats();
        Ok(format!(
            "index {name}: buffer set to {frames} frames, counters reset"
        ))
    }

    fn cmd_pin(&mut self, args: &[&str]) -> ShellResult {
        let [name] = args else {
            return Err("usage: pin <index>   (pins all non-leaf levels)".into());
        };
        let tree = self.tree(name)?;
        let pinned = tree.pin_upper_levels(1).map_err(|e| e.to_string())?;
        Ok(format!("index {name}: pinned {pinned} directory pages"))
    }

    fn cmd_knn(&mut self, args: &[&str]) -> ShellResult {
        let [name, x, y, k] = args else {
            return Err("usage: knn <index> <x> <y> <k>".into());
        };
        let q = Point2::new([parse_coord(x)?, parse_coord(y)?]);
        let k: usize = k.parse().map_err(|_| format!("bad k {k:?}"))?;
        let tree = self.tree(name)?;
        tree.pool().reset_stats();
        let hits = tree.knn(&q, k).map_err(|e| e.to_string())?;
        let mut out = String::new();
        for (i, h) in hits.iter().enumerate() {
            let _ = writeln!(
                out,
                "{:>3}. #{:<8} at {:?}  dist {:.4}",
                i + 1,
                h.entry.oid,
                h.entry.point().coords(),
                h.dist2.sqrt()
            );
        }
        let _ = write!(out, "({} disk accesses)", tree.pool().buffer_stats().misses);
        Ok(out)
    }

    fn cmd_range(&mut self, args: &[&str]) -> ShellResult {
        let [name, x1, y1, x2, y2] = args else {
            return Err("usage: range <index> <x1> <y1> <x2> <y2>".into());
        };
        let window = Rect2::spanning(
            Point2::new([parse_coord(x1)?, parse_coord(y1)?]),
            Point2::new([parse_coord(x2)?, parse_coord(y2)?]),
        );
        let tree = self.tree(name)?;
        tree.pool().reset_stats();
        let hits = tree.range_query(&window).map_err(|e| e.to_string())?;
        Ok(format!(
            "{} objects in {:?} ({} disk accesses)",
            hits.len(),
            window,
            tree.pool().buffer_stats().misses
        ))
    }

    fn cmd_cpq(&mut self, args: &[&str]) -> ShellResult {
        let [a, b, k, rest @ ..] = args else {
            return Err("usage: cpq <indexA> <indexB> <k> [exh|sim|std|heap|evn|sml|bas]".into());
        };
        let k: usize = k.parse().map_err(|_| format!("bad k {k:?}"))?;
        let ta = self.tree(a)?;
        let tb = self.tree(b)?;
        ta.pool().reset_stats();
        tb.pool().reset_stats();
        let label = rest.first().copied().unwrap_or("heap");
        let out = match label {
            "exh" | "sim" | "std" | "heap" | "naive" => {
                let alg = match label {
                    "exh" => Algorithm::Exhaustive,
                    "sim" => Algorithm::Simple,
                    "std" => Algorithm::SortedDistances,
                    "naive" => Algorithm::Naive,
                    _ => Algorithm::Heap,
                };
                k_closest_pairs(ta, tb, k, alg, &CpqConfig::paper()).map_err(|e| e.to_string())?
            }
            "evn" | "sml" | "bas" => {
                let traversal = match label {
                    "evn" => Traversal::Even,
                    "bas" => Traversal::Basic,
                    _ => Traversal::Simultaneous,
                };
                let cfg = IncrementalConfig {
                    traversal,
                    ..Default::default()
                };
                k_closest_pairs_incremental(ta, tb, k, &cfg).map_err(|e| e.to_string())?
            }
            other => return Err(format!("unknown algorithm {other:?}")),
        };
        let mut text = String::new();
        for (i, pair) in out.pairs.iter().take(10).enumerate() {
            let _ = writeln!(
                text,
                "{:>3}. {a}#{:<8} <-> {b}#{:<8} dist {:.4}",
                i + 1,
                pair.p.oid,
                pair.q.oid,
                pair.distance()
            );
        }
        if out.pairs.len() > 10 {
            let _ = writeln!(text, "  ... and {} more", out.pairs.len() - 10);
        }
        let _ = write!(
            text,
            "{} via {label}: {} disk accesses, {} node pairs, peak queue {}",
            if out.pairs.is_empty() {
                "no pairs"
            } else {
                "done"
            },
            out.stats.disk_accesses(),
            out.stats.node_pairs_processed,
            out.stats.queue_peak
        );
        Ok(text)
    }

    fn cmd_self(&mut self, args: &[&str]) -> ShellResult {
        let [name, k] = args else {
            return Err("usage: self <index> <k>".into());
        };
        let k: usize = k.parse().map_err(|_| format!("bad k {k:?}"))?;
        let tree = self.tree(name)?;
        tree.pool().reset_stats();
        let out = self_closest_pairs(tree, k, Algorithm::Heap, &CpqConfig::paper())
            .map_err(|e| e.to_string())?;
        let best = out
            .pairs
            .first()
            .map(|p| {
                format!(
                    "closest: #{} <-> #{} at {:.4}",
                    p.p.oid,
                    p.q.oid,
                    p.distance()
                )
            })
            .unwrap_or_else(|| "no pairs".into());
        Ok(format!(
            "{} self pairs; {best} ({} disk accesses)",
            out.pairs.len(),
            out.stats.disk_accesses()
        ))
    }

    fn cmd_semi(&mut self, args: &[&str]) -> ShellResult {
        let [a, b] = args else {
            return Err("usage: semi <indexA> <indexB>".into());
        };
        let ta = self.tree(a)?;
        let tb = self.tree(b)?;
        ta.pool().reset_stats();
        tb.pool().reset_stats();
        let out = semi_closest_pairs(ta, tb).map_err(|e| e.to_string())?;
        let mean = if out.pairs.is_empty() {
            0.0
        } else {
            out.pairs.iter().map(|p| p.distance()).sum::<f64>() / out.pairs.len() as f64
        };
        Ok(format!(
            "matched {} objects of {a} to nearest in {b}; mean distance {mean:.4} ({} disk accesses)",
            out.pairs.len(),
            out.stats.disk_accesses()
        ))
    }

    fn cmd_stats(&mut self, args: &[&str]) -> ShellResult {
        let [name] = args else {
            return Err("usage: stats <index>".into());
        };
        let tree = self.tree(name)?;
        let levels = tree.level_stats().map_err(|e| e.to_string())?;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "index {name}: {} points, height {}, M = {}, variant {}",
            tree.len(),
            tree.height(),
            tree.params().max_entries,
            tree.params().split_policy.label()
        );
        for s in levels.iter().rev() {
            let _ = writeln!(
                out,
                "  level {}: {:>7} nodes, avg occupancy {:>5.1}, avg extent {:.2} x {:.2}",
                s.level, s.nodes, s.avg_occupancy, s.avg_extent[0], s.avg_extent[1]
            );
        }
        let b = tree.pool().buffer_stats();
        let _ = write!(
            out,
            "  buffer: {} frames, {} pinned, {:.1}% hit rate since last reset",
            tree.pool().capacity(),
            tree.pool().pinned_pages(),
            100.0 * b.hit_rate()
        );
        Ok(out)
    }

    fn cmd_validate(&mut self, args: &[&str]) -> ShellResult {
        let [name] = args else {
            return Err("usage: validate <index>".into());
        };
        let tree = self.tree(name)?;
        let report = tree.validate().map_err(|e| e.to_string())?;
        if report.is_valid() {
            Ok(format!(
                "index {name} valid: {} nodes, {} leaves, {} points",
                report.nodes, report.leaves, report.points
            ))
        } else {
            Err(format!(
                "index {name} INVALID:\n{}",
                report.violations.join("\n")
            ))
        }
    }
}

/// The one coordinate parser. `"NaN".parse::<f64>()` succeeds, and the
/// distance kernels require finite input, so non-finite values stop here.
fn parse_coord(s: &str) -> Result<f64, String> {
    match s.parse::<f64>() {
        Ok(v) if v.is_finite() => Ok(v),
        _ => Err(format!("bad coordinate {s:?}")),
    }
}

const HELP: &str = r#"
commands:
  create <name> uniform|clustered|real [n] [seed]   generate a dataset
  index <dataset> [rstar|quadratic|linear] [bulk]   build an R-tree over it
  list                                              show datasets and indexes
  buffer <index> <frames>                           set the LRU buffer size
  pin <index>                                       pin non-leaf levels in the buffer
  knn <index> <x> <y> <k>                           k nearest neighbors
  range <index> <x1> <y1> <x2> <y2>                 window query
  cpq <indexA> <indexB> <k> [exh|sim|std|heap|evn|sml|bas]
                                                    k closest pairs
  self <index> <k>                                  self-CPQ
  semi <indexA> <indexB>                            all nearest neighbors
  stats <index>                                     level statistics + buffer
  validate <index>                                  structural invariant check
  help                                              this text
  quit / exit                                       leave
"#;

#[cfg(test)]
mod tests {
    use super::*;

    fn run(shell: &mut Shell, cmd: &str) -> String {
        shell
            .execute(cmd)
            .unwrap_or_else(|e| panic!("{cmd:?} failed: {e}"))
    }

    #[test]
    fn full_session() {
        let mut sh = Shell::new();
        run(&mut sh, "create a uniform 800 1");
        run(&mut sh, "create b clustered 600 2");
        assert!(run(&mut sh, "index a").contains("height"));
        assert!(run(&mut sh, "index b quadratic").contains("quadratic"));
        assert!(run(&mut sh, "list").contains("indexes:"));
        run(&mut sh, "buffer a 32");
        let knn = run(&mut sh, "knn a 500 500 3");
        assert!(knn.contains("1."), "knn output: {knn}");
        let range = run(&mut sh, "range a 0 0 100 100");
        assert!(range.contains("objects in"));
        let cpq = run(&mut sh, "cpq a b 5 heap");
        assert!(cpq.contains("disk accesses"), "{cpq}");
        let cpq = run(&mut sh, "cpq a b 2 sml");
        assert!(cpq.contains("via sml"));
        assert!(run(&mut sh, "self a 3").contains("self pairs"));
        assert!(run(&mut sh, "semi a b").contains("matched 800"));
        assert!(run(&mut sh, "stats a").contains("level"));
        assert!(run(&mut sh, "validate a").contains("valid"));
        assert!(run(&mut sh, "pin a").contains("pinned"));
        assert!(run(&mut sh, "help").contains("commands"));
        assert!(run(&mut sh, "").is_empty());
    }

    #[test]
    fn cpq_results_match_direct_api() {
        let mut sh = Shell::new();
        run(&mut sh, "create a uniform 400 7");
        run(&mut sh, "create b uniform 400 8");
        run(&mut sh, "index a");
        run(&mut sh, "index b");
        let via_shell = run(&mut sh, "cpq a b 1 std");
        // Compute the same pair directly.
        let a = uniform(400, 7);
        let b = uniform(400, 8);
        let best = crate::core::brute::k_closest_pairs_brute(&a.indexed(), &b.indexed(), 1);
        let expect = format!("{:.4}", best[0].distance());
        assert!(
            via_shell.contains(&expect),
            "shell said {via_shell:?}, expected distance {expect}"
        );
    }

    #[test]
    fn errors_are_reported_not_panicked() {
        let mut sh = Shell::new();
        assert!(sh.execute("nonsense").is_err());
        assert!(sh.execute("index missing").is_err());
        assert!(sh.execute("knn missing 0 0 1").is_err());
        assert!(sh.execute("create x uniform notanumber").is_err());
        assert!(sh.execute("cpq a b xyz").is_err());
        sh.execute("create a uniform 50 1").unwrap();
        sh.execute("index a").unwrap();
        assert!(sh.execute("cpq a a 1 bogus").is_err());
        for cmd in ["knn a NaN 0 3", "knn a 0 inf 3", "range a 0 0 NaN 10"] {
            let err = sh.execute(cmd).unwrap_err();
            assert!(err.contains("bad coordinate"), "{cmd:?}: {err}");
        }
        // K is outside input too: absurd values return what the index holds.
        let all = sh.execute("knn a 500 500 18446744073709551615").unwrap();
        assert!(all.contains(" 50. "), "{all}");
        assert!(sh.execute("knn a 500 500 17592186044416").is_ok());
        // So is a frame count: these two used to abort the process.
        for frames in ["17592186044416", "18446744073709551615"] {
            sh.execute(&format!("buffer a {frames}")).unwrap();
            assert!(sh.execute("knn a 500 500 3").unwrap().contains(" 3. "));
        }
    }

    #[test]
    fn variants_and_bulk() {
        let mut sh = Shell::new();
        run(&mut sh, "create a uniform 300 3");
        for v in ["rstar", "quadratic", "linear"] {
            assert!(run(&mut sh, &format!("index a {v}")).contains(v));
            assert!(run(&mut sh, "validate a").contains("valid"));
        }
        assert!(run(&mut sh, "index a bulk").contains("bulk-loaded"));
        assert!(run(&mut sh, "validate a").contains("valid"));
    }
}
