//! Experiment harness reproducing the evaluation of Corral et al.
//! (SIGMOD 2000).
//!
//! Each figure of the paper has a name in [`figures::ALL`] (`fig02_ties` …
//! `fig10_incremental`) that the `figures` binary takes to regenerate the
//! corresponding series: it builds R*-trees with the paper's exact
//! parameters (1 KiB pages, `M = 21`, `m = 7`, insertion-built), runs the
//! configured algorithms, and prints the disk-access counts as a table,
//! also writing CSV into `results/`.
//!
//! The heavy lifting lives in this library so the binary stays thin and an
//! integration test can smoke-run every figure at a tiny `--scale`.

pub mod args;
pub mod experiment;
pub mod figures;
pub mod table;

pub use args::Args;
pub use experiment::{
    build_tree, build_tree_bulk, build_tree_with, configure_buffers, policy_by_name, real_dataset,
    run_incremental, run_query, uniform_dataset,
};
pub use table::Table;

/// Prints every table and (unless `--no-csv`) writes each as CSV under the
/// `--out` directory (default `results/`).
pub fn emit(tables: &[Table], args: &Args) {
    let dir = std::path::PathBuf::from(args.get_str("out", "results"));
    for t in tables {
        t.print();
        if !args.flag("no-csv") {
            match t.write_csv(&dir) {
                Ok(path) => eprintln!("wrote {}", path.display()),
                Err(e) => eprintln!("warning: could not write CSV: {e}"),
            }
        }
    }
}
