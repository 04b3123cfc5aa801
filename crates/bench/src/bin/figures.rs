//! Regenerates the paper's figures, the ablations and the cost-model
//! validation: one name from `cpq_bench::figures::ALL`, or `all`.
//! Usage: cargo run -p cpq-bench --release --bin figures -- <name|all> [--scale S] [--out DIR] [--no-csv]

use cpq_bench::figures::ALL;

fn main() {
    let mut argv = std::env::args().skip(1);
    let which = argv.next().unwrap_or_default();
    let args = cpq_bench::Args::from_args(argv);
    let selected: Vec<_> = ALL
        .iter()
        .filter(|(name, _)| which == "all" || which == *name)
        .collect();
    if selected.is_empty() {
        let names: Vec<&str> = ALL.iter().map(|(name, _)| *name).collect();
        eprintln!("usage: figures <name|all> [--scale S] [--out DIR] [--no-csv]");
        eprintln!("names: {}", names.join(" "));
        std::process::exit(2);
    }
    for (name, figure) in selected {
        eprintln!("=== {name} ===");
        let tables = figure(args.scale()).expect("experiment failed");
        cpq_bench::emit(&tables, &args);
    }
}
