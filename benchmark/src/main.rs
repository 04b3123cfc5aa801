//! `cpq-benchmark --workload W --seed N --seconds S --trace 0|1`: runs one
//! workload in this process, prints every metric by name with its unit,
//! and ends with the one-line JSON result. `run.sh` builds and calls it.

use cpq_benchmark::data::{Opts, Scratch};
use cpq_benchmark::gate::Gate;
use cpq_benchmark::json::{num, obj, render, text, Value};
use cpq_benchmark::kcpq::{self, Storage};
use cpq_benchmark::report::{unit_of, Metrics, WORKLOADS};
use cpq_benchmark::spans::Tracer;
use cpq_benchmark::{live, machine, svc};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage: cpq-benchmark --workload <kcpq_hot|kcpq_cold|svc_mix|live_rw> \
[--seed N] [--seconds S] [--trace 0|1] [--smoke] [--record] [--corrupt-reference] [--out DIR]";

struct Cli {
    workload: String,
    opts: Opts,
    out: PathBuf,
    record: bool,
}

fn parse_cli() -> Result<Cli, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, None, false);
    let (mut smoke, mut record, mut corrupt) = (false, false, false);
    let mut out = PathBuf::from("target/benchmark");
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |what: &str| args.next().ok_or(format!("{flag} expects {what}"));
        match flag.as_str() {
            "--workload" => workload = Some(value("a workload name")?),
            "--seed" => {
                let v = value("an integer")?;
                seed = v
                    .parse()
                    .map_err(|_| format!("--seed expects an integer, got {v:?}"))?;
            }
            "--seconds" => {
                let v = value("a number")?;
                let s: f64 = v
                    .parse()
                    .map_err(|_| format!("--seconds expects a number, got {v:?}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err(format!("--seconds must lie in (0, 60], got {v}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace expects 0 or 1, got {v:?}")),
                }
            }
            "--out" => out = PathBuf::from(value("a directory")?),
            "--smoke" => smoke = true,
            "--record" => record = true,
            "--corrupt-reference" => corrupt = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?}"
        ));
    }
    let scratch = out
        .join("tmp")
        .join(format!("{workload}-{}", std::process::id()));
    Ok(Cli {
        opts: Opts {
            seed,
            seconds: seconds.unwrap_or(if smoke { 0.3 } else { 20.0 }),
            trace,
            smoke,
            corrupt_reference: corrupt,
            scratch,
        },
        workload,
        out,
        record,
    })
}

fn run_workload(
    workload: &str,
    opts: &Opts,
    dir: &Path,
    gate: &mut Gate,
    tracer: &Tracer,
) -> Metrics {
    match (workload, opts.trace) {
        ("kcpq_hot", false) => kcpq::run_end_to_end(Storage::Hot, opts, dir, gate),
        ("kcpq_hot", true) => kcpq::run_traced(Storage::Hot, opts, dir, gate, tracer),
        ("kcpq_cold", false) => kcpq::run_end_to_end(Storage::Cold, opts, dir, gate),
        ("kcpq_cold", true) => kcpq::run_traced(Storage::Cold, opts, dir, gate, tracer),
        ("svc_mix", false) => svc::run_end_to_end(opts, gate),
        ("svc_mix", true) => svc::run_traced(opts, dir, gate, tracer),
        ("live_rw", false) => live::run_end_to_end(opts, dir, gate),
        ("live_rw", true) => live::run_traced(opts, dir, gate, tracer),
        _ => unreachable!("workload names are checked when parsing"),
    }
}

fn metrics_value(metrics: &Metrics) -> Value {
    Value::Obj(
        metrics
            .iter()
            .map(|(name, value)| {
                (
                    name.to_owned(),
                    obj([("value", num(value)), ("unit", text(unit_of(name)))]),
                )
            })
            .collect(),
    )
}

fn main() -> ExitCode {
    let cli = match parse_cli() {
        Ok(cli) => cli,
        Err(msg) => {
            eprintln!("error: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let (workload, opts) = (cli.workload.as_str(), &cli.opts);
    let scratch = match Scratch::create(opts.scratch.clone()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot create {}: {e}", opts.scratch.display());
            return ExitCode::from(2);
        }
    };
    let descriptor = machine::descriptor(opts.seed, scratch.path());
    let tracer = Tracer::new(opts.trace);
    let mut gate = Gate::new();
    let mut metrics = run_workload(workload, opts, scratch.path(), &mut gate, &tracer);
    drop(scratch);
    if !opts.trace {
        metrics.set("peak_rss_mb", machine::peak_rss_mb());
    }

    let correct = gate.failed() == 0;
    println!(
        "workload {workload}  seed {}  seconds {}  trace {}",
        opts.seed,
        opts.seconds,
        u8::from(opts.trace)
    );
    println!("machine {}", render(&descriptor));
    for (name, value) in metrics.iter() {
        println!("{name:<40} {value:>16.4} {}", unit_of(name));
    }
    let layers = tracer.layer_times();
    for row in &layers {
        println!(
            "span {:<34} n={:<7} total {:>10.2} ms  self {:>10.2} ms",
            row.name, row.count, row.total_ms, row.self_ms
        );
    }
    for note in gate.notes() {
        println!("FAILED {note}");
    }

    let result = obj([
        ("correct", Value::Bool(correct)),
        ("attempted", num(gate.attempted() as f64)),
        ("failed", num(gate.failed() as f64)),
        ("metrics", metrics_value(&metrics)),
    ]);
    let mut full = result.clone();
    if let Value::Obj(map) = &mut full {
        map.insert("workload".to_owned(), text(workload));
        map.insert("descriptor".to_owned(), descriptor.clone());
        map.insert("seconds".to_owned(), num(opts.seconds));
        map.insert("smoke".to_owned(), Value::Bool(opts.smoke));
        map.insert(
            "cycle_ms".to_owned(),
            Value::Arr(metrics.cycle_ms.iter().map(|&c| num(c)).collect()),
        );
        map.insert(
            "layers".to_owned(),
            Value::Arr(
                layers
                    .iter()
                    .map(|r| {
                        obj([
                            ("name", text(r.name)),
                            ("count", num(r.count as f64)),
                            ("total_ms", num(r.total_ms)),
                            ("self_ms", num(r.self_ms)),
                        ])
                    })
                    .collect(),
            ),
        );
    }
    let suffix = if opts.trace { "_trace" } else { "" };
    let written = std::fs::create_dir_all(&cli.out)
        .and_then(|()| {
            std::fs::write(
                cli.out.join(format!("result_{workload}{suffix}.json")),
                render(&full) + "\n",
            )
        })
        .and_then(|()| {
            if opts.trace {
                std::fs::write(
                    cli.out.join(format!("trace_{workload}.jsonl")),
                    tracer.to_jsonl(&descriptor),
                )
            } else {
                Ok(())
            }
        })
        .and_then(|()| {
            if cli.record && !opts.trace {
                append_history(workload, &descriptor, &metrics, correct)
            } else {
                Ok(())
            }
        });
    if let Err(e) = written {
        eprintln!(
            "error: cannot write results under {}: {e}",
            cli.out.display()
        );
        return ExitCode::from(2);
    }
    println!("{}", render(&result));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One line of the perf trajectory: commit and machine (in the
/// descriptor), workload, and the end-to-end metrics.
fn append_history(
    workload: &str,
    descriptor: &Value,
    metrics: &Metrics,
    correct: bool,
) -> std::io::Result<()> {
    use std::io::Write as _;
    let line = obj([
        ("workload", text(workload)),
        ("descriptor", descriptor.clone()),
        ("correct", Value::Bool(correct)),
        ("metrics", metrics_value(metrics)),
    ]);
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("history.jsonl");
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(file, "{}", render(&line))
}
