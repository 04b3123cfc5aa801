//! `aa`: two sets of runs of one build, compared metric by metric against
//! the bounds in `BENCHMARK.json` — the check the driver makes before it
//! accepts the benchmark, and the template for comparing two commits.
//!
//! Each set runs every workload `--runs` times, each time with another
//! seed, and once traced. A row per workload x metric gives both sets'
//! medians and quartiles, the spread (quartile distance over median) and
//! the shift of the second median against the first, in the metric's
//! worse direction. `pass` needs both spreads and the shift within the
//! bound; a spread beyond the bound makes the row `unresolved`, not
//! passed. Exact counts of the traced runs must be identical.

use cpq_benchmark::json::{num, obj, parse, render, text, Value};
use cpq_benchmark::report::{EXACT_COUNTS, EXACT_WORKLOADS, WORKLOADS};
use cpq_benchmark::stats::{median, quartiles};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

struct Cli {
    runs: usize,
    seed: u64,
    seconds: Option<String>,
    workloads: Vec<String>,
    smoke: bool,
    out: PathBuf,
}

fn parse_cli() -> Result<Cli, String> {
    let mut cli = Cli {
        runs: 10,
        seed: 1,
        seconds: None,
        workloads: Vec::new(),
        smoke: false,
        out: PathBuf::from("target/benchmark"),
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} expects a value"));
        match flag.as_str() {
            "--runs" => {
                cli.runs = value()?
                    .parse()
                    .map_err(|_| "--runs expects an integer".to_owned())?
            }
            "--seed" => {
                cli.seed = value()?
                    .parse()
                    .map_err(|_| "--seed expects an integer".to_owned())?
            }
            "--seconds" => cli.seconds = Some(value()?),
            "--workload" => cli.workloads.push(value()?),
            "--out" => cli.out = PathBuf::from(value()?),
            "--smoke" => cli.smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if cli.runs < 2 {
        return Err("--runs must be at least 2: quartiles need two values".into());
    }
    if cli.workloads.is_empty() {
        cli.workloads = WORKLOADS.iter().map(|w| (*w).to_owned()).collect();
    }
    Ok(cli)
}

/// Runs the benchmark binary once and returns its result line, parsed.
fn run_once(
    bin: &Path,
    cli: &Cli,
    workload: &str,
    seed: u64,
    trace: bool,
) -> Result<Value, String> {
    let mut cmd = Command::new(bin);
    cmd.args([
        "--workload",
        workload,
        "--seed",
        &seed.to_string(),
        "--trace",
        if trace { "1" } else { "0" },
    ]);
    cmd.arg("--out").arg(&cli.out);
    if let Some(s) = &cli.seconds {
        cmd.args(["--seconds", s]);
    }
    if cli.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd
        .output()
        .map_err(|e| format!("cannot run {}: {e}", bin.display()))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "{workload} seed {seed} failed ({}):\n{stdout}",
            out.status
        ));
    }
    parse(stdout.lines().last().unwrap_or_default())
}

fn metric_values(result: &Value) -> BTreeMap<String, f64> {
    let Some(Value::Obj(metrics)) = result.get("metrics") else {
        return BTreeMap::new();
    };
    metrics
        .iter()
        .filter_map(|(name, m)| match m.get("value") {
            Some(Value::Num(v)) => Some((name.clone(), *v)),
            _ => None,
        })
        .collect()
}

/// One set: per workload, the end-to-end metrics of `runs` seeds and the
/// per-layer metrics of one traced run.
struct Set {
    end_to_end: BTreeMap<String, BTreeMap<String, Vec<f64>>>,
    traced: BTreeMap<String, BTreeMap<String, f64>>,
}

fn run_set(bin: &Path, cli: &Cli, label: &str) -> Result<Set, String> {
    let mut set = Set {
        end_to_end: BTreeMap::new(),
        traced: BTreeMap::new(),
    };
    for workload in &cli.workloads {
        let per_metric = set.end_to_end.entry(workload.clone()).or_default();
        for i in 0..cli.runs as u64 {
            eprintln!("set {label}: {workload} seed {}", cli.seed + i);
            let result = run_once(bin, cli, workload, cli.seed + i, false)?;
            for (name, value) in metric_values(&result) {
                per_metric.entry(name).or_default().push(value);
            }
        }
        eprintln!("set {label}: {workload} seed {} traced", cli.seed);
        set.traced.insert(
            workload.clone(),
            metric_values(&run_once(bin, cli, workload, cli.seed, true)?),
        );
    }
    Ok(set)
}

struct Declared {
    better_higher: bool,
    bound: f64,
}

fn declared_end_to_end(benchmark: &Value) -> Result<BTreeMap<String, Declared>, String> {
    let list = benchmark
        .get("end_to_end")
        .and_then(Value::as_arr)
        .ok_or("BENCHMARK.json: no end_to_end list")?;
    list.iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Value::as_str)
                .ok_or("end_to_end entry without a name")?;
            let better = m
                .get("better")
                .and_then(Value::as_str)
                .ok_or("end_to_end entry without `better`")?;
            let Some(Value::Num(bound)) = m.get("bound") else {
                return Err(format!("{name}: no numeric bound"));
            };
            Ok((
                name.to_owned(),
                Declared {
                    better_higher: better == "higher",
                    bound: *bound,
                },
            ))
        })
        .collect()
}

fn summary(values: &[f64]) -> (f64, f64, f64) {
    let (q1, q3) = quartiles(values).expect("at least two runs");
    (median(values).expect("at least two runs"), q1, q3)
}

fn main() -> ExitCode {
    let cli = match parse_cli() {
        Ok(cli) => cli,
        Err(msg) => {
            eprintln!("error: {msg}\nusage: aa [--runs N] [--seed S] [--seconds S] [--workload W]... [--smoke] [--out DIR]");
            return ExitCode::from(2);
        }
    };
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    let run = || -> Result<bool, String> {
        let spec = std::fs::read_to_string(manifest.join("../BENCHMARK.json"))
            .map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let declared = declared_end_to_end(&parse(&spec)?)?;
        let bin = std::env::current_exe()
            .map_err(|e| e.to_string())?
            .with_file_name("cpq-benchmark");
        let a = run_set(&bin, &cli, "A")?;
        let b = run_set(&bin, &cli, "B")?;

        let mut all_pass = true;
        let mut rows = Vec::new();
        println!(
            "{:<10} {:<12} {:>11} {:>11} {:>11} | {:>11} {:>11} {:>11} | {:>7} {:>7} {:>7} {:>6}  verdict",
            "workload", "metric", "A median", "A q1", "A q3", "B median", "B q1", "B q3", "A sprd", "B sprd", "shift", "bound"
        );
        for workload in &cli.workloads {
            for (name, d) in &declared {
                let (va, vb) = (&a.end_to_end[workload][name], &b.end_to_end[workload][name]);
                let ((ma, a1, a3), (mb, b1, b3)) = (summary(va), summary(vb));
                let (sa, sb) = ((a3 - a1) / ma, (b3 - b1) / mb);
                // Positive = the second set is worse.
                let shift = if d.better_higher {
                    (ma - mb) / ma
                } else {
                    (mb - ma) / ma
                };
                // The driver holds the spread of every metric but the
                // set-up time to the bound.
                let spread_ok = name == "setup_s" || (sa <= d.bound && sb <= d.bound);
                let verdict = if !spread_ok {
                    "unresolved"
                } else if shift <= d.bound {
                    "pass"
                } else {
                    "FAIL"
                };
                all_pass &= verdict == "pass";
                println!(
                    "{workload:<10} {name:<12} {ma:>11.4} {a1:>11.4} {a3:>11.4} | {mb:>11.4} {b1:>11.4} {b3:>11.4} | {sa:>7.3} {sb:>7.3} {shift:>7.3} {:>6.2}  {verdict}",
                    d.bound
                );
                rows.push(obj([
                    ("workload", text(workload.as_str())),
                    ("metric", text(name.as_str())),
                    (
                        "a",
                        obj([
                            ("median", num(ma)),
                            ("q1", num(a1)),
                            ("q3", num(a3)),
                            ("spread", num(sa)),
                        ]),
                    ),
                    (
                        "b",
                        obj([
                            ("median", num(mb)),
                            ("q1", num(b1)),
                            ("q3", num(b3)),
                            ("spread", num(sb)),
                        ]),
                    ),
                    ("shift", num(shift)),
                    ("bound", num(d.bound)),
                    ("verdict", text(verdict)),
                ]));
            }
            if EXACT_WORKLOADS.contains(&workload.as_str()) {
                for name in EXACT_COUNTS {
                    let (ca, cb) = (a.traced[workload].get(name), b.traced[workload].get(name));
                    let same = ca.is_some() && ca == cb;
                    all_pass &= same;
                    println!(
                        "{workload:<10} {name:<34} exact count {:?} against {:?}  {}",
                        ca,
                        cb,
                        if same { "pass" } else { "FAIL" }
                    );
                }
            }
        }
        let per_layer = |set: &Set| {
            Value::Obj(
                set.traced
                    .iter()
                    .map(|(w, ms)| {
                        (
                            w.clone(),
                            Value::Obj(ms.iter().map(|(k, v)| (k.clone(), num(*v))).collect()),
                        )
                    })
                    .collect(),
            )
        };
        let report = obj([
            (
                "descriptor",
                cpq_benchmark::machine::descriptor(cli.seed, &cli.out),
            ),
            ("runs_per_set", num(cli.runs as f64)),
            ("first_seed", num(cli.seed as f64)),
            ("end_to_end", Value::Arr(rows)),
            ("per_layer_a", per_layer(&a)),
            ("per_layer_b", per_layer(&b)),
        ]);
        let path = cli.out.join("aa.json");
        std::fs::write(&path, render(&report) + "\n")
            .map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("wrote {}", path.display());
        Ok(all_pass)
    };
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::from(2)
        }
    }
}
