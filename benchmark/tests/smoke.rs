//! Runs the `--smoke` preset of every workload, untraced and traced, and
//! holds the output to `BENCHMARK.json`: every declared workload and
//! metric is there under a well-formed name with its declared unit and a
//! finite value, and the exact counts repeat for one seed and move with
//! another.

use cpq_benchmark::json::{parse, Value};
use cpq_benchmark::report::{END_TO_END, EXACT_COUNTS, EXACT_WORKLOADS, PER_LAYER, WORKLOADS};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

fn benchmark_json() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
        .expect("BENCHMARK.json parses")
}

fn declared(spec: &Value, list: &str) -> Vec<(String, String)> {
    spec.get(list)
        .and_then(Value::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no `{list}` list"))
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Value::as_str)
                    .unwrap_or_else(|| panic!("{list} entry without `{k}`"))
            };
            (field("name").to_owned(), field("unit").to_owned())
        })
        .collect()
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

/// Runs one smoke invocation; returns `(exit ok, result line)`.
fn smoke(workload: &str, seed: u64, trace: bool, extra: &[&str]) -> (bool, Value) {
    let out = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("smoke-{workload}-{seed}-{}", u8::from(trace)));
    let output = Command::new(env!("CARGO_BIN_EXE_cpq-benchmark"))
        .args([
            "--smoke",
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&out)
        .args(extra)
        .output()
        .expect("run the benchmark binary");
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    let last = stdout
        .lines()
        .last()
        .unwrap_or_else(|| panic!("{workload}: no output"));
    let result =
        parse(last).unwrap_or_else(|e| panic!("{workload}: last line is not JSON ({e}): {last}"));
    if trace {
        let spans = std::fs::read_to_string(out.join(format!("trace_{workload}.jsonl")))
            .expect("span file");
        assert!(
            spans.lines().count() > 1,
            "{workload}: span file holds spans"
        );
        for line in spans.lines() {
            parse(line)
                .unwrap_or_else(|e| panic!("{workload}: span line is not JSON ({e}): {line}"));
        }
    }
    (output.status.success(), result)
}

fn metrics_of(result: &Value) -> BTreeMap<String, (f64, String)> {
    let Some(Value::Obj(metrics)) = result.get("metrics") else {
        panic!("result line without metrics");
    };
    metrics
        .iter()
        .map(|(name, m)| {
            let Some(Value::Num(value)) = m.get("value") else {
                panic!("{name}: value is not a finite number: {m:?}");
            };
            (
                name.clone(),
                (
                    *value,
                    m.get("unit")
                        .and_then(Value::as_str)
                        .expect("unit")
                        .to_owned(),
                ),
            )
        })
        .collect()
}

fn check_against_spec(
    workload: &str,
    result: &Value,
    want: &[(String, String)],
) -> BTreeMap<String, (f64, String)> {
    let Value::Obj(top) = result else {
        panic!("result is not an object")
    };
    assert_eq!(
        top.keys().map(String::as_str).collect::<Vec<_>>(),
        ["attempted", "correct", "failed", "metrics"],
        "{workload}: result line has exactly the four keys"
    );
    assert_eq!(
        result.get("correct"),
        Some(&Value::Bool(true)),
        "{workload}: {result:?}"
    );
    assert_eq!(result.get("failed"), Some(&Value::Num(0.0)), "{workload}");
    assert!(
        matches!(result.get("attempted"), Some(Value::Num(n)) if *n >= 1.0),
        "{workload}"
    );
    let got = metrics_of(result);
    assert_eq!(got.len(), want.len(), "{workload}: metric count");
    for (name, unit) in want {
        assert!(well_formed(name), "`{name}` is not made of [A-Za-z0-9_.-]");
        let (value, got_unit) = got
            .get(name)
            .unwrap_or_else(|| panic!("{workload}: `{name}` missing"));
        assert!(value.is_finite(), "{workload}: `{name}` = {value}");
        assert_eq!(got_unit, unit, "{workload}: unit of `{name}`");
    }
    got
}

#[test]
fn code_and_benchmark_json_declare_the_same() {
    let spec = benchmark_json();
    let names: Vec<String> = spec
        .get("workloads")
        .and_then(Value::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Value::as_str)
                .expect("workload name")
                .to_owned()
        })
        .collect();
    assert_eq!(names, WORKLOADS);
    let pairs = |table: &[(&str, &str)]| {
        table
            .iter()
            .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
            .collect::<Vec<_>>()
    };
    assert_eq!(declared(&spec, "end_to_end"), pairs(&END_TO_END));
    assert_eq!(declared(&spec, "per_layer"), pairs(&PER_LAYER));
}

#[test]
fn smoke_runs_match_benchmark_json() {
    let spec = benchmark_json();
    let (end_to_end, per_layer) = (declared(&spec, "end_to_end"), declared(&spec, "per_layer"));
    for workload in WORKLOADS {
        let (ok, result) = smoke(workload, 1, false, &[]);
        assert!(ok, "{workload}: untraced smoke run exits 0");
        let got = check_against_spec(workload, &result, &end_to_end);
        for (name, (value, _)) in &got {
            assert!(*value > 0.0, "{workload}: end-to-end `{name}` is never 0");
        }

        let (ok, first) = smoke(workload, 1, true, &[]);
        assert!(ok, "{workload}: traced smoke run exits 0");
        let first = check_against_spec(workload, &first, &per_layer);
        if EXACT_WORKLOADS.contains(&workload) {
            let again = check_against_spec(workload, &smoke(workload, 1, true, &[]).1, &per_layer);
            let other = check_against_spec(workload, &smoke(workload, 2, true, &[]).1, &per_layer);
            for name in EXACT_COUNTS {
                assert_eq!(
                    first[name].0, again[name].0,
                    "{workload}: `{name}` repeats for one seed"
                );
            }
            assert!(
                EXACT_COUNTS
                    .iter()
                    .any(|name| first[*name].0 != other[*name].0),
                "{workload}: another seed gives other inputs"
            );
        }
    }
}

#[test]
fn a_corrupted_reference_fails_the_command() {
    for workload in WORKLOADS {
        let (ok, result) = smoke(workload, 3, false, &["--corrupt-reference"]);
        assert!(!ok, "{workload}: exits non-zero");
        assert_eq!(
            result.get("correct"),
            Some(&Value::Bool(false)),
            "{workload}"
        );
        assert!(
            matches!(result.get("failed"), Some(Value::Num(n)) if *n >= 1.0),
            "{workload}"
        );
    }
}
