//! Runs the `bench` binary on the `--smoke` shape of every workload and
//! holds its output against `BENCHMARK.json`: same names in the same order,
//! same units, a legal charset, a result line of the agreed form.

use std::path::PathBuf;
use std::process::Command;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");
const WORKLOADS: [&str; 4] = ["paper_direct", "mesh_fanout", "typed_flood", "mesh_churn"];

/// Every string value of `key` inside the top-level array called `section`.
fn declared(section: &str, key: &str) -> Vec<String> {
    let start = BENCHMARK_JSON
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
    let body = &BENCHMARK_JSON[start..];
    let body = &body[..body.find(']').expect("the section is an array")];
    let marker = format!("\"{key}\": \"");
    body.match_indices(&marker)
        .map(|(at, _)| {
            let rest = &body[at + marker.len()..];
            rest[..rest.find('"').expect("closing quote")].to_owned()
        })
        .collect()
}

struct Outcome {
    success: bool,
    stdout: String,
}

impl Outcome {
    fn result_line(&self) -> &str {
        self.stdout.lines().last().expect("the runner printed something")
    }

    /// `(name, value, unit)` of every metric on the result line, in order.
    fn metrics(&self) -> Vec<(String, f64, String)> {
        let line = self.result_line();
        let metrics = &line[line.find("\"metrics\": {").expect("metrics object") + 12..];
        metrics
            .split("}, ")
            .map(|entry| {
                let entry = entry.trim_end_matches('}');
                let (name, rest) = entry.split_once("\": {\"value\": ").expect("a metric entry");
                let (value, unit) = rest.split_once(", \"unit\": \"").expect("a unit");
                (
                    name.trim_start_matches('"').to_owned(),
                    value.parse().expect("a number"),
                    unit.trim_end_matches('"').to_owned(),
                )
            })
            .collect()
    }
}

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
}

fn bench(workload: &str, seed: u64, trace: bool) -> Outcome {
    let output = Command::new(env!("CARGO_BIN_EXE_bench"))
        .args(["--workload", workload, "--smoke", "--seconds", "1"])
        .args(["--seed", &seed.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(out_dir())
        .output()
        .expect("the bench binary runs");
    Outcome {
        success: output.status.success(),
        stdout: String::from_utf8(output.stdout).expect("utf-8 output"),
    }
}

fn legal_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn legal_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[test]
fn benchmark_json_declares_the_four_workloads_with_legal_names() {
    assert_eq!(declared("workloads", "name"), WORKLOADS);
    for section in ["workloads", "end_to_end", "per_layer"] {
        for name in declared(section, "name") {
            assert!(legal_name(&name), "{section} name {name:?}");
        }
    }
    for section in ["end_to_end", "per_layer"] {
        for unit in declared(section, "unit") {
            assert!(legal_unit(&unit), "{section} unit {unit:?}");
        }
    }
    assert!(declared("end_to_end", "name").contains(&"setup_s".to_owned()));
}

#[test]
fn untraced_smoke_runs_report_every_end_to_end_metric() {
    let names = declared("end_to_end", "name");
    let units = declared("end_to_end", "unit");
    for workload in WORKLOADS {
        let outcome = bench(workload, 2002, false);
        assert!(outcome.success, "{workload}:\n{}", outcome.stdout);
        assert!(
            outcome
                .result_line()
                .starts_with("{\"correct\": true, \"attempted\": "),
            "{workload}: {}",
            outcome.result_line()
        );
        assert!(outcome.result_line().contains("\"failed\": 0, "), "{workload}");
        let metrics = outcome.metrics();
        let reported: Vec<&str> = metrics.iter().map(|m| m.0.as_str()).collect();
        assert_eq!(reported, names, "{workload}");
        for ((name, value, unit), declared_unit) in metrics.iter().zip(&units) {
            assert_eq!(unit, declared_unit, "{workload} {name}");
            assert!(value.is_finite() && *value > 0.0, "{workload} {name} = {value}");
        }
    }
}

#[test]
fn traced_smoke_runs_report_every_per_layer_metric_and_write_spans() {
    let names = declared("per_layer", "name");
    let units = declared("per_layer", "unit");
    for workload in WORKLOADS {
        let outcome = bench(workload, 2002, true);
        assert!(outcome.success, "{workload}:\n{}", outcome.stdout);
        let metrics = outcome.metrics();
        let reported: Vec<&str> = metrics.iter().map(|m| m.0.as_str()).collect();
        assert_eq!(reported, names, "{workload}");
        for ((name, value, unit), declared_unit) in metrics.iter().zip(&units) {
            assert_eq!(unit, declared_unit, "{workload} {name}");
            assert!(value.is_finite(), "{workload} {name} = {value}");
            // Only mesh_churn runs with the observability planes on.
            if name.starts_with("telemetry.") && workload != "mesh_churn" {
                assert_eq!(*value, 0.0, "{workload} {name}");
            }
        }
        let spans = std::fs::read_to_string(out_dir().join(format!("trace_{workload}.jsonl")))
            .expect("the traced run wrote its spans");
        assert!(
            spans.lines().count() >= 4,
            "{workload}: rep, build, warm_up, publish"
        );
        for line in spans.lines() {
            for key in [
                "\"rep\": ",
                "\"id\": ",
                "\"parent\": ",
                "\"name\": \"",
                "\"self_ns\": ",
            ] {
                assert!(line.contains(key), "{workload}: {line}");
            }
        }
        assert!(
            spans.contains("\"parent\": null, \"name\": \"rep\""),
            "{workload}"
        );
    }
}

#[test]
fn the_same_seed_models_the_same_deployment_and_another_seed_another() {
    let virtual_metrics = |outcome: &Outcome| -> Vec<(String, f64)> {
        outcome
            .metrics()
            .into_iter()
            .filter(|(_, _, unit)| unit != "s" && unit != "MB")
            .filter(|(name, _, _)| name != "allocs_per_delivery")
            .map(|(name, value, _)| (name, value))
            .collect()
    };
    let first = bench("paper_direct", 11, false);
    let again = bench("paper_direct", 11, false);
    let other = bench("paper_direct", 12, false);
    assert_eq!(virtual_metrics(&first), virtual_metrics(&again));
    assert_ne!(virtual_metrics(&first), virtual_metrics(&other));
}

#[test]
fn a_bad_command_line_exits_non_zero_without_a_result() {
    let output = Command::new(env!("CARGO_BIN_EXE_bench"))
        .args(["--workload", "no_such_workload"])
        .output()
        .expect("the bench binary runs");
    assert!(!output.status.success());
    assert!(output.stdout.is_empty());
}
