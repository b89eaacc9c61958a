//! `BENCHMARK.json` and the program must describe the same benchmark:
//! the same workloads, the same metrics with the same units, and the same
//! run length. A quick run of every workload, untraced and traced, must
//! print exactly the metrics the file lists.

use std::process::Command;

use perfbench::catalog::catalog;
use perfbench::cli::DEFAULT_SECONDS;
use perfbench::compare::parse;
use perfbench::setup::Workload;
use perfbench::spec::{self, Spec};
use serde::Value;

fn spec() -> Spec {
    spec::load(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json loads")
}

#[test]
fn benchmark_json_matches_the_catalog() {
    let spec = spec();
    let workloads: Vec<&str> = spec.workloads.iter().map(|w| w.name.as_str()).collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);
    let e2e: Vec<(&str, &str)> = spec
        .end_to_end
        .iter()
        .map(|m| (m.name.as_str(), m.unit.as_str()))
        .collect();
    assert_eq!(e2e, catalog(false));
    let layers: Vec<(&str, &str)> = spec
        .per_layer
        .iter()
        .map(|m| (m.name.as_str(), m.unit.as_str()))
        .collect();
    assert_eq!(layers, catalog(true));
    assert_eq!(spec.run_seconds as f64, DEFAULT_SECONDS);
}

#[test]
fn quick_runs_print_exactly_the_listed_metrics() {
    let spec = spec();
    for workload in &spec.workloads {
        for trace in ["0", "1"] {
            let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
                .args(["--workload", &workload.name, "--seed", "41", "--quick"])
                .args(["--trace", trace])
                .output()
                .expect("perfbench runs");
            let stdout = String::from_utf8_lossy(&out.stdout);
            let context = format!(
                "{} trace {trace}:\n{stdout}\n{}",
                workload.name,
                String::from_utf8_lossy(&out.stderr)
            );
            assert!(out.status.success(), "{context}");
            let line = parse(stdout.lines().last().unwrap_or_default()).expect("JSON line");
            let fields = line.as_object().expect("an object");
            let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(
                keys,
                ["correct", "attempted", "failed", "metrics"],
                "{context}"
            );
            assert_eq!(Value::field(fields, "correct"), Some(&Value::Bool(true)));
            let metrics = Value::field(fields, "metrics")
                .and_then(Value::as_object)
                .expect("metrics object");
            let printed: Vec<(&str, &str)> = metrics
                .iter()
                .map(|(name, m)| {
                    let unit = m.as_object().and_then(|o| Value::field(o, "unit"));
                    let Some(Value::Str(unit)) = unit else {
                        panic!("{name} has no unit: {context}");
                    };
                    (name.as_str(), unit.as_str())
                })
                .collect();
            let listed: Vec<(&str, &str)> = if trace == "1" {
                spec.per_layer
                    .iter()
                    .map(|m| (m.name.as_str(), m.unit.as_str()))
                    .collect()
            } else {
                spec.end_to_end
                    .iter()
                    .map(|m| (m.name.as_str(), m.unit.as_str()))
                    .collect()
            };
            assert_eq!(printed, listed, "{context}");
        }
    }
}
