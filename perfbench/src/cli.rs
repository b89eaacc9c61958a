//! Command line, set-up repetition, and the result lines.
//!
//! ```text
//! perfbench [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--quick] [--out PATH]
//! perfbench compare DIR_A DIR_B [--spec PATH]
//! ```
//!
//! Each workload prints one JSON line on stdout —
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`
//! — and a readable summary on stderr. `--out` also writes the full run
//! record (host context, sample notes, every check) that `compare` reads.

use std::time::Instant;

use serde::Value;

use crate::catalog::catalog;
use crate::setup::{setup, Scale, Setup, Workload};
use crate::stats::median;
use crate::workloads::{self, Check, Outcome, RunConfig};
use crate::{compare, host};

const USAGE: &str = "usage: perfbench [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--quick] [--out PATH]
       perfbench compare DIR_A DIR_B [--spec BENCHMARK.json]";

/// Seconds a run measures unless `--seconds` says otherwise; equals
/// `run_seconds` in `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 15.0;
/// Seconds each workload measures under `--quick`.
const QUICK_SECONDS: f64 = 1.0;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// Version of the `--out` run record.
const RECORD_SCHEMA_VERSION: u64 = 1;

#[derive(Debug)]
struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    out: Option<String>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workloads: Workload::ALL.to_vec(),
        seed: 41,
        seconds: None,
        trace: false,
        quick: false,
        out: None,
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                let w = Workload::from_name(name).ok_or(format!("unknown workload `{name}`"))?;
                parsed.workloads = vec![w];
            }
            "--seed" => {
                let v = value("--seed")?;
                parsed.seed = v.parse().map_err(|_| format!("bad --seed `{v}`"))?;
            }
            "--seconds" => {
                let v = value("--seconds")?;
                let s: f64 = v.parse().map_err(|_| format!("bad --seconds `{v}`"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got `{v}`"));
                }
                parsed.seconds = Some(s);
            }
            // `--trace 0`, `--trace 1`, or a bare `--trace` meaning 1.
            "--trace" => {
                let explicit = it.next_if(|v| *v == "0" || *v == "1");
                parsed.trace = explicit.is_none_or(|v| v == "1");
            }
            "--quick" => parsed.quick = true,
            "--out" => parsed.out = Some(value("--out")?.clone()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(parsed)
}

/// Entry point; returns the process exit code (0 all checks passed,
/// 1 a check failed, 2 usage error).
pub fn main(args: &[String]) -> i32 {
    if args.first().map(String::as_str) == Some("compare") {
        return compare::main(&args[1..]);
    }
    match parse(args) {
        Ok(args) => run(&args),
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            2
        }
    }
}

/// Sets up `repeats` times (identical work, same seed) and returns the
/// first set-up, the set-up times, and whether every repeat trained the
/// same detector.
fn repeated_setup(
    workload: Workload,
    seed: u64,
    scale: &Scale,
    repeats: usize,
) -> Result<(Setup, Vec<f64>, Check), String> {
    let mut times = Vec::new();
    let mut first: Option<Setup> = None;
    let mut digests = Vec::new();
    for _ in 0..repeats {
        let t = Instant::now();
        let s = setup(workload, seed, scale)?;
        times.push(t.elapsed().as_secs_f64());
        digests.push(s.spec_digest);
        first.get_or_insert(s);
    }
    let same = digests.windows(2).all(|w| w[0] == w[1]);
    let check = Check::new(
        "set-up trains the same detector every time",
        same,
        format!("spec digests {digests:016x?}"),
    );
    Ok((first.ok_or("no set-up ran")?, times, check))
}

fn run(args: &Args) -> i32 {
    ndtensor::set_thread_config(ndtensor::ThreadConfig::serial());
    let scale = if args.quick {
        Scale::QUICK
    } else {
        Scale::FULL
    };
    let cfg = RunConfig {
        seconds: args.seconds.unwrap_or(if args.quick {
            QUICK_SECONDS
        } else {
            DEFAULT_SECONDS
        }),
        trace: args.trace,
        quick: args.quick,
    };
    let repeats = if args.quick { 1 } else { SETUP_REPEATS };
    let loadavg_start = host::loadavg();
    eprintln!(
        "perfbench: seed {} threads 1 (serial) nproc {} loadavg {loadavg_start} trace {} seconds {}",
        args.seed,
        host::nproc(),
        args.trace,
        cfg.seconds
    );

    let mut all_correct = true;
    let mut results = Vec::new();
    for &workload in &args.workloads {
        let (outcome, setup_times) = match repeated_setup(workload, args.seed, &scale, repeats) {
            Ok((setup, times, check)) => {
                let mut outcome = workloads::run(workload, &setup, &scale, cfg);
                outcome.checks.push(check);
                if !args.trace {
                    outcome
                        .values
                        .set("setup_s", median(&times).unwrap_or(f64::NAN));
                }
                (outcome, times)
            }
            Err(e) => {
                let mut outcome = Outcome {
                    attempted: 1,
                    failed: 1,
                    ..Outcome::default()
                };
                outcome.checks.push(Check::new("set-up", false, e));
                (outcome, Vec::new())
            }
        };
        let result = WorkloadReport::new(workload, outcome, args.trace, setup_times);
        all_correct &= result.correct;
        println!("{}", json(&result.line()));
        result.summarise();
        results.push(result);
    }

    if let Some(path) = &args.out {
        let record = Value::Object(vec![
            ("schema_version".into(), Value::UInt(RECORD_SCHEMA_VERSION)),
            ("seed".into(), Value::UInt(args.seed)),
            ("trace".into(), Value::Bool(args.trace)),
            ("quick".into(), Value::Bool(args.quick)),
            ("seconds".into(), Value::Float(cfg.seconds)),
            (
                "host".into(),
                Value::Object(vec![
                    ("threads".into(), Value::UInt(1)),
                    ("nproc".into(), Value::UInt(host::nproc() as u64)),
                    ("loadavg_start".into(), Value::Str(loadavg_start)),
                    ("loadavg_end".into(), Value::Str(host::loadavg())),
                ]),
            ),
            (
                "results".into(),
                Value::Array(results.iter().map(WorkloadReport::record).collect()),
            ),
        ]);
        if let Err(e) = std::fs::write(path, json(&record) + "\n") {
            eprintln!("perfbench: cannot write {path}: {e}");
            return 1;
        }
    }
    i32::from(!all_correct)
}

/// Compact JSON text of a value tree whose floats are all finite.
fn json(value: &Value) -> String {
    serde_json::to_string(&Raw(value)).expect("result values are finite")
}

/// Serialises an already-built value tree.
struct Raw<'a>(&'a Value);

impl serde::Serialize for Raw<'_> {
    fn to_value(&self) -> Value {
        self.0.clone()
    }
}

/// One workload's result.
struct WorkloadReport {
    workload: Workload,
    correct: bool,
    outcome: Outcome,
    metrics: Vec<(&'static str, &'static str, f64)>,
    setup_times: Vec<f64>,
}

impl WorkloadReport {
    fn new(workload: Workload, mut outcome: Outcome, trace: bool, setup_times: Vec<f64>) -> Self {
        let missing = outcome.values.missing(trace);
        if !missing.is_empty() && outcome.checks.iter().all(|c| c.passed) {
            outcome.checks.push(Check::new(
                "every metric measured",
                false,
                format!("{missing:?}"),
            ));
        }
        let metrics: Vec<_> = catalog(trace)
            .iter()
            .map(|&(name, unit)| (name, unit, outcome.values.get(name).unwrap_or(0.0)))
            .collect();
        if let Some((name, _, v)) = metrics.iter().find(|(_, _, v)| !v.is_finite()) {
            outcome
                .checks
                .push(Check::new("metrics finite", false, format!("{name} = {v}")));
        }
        let metrics = metrics
            .into_iter()
            .map(|(n, u, v)| (n, u, if v.is_finite() { v } else { 0.0 }))
            .collect();
        WorkloadReport {
            workload,
            correct: outcome.checks.iter().all(|c| c.passed),
            outcome,
            metrics,
            setup_times,
        }
    }

    fn metrics_value(&self) -> Value {
        Value::Object(
            self.metrics
                .iter()
                .map(|&(name, unit, v)| {
                    (
                        name.to_string(),
                        Value::Object(vec![
                            ("value".into(), Value::Float(v)),
                            ("unit".into(), Value::Str(unit.into())),
                        ]),
                    )
                })
                .collect(),
        )
    }

    /// The stdout line, exactly the four keys.
    fn line(&self) -> Value {
        Value::Object(vec![
            ("correct".into(), Value::Bool(self.correct)),
            (
                "attempted".into(),
                Value::UInt(self.outcome.attempted.max(1)),
            ),
            ("failed".into(), Value::UInt(self.outcome.failed)),
            ("metrics".into(), self.metrics_value()),
        ])
    }

    /// The `--out` record entry: the line plus context.
    fn record(&self) -> Value {
        let Value::Object(mut fields) = self.line() else {
            unreachable!("line() builds an object");
        };
        fields.insert(
            0,
            ("workload".into(), Value::Str(self.workload.name().into())),
        );
        let floats = |v: &[f64]| Value::Array(v.iter().map(|&x| Value::Float(x)).collect());
        fields.push(("setup_runs_s".into(), floats(&self.setup_times)));
        fields.push((
            "checks".into(),
            Value::Array(
                self.outcome
                    .checks
                    .iter()
                    .map(|c| {
                        Value::Object(vec![
                            ("name".into(), Value::Str(c.name.into())),
                            ("passed".into(), Value::Bool(c.passed)),
                            ("detail".into(), Value::Str(c.detail.clone())),
                        ])
                    })
                    .collect(),
            ),
        ));
        fields.push((
            "notes".into(),
            Value::Array(
                self.outcome
                    .notes
                    .iter()
                    .map(|n| Value::Str(n.clone()))
                    .collect(),
            ),
        ));
        Value::Object(fields)
    }

    /// The readable summary on stderr.
    fn summarise(&self) {
        let o = &self.outcome;
        eprintln!(
            "perfbench: {} — {} (attempted {}, failed {})",
            self.workload.name(),
            if self.correct { "correct" } else { "INCORRECT" },
            o.attempted,
            o.failed
        );
        for (name, unit, v) in &self.metrics {
            eprintln!("  {name:<38} {v:>14.4} {unit}");
        }
        for note in &o.notes {
            eprintln!("  note: {note}");
        }
        for c in &o.checks {
            eprintln!(
                "  check {}: {} ({})",
                if c.passed { "ok  " } else { "FAIL" },
                c.name,
                c.detail
            );
        }
    }
}
