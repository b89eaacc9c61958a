//! `perfbench compare DIR_A DIR_B`: two sets of `--out` run records,
//! judged against the bounds in `BENCHMARK.json`.
//!
//! For every (metric, workload) pair present on both sides it prints each
//! side's median and quartiles and the relative delta of the medians.
//! End-to-end pairs get a verdict: `unresolved` when either side's
//! quartile spread (as a share of its median) exceeds the bound,
//! `regress` when B's median is worse than A's by more than the bound,
//! `agree` otherwise. The overall verdict is the worst pair's; the exit
//! code is 0 for `agree`, 1 for `regress`, 3 for `unresolved`.

use std::collections::BTreeMap;

use serde::{Deserialize, Value};

use crate::spec;
use crate::stats::{median, quartiles};

/// A JSON document as a value tree.
struct Json(Value);

impl Deserialize for Json {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        Ok(Json(v.clone()))
    }
}

/// Parses JSON text into a value tree.
pub fn parse(text: &str) -> Result<Value, String> {
    serde_json::from_str::<Json>(text.trim())
        .map(|Json(v)| v)
        .map_err(|e| e.to_string())
}

/// Values per (metric, workload) across the records in one directory.
type Samples = BTreeMap<(String, String), Vec<f64>>;

fn number(v: &Value) -> Option<f64> {
    match v {
        Value::Float(f) => Some(*f),
        Value::Int(i) => Some(*i as f64),
        Value::UInt(u) => Some(*u as f64),
        _ => None,
    }
}

/// Reads every `*.json` run record in `dir`.
fn load_dir(dir: &str) -> Result<(Samples, usize), String> {
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot read {dir}: {e}"))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    paths.sort();
    let mut samples = Samples::new();
    for path in &paths {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let doc = parse(&text).map_err(|e| format!("{} is not JSON: {e}", path.display()))?;
        let results = doc
            .as_object()
            .and_then(|o| Value::field(o, "results"))
            .and_then(Value::as_array)
            .ok_or(format!(
                "{} is not a perfbench --out record",
                path.display()
            ))?;
        for result in results {
            let fields = result.as_object().unwrap_or_default();
            let Some(Value::Str(workload)) = Value::field(fields, "workload") else {
                continue;
            };
            let metrics = Value::field(fields, "metrics")
                .and_then(Value::as_object)
                .unwrap_or_default();
            for (name, m) in metrics {
                let value = m
                    .as_object()
                    .and_then(|o| Value::field(o, "value"))
                    .and_then(number);
                if let Some(v) = value {
                    samples
                        .entry((name.clone(), workload.clone()))
                        .or_default()
                        .push(v);
                }
            }
        }
    }
    Ok((samples, paths.len()))
}

/// How one pair compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Verdict {
    /// Within the bound and resolvable.
    Agree,
    /// Spread wider than the bound on either side.
    Unresolved,
    /// Worse than the bound.
    Regress,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Agree => "agree",
            Verdict::Unresolved => "unresolved",
            Verdict::Regress => "regress",
        }
    }
}

/// Median and quartile spread (IQR ÷ median) of one side.
fn summary(values: &[f64]) -> (f64, f64, f64, f64) {
    let med = median(values).unwrap_or(f64::NAN);
    let (q1, q3) = quartiles(values).unwrap_or((med, med));
    (med, q1, q3, (q3 - q1) / med.abs())
}

/// Judges B against A for a metric with `bound` where `lower_is_better`.
pub fn judge(a: &[f64], b: &[f64], bound: f64, lower_is_better: bool) -> Verdict {
    let (ma, .., sa) = summary(a);
    let (mb, .., sb) = summary(b);
    if !(sa <= bound && sb <= bound) {
        return Verdict::Unresolved;
    }
    let delta = (mb - ma) / ma.abs();
    let worse = if lower_is_better { delta } else { -delta };
    if worse > bound {
        Verdict::Regress
    } else {
        Verdict::Agree
    }
}

/// `compare` entry point; returns the exit code.
pub fn main(args: &[String]) -> i32 {
    let mut dirs = Vec::new();
    let mut spec_path = "BENCHMARK.json".to_string();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match (arg.as_str(), it.clone().next()) {
            ("--spec", Some(path)) => {
                spec_path = path.clone();
                it.next();
            }
            _ => dirs.push(arg.clone()),
        }
    }
    let [dir_a, dir_b] = dirs.as_slice() else {
        eprintln!("usage: perfbench compare DIR_A DIR_B [--spec BENCHMARK.json]");
        return 2;
    };
    let loaded = spec::load(&spec_path).and_then(|spec| {
        let (a, na) = load_dir(dir_a)?;
        let (b, nb) = load_dir(dir_b)?;
        Ok((spec, a, na, b, nb))
    });
    let (spec, a, na, b, nb) = match loaded {
        Ok(x) => x,
        Err(e) => {
            eprintln!("perfbench compare: {e}");
            return 2;
        }
    };
    println!("A = {dir_a} ({na} records), B = {dir_b} ({nb} records)");
    println!(
        "{:<38} {:<14} {:>12} {:>25} {:>12} {:>25} {:>8}  verdict",
        "metric", "workload", "A median", "A q1..q3", "B median", "B q1..q3", "delta"
    );
    let mut overall = Verdict::Agree;
    let mut judged = 0;
    for ((metric, workload), va) in &a {
        let Some(vb) = b.get(&(metric.clone(), workload.clone())) else {
            continue;
        };
        let (ma, qa1, qa3, _) = summary(va);
        let (mb, qb1, qb3, _) = summary(vb);
        let delta = (mb - ma) / ma.abs();
        let verdict = spec
            .end_to_end
            .iter()
            .find(|m| &m.name == metric)
            .map(|m| judge(va, vb, m.bound, m.better == "lower"));
        if let Some(v) = verdict {
            overall = overall.max(v);
            judged += 1;
        }
        println!(
            "{metric:<38} {workload:<14} {ma:>12.4} {:>25} {mb:>12.4} {:>25} {:>8}  {}",
            format!("{qa1:.4}..{qa3:.4}"),
            format!("{qb1:.4}..{qb3:.4}"),
            if delta.is_finite() {
                format!("{:+.2}%", delta * 100.0)
            } else {
                "-".to_string()
            },
            verdict.map_or("-", Verdict::name)
        );
    }
    if judged == 0 {
        eprintln!("perfbench compare: no end-to-end metric present on both sides");
        return 2;
    }
    println!("verdict: {}", overall.name());
    match overall {
        Verdict::Agree => 0,
        Verdict::Regress => 1,
        Verdict::Unresolved => 3,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_bound_and_direction() {
        let a = [10.0, 10.1, 9.9, 10.0, 10.05];
        // 5% slower: within a 10% bound.
        let b: Vec<f64> = a.iter().map(|v| v * 1.05).collect();
        assert_eq!(judge(&a, &b, 0.10, true), Verdict::Agree);
        // 20% slower: a regression when lower is better...
        let b: Vec<f64> = a.iter().map(|v| v * 1.2).collect();
        assert_eq!(judge(&a, &b, 0.10, true), Verdict::Regress);
        // ...and an improvement when higher is better.
        assert_eq!(judge(&a, &b, 0.10, false), Verdict::Agree);
        // A side whose quartiles spread wider than the bound.
        let noisy = [5.0, 10.0, 15.0, 10.0, 20.0];
        assert_eq!(judge(&a, &noisy, 0.10, true), Verdict::Unresolved);
    }
}
