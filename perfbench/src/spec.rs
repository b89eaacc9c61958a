//! `BENCHMARK.json`: the benchmark's description for its users and for
//! `perfbench compare`, which takes the regression bounds from it. Only
//! the fields this program reads are parsed.

use serde::Deserialize;

/// The whole file.
#[derive(Debug, Deserialize)]
pub struct Spec {
    /// Seconds one run measures.
    pub run_seconds: u64,
    /// The workloads, with why each was chosen.
    pub workloads: Vec<WorkloadSpec>,
    /// Untraced metrics with their regression bounds.
    pub end_to_end: Vec<EndToEnd>,
    /// Traced metrics.
    pub per_layer: Vec<PerLayer>,
}

/// One workload.
#[derive(Debug, Deserialize)]
pub struct WorkloadSpec {
    /// Name passed to `--workload`.
    pub name: String,
}

/// One end-to-end metric.
#[derive(Debug, Deserialize)]
pub struct EndToEnd {
    /// Metric name.
    pub name: String,
    /// Unit of its values.
    pub unit: String,
    /// `lower` or `higher`.
    pub better: String,
    /// Share of the baseline median by which it may worsen.
    pub bound: f64,
}

/// One per-layer metric.
#[derive(Debug, Deserialize)]
pub struct PerLayer {
    /// Metric name.
    pub name: String,
    /// Unit of its values.
    pub unit: String,
}

/// Reads and parses a `BENCHMARK.json`.
pub fn load(path: &str) -> Result<Spec, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path} does not parse: {e}"))
}
