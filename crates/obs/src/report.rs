//! Serializable run reports: the JSON snapshot of a [`RunRecorder`].

use std::fmt;
use std::path::Path;

use serde::{Deserialize, Serialize};

use crate::recorder::RunRecorder;
use crate::{ObsError, Result};
use metrics::ecdf::Ecdf;
use metrics::histogram::Histogram;

/// Version of the report JSON layout. Bump on breaking schema changes.
pub const REPORT_SCHEMA_VERSION: u32 = 1;

/// Number of bins used when bucketing latency samples.
const HISTOGRAM_BINS: usize = 16;

/// Aggregate wall-clock time of one span path (pipeline stage or
/// sub-stage, e.g. `train.cnn-train`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageReport {
    /// Dotted span path; the first segment is the stage name.
    pub name: String,
    /// How many times the span ran.
    pub count: u64,
    /// Total wall-clock seconds across all runs of the span.
    pub total_secs: f64,
}

/// Final value of one monotonic counter.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CounterReport {
    /// Counter name.
    pub name: String,
    /// Accumulated value.
    pub value: u64,
}

/// Last-written value of one gauge.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GaugeReport {
    /// Gauge name.
    pub name: String,
    /// Latest value.
    pub value: f64,
}

/// An ordered series of values (e.g. per-epoch training loss).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SeriesReport {
    /// Series name.
    pub name: String,
    /// Values in recording order.
    pub values: Vec<f64>,
}

/// Summary of one latency/value distribution: moments, nearest-rank
/// percentiles, and equal-width bin counts over `[lo, hi]`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramReport {
    /// Histogram name.
    pub name: String,
    /// Number of samples observed.
    pub count: u64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Arithmetic mean of the samples.
    pub mean: f64,
    /// Median (nearest rank).
    pub p50: f64,
    /// 90th percentile (nearest rank).
    pub p90: f64,
    /// 99th percentile (nearest rank).
    pub p99: f64,
    /// Lower edge of the bucketed range.
    pub lo: f64,
    /// Upper edge of the bucketed range.
    pub hi: f64,
    /// Per-bin sample counts over `[lo, hi]`, equal width.
    pub bin_counts: Vec<u64>,
}

/// Everything one instrumented run produced, in a stable JSON layout.
///
/// `--obs-out` files, the `report` subcommand, and `crates/bench`
/// `BENCH_*.json` files all share this schema, so perf trajectories are
/// directly comparable across PRs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// [`REPORT_SCHEMA_VERSION`] at the time the report was written.
    pub schema_version: u32,
    /// What produced the report (`train`, `eval`, `bench:fig3`, …).
    pub command: String,
    /// Threads the library computes on: always 1, since every kernel runs
    /// on the calling thread. Kept so reports keep one schema.
    pub threads: u64,
    /// Span wall-times, sorted by path.
    pub stages: Vec<StageReport>,
    /// Counters, sorted by name.
    pub counters: Vec<CounterReport>,
    /// Gauges, sorted by name.
    pub gauges: Vec<GaugeReport>,
    /// Ordered series, sorted by name.
    pub series: Vec<SeriesReport>,
    /// Latency/value distributions, sorted by name.
    pub histograms: Vec<HistogramReport>,
}

/// Builds a [`HistogramReport`] from raw samples.
///
/// Non-finite samples are dropped (probe-side bugs must not poison the
/// whole report); a degenerate range (all samples equal) is widened by
/// ±0.5 so [`Histogram`]'s `lo < hi` invariant holds.
fn summarize(name: &str, samples: &[f64]) -> HistogramReport {
    let finite: Vec<f32> = samples
        .iter()
        .copied()
        .filter(|v| v.is_finite())
        .map(|v| v as f32)
        .collect();
    if finite.is_empty() {
        return HistogramReport {
            name: name.to_string(),
            count: 0,
            min: 0.0,
            max: 0.0,
            mean: 0.0,
            p50: 0.0,
            p90: 0.0,
            p99: 0.0,
            lo: 0.0,
            hi: 0.0,
            bin_counts: vec![0; HISTOGRAM_BINS],
        };
    }
    let min = finite.iter().copied().fold(f32::INFINITY, f32::min);
    let max = finite.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mean = finite.iter().map(|&v| v as f64).sum::<f64>() / finite.len() as f64;
    let ecdf = Ecdf::new(finite.clone()).expect("samples are non-empty and finite");
    let q = |p: f32| ecdf.quantile(p).expect("quantile in range") as f64;
    let (lo, hi) = if min < max {
        (min, max)
    } else {
        (min - 0.5, max + 0.5)
    };
    let hist = Histogram::from_values(&finite, lo, hi, HISTOGRAM_BINS)
        .expect("range widened to be non-degenerate");
    HistogramReport {
        name: name.to_string(),
        count: finite.len() as u64,
        min: min as f64,
        max: max as f64,
        mean,
        p50: q(0.5),
        p90: q(0.9),
        p99: q(0.99),
        lo: lo as f64,
        hi: hi as f64,
        bin_counts: hist.counts().to_vec(),
    }
}

impl RunRecorder {
    /// Snapshots everything recorded so far into a [`RunReport`].
    ///
    /// `command` labels what produced the report. Its `threads` field is
    /// 1.
    pub fn report(&self, command: &str) -> RunReport {
        self.snapshot(|s| RunReport {
            schema_version: REPORT_SCHEMA_VERSION,
            command: command.to_string(),
            threads: 1,
            stages: s
                .spans
                .iter()
                .map(|(name, agg)| StageReport {
                    name: name.clone(),
                    count: agg.count,
                    total_secs: agg.total_secs,
                })
                .collect(),
            counters: s
                .counters
                .iter()
                .map(|(name, &value)| CounterReport {
                    name: name.clone(),
                    value,
                })
                .collect(),
            gauges: s
                .gauges
                .iter()
                .map(|(name, &value)| GaugeReport {
                    name: name.clone(),
                    value,
                })
                .collect(),
            series: s
                .series
                .iter()
                .map(|(name, values)| SeriesReport {
                    name: name.clone(),
                    values: values.clone(),
                })
                .collect(),
            histograms: s
                .samples
                .iter()
                .map(|(name, samples)| summarize(name, samples))
                .collect(),
        })
    }
}

impl RunReport {
    /// Looks up a span aggregate by exact dotted path.
    pub fn stage(&self, name: &str) -> Option<&StageReport> {
        self.stages.iter().find(|s| s.name == name)
    }

    /// Looks up a counter's final value.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
    }

    /// Looks up a gauge's last value.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|g| g.name == name).map(|g| g.value)
    }

    /// Looks up a series by name.
    pub fn series(&self, name: &str) -> Option<&SeriesReport> {
        self.series.iter().find(|s| s.name == name)
    }

    /// Looks up a histogram summary by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramReport> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// Returns the subset of `expected` stage names that are missing or
    /// recorded zero wall time. A stage name matches if any span path
    /// equals it or starts with `name.`.
    pub fn missing_stages(&self, expected: &[&str]) -> Vec<String> {
        expected
            .iter()
            .filter(|&&name| {
                let prefix = format!("{name}.");
                !self
                    .stages
                    .iter()
                    .any(|s| (s.name == name || s.name.starts_with(&prefix)) && s.total_secs > 0.0)
            })
            .map(|&name| name.to_string())
            .collect()
    }

    /// Serializes the report to a JSON string.
    ///
    /// # Errors
    ///
    /// Fails if any recorded value is non-finite (the vendored
    /// `serde_json` refuses NaN/infinity).
    pub fn to_json(&self) -> Result<String> {
        serde_json::to_string(self).map_err(|e| ObsError::Serde(e.to_string()))
    }

    /// Parses a report from a JSON string, checking the schema version.
    ///
    /// # Errors
    ///
    /// Fails on malformed JSON or a schema-version mismatch.
    pub fn from_json(json: &str) -> Result<Self> {
        let report: RunReport =
            serde_json::from_str(json).map_err(|e| ObsError::Serde(e.to_string()))?;
        if report.schema_version != REPORT_SCHEMA_VERSION {
            return Err(ObsError::invalid(
                "report",
                format!(
                    "unsupported report schema version {} (this build reads version {})",
                    report.schema_version, REPORT_SCHEMA_VERSION
                ),
            ));
        }
        Ok(report)
    }

    /// Writes the report as JSON to `path`.
    ///
    /// # Errors
    ///
    /// Fails on serialization or I/O errors.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<()> {
        std::fs::write(path, self.to_json()?)?;
        Ok(())
    }

    /// Reads a report previously written by [`RunReport::save`].
    ///
    /// # Errors
    ///
    /// Fails on I/O, parse, or schema-version errors.
    pub fn load(path: impl AsRef<Path>) -> Result<Self> {
        Self::from_json(&std::fs::read_to_string(path)?)
    }
}

impl fmt::Display for RunReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "run report · command={} · threads={} · schema v{}",
            self.command, self.threads, self.schema_version
        )?;
        if !self.stages.is_empty() {
            writeln!(f, "\nstages (wall-clock):")?;
            for s in &self.stages {
                writeln!(
                    f,
                    "  {:<40} {:>6}x {:>12.6}s",
                    s.name, s.count, s.total_secs
                )?;
            }
        }
        if !self.counters.is_empty() {
            writeln!(f, "\ncounters:")?;
            for c in &self.counters {
                writeln!(f, "  {:<40} {:>12}", c.name, c.value)?;
            }
        }
        if !self.gauges.is_empty() {
            writeln!(f, "\ngauges:")?;
            for g in &self.gauges {
                writeln!(f, "  {:<40} {:>12.6}", g.name, g.value)?;
            }
        }
        if !self.series.is_empty() {
            writeln!(f, "\nseries:")?;
            for s in &self.series {
                let head: Vec<String> =
                    s.values.iter().take(8).map(|v| format!("{v:.6}")).collect();
                let ellipsis = if s.values.len() > 8 { ", …" } else { "" };
                writeln!(
                    f,
                    "  {:<40} [{} values] {}{}",
                    s.name,
                    s.values.len(),
                    head.join(", "),
                    ellipsis
                )?;
            }
        }
        if !self.histograms.is_empty() {
            writeln!(f, "\nhistograms:")?;
            for h in &self.histograms {
                writeln!(
                    f,
                    "  {:<40} n={} min={:.6} mean={:.6} max={:.6} p50={:.6} p90={:.6} p99={:.6}",
                    h.name, h.count, h.min, h.mean, h.max, h.p50, h.p90, h.p99
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Recorder;

    fn sample_report() -> RunReport {
        let rec = RunRecorder::new();
        crate::time(&rec, "scoring", || {
            std::thread::sleep(std::time::Duration::from_millis(1));
        });
        rec.add("scoring.scores_computed", 7);
        rec.gauge("calibration.threshold", 0.42);
        rec.push("cnn-train.epoch_loss", 1.5);
        rec.push("cnn-train.epoch_loss", 0.5);
        for i in 1..=100 {
            rec.observe("scoring.latency_secs", i as f64 / 100.0);
        }
        rec.report("test")
    }

    #[test]
    fn report_snapshot_contents() {
        let r = sample_report();
        assert_eq!(r.schema_version, REPORT_SCHEMA_VERSION);
        assert_eq!(r.command, "test");
        assert!(r.threads >= 1);
        assert_eq!(r.counter("scoring.scores_computed"), Some(7));
        assert_eq!(r.gauge("calibration.threshold"), Some(0.42));
        assert_eq!(
            r.series("cnn-train.epoch_loss").unwrap().values,
            vec![1.5, 0.5]
        );
        assert!(r.stage("scoring").unwrap().total_secs > 0.0);
        assert!(r.stage("absent").is_none());
    }

    #[test]
    fn histogram_quantiles_are_nearest_rank() {
        let r = sample_report();
        let h = r.histogram("scoring.latency_secs").unwrap();
        assert_eq!(h.count, 100);
        assert!((h.min - 0.01).abs() < 1e-6);
        assert!((h.max - 1.0).abs() < 1e-6);
        assert!((h.mean - 0.505).abs() < 1e-6);
        assert!((h.p50 - 0.50).abs() < 1e-6);
        assert!((h.p90 - 0.90).abs() < 1e-6);
        assert!((h.p99 - 0.99).abs() < 1e-6);
        assert_eq!(h.bin_counts.len(), 16);
        assert_eq!(h.bin_counts.iter().sum::<u64>(), 100);
    }

    #[test]
    fn degenerate_histogram_range_is_widened() {
        let rec = RunRecorder::new();
        rec.observe("lat", 2.0);
        rec.observe("lat", 2.0);
        let h = rec.report("t");
        let h = h.histogram("lat").unwrap();
        assert_eq!(h.count, 2);
        assert!(h.lo < 2.0 && h.hi > 2.0);
        assert_eq!(h.bin_counts.iter().sum::<u64>(), 2);
    }

    #[test]
    fn non_finite_samples_are_dropped_not_fatal() {
        let rec = RunRecorder::new();
        rec.observe("lat", f64::NAN);
        rec.observe("lat", 1.0);
        let r = rec.report("t");
        let h = r.histogram("lat").unwrap();
        assert_eq!(h.count, 1);
        // And the report still serializes (vendored serde_json rejects NaN).
        assert!(r.to_json().is_ok());
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = summarize("x", &[]);
        assert_eq!(h.count, 0);
        assert_eq!(h.bin_counts, vec![0; HISTOGRAM_BINS]);
    }

    #[test]
    fn json_round_trip() {
        let r = sample_report();
        let json = r.to_json().unwrap();
        let back = RunReport::from_json(&json).unwrap();
        assert_eq!(r, back);
    }

    #[test]
    fn schema_version_mismatch_is_rejected() {
        let mut r = sample_report();
        r.schema_version = REPORT_SCHEMA_VERSION + 1;
        let json = r.to_json().unwrap();
        let err = RunReport::from_json(&json).unwrap_err();
        assert!(err.to_string().contains("schema version"));
    }

    #[test]
    fn save_load_round_trip() {
        let r = sample_report();
        let dir = std::env::temp_dir().join(format!("obs-report-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("report.json");
        r.save(&path).unwrap();
        assert_eq!(RunReport::load(&path).unwrap(), r);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_stages_detects_absent_and_zero_time() {
        let rec = RunRecorder::new();
        crate::time(&rec, "vbp", || {
            std::thread::sleep(std::time::Duration::from_millis(1));
        });
        rec.record_span("calibration.inner", 0.001);
        rec.record_span("scoring", 0.0);
        let r = rec.report("t");
        let missing = r.missing_stages(&["vbp", "calibration", "scoring", "ae-train"]);
        assert_eq!(missing, vec!["scoring".to_string(), "ae-train".to_string()]);
    }

    #[test]
    fn display_pretty_prints_all_sections() {
        let text = sample_report().to_string();
        for needle in ["stages", "counters", "gauges", "series", "histograms"] {
            assert!(text.contains(needle), "missing section {needle}");
        }
        assert!(text.contains("scoring.scores_computed"));
    }
}
