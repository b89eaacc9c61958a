#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]
#![warn(missing_docs)]

//! Observability for the train→saliency→novelty pipeline.
//!
//! The paper's framework is a runtime safety monitor; a deployed monitor
//! needs to be observable itself. This crate provides the plumbing:
//!
//! * [`Recorder`] — the instrumentation sink trait. Instrumented code
//!   (the novelty pipeline, `neural::fit`, VBP batching) writes counters,
//!   gauges, per-epoch series, latency samples and span wall-times into a
//!   recorder without knowing what backs it.
//! * [`NoopRecorder`] — the default sink. Every method is an empty body
//!   and [`Recorder::enabled`] is `false`, so instrumented code skips even
//!   the clock reads; overhead with recording off is a branch per probe.
//! * [`RunRecorder`] — the real sink: thread-safe aggregation of
//!   everything recorded during one run.
//! * [`Span`] — RAII wall-clock timers with dotted-path nesting
//!   (`train.cnn-train.fit`).
//! * [`Scoped`] — a prefixing adapter so a callee's metrics land under
//!   the caller's namespace.
//! * [`RunReport`] — the serializable snapshot of a [`RunRecorder`]:
//!   per-stage wall-times, counters, gauges, series, and latency
//!   histograms (bucketed with [`metrics::histogram::Histogram`],
//!   quantiled with [`metrics::ecdf::Ecdf`]). Round-trips through the
//!   vendored `serde_json`; `BENCH_*.json` and `--obs-out` files share
//!   this schema so perf trajectories are comparable across PRs.
//!
//! # Invariant: observation never perturbs results
//!
//! Recorders only *observe*. Nothing in this crate feeds back into any
//! computation, so detector JSON and novelty scores are bit-identical
//! with recording on or off, at any thread count (enforced by
//! `tests/observability.rs`).
//!
//! # Example
//!
//! ```
//! use obs::{Recorder, RunRecorder, Span};
//!
//! let rec = RunRecorder::new();
//! {
//!     let span = Span::root(&rec, "scoring");
//!     rec.add("scoring.scores_computed", 3);
//!     rec.observe("scoring.latency_secs", 0.002);
//!     span.finish();
//! }
//! let report = rec.report("demo");
//! assert_eq!(report.counter("scoring.scores_computed"), Some(3));
//! assert!(report.stage("scoring").unwrap().total_secs > 0.0);
//! ```

mod error;
mod par_stats;
mod recorder;
mod report;
mod scratch_stats;
mod stopwatch;

pub use error::ObsError;
pub use par_stats::{par_snapshot, record_par_delta};
pub use recorder::{noop, NoopRecorder, Recorder, RunRecorder, Scoped, Span};
pub use report::{
    CounterReport, GaugeReport, HistogramReport, RunReport, SeriesReport, StageReport,
    REPORT_SCHEMA_VERSION,
};
pub use scratch_stats::{record_scratch_delta, scratch_snapshot};
pub use stopwatch::Stopwatch;

/// Convenience alias used across the crate.
pub type Result<T> = std::result::Result<T, ObsError>;

/// Times a closure under a root span on `recorder`.
///
/// Equivalent to wrapping `f()` in [`Span::root`]/[`Span::finish`].
pub fn time<T>(recorder: &dyn Recorder, name: &str, f: impl FnOnce() -> T) -> T {
    let span = Span::root(recorder, name);
    let out = f();
    span.finish();
    out
}
