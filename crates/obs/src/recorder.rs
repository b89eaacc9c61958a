//! The [`Recorder`] trait and its two implementations.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Mutex;
use std::time::Instant;

/// The instrumentation sink.
///
/// Instrumented code calls these methods unconditionally; implementations
/// decide what (if anything) to keep. All methods take `&self`, so one
/// recorder is passed down through every layer of a run, and a program
/// that runs work on several threads of its own can share it.
///
/// Probe names are dotted paths (`"stream-score.latency_secs"`); the first
/// segment conventionally names the pipeline stage.
pub trait Recorder: Send + Sync + fmt::Debug {
    /// `false` when every probe is a no-op. Instrumented code uses this
    /// to skip clock reads and other probe-only work; it must never
    /// change *what* is computed.
    fn enabled(&self) -> bool;

    /// Increments a monotonic counter.
    fn add(&self, counter: &str, delta: u64);

    /// Sets a gauge to its latest value (last write wins).
    fn gauge(&self, name: &str, value: f64);

    /// Records one sample into a latency/value histogram.
    fn observe(&self, histogram: &str, value: f64);

    /// Appends one value to an ordered series (e.g. per-epoch losses).
    fn push(&self, series: &str, value: f64);

    /// Records one completed span: `wall_secs` of wall-clock time under
    /// the dotted `path`. Called by [`Span`]; rarely called directly.
    fn record_span(&self, path: &str, wall_secs: f64);
}

/// The default sink: records nothing, reports itself disabled.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {
    fn enabled(&self) -> bool {
        false
    }
    fn add(&self, _counter: &str, _delta: u64) {}
    fn gauge(&self, _name: &str, _value: f64) {}
    fn observe(&self, _histogram: &str, _value: f64) {}
    fn push(&self, _series: &str, _value: f64) {}
    fn record_span(&self, _path: &str, _wall_secs: f64) {}
}

static NOOP: NoopRecorder = NoopRecorder;

/// The shared no-op recorder, for call sites without instrumentation.
pub fn noop() -> &'static NoopRecorder {
    &NOOP
}

/// Aggregate of one span path: invocation count and total wall time.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct SpanAgg {
    pub count: u64,
    pub total_secs: f64,
}

/// Everything one run recorded, keyed by probe name.
///
/// `BTreeMap` keeps report ordering deterministic.
#[derive(Debug, Default)]
pub(crate) struct RunState {
    pub counters: BTreeMap<String, u64>,
    pub gauges: BTreeMap<String, f64>,
    pub samples: BTreeMap<String, Vec<f64>>,
    pub series: BTreeMap<String, Vec<f64>>,
    pub spans: BTreeMap<String, SpanAgg>,
}

/// A thread-safe recorder that aggregates everything in memory, to be
/// snapshotted into a [`crate::RunReport`] at the end of the run.
#[derive(Debug, Default)]
pub struct RunRecorder {
    state: Mutex<RunState>,
}

impl RunRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    fn with_state<T>(&self, f: impl FnOnce(&mut RunState) -> T) -> T {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        f(&mut state)
    }

    pub(crate) fn snapshot<T>(&self, f: impl FnOnce(&RunState) -> T) -> T {
        let state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        f(&state)
    }
}

impl Recorder for RunRecorder {
    fn enabled(&self) -> bool {
        true
    }

    fn add(&self, counter: &str, delta: u64) {
        self.with_state(|s| *s.counters.entry(counter.to_string()).or_insert(0) += delta);
    }

    fn gauge(&self, name: &str, value: f64) {
        self.with_state(|s| {
            s.gauges.insert(name.to_string(), value);
        });
    }

    fn observe(&self, histogram: &str, value: f64) {
        self.with_state(|s| {
            s.samples
                .entry(histogram.to_string())
                .or_default()
                .push(value)
        });
    }

    fn push(&self, series: &str, value: f64) {
        self.with_state(|s| s.series.entry(series.to_string()).or_default().push(value));
    }

    fn record_span(&self, path: &str, wall_secs: f64) {
        self.with_state(|s| {
            let agg = s.spans.entry(path.to_string()).or_default();
            agg.count += 1;
            agg.total_secs += wall_secs;
        });
    }
}

/// An RAII wall-clock timer. On drop (or [`Span::finish`]) it records its
/// elapsed time under its dotted path; children extend the path, so
/// nested spans aggregate as `parent`, `parent.child`, ….
///
/// With a disabled recorder the span never reads the clock and never
/// builds its path string.
#[derive(Debug)]
pub struct Span<'r> {
    recorder: &'r dyn Recorder,
    /// `None` when the recorder is disabled.
    path: Option<String>,
    start: Option<Instant>,
}

impl<'r> Span<'r> {
    /// Starts a top-level span named `name`.
    pub fn root(recorder: &'r dyn Recorder, name: &str) -> Span<'r> {
        if recorder.enabled() {
            Span {
                recorder,
                path: Some(name.to_string()),
                start: Some(Instant::now()),
            }
        } else {
            Span {
                recorder,
                path: None,
                start: None,
            }
        }
    }

    /// Starts a child span recorded under `self`'s path plus `.name`.
    ///
    /// The child borrows nothing from the parent besides the recorder, so
    /// it may outlive sibling work but must end before the parent's
    /// lifetime `'r` does.
    pub fn child(&self, name: &str) -> Span<'r> {
        match &self.path {
            Some(parent) => Span {
                recorder: self.recorder,
                path: Some(format!("{parent}.{name}")),
                start: Some(Instant::now()),
            },
            None => Span {
                recorder: self.recorder,
                path: None,
                start: None,
            },
        }
    }

    /// Ends the span now, recording its wall time (same as dropping it).
    pub fn finish(self) {}
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if let (Some(path), Some(start)) = (self.path.take(), self.start.take()) {
            self.recorder
                .record_span(&path, start.elapsed().as_secs_f64());
        }
    }
}

/// An adapter that prefixes every probe name with `prefix.`, so a
/// callee's metrics land in the caller's namespace (e.g. `neural::fit`'s
/// `epoch_loss` series becomes `cnn-train.epoch_loss`).
#[derive(Debug)]
pub struct Scoped<'r> {
    inner: &'r dyn Recorder,
    prefix: String,
}

impl<'r> Scoped<'r> {
    /// Wraps `inner`, prefixing every probe name with `prefix.`.
    pub fn new(inner: &'r dyn Recorder, prefix: &str) -> Scoped<'r> {
        Scoped {
            inner,
            prefix: prefix.to_string(),
        }
    }

    fn scoped(&self, name: &str) -> String {
        format!("{}.{name}", self.prefix)
    }
}

impl Recorder for Scoped<'_> {
    fn enabled(&self) -> bool {
        self.inner.enabled()
    }

    fn add(&self, counter: &str, delta: u64) {
        if self.inner.enabled() {
            self.inner.add(&self.scoped(counter), delta);
        }
    }

    fn gauge(&self, name: &str, value: f64) {
        if self.inner.enabled() {
            self.inner.gauge(&self.scoped(name), value);
        }
    }

    fn observe(&self, histogram: &str, value: f64) {
        if self.inner.enabled() {
            self.inner.observe(&self.scoped(histogram), value);
        }
    }

    fn push(&self, series: &str, value: f64) {
        if self.inner.enabled() {
            self.inner.push(&self.scoped(series), value);
        }
    }

    fn record_span(&self, path: &str, wall_secs: f64) {
        if self.inner.enabled() {
            self.inner.record_span(&self.scoped(path), wall_secs);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_is_disabled_and_inert() {
        let rec = noop();
        assert!(!rec.enabled());
        rec.add("c", 1);
        rec.gauge("g", 1.0);
        rec.observe("h", 1.0);
        rec.push("s", 1.0);
        let span = Span::root(rec, "stage");
        // Disabled spans never build a path or read the clock.
        assert!(span.path.is_none() && span.start.is_none());
        let child = span.child("inner");
        assert!(child.path.is_none());
        child.finish();
        span.finish();
    }

    #[test]
    fn run_recorder_aggregates_counters_gauges_series() {
        let rec = RunRecorder::new();
        assert!(rec.enabled());
        rec.add("jobs", 2);
        rec.add("jobs", 3);
        rec.gauge("threshold", 0.5);
        rec.gauge("threshold", 0.7); // last write wins
        rec.push("loss", 1.0);
        rec.push("loss", 0.5);
        rec.observe("lat", 0.1);
        rec.snapshot(|s| {
            assert_eq!(s.counters["jobs"], 5);
            assert_eq!(s.gauges["threshold"], 0.7);
            assert_eq!(s.series["loss"], vec![1.0, 0.5]);
            assert_eq!(s.samples["lat"], vec![0.1]);
        });
    }

    #[test]
    fn span_nesting_builds_dotted_paths() {
        let rec = RunRecorder::new();
        {
            let outer = Span::root(&rec, "train");
            {
                let inner = outer.child("fit");
                let deepest = inner.child("epoch");
                std::thread::sleep(std::time::Duration::from_millis(2));
                deepest.finish();
                inner.finish();
            }
            outer.finish();
        }
        rec.snapshot(|s| {
            assert_eq!(s.spans["train"].count, 1);
            assert_eq!(s.spans["train.fit"].count, 1);
            assert_eq!(s.spans["train.fit.epoch"].count, 1);
            // A parent's wall time covers its children's.
            assert!(s.spans["train"].total_secs >= s.spans["train.fit"].total_secs);
            assert!(s.spans["train.fit"].total_secs >= s.spans["train.fit.epoch"].total_secs);
            assert!(s.spans["train.fit.epoch"].total_secs > 0.0);
        });
    }

    #[test]
    fn repeated_spans_accumulate() {
        let rec = RunRecorder::new();
        for _ in 0..3 {
            crate::time(&rec, "step", || std::hint::black_box(1 + 1));
        }
        rec.snapshot(|s| {
            assert_eq!(s.spans["step"].count, 3);
            assert!(s.spans["step"].total_secs > 0.0);
        });
    }

    #[test]
    fn scoped_prefixes_every_probe() {
        let rec = RunRecorder::new();
        let scoped = Scoped::new(&rec, "cnn-train");
        assert!(scoped.enabled());
        scoped.add("epochs", 1);
        scoped.push("epoch_loss", 0.25);
        scoped.gauge("lr", 1e-3);
        scoped.observe("lat", 0.2);
        Span::root(&scoped, "fit").finish();
        rec.snapshot(|s| {
            assert_eq!(s.counters["cnn-train.epochs"], 1);
            assert_eq!(s.series["cnn-train.epoch_loss"], vec![0.25]);
            assert_eq!(s.gauges["cnn-train.lr"], 1e-3);
            assert_eq!(s.samples["cnn-train.lat"], vec![0.2]);
            assert_eq!(s.spans["cnn-train.fit"].count, 1);
        });
        // Scoped over a disabled recorder stays disabled.
        let dead = Scoped::new(noop(), "x");
        assert!(!dead.enabled());
    }

    #[test]
    fn recorder_is_shareable_across_threads() {
        let rec = RunRecorder::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..100 {
                        rec.add("hits", 1);
                    }
                });
            }
        });
        rec.snapshot(|s| assert_eq!(s.counters["hits"], 400));
    }
}
