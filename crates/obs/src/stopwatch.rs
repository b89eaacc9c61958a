//! The workspace's only sanctioned wall-clock access point.
//!
//! Library crates outside `obs` are forbidden (statically, by
//! `sncheck`'s `no-ambient-clock` rule) from calling [`Instant::now`]
//! directly: a stray clock read in a scoring or calibration branch is
//! exactly the kind of nondeterminism the reproduction's bit-identical
//! guarantees exclude. Code that legitimately needs elapsed time — epoch
//! timing, scoring latency, the streaming runtime's deadline check —
//! starts a [`Stopwatch`] instead, which makes the clock dependency
//! explicit, optional, and auditable in one place.

use std::time::{Duration, Instant};

/// An optionally-running monotonic timer.
///
/// A stopwatch started with [`Stopwatch::started_if`]`(false)` never touches
/// the clock: every query returns `None` at the cost of one branch. This
/// mirrors the recorder contract — when observability is disabled, the
/// instrumented code performs zero clock reads and therefore cannot
/// perturb (or be perturbed by) timing.
///
/// ```
/// let off = obs::Stopwatch::started_if(false);
/// assert_eq!(off.elapsed_secs(), None);
/// let on = obs::Stopwatch::started();
/// assert!(on.elapsed().is_some());
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    start: Option<Instant>,
}

impl Stopwatch {
    /// Starts timing now.
    #[must_use]
    pub fn started() -> Self {
        Stopwatch {
            start: Some(Instant::now()),
        }
    }

    /// Starts timing only when `enabled`; otherwise the stopwatch is
    /// inert and performs no clock reads, ever.
    #[must_use]
    pub fn started_if(enabled: bool) -> Self {
        Stopwatch {
            start: enabled.then(Instant::now),
        }
    }

    /// A stopwatch that was never started.
    #[must_use]
    pub fn disabled() -> Self {
        Stopwatch { start: None }
    }

    /// Whether the stopwatch was started.
    pub fn is_running(&self) -> bool {
        self.start.is_some()
    }

    /// Time since start, or `None` for a disabled stopwatch.
    pub fn elapsed(&self) -> Option<Duration> {
        self.start.map(|s| s.elapsed())
    }

    /// Seconds since start, or `None` for a disabled stopwatch.
    pub fn elapsed_secs(&self) -> Option<f64> {
        self.elapsed().map(|d| d.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_never_reports() {
        let sw = Stopwatch::disabled();
        assert!(!sw.is_running());
        assert_eq!(sw.elapsed(), None);
        assert_eq!(sw.elapsed_secs(), None);
        let sw = Stopwatch::started_if(false);
        assert!(!sw.is_running());
        assert_eq!(sw.elapsed(), None);
    }

    #[test]
    fn started_reports_monotonic_time() {
        let sw = Stopwatch::started();
        assert!(sw.is_running());
        let a = sw.elapsed().expect("running");
        let b = sw.elapsed().expect("running");
        assert!(b >= a);
        assert!(sw.elapsed_secs().expect("running") >= 0.0);
    }

    #[test]
    fn started_if_true_runs() {
        let sw = Stopwatch::started_if(true);
        assert!(sw.is_running());
        assert!(sw.elapsed_secs().is_some());
    }
}
