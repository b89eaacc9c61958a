//! Bridge from [`ndtensor::scratch`]'s always-on pool counters into a
//! [`Recorder`].
//!
//! `ndtensor` sits below `obs` in the crate graph, so it cannot record
//! into a `Recorder` directly; instead the scratch pool keeps cheap
//! global atomics ([`ndtensor::scratch::ScratchStats`]) and observers
//! diff snapshots around the region they care about. The hit rate is the headline
//! number: a warmed hot path should sit at 1.0 (every buffer reused,
//! zero allocator traffic).

use crate::Recorder;
use ndtensor::scratch::{stats, ScratchStats};

/// Takes a scratch-pool snapshot to later diff with
/// [`record_scratch_delta`].
pub fn scratch_snapshot() -> ScratchStats {
    stats()
}

/// Records the scratch-pool activity since `before` as `scratch.*`
/// counters plus a `scratch.hit_rate` gauge (hits over takes; 0 when the
/// pool was idle).
///
/// No-op when the recorder is disabled.
pub fn record_scratch_delta(recorder: &dyn Recorder, before: ScratchStats) {
    if !recorder.enabled() {
        return;
    }
    let d = stats().since(before);
    recorder.add("scratch.hits", d.hits);
    recorder.add("scratch.misses", d.misses);
    recorder.add("scratch.bytes_allocated", d.bytes_allocated);
    let takes = d.hits + d.misses;
    let hit_rate = if takes > 0 {
        d.hits as f64 / takes as f64
    } else {
        0.0
    };
    recorder.gauge("scratch.hit_rate", hit_rate);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RunRecorder;

    #[test]
    fn delta_lands_in_recorder() {
        let rec = RunRecorder::new();
        let before = scratch_snapshot();
        // Cycle a buffer through the pool: the second take of the same
        // size class is a guaranteed hit.
        let buf = ndtensor::scratch::take(256);
        ndtensor::scratch::give(buf);
        let buf = ndtensor::scratch::take(256);
        ndtensor::scratch::give(buf);
        record_scratch_delta(&rec, before);
        let report = rec.report("t");
        let hits = report.counter("scratch.hits").unwrap_or(0);
        let misses = report.counter("scratch.misses").unwrap_or(0);
        assert!(hits + misses >= 2, "takes not counted");
        assert!(hits >= 1, "pooled reuse not counted as a hit");
        assert!(report.gauge("scratch.hit_rate").is_some());
    }

    #[test]
    fn disabled_recorder_skips_the_snapshot_diff() {
        let before = scratch_snapshot();
        record_scratch_delta(crate::noop(), before);
        // Nothing to assert beyond "does not panic": noop keeps nothing.
    }
}
