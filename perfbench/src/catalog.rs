//! The metric catalog: every metric the benchmark reports, with its unit.
//!
//! `BENCHMARK.json` at the repository root lists the same names and
//! units (plus directions and bounds); `tests/smoke.rs` fails when the two
//! drift apart.

use std::collections::BTreeMap;

/// A metric name and its unit.
pub type Metric = (&'static str, &'static str);

/// End-to-end metrics, reported by every untraced run on every workload.
pub const END_TO_END: &[Metric] = &[
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("throughput_per_s", "1/s"),
];

/// The p99 of the operations `latency_p50_ms` times, reported by every
/// traced run. It is not end to end because it does not repeat within any
/// bound the benchmark may set: a `train` run holds a dozen trainings, so
/// its p99 is the slowest one, and the tails of the serve rounds follow
/// the host's other tenants. `miss_rate` and `train_s` (in
/// [`SERVE_GROUP`] and [`TRAIN_GROUP`]) are per-layer because each is 0 or
/// undefined on all workloads but one.
pub const TAIL: Metric = ("latency_p99_ms", "ms");

/// Conv blocks of the steering CNN the frame profile names (`conv1` …).
pub const CONV_BLOCKS: usize = 5;

/// Per-layer metrics of the frame profile: the public calls
/// `StreamRuntime::process` makes, timed one by one from outside, on each
/// workload's own frames.
pub const FRAME_GROUP: &[Metric] = &[
    ("novelty.admit_us", "us"),
    ("neural.cnn.conv1_us", "us"),
    ("neural.cnn.conv2_us", "us"),
    ("neural.cnn.conv3_us", "us"),
    ("neural.cnn.conv4_us", "us"),
    ("neural.cnn.conv5_us", "us"),
    ("neural.cnn.head_us", "us"),
    ("saliency.vbp_walk_us", "us"),
    ("neural.ae.encode_us", "us"),
    ("neural.ae.decode_us", "us"),
    ("metrics.ssim_us", "us"),
    ("novelty.verdict_us", "us"),
    ("novelty.resolve_us", "us"),
    ("frame.sum_us", "us"),
    ("frame.reconciliation", "ratio"),
    ("obs.trace_overhead", "ratio"),
    ("neural.cnn.conv1.macs", "count"),
    ("neural.cnn.conv2.macs", "count"),
    ("neural.cnn.conv3.macs", "count"),
    ("neural.cnn.conv4.macs", "count"),
    ("neural.cnn.conv5.macs", "count"),
    ("neural.ae.encode.macs", "count"),
    ("neural.ae.decode.macs", "count"),
    ("ndtensor.scratch.hit_rate", "ratio"),
    ("ndtensor.scratch.bytes", "bytes"),
];

/// Per-layer metrics of serve rounds: the share of offered frames that
/// missed (shed, failed, or decided later than the latency limit), medians
/// per round of its phases, the mean coalesced batch, and outcome shares
/// of offered frames (`TenantStats`).
pub const SERVE_GROUP: &[Metric] = &[
    ("miss_rate", "ratio"),
    ("novelty.serve.offer_us", "us"),
    ("novelty.serve.score_ms", "ms"),
    ("novelty.serve.walk_demux_ms", "ms"),
    ("novelty.serve.batch_mean", "frames"),
    ("novelty.serve.scored_share", "ratio"),
    ("novelty.serve.shed_queue_full_share", "ratio"),
    ("novelty.serve.shed_deadline_share", "ratio"),
    ("novelty.serve.gate_rejected_share", "ratio"),
    ("novelty.serve.score_error_share", "ratio"),
    ("bench.generator_lag_p99_ms", "ms"),
];

/// Per-layer metrics of training: the median training, and medians per
/// training of its stages (`train_recorded`).
pub const TRAIN_GROUP: &[Metric] = &[
    ("train_s", "s"),
    ("neural.cnn_train_s", "s"),
    ("saliency.vbp_batch_s", "s"),
    ("novelty.ae_train_s", "s"),
    ("novelty.calib_scoring_s", "s"),
    ("novelty.calibration_s", "s"),
];

/// The metric set of a traced or untraced run. Every traced run reports
/// every group; a group of a layer the workload does not run reads 0.
pub fn catalog(trace: bool) -> Vec<Metric> {
    if trace {
        [&[TAIL], FRAME_GROUP, SERVE_GROUP, TRAIN_GROUP].concat()
    } else {
        END_TO_END.to_vec()
    }
}

/// Metric values collected by one workload run, keyed by catalog name.
#[derive(Debug, Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    /// Records `name`; panics on a name outside both catalogs, which is a
    /// bug in this program.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            [catalog(false), catalog(true)]
                .concat()
                .iter()
                .any(|(n, _)| *n == name),
            "metric {name} is not in the catalog"
        );
        self.0.insert(name, value);
    }

    /// The recorded value of `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// Records 0 for every metric of `group`: a layer the workload does
    /// not run.
    pub fn zero(&mut self, group: &[Metric]) {
        for &(name, _) in group {
            self.set(name, 0.0);
        }
    }

    /// The catalog metrics this run did not record.
    pub fn missing(&self, trace: bool) -> Vec<&'static str> {
        catalog(trace)
            .into_iter()
            .map(|(name, _)| name)
            .filter(|name| !self.0.contains_key(name))
            .collect()
    }
}
