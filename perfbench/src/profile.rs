//! The outside-in frame profile: one frame's trip through
//! `StreamRuntime::process`, re-enacted as the sequence of public calls
//! it makes, each timed from the benchmark.
//!
//! | stage | public call(s) timed |
//! |---|---|
//! | `novelty.admit_us` | `StreamRuntime::admit` (gate + frame index) |
//! | `neural.cnn.convN_us` | `Layer::forward` of conv N and its ReLU |
//! | `neural.cnn.head_us` | `Layer::forward` of flatten and the dense head |
//! | `saliency.vbp_walk_us` | `visual_backprop` minus the CNN stages above |
//! | `neural.ae.encode_us` | autoencoder `Layer::forward` up to the bottleneck |
//! | `neural.ae.decode_us` | autoencoder `Layer::forward` after the bottleneck |
//! | `metrics.ssim_us` | `metrics::ssim(mask, reconstruction)` |
//! | `novelty.verdict_us` | `NoveltyDetector::backend_score` + the `Verdict` |
//! | `novelty.resolve_us` | `StreamRuntime::resolve` |
//!
//! `visual_backprop` runs the CNN forward itself, so the walk is its time
//! minus the separately timed CNN layers. Each profiled frame also goes
//! through a second runtime's plain `process`, untraced, which gives the
//! reconciliation (Σ stages ÷ untraced frame) and the probe's overhead.

use std::hint::black_box;
use std::ops::Range;
use std::time::Instant;

use metrics::SsimConfig;
use ndtensor::scratch::{self, ScratchStats};
use neural::{LayerKind, Network};
use novelty::{
    DecisionSource, NoveltyDetector, ReconstructionObjective, ScoreOutcome, StreamConfig,
    StreamRuntime, Verdict,
};
use vision::Image;

use crate::catalog::{Values, CONV_BLOCKS};
use crate::stats::median;

/// The timed stages, in call order; their sum is `frame.sum_us`.
const STAGES: [&str; 13] = [
    "novelty.admit_us",
    "neural.cnn.conv1_us",
    "neural.cnn.conv2_us",
    "neural.cnn.conv3_us",
    "neural.cnn.conv4_us",
    "neural.cnn.conv5_us",
    "neural.cnn.head_us",
    "saliency.vbp_walk_us",
    "neural.ae.encode_us",
    "neural.ae.decode_us",
    "metrics.ssim_us",
    "novelty.verdict_us",
    "novelty.resolve_us",
];
const CONV_MACS: [&str; CONV_BLOCKS] = [
    "neural.cnn.conv1.macs",
    "neural.cnn.conv2.macs",
    "neural.cnn.conv3.macs",
    "neural.cnn.conv4.macs",
    "neural.cnn.conv5.macs",
];

/// Reconciliation outside this band means the stages no longer cover
/// what `process` does (a new call, or a stage timed twice).
pub const RECONCILIATION: Range<f64> = 0.9..1.1;

fn micros(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e6
}

/// Collects per-frame stage timings over a sequence of frames.
#[derive(Debug)]
pub struct FrameProfile<'d> {
    detector: &'d NoveltyDetector,
    cnn: &'d Network,
    ae: &'d Network,
    /// Layer ranges of the conv blocks (conv + ReLU), then the head.
    blocks: Vec<Range<usize>>,
    head: Range<usize>,
    /// First autoencoder layer after the bottleneck activation.
    ae_split: usize,
    ssim: SsimConfig,
    macs: Vec<(&'static str, f64)>,
    /// Runtime driven through `process`, untraced.
    plain: StreamRuntime<'d>,
    /// Runtime driven through `admit`/`resolve` around the timed calls.
    traced: StreamRuntime<'d>,
    stages: Vec<[f64; STAGES.len()]>,
    untraced_us: Vec<f64>,
    traced_us: Vec<f64>,
    scratch_start: ScratchStats,
}

impl<'d> FrameProfile<'d> {
    /// A profile of `detector`, which must be the paper's `vbp+ssim`
    /// detector with a five-block steering CNN.
    pub fn new(detector: &'d NoveltyDetector) -> Result<Self, String> {
        let cnn = detector
            .steering_network()
            .ok_or("the frame profile needs a steering CNN")?;
        let classifier = detector
            .classifier()
            .ok_or("the frame profile needs an autoencoder")?;
        let ssim = match classifier.objective() {
            ReconstructionObjective::Ssim { window } => SsimConfig::with_window(*window),
            ReconstructionObjective::Mse => return Err("the frame profile needs SSIM".into()),
        };
        let (height, width) = detector.input_size();

        // Conv blocks and their multiply-accumulates, from layer shapes.
        let layers = cnn.layers();
        let mut blocks = Vec::new();
        let mut macs = Vec::new();
        let (mut h, mut w) = (height, width);
        for (i, layer) in layers.iter().enumerate() {
            if let LayerKind::Conv2d {
                in_channels,
                out_channels,
                kernel,
                spec,
            } = layer.kind()
            {
                let (oh, ow) = spec
                    .output_hw(h, w, kernel.0, kernel.1)
                    .map_err(|e| format!("conv geometry: {e}"))?;
                let relu = matches!(layers.get(i + 1).map(|l| l.kind()), Some(LayerKind::ReLU));
                blocks.push(i..i + 1 + usize::from(relu));
                let per_output = in_channels * kernel.0 * kernel.1;
                macs.push((out_channels * oh * ow * per_output) as f64);
                (h, w) = (oh, ow);
            }
        }
        if blocks.len() != CONV_BLOCKS {
            return Err(format!(
                "the frame profile names {CONV_BLOCKS} conv blocks, the CNN has {}",
                blocks.len()
            ));
        }
        let head = blocks[CONV_BLOCKS - 1].end..layers.len();
        let mut macs: Vec<(&'static str, f64)> = CONV_MACS.into_iter().zip(macs).collect();

        // Split the autoencoder after the activation of its narrowest
        // dense layer.
        let ae = classifier.network();
        let dense: Vec<(usize, usize, usize)> = ae
            .layers()
            .iter()
            .enumerate()
            .filter_map(|(i, l)| match l.kind() {
                LayerKind::Dense {
                    in_features,
                    out_features,
                } => Some((i, in_features, out_features)),
                _ => None,
            })
            .collect();
        let bottleneck = dense
            .iter()
            .take(dense.len().saturating_sub(1))
            .min_by_key(|(_, _, out)| *out)
            .map(|(i, _, _)| *i)
            .ok_or("the autoencoder has no hidden layer")?;
        let ae_split = bottleneck + 2;
        let (encode, decode) = dense.iter().fold((0.0, 0.0), |(e, d), &(i, a, b)| {
            let m = (a * b) as f64;
            if i < ae_split {
                (e + m, d)
            } else {
                (e, d + m)
            }
        });
        macs.push(("neural.ae.encode.macs", encode));
        macs.push(("neural.ae.decode.macs", decode));

        let config = StreamConfig::for_detector(detector);
        Ok(FrameProfile {
            detector,
            cnn,
            ae,
            blocks,
            head,
            ae_split,
            ssim,
            macs,
            plain: StreamRuntime::new(detector, config.clone()).map_err(|e| e.to_string())?,
            traced: StreamRuntime::new(detector, config).map_err(|e| e.to_string())?,
            stages: Vec::new(),
            untraced_us: Vec::new(),
            traced_us: Vec::new(),
            scratch_start: scratch::stats(),
        })
    }

    /// Frames profiled so far.
    pub fn frames(&self) -> usize {
        self.stages.len()
    }

    /// Milliseconds of each profiled frame's untraced `process` call.
    pub fn process_ms(&self) -> Vec<f64> {
        self.untraced_us.iter().map(|us| us / 1e3).collect()
    }

    /// Forgets everything recorded so far (after warm-up frames).
    pub fn reset(&mut self) {
        self.stages.clear();
        self.untraced_us.clear();
        self.traced_us.clear();
        self.scratch_start = scratch::stats();
    }

    /// Runs one frame through both runtimes. Fails when either path does
    /// not score the frame to `reference` (score bits), or when the two
    /// paths' verdicts differ.
    pub fn frame(&mut self, image: &Image, reference: u32) -> Result<(), String> {
        let t = Instant::now();
        let plain = self.plain.process(Some(image));
        let untraced = micros(t);
        let plain_verdict = match (plain.source, plain.verdict) {
            (DecisionSource::Scored, Some(v)) if v.score.to_bits() == reference => v,
            (source, v) => {
                return Err(format!(
                    "process: {} with score {:?}, reference {}",
                    source.name(),
                    v.map(|v| v.score),
                    f32::from_bits(reference)
                ))
            }
        };

        let mut st = [0.0f64; STAGES.len()];
        let start = Instant::now();

        let t = Instant::now();
        let admission = self.traced.admit(Some(image));
        st[0] = micros(t);
        if let Some(fault) = admission.gate_fault() {
            return Err(format!("gate rejected a profiled frame: {fault}"));
        }

        let (h, w) = (image.height(), image.width());
        let layers = self.cnn.layers();
        let mut x = image
            .tensor()
            .reshape([1, 1, h, w])
            .map_err(|e| e.to_string())?;
        for (i, block) in self.blocks.iter().enumerate() {
            let t = Instant::now();
            for layer in &layers[block.clone()] {
                x = layer.forward(&x).map_err(|e| e.to_string())?;
            }
            st[1 + i] = micros(t);
        }
        let t = Instant::now();
        for layer in &layers[self.head.clone()] {
            x = layer.forward(&x).map_err(|e| e.to_string())?;
        }
        st[6] = micros(t);
        black_box(&x);

        let t = Instant::now();
        let mask = saliency::visual_backprop(self.cnn, image).map_err(|e| e.to_string())?;
        st[7] = micros(t) - st[1..7].iter().sum::<f64>();

        let ae = self.ae.layers();
        let t = Instant::now();
        let mut y = mask
            .tensor()
            .reshape([1, h * w])
            .map_err(|e| e.to_string())?;
        for layer in &ae[..self.ae_split] {
            y = layer.forward(&y).map_err(|e| e.to_string())?;
        }
        st[8] = micros(t);
        let t = Instant::now();
        for layer in &ae[self.ae_split..] {
            y = layer.forward(&y).map_err(|e| e.to_string())?;
        }
        let recon = Image::from_tensor(y.reshape([h, w]).map_err(|e| e.to_string())?)
            .map_err(|e| e.to_string())?;
        st[9] = micros(t);

        let t = Instant::now();
        let score = metrics::ssim(&mask, &recon, &self.ssim).map_err(|e| e.to_string())?;
        st[10] = micros(t);

        let t = Instant::now();
        let line = self.detector.backend_score(score);
        let verdict = Verdict {
            is_novel: line.is_novel,
            score: line.score,
            threshold: line.threshold,
            direction: line.direction,
            percentile_rank: line.percentile_rank,
            backend: line.backend,
            novel_votes: u32::from(line.is_novel),
            total_votes: 1,
            backends: Vec::new(),
        };
        st[11] = micros(t);

        let t = Instant::now();
        let decision = self.traced.resolve(
            admission,
            ScoreOutcome::Scored {
                verdict,
                elapsed: None,
            },
        );
        st[12] = micros(t);
        let traced = micros(start);

        if score.to_bits() != reference {
            return Err(format!(
                "decomposed score {score} differs from detector.score {}",
                f32::from_bits(reference)
            ));
        }
        if decision.verdict.as_ref() != Some(&plain_verdict) {
            return Err("decomposed verdict differs from process()".into());
        }
        self.stages.push(st);
        self.untraced_us.push(untraced);
        self.traced_us.push(traced);
        Ok(())
    }

    /// Writes the frame group of the per-layer metrics: per-stage
    /// medians, work counts, reconciliation and scratch-pool use.
    pub fn finish(&self, values: &mut Values) -> Result<(), String> {
        let column = |i: usize| self.stages.iter().map(|s| s[i]).collect::<Vec<_>>();
        for (i, name) in STAGES.iter().enumerate() {
            values.set(name, median(&column(i)).ok_or("no frames profiled")?);
        }
        let sums: Vec<f64> = self.stages.iter().map(|s| s.iter().sum()).collect();
        let sum = median(&sums).ok_or("no frames profiled")?;
        let untraced = median(&self.untraced_us).ok_or("no frames profiled")?;
        let traced = median(&self.traced_us).ok_or("no frames profiled")?;
        values.set("frame.sum_us", sum);
        values.set("frame.reconciliation", sum / untraced);
        values.set("obs.trace_overhead", traced / untraced - 1.0);
        for &(name, macs) in &self.macs {
            values.set(name, macs);
        }
        let pool = scratch::stats().since(self.scratch_start);
        let takes = pool.hits + pool.misses;
        values.set(
            "ndtensor.scratch.hit_rate",
            if takes == 0 {
                0.0
            } else {
                pool.hits as f64 / takes as f64
            },
        );
        values.set("ndtensor.scratch.bytes", pool.bytes_allocated as f64);
        Ok(())
    }
}
