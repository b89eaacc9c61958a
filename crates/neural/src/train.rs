//! Mini-batch training loop.
//!
//! The paper trains both of its models the same way: shuffled mini-batches
//! of 32, plain first-order optimization. [`fit`] implements that loop
//! generically over any [`crate::Network`], [`Loss`] and [`Optimizer`],
//! with optional global-norm gradient clipping (which keeps early SSIM
//! training stable).

use ndtensor::{Shape, Tensor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::loss::Loss;
use crate::optim::Optimizer;
use crate::{Network, NeuralError, Result};

/// Configuration for [`fit`].
///
/// # Example
///
/// ```
/// use neural::TrainConfig;
///
/// let cfg = TrainConfig::new(10, 32).with_seed(7).with_grad_clip(5.0);
/// assert_eq!(cfg.epochs, 10);
/// assert_eq!(cfg.batch_size, 32);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TrainConfig {
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Mini-batch size (the paper uses 32).
    pub batch_size: usize,
    /// Seed for the per-epoch shuffle.
    pub shuffle_seed: u64,
    /// Optional global-norm gradient clip.
    pub grad_clip: Option<f32>,
}

impl TrainConfig {
    /// Creates a config with the given epoch count and batch size.
    pub fn new(epochs: usize, batch_size: usize) -> Self {
        TrainConfig {
            epochs,
            batch_size,
            shuffle_seed: 0,
            grad_clip: None,
        }
    }

    /// Sets the shuffle seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.shuffle_seed = seed;
        self
    }

    /// Enables global-norm gradient clipping at `max_norm`.
    pub fn with_grad_clip(mut self, max_norm: f32) -> Self {
        self.grad_clip = Some(max_norm);
        self
    }

    fn validate(&self, n: usize) -> Result<()> {
        if self.epochs == 0 {
            return Err(NeuralError::invalid("fit", "epochs must be non-zero"));
        }
        if self.batch_size == 0 {
            return Err(NeuralError::invalid("fit", "batch_size must be non-zero"));
        }
        if n == 0 {
            return Err(NeuralError::invalid("fit", "training set is empty"));
        }
        if let Some(c) = self.grad_clip {
            if !c.is_finite() || c <= 0.0 {
                return Err(NeuralError::invalid(
                    "fit",
                    format!("grad_clip must be positive and finite, got {c}"),
                ));
            }
        }
        Ok(())
    }
}

/// Result of a training run.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainReport {
    /// Mean training loss per epoch, in order.
    pub epoch_losses: Vec<f32>,
}

impl TrainReport {
    /// The final epoch's mean loss.
    ///
    /// # Panics
    ///
    /// Panics when the report is empty (cannot happen for reports produced
    /// by [`fit`], which validates `epochs > 0`).
    pub fn final_loss(&self) -> f32 {
        *self
            .epoch_losses
            .last()
            .expect("fit always records at least one epoch") // sncheck:allow(no-panic-in-lib): documented under # Panics; fit validates epochs > 0
    }

    /// `true` when the last epoch improved on the first.
    pub fn improved(&self) -> bool {
        match (self.epoch_losses.first(), self.epoch_losses.last()) {
            (Some(first), Some(last)) => last < first,
            _ => false,
        }
    }
}

/// Copies the rows of `t` (first axis) selected by `indices` into a new
/// tensor of shape `[indices.len(), rest…]`.
///
/// # Errors
///
/// Fails when `t` has no batch axis or an index is out of range.
pub fn gather_rows(t: &Tensor, indices: &[usize]) -> Result<Tensor> {
    if t.rank() == 0 {
        return Err(NeuralError::invalid(
            "gather_rows",
            "tensor has no batch axis",
        ));
    }
    let n = t.shape().dims()[0];
    let row_len: usize = t.shape().dims()[1..].iter().product();
    let mut out = Vec::with_capacity(indices.len() * row_len);
    for &i in indices {
        if i >= n {
            return Err(NeuralError::invalid(
                "gather_rows",
                format!("row index {i} out of range for batch of {n}"),
            ));
        }
        out.extend_from_slice(&t.as_slice()[i * row_len..(i + 1) * row_len]);
    }
    let mut dims = vec![indices.len()];
    dims.extend_from_slice(&t.shape().dims()[1..]);
    Ok(Tensor::from_vec(Shape::from(dims), out)?)
}

/// `Σ g²` over `g` in eight independent `f64` chains. Each `g²` is exact
/// in `f64`, so this and the serial chain in [`clip_gradients`] are both
/// within `γ_n · Σ g²` of the exact sum (`γ_n ≈ n · 2^-53`), whatever
/// their order.
fn sum_squares(g: &[f32]) -> f64 {
    let mut lanes = [0.0f64; 8];
    let mut chunks = g.chunks_exact(8);
    for c in &mut chunks {
        for (acc, &v) in lanes.iter_mut().zip(c) {
            *acc += f64::from(v) * f64::from(v);
        }
    }
    let tail: f64 = chunks
        .remainder()
        .iter()
        .map(|&v| f64::from(v) * f64::from(v))
        .sum();
    lanes.iter().sum::<f64>() + tail
}

/// Scales every gradient by `max_norm / ‖g‖` when the global norm exceeds
/// `max_norm`.
///
/// The lane-parallel [`sum_squares`] runs first. When it is at most
/// `(max_norm / 2)²`, the serial sum is below `max_norm²` (their gap is
/// at most `2 γ_n · Σ g²`, about `3e-10` of it for the paper AE's 1.2 M
/// parameters), so the serial chain would clip nothing and is skipped:
/// the gradients are the ones it would leave. Otherwise, and always for
/// a non-finite sum, the serial chain below decides.
fn clip_gradients(network: &mut Network, max_norm: f32) {
    let bound: f64 = network
        .params_and_grads()
        .iter()
        .map(|pg| sum_squares(pg.grad.as_slice()))
        .sum();
    let half = f64::from(max_norm) / 2.0;
    if bound <= half * half {
        return;
    }
    let mut sq = 0.0f64;
    for pg in network.params_and_grads() {
        for &g in pg.grad.as_slice() {
            sq += (g as f64) * (g as f64);
        }
    }
    let norm = sq.sqrt() as f32;
    if norm > max_norm && norm > 0.0 {
        let scale = max_norm / norm;
        for pg in network.params_and_grads() {
            pg.grad.map_inplace(|g| g * scale);
        }
    }
}

/// Records the time since `lap` started as one `phase` span and restarts
/// it; a stopwatch that is not running reads no clock and records nothing.
fn end_phase(recorder: &dyn obs::Recorder, phase: &str, lap: &mut obs::Stopwatch) {
    if let Some(secs) = lap.elapsed_secs() {
        recorder.record_span(phase, secs);
        *lap = obs::Stopwatch::started();
    }
}

/// Trains `network` on `(inputs, targets)` (both batch-first, same leading
/// dimension) and returns per-epoch mean losses.
///
/// Per-epoch mean loss and wall time are pushed into `recorder` as the
/// `epoch_loss` / `epoch_secs` series, and the `epochs` / `batches`
/// counters track the run's totals. Each step's four phases are timed as
/// spans when the recorder is enabled: `forward` (gathering the batch and
/// the forward pass), `loss` (loss and its gradient), `backward`
/// (clearing and back-propagating the gradients) and `optim` (clipping
/// and the optimizer step). Callers namespace these via
/// [`obs::Scoped`] (e.g. `cnn-train.epoch_loss`) and pass [`obs::noop`]
/// to record nothing. Recording never changes what is trained: the
/// parameter updates and returned losses are bit-identical with any
/// recorder.
///
/// # Errors
///
/// Fails on invalid config, mismatched batch dimensions, or any layer /
/// loss / optimizer error. Training aborts with an error if the loss
/// becomes non-finite (diverged run) rather than continuing silently.
pub fn fit(
    network: &mut Network,
    loss: &dyn Loss,
    optimizer: &mut dyn Optimizer,
    inputs: &Tensor,
    targets: &Tensor,
    config: &TrainConfig,
    recorder: &dyn obs::Recorder,
) -> Result<TrainReport> {
    if inputs.rank() == 0 || targets.rank() == 0 {
        return Err(NeuralError::invalid(
            "fit",
            "inputs and targets need a batch axis",
        ));
    }
    let n = inputs.shape().dims()[0];
    if targets.shape().dims()[0] != n {
        return Err(NeuralError::invalid(
            "fit",
            format!(
                "inputs have {n} rows but targets have {}",
                targets.shape().dims()[0]
            ),
        ));
    }
    config.validate(n)?;

    let mut rng = StdRng::seed_from_u64(config.shuffle_seed);
    let mut order: Vec<usize> = (0..n).collect();
    let mut epoch_losses = Vec::with_capacity(config.epochs);

    let mut total_batches = 0u64;
    for epoch in 0..config.epochs {
        let epoch_timer = obs::Stopwatch::started_if(recorder.enabled());
        // Fisher–Yates shuffle.
        for i in (1..order.len()).rev() {
            let j = rng.gen_range(0..=i);
            order.swap(i, j);
        }
        let mut total = 0.0f64;
        let mut batches = 0usize;
        for batch_idx in order.chunks(config.batch_size) {
            let mut phase = obs::Stopwatch::started_if(recorder.enabled());
            let x = gather_rows(inputs, batch_idx)?;
            let t = gather_rows(targets, batch_idx)?;
            let pred = network.forward_train(&x)?;
            end_phase(recorder, "forward", &mut phase);
            let (l, g) = loss.loss_and_grad(&pred, &t)?;
            end_phase(recorder, "loss", &mut phase);
            if !l.is_finite() {
                return Err(NeuralError::invalid(
                    "fit",
                    format!("loss diverged to {l} at epoch {epoch}"),
                ));
            }
            total += l as f64;
            batches += 1;
            network.zero_grads();
            network.backward_params(&g)?;
            end_phase(recorder, "backward", &mut phase);
            if let Some(max_norm) = config.grad_clip {
                clip_gradients(network, max_norm);
            }
            optimizer.step(&mut network.params_and_grads())?;
            end_phase(recorder, "optim", &mut phase);
        }
        let mean = (total / batches as f64) as f32;
        total_batches += batches as u64;
        recorder.push("epoch_loss", mean as f64);
        if let Some(secs) = epoch_timer.elapsed_secs() {
            recorder.push("epoch_secs", secs);
        }
        epoch_losses.push(mean);
    }
    recorder.add("epochs", config.epochs as u64);
    recorder.add("batches", total_batches);
    Ok(TrainReport { epoch_losses })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::{Dense, Tanh};
    use crate::loss::MseLoss;
    use crate::optim::{Adam, Sgd};
    use rand::rngs::StdRng;

    fn linear_dataset(n: usize, seed: u64) -> (Tensor, Tensor) {
        // y = 2x₀ − x₁ + 0.5, learnable exactly by one Dense layer.
        let mut rng = StdRng::seed_from_u64(seed);
        let mut xs = Vec::with_capacity(n * 2);
        let mut ys = Vec::with_capacity(n);
        for _ in 0..n {
            let a: f32 = rng.gen_range(-1.0..1.0);
            let b: f32 = rng.gen_range(-1.0..1.0);
            xs.push(a);
            xs.push(b);
            ys.push(2.0 * a - b + 0.5);
        }
        (
            Tensor::from_vec([n, 2], xs).unwrap(),
            Tensor::from_vec([n, 1], ys).unwrap(),
        )
    }

    #[test]
    fn gather_rows_selects_and_validates() {
        let t = Tensor::from_fn([4, 3], |i| (i[0] * 10 + i[1]) as f32);
        let g = gather_rows(&t, &[2, 0]).unwrap();
        assert_eq!(g.shape().dims(), &[2, 3]);
        assert_eq!(g.as_slice(), &[20., 21., 22., 0., 1., 2.]);
        assert!(gather_rows(&t, &[4]).is_err());
        assert!(gather_rows(&Tensor::scalar(1.0), &[0]).is_err());
    }

    #[test]
    fn fit_learns_linear_function() {
        let (x, y) = linear_dataset(256, 1);
        let mut rng = StdRng::seed_from_u64(2);
        let mut net = Network::new().with(Dense::new(2, 1, &mut rng).unwrap());
        let mut opt = Sgd::new(0.2).unwrap();
        let report = fit(
            &mut net,
            &MseLoss::new(),
            &mut opt,
            &x,
            &y,
            &TrainConfig::new(30, 32).with_seed(3),
            obs::noop(),
        )
        .unwrap();
        assert!(report.improved());
        assert!(
            report.final_loss() < 1e-3,
            "final loss {}",
            report.final_loss()
        );
        // Recovered weights ≈ [2, −1], bias ≈ 0.5.
        let params = net.layers()[0].params();
        let w = params[0].as_slice();
        let b = params[1].as_slice();
        assert!((w[0] - 2.0).abs() < 0.05, "w0 = {}", w[0]);
        assert!((w[1] + 1.0).abs() < 0.05, "w1 = {}", w[1]);
        assert!((b[0] - 0.5).abs() < 0.05, "b = {}", b[0]);
    }

    #[test]
    fn fit_with_adam_and_nonlinearity() {
        // y = sin-ish nonlinear target via tanh features.
        let (x, y) = linear_dataset(200, 5);
        let y = y.map(|v| v.tanh());
        let mut rng = StdRng::seed_from_u64(6);
        let mut net = Network::new()
            .with(Dense::new(2, 16, &mut rng).unwrap())
            .with(Tanh::new())
            .with(Dense::new(16, 1, &mut rng).unwrap());
        let mut opt = Adam::new(0.01).unwrap();
        let report = fit(
            &mut net,
            &MseLoss::new(),
            &mut opt,
            &x,
            &y,
            &TrainConfig::new(40, 32).with_seed(7).with_grad_clip(10.0),
            obs::noop(),
        )
        .unwrap();
        assert!(report.final_loss() < 0.01, "loss {}", report.final_loss());
    }

    #[test]
    fn fit_is_deterministic_given_seeds() {
        let (x, y) = linear_dataset(64, 9);
        let run = || {
            let mut rng = StdRng::seed_from_u64(10);
            let mut net = Network::new().with(Dense::new(2, 1, &mut rng).unwrap());
            let mut opt = Sgd::new(0.1).unwrap();
            fit(
                &mut net,
                &MseLoss::new(),
                &mut opt,
                &x,
                &y,
                &TrainConfig::new(5, 16).with_seed(11),
                obs::noop(),
            )
            .unwrap()
            .epoch_losses
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn recording_fit_leaves_training_unchanged_and_records_series() {
        let (x, y) = linear_dataset(64, 9);
        let train = |recorder: &dyn obs::Recorder| {
            let mut rng = StdRng::seed_from_u64(10);
            let mut net = Network::new().with(Dense::new(2, 1, &mut rng).unwrap());
            let mut opt = Sgd::new(0.1).unwrap();
            let report = fit(
                &mut net,
                &MseLoss::new(),
                &mut opt,
                &x,
                &y,
                &TrainConfig::new(5, 16).with_seed(11),
                recorder,
            )
            .unwrap();
            let weights: Vec<f32> = net.layers()[0].params()[0].as_slice().to_vec();
            (report.epoch_losses, weights)
        };
        let rec = obs::RunRecorder::new();
        let recorded = train(&rec);
        let plain = train(obs::noop());
        // Observation must not perturb training.
        assert_eq!(recorded, plain);
        let report = rec.report("fit");
        let losses = &report.series("epoch_loss").unwrap().values;
        assert_eq!(losses.len(), 5);
        for (s, &l) in losses.iter().zip(&recorded.0) {
            assert_eq!(*s, l as f64);
        }
        assert_eq!(report.series("epoch_secs").unwrap().values.len(), 5);
        assert_eq!(report.counter("epochs"), Some(5));
        assert_eq!(report.counter("batches"), Some(5 * 4));
        // One span per phase per step.
        for phase in ["forward", "loss", "backward", "optim"] {
            let stage = report.stage(phase).unwrap();
            assert_eq!(stage.count, 5 * 4, "{phase}");
            assert!(stage.total_secs > 0.0, "{phase}");
        }
    }

    #[test]
    fn fit_validates_inputs() {
        let (x, y) = linear_dataset(8, 0);
        let mut rng = StdRng::seed_from_u64(0);
        let mut net = Network::new().with(Dense::new(2, 1, &mut rng).unwrap());
        let mut opt = Sgd::new(0.1).unwrap();
        let bad_targets = Tensor::zeros([7, 1]);
        assert!(fit(
            &mut net,
            &MseLoss::new(),
            &mut opt,
            &x,
            &bad_targets,
            &TrainConfig::new(1, 4),
            obs::noop()
        )
        .is_err());
        assert!(fit(
            &mut net,
            &MseLoss::new(),
            &mut opt,
            &x,
            &y,
            &TrainConfig::new(0, 4),
            obs::noop()
        )
        .is_err());
        assert!(fit(
            &mut net,
            &MseLoss::new(),
            &mut opt,
            &x,
            &y,
            &TrainConfig::new(1, 0),
            obs::noop()
        )
        .is_err());
        let cfg = TrainConfig::new(1, 4).with_grad_clip(-1.0);
        assert!(fit(
            &mut net,
            &MseLoss::new(),
            &mut opt,
            &x,
            &y,
            &cfg,
            obs::noop()
        )
        .is_err());
    }

    /// The clipping code as it was before the lane-parallel bound: one
    /// serial `f64` chain, then the scale.
    fn serial_clip(grads: &mut [Vec<f32>], max_norm: f32) -> bool {
        let mut sq = 0.0f64;
        for g in grads.iter() {
            for &v in g {
                sq += (v as f64) * (v as f64);
            }
        }
        let norm = sq.sqrt() as f32;
        if norm > max_norm && norm > 0.0 {
            let scale = max_norm / norm;
            for g in grads.iter_mut() {
                for v in g.iter_mut() {
                    *v *= scale;
                }
            }
            return true;
        }
        false
    }

    #[test]
    fn clipping_is_bit_identical_to_the_serial_chain_around_max_norm() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut net = Network::new()
            .with(Dense::new(13, 50, &mut rng).unwrap())
            .with(Dense::new(50, 7, &mut rng).unwrap());
        let base: Vec<Vec<f32>> = net
            .params_and_grads()
            .iter()
            .enumerate()
            .map(|(p, pg)| {
                (0..pg.grad.len())
                    .map(|i| (((i * 7 + p * 3) % 23) as f32 - 11.0) * 0.37)
                    .collect()
            })
            .collect();
        let max_norm = 10.0f32;
        let norm0 = {
            let sq: f64 = base
                .iter()
                .flatten()
                .map(|&v| (v as f64) * (v as f64))
                .sum();
            sq.sqrt() as f32
        };
        // A walk of norms across max_norm in steps of about a quarter ulp,
        // then norms on both sides of the max_norm / 2 fast-path bound.
        let walk = 49;
        let mut factors: Vec<f32> = (0..walk)
            .map(|k| (max_norm / norm0) * (1.0 + (k as f32 - 24.0) * f32::EPSILON / 4.0))
            .collect();
        factors.extend([0.0, 0.3, 0.49, 0.5, 0.51, 3.0].map(|f| f * max_norm / norm0));
        let (mut clipped, mut kept) = (0, 0);
        for (case, &factor) in factors.iter().enumerate() {
            for poison in [None, Some(f32::NAN), Some(f32::INFINITY)] {
                let mut grads: Vec<Vec<f32>> = base
                    .iter()
                    .map(|g| g.iter().map(|&v| v * factor).collect())
                    .collect();
                if let Some(bad) = poison {
                    grads[2][5] = bad;
                }
                for (pg, g) in net.params_and_grads().iter_mut().zip(&grads) {
                    pg.grad.as_mut_slice().copy_from_slice(g);
                }
                let clips = serial_clip(&mut grads, max_norm);
                if case < walk && poison.is_none() {
                    if clips {
                        clipped += 1;
                    } else {
                        kept += 1;
                    }
                }
                clip_gradients(&mut net, max_norm);
                for (pg, g) in net.params_and_grads().iter().zip(&grads) {
                    let got: Vec<u32> = pg.grad.as_slice().iter().map(|v| v.to_bits()).collect();
                    let want: Vec<u32> = g.iter().map(|v| v.to_bits()).collect();
                    assert_eq!(
                        got, want,
                        "case {case} (factor {factor}), poison {poison:?}"
                    );
                }
            }
        }
        // The walk crosses max_norm: both outcomes occur near it.
        assert!(clipped > 0 && kept > 0, "{clipped} clipped, {kept} kept");
    }

    #[test]
    fn gradient_clipping_caps_update_magnitude() {
        // With a huge LR and tiny clip, weights move by at most lr·clip.
        let (x, y) = linear_dataset(32, 3);
        let y = y.scale(1000.0); // enormous targets → enormous raw gradients
        let mut rng = StdRng::seed_from_u64(4);
        let mut net = Network::new().with(Dense::new(2, 1, &mut rng).unwrap());
        let before: Vec<f32> = net.layers()[0].params()[0].as_slice().to_vec();
        let mut opt = Sgd::new(0.01).unwrap();
        fit(
            &mut net,
            &MseLoss::new(),
            &mut opt,
            &x,
            &y,
            &TrainConfig::new(1, 32).with_grad_clip(1.0),
            obs::noop(),
        )
        .unwrap();
        let after: Vec<f32> = net.layers()[0].params()[0].as_slice().to_vec();
        for (b, a) in before.iter().zip(&after) {
            assert!((b - a).abs() <= 0.01 + 1e-6, "update too large: {b} → {a}");
        }
    }
}
