//! Training objectives.
//!
//! Every loss returns the scalar loss and its gradient with respect to the
//! prediction, already averaged over the batch so optimizer step sizes are
//! batch-size independent.
//!
//! [`SsimDissimilarityLoss`] is the paper's contribution-enabling piece:
//! it trains the autoencoder to *maximise* SSIM by minimising
//! `1 − mean-SSIM`, using the analytic gradient from
//! [`metrics::ssim_with_grad`].

use metrics::SsimConfig;
use ndtensor::Tensor;
use vision::Image;

use crate::{NeuralError, Result};

/// A differentiable training objective.
pub trait Loss: std::fmt::Debug + Send {
    /// Scalar loss for a batch.
    ///
    /// # Errors
    ///
    /// Fails when prediction and target shapes differ or are incompatible
    /// with the loss.
    fn loss(&self, prediction: &Tensor, target: &Tensor) -> Result<f32>;

    /// `∂loss/∂prediction`, same shape as the prediction.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Loss::loss`].
    fn grad(&self, prediction: &Tensor, target: &Tensor) -> Result<Tensor>;

    /// [`Loss::loss`] and [`Loss::grad`] together, bit-equal to the two
    /// called separately. Training calls this once per step; a loss whose
    /// value and gradient share their work computes it once here.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Loss::loss`].
    fn loss_and_grad(&self, prediction: &Tensor, target: &Tensor) -> Result<(f32, Tensor)> {
        Ok((
            self.loss(prediction, target)?,
            self.grad(prediction, target)?,
        ))
    }
}

fn check_same_shape(op: &'static str, prediction: &Tensor, target: &Tensor) -> Result<()> {
    if prediction.shape() != target.shape() {
        return Err(NeuralError::invalid(
            op,
            format!(
                "prediction shape {} does not match target shape {}",
                prediction.shape(),
                target.shape()
            ),
        ));
    }
    if prediction.is_empty() {
        return Err(NeuralError::invalid(op, "empty batch"));
    }
    Ok(())
}

/// Mean squared error over all elements: `L = (1/K) Σ (p − t)²`.
#[derive(Debug, Default, Clone, Copy)]
pub struct MseLoss;

impl MseLoss {
    /// Creates an MSE loss.
    pub fn new() -> Self {
        MseLoss
    }
}

impl Loss for MseLoss {
    fn loss(&self, prediction: &Tensor, target: &Tensor) -> Result<f32> {
        check_same_shape("MseLoss", prediction, target)?;
        let mut acc = 0.0f64;
        for (&p, &t) in prediction.as_slice().iter().zip(target.as_slice()) {
            let d = (p - t) as f64;
            acc += d * d;
        }
        Ok((acc / prediction.len() as f64) as f32)
    }

    fn grad(&self, prediction: &Tensor, target: &Tensor) -> Result<Tensor> {
        check_same_shape("MseLoss", prediction, target)?;
        let scale = 2.0 / prediction.len() as f32;
        Ok(prediction.zip_map(target, |p, t| scale * (p - t))?)
    }
}

/// SSIM dissimilarity loss for image reconstruction:
/// `L = (1/N) Σ_batch (1 − SSIM(target_i, prediction_i))`.
///
/// Predictions and targets are flattened images `[N, H·W]`; the
/// constructor pins the image geometry so rows can be reshaped.
#[derive(Debug, Clone)]
pub struct SsimDissimilarityLoss {
    height: usize,
    width: usize,
    config: SsimConfig,
}

impl SsimDissimilarityLoss {
    /// Creates the loss for `height × width` images with the given SSIM
    /// configuration.
    ///
    /// # Errors
    ///
    /// Fails when the window does not fit the image geometry.
    pub fn new(height: usize, width: usize, config: SsimConfig) -> Result<Self> {
        if height == 0 || width == 0 {
            return Err(NeuralError::invalid(
                "SsimDissimilarityLoss::new",
                "image dimensions must be non-zero",
            ));
        }
        if config.window == 0 || config.window > height || config.window > width {
            return Err(NeuralError::invalid(
                "SsimDissimilarityLoss::new",
                format!(
                    "window {} incompatible with image {height}x{width}",
                    config.window
                ),
            ));
        }
        Ok(SsimDissimilarityLoss {
            height,
            width,
            config,
        })
    }

    /// The SSIM configuration in use.
    pub fn config(&self) -> &SsimConfig {
        &self.config
    }

    fn rows<'t>(&self, op: &'static str, t: &'t Tensor) -> Result<Vec<&'t [f32]>> {
        let hw = self.height * self.width;
        if t.rank() != 2 || t.shape().dims()[1] != hw {
            return Err(NeuralError::invalid(
                op,
                format!("expected [N, {hw}] tensor, got {}", t.shape()),
            ));
        }
        Ok(t.as_slice().chunks(hw).collect())
    }

    fn to_image(&self, row: &[f32]) -> Result<Image> {
        Image::from_tensor(Tensor::from_vec([self.height, self.width], row.to_vec())?)
            .map_err(|e| NeuralError::invalid("SsimDissimilarityLoss", e.to_string()))
    }
}

impl Loss for SsimDissimilarityLoss {
    fn loss(&self, prediction: &Tensor, target: &Tensor) -> Result<f32> {
        check_same_shape("SsimDissimilarityLoss", prediction, target)?;
        let preds = self.rows("SsimDissimilarityLoss", prediction)?;
        let tgts = self.rows("SsimDissimilarityLoss", target)?;
        let mut acc = 0.0f64;
        for (p, t) in preds.iter().zip(&tgts) {
            let xi = self.to_image(t)?;
            let yi = self.to_image(p)?;
            let s = metrics::ssim(&xi, &yi, &self.config)
                .map_err(|e| NeuralError::invalid("SsimDissimilarityLoss", e.to_string()))?;
            acc += 1.0 - s as f64;
        }
        Ok((acc / preds.len() as f64) as f32)
    }

    fn grad(&self, prediction: &Tensor, target: &Tensor) -> Result<Tensor> {
        self.loss_and_grad(prediction, target).map(|(_, g)| g)
    }

    /// One [`metrics::ssim_with_grad`] per sample yields both the score,
    /// bit-equal to [`metrics::ssim`]'s, and the gradient.
    fn loss_and_grad(&self, prediction: &Tensor, target: &Tensor) -> Result<(f32, Tensor)> {
        check_same_shape("SsimDissimilarityLoss", prediction, target)?;
        let preds = self.rows("SsimDissimilarityLoss", prediction)?;
        let tgts = self.rows("SsimDissimilarityLoss", target)?;
        let n = preds.len();
        let hw = self.height * self.width;
        let mut acc = 0.0f64;
        let mut grad = vec![0.0f32; n * hw];
        for (i, (p, t)) in preds.iter().zip(&tgts).enumerate() {
            let xi = self.to_image(t)?;
            let yi = self.to_image(p)?;
            let (s, g) = metrics::ssim_with_grad(&xi, &yi, &self.config)
                .map_err(|e| NeuralError::invalid("SsimDissimilarityLoss", e.to_string()))?;
            acc += 1.0 - s as f64;
            // L = 1 − SSIM, so ∂L/∂y = −∂SSIM/∂y; batch-mean divides by N.
            for (dst, &gv) in grad[i * hw..(i + 1) * hw].iter_mut().zip(g.as_slice()) {
                *dst = -gv / n as f32;
            }
        }
        let loss = (acc / n as f64) as f32;
        Ok((loss, Tensor::from_vec(prediction.shape().clone(), grad)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair(p: Vec<f32>, t: Vec<f32>) -> (Tensor, Tensor) {
        let n = p.len();
        (
            Tensor::from_vec([1, n], p).unwrap(),
            Tensor::from_vec([1, n], t).unwrap(),
        )
    }

    #[test]
    fn mse_known_values() {
        let (p, t) = pair(vec![1.0, 2.0], vec![0.0, 0.0]);
        let l = MseLoss::new();
        assert!((l.loss(&p, &t).unwrap() - 2.5).abs() < 1e-6);
        let g = l.grad(&p, &t).unwrap();
        assert_eq!(g.as_slice(), &[1.0, 2.0]); // 2(p−t)/2
    }

    #[test]
    fn mse_zero_at_perfect_prediction() {
        let (p, t) = pair(vec![0.3, 0.7], vec![0.3, 0.7]);
        let l = MseLoss::new();
        assert_eq!(l.loss(&p, &t).unwrap(), 0.0);
        assert!(l.grad(&p, &t).unwrap().as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn losses_validate_shapes() {
        let p = Tensor::zeros([1, 2]);
        let t = Tensor::zeros([1, 3]);
        assert!(MseLoss::new().loss(&p, &t).is_err());
        assert!(MseLoss::new().grad(&p, &t).is_err());
        let empty = Tensor::zeros([0, 2]);
        assert!(MseLoss::new().loss(&empty, &empty).is_err());
    }

    fn ssim_fixture() -> (SsimDissimilarityLoss, Tensor, Tensor) {
        let loss = SsimDissimilarityLoss::new(8, 10, SsimConfig::with_window(5)).unwrap();
        let target = Tensor::from_fn([2, 80], |i| {
            0.3 + 0.4 * (((i[1] / 10 + i[1] % 10) % 5) as f32 / 4.0) + i[0] as f32 * 0.05
        });
        let pred = target.map(|v| (v + 0.1).min(1.0));
        (loss, pred, target)
    }

    #[test]
    fn ssim_loss_zero_at_identity() {
        let (loss, _, target) = ssim_fixture();
        let l = loss.loss(&target, &target).unwrap();
        assert!(l.abs() < 1e-6, "loss at identity: {l}");
    }

    #[test]
    fn ssim_loss_positive_otherwise_and_bounded() {
        let (loss, pred, target) = ssim_fixture();
        let l = loss.loss(&pred, &target).unwrap();
        assert!(l > 0.0 && l <= 2.0);
    }

    #[test]
    fn ssim_loss_gradient_matches_finite_differences() {
        let (loss, pred, target) = ssim_fixture();
        let g = loss.grad(&pred, &target).unwrap();
        let eps = 1e-3;
        for probe in [0usize, 37, 80, 159] {
            let mut pp = pred.clone();
            pp.as_mut_slice()[probe] += eps;
            let mut pm = pred.clone();
            pm.as_mut_slice()[probe] -= eps;
            let numeric =
                (loss.loss(&pp, &target).unwrap() - loss.loss(&pm, &target).unwrap()) / (2.0 * eps);
            let analytic = g.as_slice()[probe];
            assert!(
                (numeric - analytic).abs() < 2e-3 + 0.05 * numeric.abs(),
                "grad at {probe}: {numeric} vs {analytic}"
            );
        }
    }

    /// One `ssim_with_grad` per sample gives the bits of `loss()` and
    /// `grad()` called separately: windows 7 and 11, 60×160 images and
    /// images whose side equals the window, batches of 1 and 32.
    #[test]
    fn ssim_loss_and_grad_is_bit_equal_to_separate_calls() {
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for window in [7usize, 11] {
            for (h, w) in [(60usize, 160usize), (window, window), (window, 160)] {
                let loss =
                    SsimDissimilarityLoss::new(h, w, SsimConfig::with_window(window)).unwrap();
                for batch in [1usize, 32] {
                    let target = Tensor::from_fn([batch, h * w], |i| {
                        let v = (i[0] * 131 + i[1] * 17 + window) % 97;
                        0.2 + 0.6 * (v as f32 / 96.0)
                    });
                    let pred = Tensor::from_fn([batch, h * w], |i| {
                        let v = (i[0] * 29 + i[1] * 41 + h) % 89;
                        (v as f32 / 88.0).min(1.0)
                    });
                    let (l, g) = loss.loss_and_grad(&pred, &target).unwrap();
                    let label = format!("window {window} {h}x{w} batch {batch}");
                    assert_eq!(
                        l.to_bits(),
                        loss.loss(&pred, &target).unwrap().to_bits(),
                        "{label}"
                    );
                    let separate = loss.grad(&pred, &target).unwrap();
                    assert_eq!(bits(g.as_slice()), bits(separate.as_slice()), "{label}");
                    // The pre-fusion gradient: one `ssim_with_grad` per
                    // sample, `-g / n`, independent of `loss_and_grad`.
                    let mut want = Vec::with_capacity(batch * h * w);
                    for (p, t) in pred
                        .as_slice()
                        .chunks(h * w)
                        .zip(target.as_slice().chunks(h * w))
                    {
                        let (_, gi) = metrics::ssim_with_grad(
                            &loss.to_image(t).unwrap(),
                            &loss.to_image(p).unwrap(),
                            loss.config(),
                        )
                        .unwrap();
                        want.extend(gi.as_slice().iter().map(|&v| -v / batch as f32));
                    }
                    assert_eq!(bits(g.as_slice()), bits(&want), "{label}");
                }
            }
        }
    }

    #[test]
    fn ssim_loss_validates_construction_and_shapes() {
        assert!(SsimDissimilarityLoss::new(0, 5, SsimConfig::default()).is_err());
        assert!(SsimDissimilarityLoss::new(5, 5, SsimConfig::with_window(7)).is_err());
        let loss = SsimDissimilarityLoss::new(4, 4, SsimConfig::with_window(3)).unwrap();
        let bad = Tensor::zeros([1, 15]);
        assert!(loss.loss(&bad, &bad).is_err());
        let not2d = Tensor::zeros([16]);
        assert!(loss.loss(&not2d, &not2d).is_err());
    }
}
