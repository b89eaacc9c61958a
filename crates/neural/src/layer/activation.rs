//! Elementwise activation layers: ReLU, Sigmoid, Tanh.
//!
//! All three are shape-preserving and parameter-free. Their backward
//! passes use the cheapest sufficient cache: ReLU keeps the input sign,
//! Sigmoid and Tanh keep the *output* (their derivatives are functions of
//! the output).

use ndtensor::Tensor;

use crate::layer::{Layer, LayerKind};
use crate::{NeuralError, Result};

fn check_grad_shape(layer: &'static str, cached: &Tensor, grad_output: &Tensor) -> Result<()> {
    if cached.shape() != grad_output.shape() {
        return Err(NeuralError::invalid(
            "activation::backward",
            format!(
                "{layer}: grad shape {} does not match cached shape {}",
                grad_output.shape(),
                cached.shape()
            ),
        ));
    }
    Ok(())
}

/// Rectified linear unit: `y = max(0, x)`.
#[derive(Debug, Default)]
pub struct ReLU {
    cached_input: Option<Tensor>,
}

impl ReLU {
    /// Creates a ReLU activation.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for ReLU {
    fn kind(&self) -> LayerKind {
        LayerKind::ReLU
    }

    fn forward(&self, input: &Tensor) -> Result<Tensor> {
        // `f32::max` returns the non-NaN operand: a NaN must pass through
        // so a corrupt layer below cannot yield a finite output.
        Ok(input.map(|v| if v.is_nan() { v } else { v.max(0.0) }))
    }

    fn forward_train(&mut self, input: &Tensor) -> Result<Tensor> {
        let out = self.forward(input)?;
        self.cached_input = Some(input.clone());
        Ok(out)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        let input = self
            .cached_input
            .take()
            .ok_or(NeuralError::MissingCache { layer: "ReLU" })?;
        check_grad_shape("ReLU", &input, grad_output)?;
        Ok(input.zip_map(grad_output, |x, g| if x > 0.0 { g } else { 0.0 })?)
    }
}

/// Logistic sigmoid: `y = 1 / (1 + e^{−x})`. The paper's autoencoder uses
/// a sigmoid output layer so reconstructions live in `[0, 1]`.
#[derive(Debug, Default)]
pub struct Sigmoid {
    cached_output: Option<Tensor>,
}

impl Sigmoid {
    /// Creates a sigmoid activation.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for Sigmoid {
    fn kind(&self) -> LayerKind {
        LayerKind::Sigmoid
    }

    fn forward(&self, input: &Tensor) -> Result<Tensor> {
        Ok(input.map(|v| 1.0 / (1.0 + (-v).exp())))
    }

    fn forward_train(&mut self, input: &Tensor) -> Result<Tensor> {
        let out = self.forward(input)?;
        self.cached_output = Some(out.clone());
        Ok(out)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        let output = self
            .cached_output
            .take()
            .ok_or(NeuralError::MissingCache { layer: "Sigmoid" })?;
        check_grad_shape("Sigmoid", &output, grad_output)?;
        Ok(output.zip_map(grad_output, |y, g| g * y * (1.0 - y))?)
    }
}

/// Hyperbolic tangent: `y = tanh(x)`. Used by the steering head so the
/// predicted angle lands in `[-1, 1]`.
#[derive(Debug, Default)]
pub struct Tanh {
    cached_output: Option<Tensor>,
}

impl Tanh {
    /// Creates a tanh activation.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for Tanh {
    fn kind(&self) -> LayerKind {
        LayerKind::Tanh
    }

    fn forward(&self, input: &Tensor) -> Result<Tensor> {
        Ok(input.map(f32::tanh))
    }

    fn forward_train(&mut self, input: &Tensor) -> Result<Tensor> {
        let out = self.forward(input)?;
        self.cached_output = Some(out.clone());
        Ok(out)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        let output = self
            .cached_output
            .take()
            .ok_or(NeuralError::MissingCache { layer: "Tanh" })?;
        check_grad_shape("Tanh", &output, grad_output)?;
        Ok(output.zip_map(grad_output, |y, g| g * (1.0 - y * y))?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(v: Vec<f32>) -> Tensor {
        let n = v.len();
        Tensor::from_vec([1, n], v).unwrap()
    }

    #[test]
    fn relu_clips_negatives() {
        let y = ReLU::new().forward(&t(vec![-1.0, 0.0, 2.0])).unwrap();
        assert_eq!(y.as_slice(), &[0.0, 0.0, 2.0]);
    }

    #[test]
    fn relu_passes_nan_through() {
        let y = ReLU::new()
            .forward(&t(vec![f32::NAN, -1.0, f32::INFINITY]))
            .unwrap();
        assert!(y.as_slice()[0].is_nan());
        assert_eq!(&y.as_slice()[1..], &[0.0, f32::INFINITY]);
    }

    #[test]
    fn relu_backward_masks_gradient() {
        let mut l = ReLU::new();
        l.forward_train(&t(vec![-1.0, 0.5, 0.0])).unwrap();
        let g = l.backward(&t(vec![10.0, 10.0, 10.0])).unwrap();
        // Gradient flows only where input was strictly positive.
        assert_eq!(g.as_slice(), &[0.0, 10.0, 0.0]);
    }

    #[test]
    fn sigmoid_values_and_gradient() {
        let mut l = Sigmoid::new();
        let y = l.forward_train(&t(vec![0.0, 100.0, -100.0])).unwrap();
        assert!((y.as_slice()[0] - 0.5).abs() < 1e-6);
        assert!(y.as_slice()[1] > 0.999);
        assert!(y.as_slice()[2] < 0.001);
        let g = l.backward(&t(vec![1.0, 1.0, 1.0])).unwrap();
        // σ'(0) = 0.25; saturated ends ≈ 0.
        assert!((g.as_slice()[0] - 0.25).abs() < 1e-6);
        assert!(g.as_slice()[1] < 1e-3);
    }

    #[test]
    fn tanh_values_and_gradient() {
        let mut l = Tanh::new();
        let y = l.forward_train(&t(vec![0.0, 1.0])).unwrap();
        assert_eq!(y.as_slice()[0], 0.0);
        assert!((y.as_slice()[1] - 0.7616).abs() < 1e-3);
        let g = l.backward(&t(vec![1.0, 1.0])).unwrap();
        assert!((g.as_slice()[0] - 1.0).abs() < 1e-6);
        assert!((g.as_slice()[1] - (1.0 - 0.7616f32 * 0.7616)).abs() < 1e-3);
    }

    #[test]
    fn activation_gradients_match_finite_differences() {
        let x = t(vec![-0.7, -0.1, 0.0, 0.3, 1.2]);
        let eps = 1e-3f32;
        let layers: Vec<Box<dyn Layer>> = vec![Box::new(Sigmoid::new()), Box::new(Tanh::new())];
        for mut layer in layers {
            let out = layer.forward_train(&x).unwrap();
            let analytic = layer.backward(&Tensor::ones(out.shape().clone())).unwrap();
            for i in 0..x.len() {
                let mut xp = x.clone();
                xp.as_mut_slice()[i] += eps;
                let mut xm = x.clone();
                xm.as_mut_slice()[i] -= eps;
                let numeric = (layer.forward(&xp).unwrap().sum()
                    - layer.forward(&xm).unwrap().sum())
                    / (2.0 * eps);
                assert!(
                    (numeric - analytic.as_slice()[i]).abs() < 1e-3,
                    "{}: grad at {i}",
                    layer.kind().name()
                );
            }
        }
    }

    #[test]
    fn backward_without_cache_errors() {
        assert!(ReLU::new().backward(&t(vec![1.0])).is_err());
        assert!(Sigmoid::new().backward(&t(vec![1.0])).is_err());
        assert!(Tanh::new().backward(&t(vec![1.0])).is_err());
    }

    #[test]
    fn backward_rejects_mismatched_grad() {
        let mut l = ReLU::new();
        l.forward_train(&t(vec![1.0, 2.0])).unwrap();
        assert!(l.backward(&t(vec![1.0])).is_err());
    }

    #[test]
    fn activations_have_no_params() {
        assert_eq!(ReLU::new().param_count(), 0);
        assert!(Sigmoid::new().params_and_grads().is_empty());
    }
}
