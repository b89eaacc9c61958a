//! Network layers.
//!
//! Every layer implements [`Layer`]: a pure inference [`Layer::forward`],
//! a caching [`Layer::forward_train`], and a [`Layer::backward`] that
//! consumes the cache, accumulates parameter gradients and returns the
//! gradient with respect to its input ([`Layer::backward_params`] skips
//! that last part). Layers are `Send` and `Sync`, so a caller may move
//! or share a network across threads of its own.

mod activation;
mod conv;
mod dense;
mod flatten;

pub use activation::{ReLU, Sigmoid, Tanh};
pub use conv::Conv2d;
pub use dense::Dense;
pub use flatten::Flatten;

use ndtensor::{Conv2dSpec, Tensor};

use crate::Result;

/// Structural description of a layer, used for introspection (the
/// saliency crate walks the CNN's conv stack through this) and for
/// serialization.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LayerKind {
    /// Fully-connected layer: `[N, in] → [N, out]`.
    Dense {
        /// Input feature count.
        in_features: usize,
        /// Output feature count.
        out_features: usize,
    },
    /// 2-D convolution: `[N, C, H, W] → [N, F, OH, OW]`.
    Conv2d {
        /// Input channel count `C`.
        in_channels: usize,
        /// Output channel (filter) count `F`.
        out_channels: usize,
        /// Kernel size `(KH, KW)`.
        kernel: (usize, usize),
        /// Stride and padding.
        spec: Conv2dSpec,
    },
    /// Rectified linear activation.
    ReLU,
    /// Logistic sigmoid activation.
    Sigmoid,
    /// Hyperbolic tangent activation.
    Tanh,
    /// Collapses all but the batch dimension.
    Flatten,
}

impl LayerKind {
    /// Short display name of the layer kind.
    pub fn name(&self) -> &'static str {
        match self {
            LayerKind::Dense { .. } => "Dense",
            LayerKind::Conv2d { .. } => "Conv2d",
            LayerKind::ReLU => "ReLU",
            LayerKind::Sigmoid => "Sigmoid",
            LayerKind::Tanh => "Tanh",
            LayerKind::Flatten => "Flatten",
        }
    }
}

/// A mutable view of one parameter tensor paired with its accumulated
/// gradient, handed to optimizers.
#[derive(Debug)]
pub struct ParamGrad<'a> {
    /// The parameter to update.
    pub param: &'a mut Tensor,
    /// Its gradient, accumulated by `backward` since the last zeroing.
    pub grad: &'a mut Tensor,
}

/// A differentiable network layer.
pub trait Layer: std::fmt::Debug + Send + Sync {
    /// The layer's structural description.
    fn kind(&self) -> LayerKind;

    /// Inference forward pass (no caching, `&self`).
    ///
    /// # Errors
    ///
    /// Fails when the input shape is incompatible with the layer.
    fn forward(&self, input: &Tensor) -> Result<Tensor>;

    /// Training forward pass: like [`Layer::forward`] but caches whatever
    /// the backward pass needs.
    ///
    /// # Errors
    ///
    /// Fails when the input shape is incompatible with the layer.
    fn forward_train(&mut self, input: &Tensor) -> Result<Tensor>;

    /// Backward pass: given `∂L/∂output`, accumulates parameter gradients
    /// and returns `∂L/∂input`. Consumes the cache of the most recent
    /// [`Layer::forward_train`].
    ///
    /// # Errors
    ///
    /// Fails when no cache is present or `grad_output` has the wrong
    /// shape.
    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor>;

    /// Like [`Layer::backward`], but only accumulates parameter gradients:
    /// the input gradient is not formed. Networks run it on their first
    /// layer when the caller discards `∂L/∂input`, as training does.
    ///
    /// # Errors
    ///
    /// Like [`Layer::backward`].
    fn backward_params(&mut self, grad_output: &Tensor) -> Result<()> {
        self.backward(grad_output).map(drop)
    }

    /// The layer's parameters paired with their gradients (empty for
    /// parameter-free layers).
    fn params_and_grads(&mut self) -> Vec<ParamGrad<'_>> {
        Vec::new()
    }

    /// Immutable access to parameter tensors, in the same order as
    /// [`Layer::params_and_grads`].
    fn params(&self) -> Vec<&Tensor> {
        Vec::new()
    }

    /// Total number of scalar parameters.
    fn param_count(&self) -> usize {
        self.params().iter().map(|p| p.len()).sum()
    }

    /// Resets all accumulated gradients to zero.
    fn zero_grads(&mut self) {
        for pg in self.params_and_grads() {
            pg.grad.map_inplace(|_| 0.0);
        }
    }

    /// Replaces the layer's parameters with `values`, in
    /// [`Layer::params_and_grads`] order.
    ///
    /// # Errors
    ///
    /// Fails when the number of tensors or any shape differs.
    fn set_params(&mut self, values: &[Tensor]) -> Result<()> {
        let mut pgs = self.params_and_grads();
        if pgs.len() != values.len() {
            return Err(crate::NeuralError::invalid(
                "set_params",
                format!("expected {} tensors, got {}", pgs.len(), values.len()),
            ));
        }
        for (pg, v) in pgs.iter_mut().zip(values) {
            if pg.param.shape() != v.shape() {
                return Err(crate::NeuralError::invalid(
                    "set_params",
                    format!("shape mismatch: {} vs {}", pg.param.shape(), v.shape()),
                ));
            }
            *pg.param = v.clone();
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_names() {
        assert_eq!(LayerKind::ReLU.name(), "ReLU");
        assert_eq!(
            LayerKind::Dense {
                in_features: 1,
                out_features: 2
            }
            .name(),
            "Dense"
        );
        assert_eq!(LayerKind::Flatten.name(), "Flatten");
    }
}
