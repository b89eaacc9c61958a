use ndtensor::{conv2d, conv2d_backward, conv2d_backward_params, Conv2dSpec, Tensor};
use rand::Rng;

use crate::layer::{Layer, LayerKind, ParamGrad};
use crate::{NeuralError, Result};

/// A 2-D convolution layer over `[N, C, H, W]` inputs.
///
/// Weights are `[F, C, KH, KW]`, He-normal initialised with
/// `fan_in = C·KH·KW`; biases start at zero. Stride and padding follow the
/// provided [`Conv2dSpec`].
///
/// # Example
///
/// ```
/// use neural::layer::{Conv2d, Layer};
/// use ndtensor::{Conv2dSpec, Tensor};
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), neural::NeuralError> {
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let conv = Conv2d::new(1, 8, (5, 5), Conv2dSpec::new((2, 2), (0, 0)), &mut rng)?;
/// let y = conv.forward(&Tensor::zeros([2, 1, 60, 160]))?;
/// assert_eq!(y.shape().dims(), &[2, 8, 28, 78]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Conv2d {
    weight: Tensor,
    bias: Tensor,
    grad_weight: Tensor,
    grad_bias: Tensor,
    spec: Conv2dSpec,
    cached_input: Option<Tensor>,
}

impl Conv2d {
    /// Creates a He-normal-initialised convolution layer.
    ///
    /// # Errors
    ///
    /// Fails when any of the channel or kernel dimensions is zero.
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: (usize, usize),
        spec: Conv2dSpec,
        rng: &mut impl Rng,
    ) -> Result<Self> {
        if in_channels == 0 || out_channels == 0 || kernel.0 == 0 || kernel.1 == 0 {
            return Err(NeuralError::invalid(
                "Conv2d::new",
                "channels and kernel dimensions must be non-zero",
            ));
        }
        let mut weight = Tensor::zeros([out_channels, in_channels, kernel.0, kernel.1]);
        ndtensor::fill_he_normal(&mut weight, rng, in_channels * kernel.0 * kernel.1)?;
        Ok(Conv2d {
            weight,
            bias: Tensor::zeros([out_channels]),
            grad_weight: Tensor::zeros([out_channels, in_channels, kernel.0, kernel.1]),
            grad_bias: Tensor::zeros([out_channels]),
            spec,
            cached_input: None,
        })
    }

    /// Creates a layer with explicit weights (used by deserialization).
    ///
    /// # Errors
    ///
    /// Fails when `weight` is not rank 4 or `bias` does not match its
    /// leading dimension.
    pub fn from_parts(weight: Tensor, bias: Tensor, spec: Conv2dSpec) -> Result<Self> {
        if weight.rank() != 4 {
            return Err(NeuralError::invalid(
                "Conv2d::from_parts",
                format!("weight must be rank 4, got {}", weight.shape()),
            ));
        }
        let f = weight.shape().dims()[0];
        if bias.shape().dims() != [f] {
            return Err(NeuralError::invalid(
                "Conv2d::from_parts",
                format!("bias shape {} does not match filters={f}", bias.shape()),
            ));
        }
        let gw = Tensor::zeros(weight.shape().clone());
        let gb = Tensor::zeros(bias.shape().clone());
        Ok(Conv2d {
            weight,
            bias,
            grad_weight: gw,
            grad_bias: gb,
            spec,
            cached_input: None,
        })
    }

    /// Number of input channels.
    pub fn in_channels(&self) -> usize {
        self.weight.shape().dims()[1]
    }

    /// Number of output channels (filters).
    pub fn out_channels(&self) -> usize {
        self.weight.shape().dims()[0]
    }

    /// Kernel height and width.
    pub fn kernel(&self) -> (usize, usize) {
        (self.weight.shape().dims()[2], self.weight.shape().dims()[3])
    }

    /// The stride/padding spec.
    pub fn spec(&self) -> Conv2dSpec {
        self.spec
    }

    fn take_input(&mut self) -> Result<Tensor> {
        self.cached_input
            .take()
            .ok_or(NeuralError::MissingCache { layer: "Conv2d" })
    }
}

impl Layer for Conv2d {
    fn kind(&self) -> LayerKind {
        LayerKind::Conv2d {
            in_channels: self.in_channels(),
            out_channels: self.out_channels(),
            kernel: self.kernel(),
            spec: self.spec,
        }
    }

    fn forward(&self, input: &Tensor) -> Result<Tensor> {
        Ok(conv2d(input, &self.weight, Some(&self.bias), self.spec)?)
    }

    fn forward_train(&mut self, input: &Tensor) -> Result<Tensor> {
        let out = self.forward(input)?;
        self.cached_input = Some(input.clone());
        Ok(out)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        let input = self.take_input()?;
        let grads = conv2d_backward(&input, &self.weight, grad_output, self.spec)?;
        self.grad_weight.axpy(1.0, &grads.grad_weight)?;
        self.grad_bias.axpy(1.0, &grads.grad_bias)?;
        Ok(grads.grad_input)
    }

    fn backward_params(&mut self, grad_output: &Tensor) -> Result<()> {
        let input = self.take_input()?;
        let (gw, gb) = conv2d_backward_params(&input, &self.weight, grad_output, self.spec)?;
        self.grad_weight.axpy(1.0, &gw)?;
        self.grad_bias.axpy(1.0, &gb)?;
        Ok(())
    }

    fn params_and_grads(&mut self) -> Vec<ParamGrad<'_>> {
        vec![
            ParamGrad {
                param: &mut self.weight,
                grad: &mut self.grad_weight,
            },
            ParamGrad {
                param: &mut self.bias,
                grad: &mut self.grad_bias,
            },
        ]
    }

    fn params(&self) -> Vec<&Tensor> {
        vec![&self.weight, &self.bias] // sncheck:allow(hot-path-transitive-alloc): two-element parameter list, built once per characterization profile, never per frame
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn construction_validates() {
        let mut rng = StdRng::seed_from_u64(0);
        assert!(Conv2d::new(0, 1, (3, 3), Conv2dSpec::unit(), &mut rng).is_err());
        assert!(Conv2d::new(1, 1, (0, 3), Conv2dSpec::unit(), &mut rng).is_err());
        assert!(Conv2d::from_parts(
            Tensor::zeros([2, 1, 3, 3]),
            Tensor::zeros([3]),
            Conv2dSpec::unit()
        )
        .is_err());
    }

    #[test]
    fn identity_kernel_preserves_input() {
        // A 1×1 kernel with weight 1 and bias 0 is the identity.
        let conv = Conv2d::from_parts(
            Tensor::ones([1, 1, 1, 1]),
            Tensor::zeros([1]),
            Conv2dSpec::unit(),
        )
        .unwrap();
        let x = Tensor::from_fn([1, 1, 3, 4], |i| (i[2] * 4 + i[3]) as f32);
        assert_eq!(conv.forward(&x).unwrap(), x);
    }

    #[test]
    fn pilotnet_geometry() {
        let mut rng = StdRng::seed_from_u64(1);
        // First PilotNet conv: 5×5 stride 2 on 60×160.
        let conv = Conv2d::new(1, 24, (5, 5), Conv2dSpec::new((2, 2), (0, 0)), &mut rng).unwrap();
        let y = conv.forward(&Tensor::zeros([1, 1, 60, 160])).unwrap();
        assert_eq!(y.shape().dims(), &[1, 24, 28, 78]);
        assert_eq!(conv.kernel(), (5, 5));
        assert_eq!(conv.in_channels(), 1);
        assert_eq!(conv.out_channels(), 24);
    }

    #[test]
    fn backward_accumulates_and_returns_input_grad() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut conv = Conv2d::new(2, 3, (3, 3), Conv2dSpec::unit(), &mut rng).unwrap();
        let x = {
            let mut t = Tensor::zeros([1, 2, 6, 6]);
            ndtensor::fill_uniform(&mut t, &mut rng, -1.0, 1.0).unwrap();
            t
        };
        let out = conv.forward_train(&x).unwrap();
        let gin = conv.backward(&Tensor::ones(out.shape().clone())).unwrap();
        assert_eq!(gin.shape(), x.shape());

        // Finite-difference check on one weight.
        let eps = 1e-2;
        let analytic = {
            let pgs = conv.params_and_grads();
            pgs[0].grad.as_slice()[0]
        };
        let loss = |c: &Conv2d| c.forward(&x).unwrap().sum();
        let mut wp = conv.params()[0].clone();
        wp.as_mut_slice()[0] += eps;
        let mut wm = conv.params()[0].clone();
        wm.as_mut_slice()[0] -= eps;
        let b = conv.params()[1].clone();
        let cp = Conv2d::from_parts(wp, b.clone(), conv.spec()).unwrap();
        let cm = Conv2d::from_parts(wm, b, conv.spec()).unwrap();
        let numeric = (loss(&cp) - loss(&cm)) / (2.0 * eps);
        assert!(
            (numeric - analytic).abs() < 2e-2 * (1.0 + numeric.abs()),
            "{numeric} vs {analytic}"
        );
    }

    /// `backward_params` leaves the weight and bias gradients bit-equal
    /// to `backward`'s, and consumes the cache like it.
    #[test]
    fn backward_params_matches_backward_bitwise() {
        let mut rng = StdRng::seed_from_u64(9);
        for spec in [
            Conv2dSpec::new((2, 2), (0, 0)),
            Conv2dSpec::new((1, 1), (1, 1)),
        ] {
            let mut full = Conv2d::new(2, 5, (3, 3), spec, &mut rng).unwrap();
            let mut params_only =
                Conv2d::from_parts(full.params()[0].clone(), full.params()[1].clone(), spec)
                    .unwrap();
            let mut x = Tensor::zeros([3, 2, 9, 11]);
            ndtensor::fill_uniform(&mut x, &mut rng, -1.0, 1.0).unwrap();
            // Two steps, so the gradients accumulate onto non-zero values.
            for step in 0..2 {
                let out = full.forward_train(&x).unwrap();
                params_only.forward_train(&x).unwrap();
                let mut g = Tensor::zeros(out.shape().clone());
                ndtensor::fill_uniform(&mut g, &mut rng, -1.0, 1.0).unwrap();
                g.map_inplace(|v| if v < 0.0 { 0.0 } else { v });
                full.backward(&g).unwrap();
                params_only.backward_params(&g).unwrap();
                let (a, b) = (full.params_and_grads(), params_only.params_and_grads());
                let bits =
                    |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                for (pa, pb) in a.iter().zip(&b) {
                    assert_eq!(bits(pa.grad), bits(pb.grad), "step {step}");
                }
                assert!(matches!(
                    params_only.backward_params(&g),
                    Err(NeuralError::MissingCache { .. })
                ));
            }
        }
    }

    #[test]
    fn backward_without_cache_errors() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut conv = Conv2d::new(1, 1, (3, 3), Conv2dSpec::unit(), &mut rng).unwrap();
        assert!(matches!(
            conv.backward(&Tensor::zeros([1, 1, 2, 2])),
            Err(NeuralError::MissingCache { .. })
        ));
    }

    #[test]
    fn param_count() {
        let mut rng = StdRng::seed_from_u64(1);
        let conv = Conv2d::new(3, 8, (5, 5), Conv2dSpec::unit(), &mut rng).unwrap();
        assert_eq!(conv.param_count(), 8 * 3 * 5 * 5 + 8);
    }
}
