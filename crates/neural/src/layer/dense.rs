use std::sync::OnceLock;

use ndtensor::{matmul, matmul_assign, matmul_at_b, Tensor};
use rand::Rng;

use crate::layer::{Layer, LayerKind, ParamGrad};
use crate::{NeuralError, Result};

/// A fully-connected layer computing `y = x·Wᵀ + b`.
///
/// * weights `W`: `[out_features, in_features]`, He-normal initialised
/// * bias `b`: `[out_features]`, zero initialised
/// * input: `[N, in_features]`, output: `[N, out_features]`
///
/// The forward pass is weight-stationary: it computes `x · Wt` with
/// [`matmul_assign`] on a derived `Wt = Wᵀ` (`[in_features,
/// out_features]`), so every input feature reads one contiguous weight
/// row. `Wt` is built on the first forward pass and dropped whenever
/// [`Layer::params_and_grads`] hands out the weights for writing, so the
/// layer holds its weights twice while it serves. The output bits are
/// those of `x · Wᵀ` computed one dot product at a time.
///
/// # Example
///
/// ```
/// use neural::layer::{Dense, Layer};
/// use ndtensor::Tensor;
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), neural::NeuralError> {
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let layer = Dense::new(3, 2, &mut rng)?;
/// let y = layer.forward(&Tensor::zeros([4, 3]))?;
/// assert_eq!(y.shape().dims(), &[4, 2]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Dense {
    weight: Tensor,
    bias: Tensor,
    grad_weight: Tensor,
    grad_bias: Tensor,
    cached_input: Option<Tensor>,
    /// `weight` transposed to `[in, out]`, derived on first use.
    weight_t: OnceLock<Tensor>,
}

impl Dense {
    /// Creates a He-normal-initialised dense layer.
    ///
    /// # Errors
    ///
    /// Fails when either feature count is zero.
    pub fn new(in_features: usize, out_features: usize, rng: &mut impl Rng) -> Result<Self> {
        if in_features == 0 || out_features == 0 {
            return Err(NeuralError::invalid(
                "Dense::new",
                "feature counts must be non-zero",
            ));
        }
        let mut weight = Tensor::zeros([out_features, in_features]);
        ndtensor::fill_he_normal(&mut weight, rng, in_features)?;
        Ok(Dense {
            weight,
            bias: Tensor::zeros([out_features]),
            grad_weight: Tensor::zeros([out_features, in_features]),
            grad_bias: Tensor::zeros([out_features]),
            cached_input: None,
            weight_t: OnceLock::new(),
        })
    }

    /// Creates a layer with explicit weights (used by deserialization and
    /// tests).
    ///
    /// # Errors
    ///
    /// Fails when `weight` is not rank 2 or `bias` does not match its
    /// leading dimension.
    pub fn from_parts(weight: Tensor, bias: Tensor) -> Result<Self> {
        if weight.rank() != 2 {
            return Err(NeuralError::invalid(
                "Dense::from_parts",
                format!("weight must be rank 2, got {}", weight.shape()),
            ));
        }
        let out = weight.shape().dims()[0];
        if bias.shape().dims() != [out] {
            return Err(NeuralError::invalid(
                "Dense::from_parts",
                format!("bias shape {} does not match out={out}", bias.shape()),
            ));
        }
        let gw = Tensor::zeros(weight.shape().clone());
        let gb = Tensor::zeros(bias.shape().clone());
        Ok(Dense {
            weight,
            bias,
            grad_weight: gw,
            grad_bias: gb,
            cached_input: None,
            weight_t: OnceLock::new(),
        })
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.weight.shape().dims()[1]
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.weight.shape().dims()[0]
    }

    fn check_input(&self, input: &Tensor) -> Result<()> {
        if input.rank() != 2 || input.shape().dims()[1] != self.in_features() {
            return Err(NeuralError::invalid(
                "Dense::forward",
                format!(
                    "expected input [N, {}], got {}",
                    self.in_features(),
                    input.shape()
                ),
            ));
        }
        Ok(())
    }

    /// The `[in, out]` weight copy, built on first use.
    fn weight_t(&self) -> Result<&Tensor> {
        if let Some(wt) = self.weight_t.get() {
            return Ok(wt);
        }
        let wt = self.weight.transpose2d()?;
        Ok(self.weight_t.get_or_init(|| wt))
    }

    fn compute(&self, input: &Tensor) -> Result<Tensor> {
        self.check_input(input)?;
        let mut out = matmul_assign(input, self.weight_t()?)?;
        let (n, f) = (out.shape().dims()[0], out.shape().dims()[1]);
        let bias = self.bias.as_slice();
        let data = out.as_mut_slice();
        for i in 0..n {
            for j in 0..f {
                data[i * f + j] += bias[j];
            }
        }
        Ok(out)
    }
}

impl Layer for Dense {
    fn kind(&self) -> LayerKind {
        LayerKind::Dense {
            in_features: self.in_features(),
            out_features: self.out_features(),
        }
    }

    fn forward(&self, input: &Tensor) -> Result<Tensor> {
        self.compute(input)
    }

    fn forward_train(&mut self, input: &Tensor) -> Result<Tensor> {
        let out = self.compute(input)?;
        self.cached_input = Some(input.clone());
        Ok(out)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        let input = self
            .cached_input
            .take()
            .ok_or(NeuralError::MissingCache { layer: "Dense" })?;
        let n = input.shape().dims()[0];
        if grad_output.shape().dims() != [n, self.out_features()] {
            return Err(NeuralError::invalid(
                "Dense::backward",
                format!(
                    "expected grad [{n}, {}], got {}",
                    self.out_features(),
                    grad_output.shape()
                ),
            ));
        }
        // dW += gᵀ·x, db += column sums of g, dx = g·W.
        let dw = matmul_at_b(grad_output, &input)?;
        self.grad_weight.axpy(1.0, &dw)?;
        let f = self.out_features();
        let g = grad_output.as_slice();
        let gb = self.grad_bias.as_mut_slice();
        for row in g.chunks(f) {
            for (acc, &v) in gb.iter_mut().zip(row) {
                *acc += v;
            }
        }
        Ok(matmul(grad_output, &self.weight)?)
    }

    fn params_and_grads(&mut self) -> Vec<ParamGrad<'_>> {
        // The caller may write the weights: the copy would go stale.
        self.weight_t = OnceLock::new();
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

    /// Clears the gradients without [`Layer::params_and_grads`], so the
    /// weight copy survives: scoring backends zero gradients every frame.
    fn zero_grads(&mut self) {
        self.grad_weight.map_inplace(|_| 0.0);
        self.grad_bias.map_inplace(|_| 0.0);
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

    fn layer_with(w: Vec<f32>, b: Vec<f32>, out: usize, inp: usize) -> Dense {
        Dense::from_parts(
            Tensor::from_vec([out, inp], w).unwrap(),
            Tensor::from_vec([out], b).unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn forward_computes_affine_map() {
        // y = x·Wᵀ + b with W = [[1, 2], [3, 4]], b = [10, 20].
        let layer = layer_with(vec![1., 2., 3., 4.], vec![10., 20.], 2, 2);
        let x = Tensor::from_vec([1, 2], vec![1., 1.]).unwrap();
        let y = layer.forward(&x).unwrap();
        assert_eq!(y.as_slice(), &[13., 27.]);
    }

    /// Deterministic values in [-1, 1), every `zero_every`-th an exact
    /// zero (0 disables).
    fn pseudo(len: usize, seed: u64, zero_every: usize) -> Vec<f32> {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        (0..len)
            .map(|i| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                if zero_every > 0 && i % zero_every == 0 {
                    0.0
                } else {
                    ((state >> 33) as f32 / (1u64 << 31) as f32) - 1.0
                }
            })
            .collect()
    }

    /// `x·Wᵀ + b` one dot product at a time: each output is a chain from
    /// 0.0 over ascending inputs, never skipping a zero, then `+ b`.
    fn naive_forward(layer: &Dense, x: &Tensor) -> Vec<u32> {
        let (w, b) = (layer.weight.as_slice(), layer.bias.as_slice());
        let (inp, out) = (layer.in_features(), layer.out_features());
        let xs = x.as_slice();
        let m = xs.len() / inp;
        let mut y = Vec::new();
        for i in 0..m {
            for j in 0..out {
                let mut acc = 0.0f32;
                for l in 0..inp {
                    acc += xs[i * inp + l] * w[j * inp + l];
                }
                y.push((acc + b[j]).to_bits());
            }
        }
        y
    }

    fn forward_bits(layer: &Dense, x: &Tensor) -> Vec<u32> {
        let y = layer.forward(x).unwrap();
        y.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn forward_is_bit_equal_to_naive_dot_products() {
        let inp = 70;
        for (case, out) in [1usize, 63, 64, 65, 130].into_iter().enumerate() {
            let seed = 10 * case as u64;
            let layer = layer_with(
                pseudo(out * inp, seed, 0),
                pseudo(out, seed + 1, 0),
                out,
                inp,
            );
            for m in [1usize, 2, 3, 15] {
                for zero_every in [0usize, 2] {
                    let x =
                        Tensor::from_vec([m, inp], pseudo(m * inp, seed + 2, zero_every)).unwrap();
                    assert_eq!(
                        forward_bits(&layer, &x),
                        naive_forward(&layer, &x),
                        "m{m} out{out} zeros={zero_every}"
                    );
                }
            }
        }
    }

    /// A non-finite weight reaches its output even through an exact-zero
    /// input (0 · NaN and 0 · ∞ are NaN), so a corrupt detector cannot
    /// score a frame as finite.
    #[test]
    fn non_finite_weight_poisons_output_through_zero_input() {
        for bad in [f32::NAN, f32::INFINITY] {
            let mut w = pseudo(3 * 4, 1, 0);
            w[4 + 2] = bad; // output 1, input 2
            let layer = layer_with(w, vec![0.0; 3], 3, 4);
            let x = Tensor::from_vec([1, 4], vec![0.5, -0.25, 0.0, 1.0]).unwrap();
            let y = layer.forward(&x).unwrap();
            assert!(y.as_slice()[1].is_nan(), "{bad}: got {}", y.as_slice()[1]);
            assert!(y.as_slice()[0].is_finite() && y.as_slice()[2].is_finite());
        }
    }

    /// The derived weight copy never outlives a weight change.
    #[test]
    fn forward_follows_set_params_and_optimizer_steps() {
        use crate::optim::{Adam, Optimizer};
        let (inp, out) = (70, 65);
        let mut layer = layer_with(pseudo(out * inp, 3, 0), pseudo(out, 4, 0), out, inp);
        let x = Tensor::from_vec([3, inp], pseudo(3 * inp, 5, 0)).unwrap();
        let fresh = |layer: &Dense| {
            let rebuilt = Dense::from_parts(layer.weight.clone(), layer.bias.clone()).unwrap();
            forward_bits(&rebuilt, &x)
        };
        let before = forward_bits(&layer, &x);

        let w = Tensor::from_vec([out, inp], pseudo(out * inp, 6, 0)).unwrap();
        let b = Tensor::from_vec([out], pseudo(out, 7, 0)).unwrap();
        layer.set_params(&[w, b]).unwrap();
        let after_set = forward_bits(&layer, &x);
        assert_ne!(after_set, before);
        assert_eq!(after_set, fresh(&layer));

        let mut adam = Adam::new(1e-2).unwrap();
        let y = layer.forward_train(&x).unwrap();
        layer.zero_grads();
        layer.backward(&Tensor::ones(y.shape().clone())).unwrap();
        adam.step(&mut layer.params_and_grads()).unwrap();
        let after_step = forward_bits(&layer, &x);
        assert_ne!(after_step, after_set);
        assert_eq!(after_step, fresh(&layer));
    }

    #[test]
    fn construction_validates() {
        let mut rng = StdRng::seed_from_u64(0);
        assert!(Dense::new(0, 2, &mut rng).is_err());
        assert!(Dense::new(2, 0, &mut rng).is_err());
        assert!(Dense::from_parts(Tensor::zeros([2, 3]), Tensor::zeros([3])).is_err());
        assert!(Dense::from_parts(Tensor::zeros([2]), Tensor::zeros([2])).is_err());
    }

    #[test]
    fn forward_rejects_bad_input() {
        let mut rng = StdRng::seed_from_u64(0);
        let layer = Dense::new(3, 2, &mut rng).unwrap();
        assert!(layer.forward(&Tensor::zeros([2, 4])).is_err());
        assert!(layer.forward(&Tensor::zeros([3])).is_err());
    }

    #[test]
    fn backward_without_cache_errors() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut layer = Dense::new(2, 2, &mut rng).unwrap();
        assert!(matches!(
            layer.backward(&Tensor::zeros([1, 2])),
            Err(NeuralError::MissingCache { .. })
        ));
    }

    #[test]
    fn backward_gradients_match_finite_differences() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut layer = Dense::new(3, 2, &mut rng).unwrap();
        let x = Tensor::from_vec([2, 3], vec![0.5, -0.2, 0.8, 0.1, 0.4, -0.6]).unwrap();

        // Loss = sum of outputs.
        let out = layer.forward_train(&x).unwrap();
        let gin = layer.backward(&Tensor::ones(out.shape().clone())).unwrap();

        let eps = 1e-3f32;
        // Input gradient.
        for probe in 0..x.len() {
            let mut xp = x.clone();
            xp.as_mut_slice()[probe] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[probe] -= eps;
            let numeric = (layer.forward(&xp).unwrap().sum() - layer.forward(&xm).unwrap().sum())
                / (2.0 * eps);
            let analytic = gin.as_slice()[probe];
            assert!(
                (numeric - analytic).abs() < 1e-2,
                "input grad {probe}: {numeric} vs {analytic}"
            );
        }
        // Weight gradient: dL/dW[o][i] = Σ_batch x[n][i].
        let pgs = layer.params_and_grads();
        let gw = pgs[0].grad.clone();
        for o in 0..2 {
            for i in 0..3 {
                let expect = x.at(&[0, i]).unwrap() + x.at(&[1, i]).unwrap();
                assert!((gw.at(&[o, i]).unwrap() - expect).abs() < 1e-5);
            }
        }
        // Bias gradient: batch size.
        let gb = pgs[1].grad.clone();
        assert!(gb.as_slice().iter().all(|&v| (v - 2.0).abs() < 1e-6));
        drop(pgs);
    }

    #[test]
    fn gradients_accumulate_until_zeroed() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut layer = Dense::new(2, 1, &mut rng).unwrap();
        let x = Tensor::ones([1, 2]);
        for _ in 0..2 {
            let out = layer.forward_train(&x).unwrap();
            layer.backward(&Tensor::ones(out.shape().clone())).unwrap();
        }
        {
            let pgs = layer.params_and_grads();
            assert!((pgs[1].grad.as_slice()[0] - 2.0).abs() < 1e-6);
        }
        layer.zero_grads();
        let pgs = layer.params_and_grads();
        assert_eq!(pgs[1].grad.as_slice()[0], 0.0);
    }

    #[test]
    fn param_count_and_set_params() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut layer = Dense::new(4, 3, &mut rng).unwrap();
        assert_eq!(layer.param_count(), 4 * 3 + 3);
        let new_w = Tensor::ones([3, 4]);
        let new_b = Tensor::ones([3]);
        layer.set_params(&[new_w.clone(), new_b]).unwrap();
        assert_eq!(layer.params()[0], &new_w);
        assert!(layer.set_params(&[Tensor::zeros([2, 2])]).is_err());
    }
}
