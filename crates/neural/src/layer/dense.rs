use std::sync::OnceLock;

use ndtensor::{matmul, matmul_assign, matmul_assign_finite, matmul_at_b, Tensor};
use rand::Rng;

use crate::layer::{Layer, LayerKind, ParamGrad};
use crate::{NeuralError, Result};

/// A fully-connected layer computing `y = x·Wᵀ + b`.
///
/// * weights `W`: `[out_features, in_features]`, He-normal initialised
/// * bias `b`: `[out_features]`, zero initialised
/// * input: `[N, in_features]`, output: `[N, out_features]`
///
/// The forward pass is weight-stationary: it computes `x · Wt` on a
/// derived `Wt = Wᵀ` (`[in_features, out_features]`), so every input
/// feature reads one contiguous weight row. `Wt` is built on the first
/// forward pass, together with a flag saying whether every weight is
/// finite, and both are dropped whenever [`Layer::params_and_grads`]
/// hands out the weights for writing, so the layer holds its weights
/// twice while it serves. With all-finite weights the product runs
/// through [`matmul_assign_finite`], which skips exact-zero inputs (most
/// of a ReLU output); otherwise through [`matmul_assign`], which never
/// skips, so a NaN or `±∞` weight reaches its output even through a zero
/// input. Either way the output bits are those of `x · Wᵀ` computed one
/// dot product at a time.
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
    weight_t: OnceLock<WeightT>,
}

/// The forward pass's `[in, out]` weight copy.
#[derive(Debug)]
struct WeightT {
    t: Tensor,
    /// Every element of `t` is finite, so exact-zero inputs may be skipped.
    finite: bool,
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

    /// The `[in, out]` weight copy and its all-finite flag, built on first
    /// use.
    fn weight_t(&self) -> Result<&WeightT> {
        if let Some(wt) = self.weight_t.get() {
            return Ok(wt);
        }
        let t = self.weight.transpose2d()?;
        let finite = t.as_slice().iter().all(|v| v.is_finite());
        Ok(self.weight_t.get_or_init(|| WeightT { t, finite }))
    }

    fn compute(&self, input: &Tensor) -> Result<Tensor> {
        self.check_input(input)?;
        let wt = self.weight_t()?;
        let mut out = if wt.finite {
            matmul_assign_finite(input, &wt.t)?
        } else {
            matmul_assign(input, &wt.t)?
        };
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
        // The caller may write the weights: the copy and its flag would
        // go stale.
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

    /// Also on zero-heavy inputs, where the all-finite layer skips the
    /// zeros: the skip keeps the bits of the never-skipping chains.
    #[test]
    fn forward_is_bit_equal_to_naive_dot_products() {
        let inp = 70;
        let (mut zeros, mut total) = (0usize, 0usize);
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
            for m in [1usize, 2, 15] {
                let xs = zero_heavy(m, inp, seed + m as u64);
                zeros += xs.iter().filter(|&&v| v == 0.0).count();
                total += xs.len();
                let x = Tensor::from_vec([m, inp], xs).unwrap();
                assert_eq!(
                    forward_bits(&layer, &x),
                    naive_forward(&layer, &x),
                    "m{m} out{out} zero-heavy"
                );
            }
            assert!(layer.weight_t().unwrap().finite, "the skipping path ran");
        }
        assert!(zeros * 10 >= total * 9, "{zeros} zeros of {total}");
    }

    /// `m × inp` inputs shaped like a ReLU output: at most one in 16
    /// non-zero, about a third of the zeros `-0.0`, and every third row
    /// from row 1 entirely zero.
    fn zero_heavy(m: usize, inp: usize, seed: u64) -> Vec<f32> {
        let values = pseudo(m * inp, seed, 0);
        (0..m * inp)
            .map(|x| {
                if (x / inp) % 3 != 1 && (x as u64 + seed).is_multiple_of(16) {
                    values[x]
                } else if x.is_multiple_of(3) {
                    -0.0
                } else {
                    0.0
                }
            })
            .collect()
    }

    /// A non-finite weight reaches its output even through an exact-zero
    /// input (0 · NaN and 0 · ∞ are NaN), so a corrupt detector cannot
    /// score a frame as finite — in a 64-wide register block and in the
    /// column remainder, on the two-row and remainder-row paths.
    #[test]
    fn non_finite_weight_poisons_output_through_zero_input() {
        let inp = 4;
        for out in [3usize, 64, 65, 130] {
            // Columns inside a 64-wide block, and the first, a middle and
            // the last column of the column remainder, so a bad remainder
            // column has remainder neighbours wherever there are some.
            let (rem, mut cols) = (out % 64, Vec::new());
            if out >= 64 {
                cols.extend([37, 63]);
            }
            if rem > 0 {
                cols.extend([out - rem, out - rem + rem / 2, out - 1]);
            }
            cols.dedup();
            for bad in [f32::NAN, f32::INFINITY] {
                for &col in &cols {
                    let mut w = pseudo(out * inp, 1, 0);
                    w[col * inp + 2] = bad; // input 2
                    let layer = layer_with(w, vec![0.0; out], out, inp);
                    for m in [1usize, 2, 3, 15] {
                        let xs = (0..m * inp)
                            .map(|x| {
                                if x % inp == 2 {
                                    0.0
                                } else {
                                    0.5 - (x % 3) as f32
                                }
                            })
                            .collect();
                        let y = layer
                            .forward(&Tensor::from_vec([m, inp], xs).unwrap())
                            .unwrap();
                        for (i, row) in y.as_slice().chunks(out).enumerate() {
                            for (j, v) in row.iter().enumerate() {
                                assert!(
                                    if j == col { v.is_nan() } else { v.is_finite() },
                                    "{bad} out{out} col{col} m{m}: y[{i}][{j}] = {v}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    /// A layer with no outputs — a `[0, in]` weight a detector file may
    /// hold — serves an empty `[N, 0]` output instead of panicking.
    #[test]
    fn zero_output_layer_forwards_empty() {
        let layer = layer_with(Vec::new(), Vec::new(), 0, 4);
        let x = Tensor::from_vec([2, 4], vec![0.5; 8]).unwrap();
        assert_eq!(layer.forward(&x).unwrap().shape().dims(), &[2, 0]);
    }

    /// A layer that served with finite weights and then took a NaN through
    /// `set_params` drops its all-finite flag with its weight copy.
    #[test]
    fn nan_after_serving_finite_still_poisons_through_zero_input() {
        let (inp, out) = (70, 65);
        let mut layer = layer_with(pseudo(out * inp, 3, 0), pseudo(out, 4, 0), out, inp);
        let x = Tensor::from_vec([2, inp], zero_heavy(2, inp, 5)).unwrap();
        assert!(layer
            .forward(&x)
            .unwrap()
            .as_slice()
            .iter()
            .all(|v| v.is_finite()));
        assert!(layer.weight_t().unwrap().finite);

        let mut w = pseudo(out * inp, 3, 0);
        let zero_input = (0..inp).find(|&l| x.as_slice()[l] == 0.0).unwrap();
        w[10 * inp + zero_input] = f32::NAN; // output 10
        layer
            .set_params(&[
                Tensor::from_vec([out, inp], w).unwrap(),
                Tensor::from_vec([out], pseudo(out, 4, 0)).unwrap(),
            ])
            .unwrap();
        let y = layer.forward(&x).unwrap();
        assert!(y.as_slice()[10].is_nan(), "got {}", y.as_slice()[10]);
        assert!(!layer.weight_t().unwrap().finite);
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
