use std::sync::OnceLock;

use ndtensor::{matmul, matmul_a_bt, matmul_assign, matmul_at_b, matmul_at_b_acc, Tensor};
use rand::Rng;

use crate::layer::{Layer, LayerKind, ParamGrad};
use crate::{NeuralError, Result};

/// A fully-connected layer computing `y = x·W + b`.
///
/// * weights `W`: `[in_features, out_features]`, He-normal initialised
/// * bias `b`: `[out_features]`, zero initialised
/// * input: `[N, in_features]`, output: `[N, out_features]`
///
/// The forward pass is weight-stationary: in `x · W` every input feature
/// reads one contiguous weight row. A flag saying whether every weight is
/// finite is computed on the first forward pass and dropped whenever
/// [`Layer::params_and_grads`] hands out the weights for writing. With
/// all-finite weights the product runs through [`matmul`], which skips
/// exact-zero inputs (most of a ReLU output); otherwise through
/// [`matmul_assign`], which never skips, so a NaN or `±∞` weight reaches
/// its output even through a zero input. Either way the output
/// bits are those of `x · W` computed one dot product at a time.
///
/// The backward pass accumulates `dW += xᵀ·g` and returns `dx = g·Wᵀ`;
/// [`Layer::backward_params`] skips `dx`. [`Layer::zero_grads`] leaves
/// `dW` unwritten and marks it zero, and the next backward assigns `xᵀ·g`
/// instead of adding it to zeros: the same bits, since the product's
/// chains start at `+0.0` and so are never `-0.0`, and `0.0 + v` is `v`.
/// [`Layer::params_and_grads`] writes the zeros first if no backward ran,
/// so every reader sees zeros. Detector files keep their own weight
/// layout, which [`crate::serialize`] converts.
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
    /// Every weight is finite, so exact-zero inputs may be skipped;
    /// derived on first use.
    finite: OnceLock<bool>,
    /// `grad_weight` is logically all zeros but holds stale values:
    /// [`Layer::zero_grads`] ran and no backward or reader since.
    grad_weight_cleared: bool,
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
        // Drawn output-major, the order seeded detectors were trained
        // with, then stored `[in, out]`.
        let mut drawn = Tensor::zeros([out_features, in_features]);
        ndtensor::fill_he_normal(&mut drawn, rng, in_features)?;
        Self::from_parts(drawn.transpose2d()?, Tensor::zeros([out_features]))
    }

    /// Creates a layer with explicit weights `[in, out]` and bias `[out]`
    /// (used by deserialization and tests).
    ///
    /// # Errors
    ///
    /// Fails when `weight` is not rank 2 or `bias` does not match its
    /// trailing dimension.
    pub fn from_parts(weight: Tensor, bias: Tensor) -> Result<Self> {
        if weight.rank() != 2 {
            return Err(NeuralError::invalid(
                "Dense::from_parts",
                format!("weight must be rank 2, got {}", weight.shape()),
            ));
        }
        let out = weight.shape().dims()[1];
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
            finite: OnceLock::new(),
            grad_weight_cleared: false,
        })
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.weight.shape().dims()[0]
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.weight.shape().dims()[1]
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

    fn compute(&self, input: &Tensor) -> Result<Tensor> {
        self.check_input(input)?;
        let finite = *self
            .finite
            .get_or_init(|| self.weight.as_slice().iter().all(|v| v.is_finite()));
        let mut out = if finite {
            matmul(input, &self.weight)?
        } else {
            matmul_assign(input, &self.weight)?
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
        self.backward_params(grad_output)?;
        // dx = g·Wᵀ.
        Ok(matmul_a_bt(grad_output, &self.weight)?)
    }

    fn backward_params(&mut self, grad_output: &Tensor) -> Result<()> {
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
        // dW += xᵀ·g, each element's product chain added once complete
        // (assigned when dW is all zeros); db += column sums of g.
        if self.grad_weight_cleared {
            self.grad_weight = matmul_at_b(&input, grad_output)?;
            self.grad_weight_cleared = false;
        } else {
            matmul_at_b_acc(&input, grad_output, &mut self.grad_weight)?;
        }
        let f = self.out_features();
        let g = grad_output.as_slice();
        let gb = self.grad_bias.as_mut_slice();
        for row in g.chunks(f) {
            for (acc, &v) in gb.iter_mut().zip(row) {
                *acc += v;
            }
        }
        Ok(())
    }

    fn params_and_grads(&mut self) -> Vec<ParamGrad<'_>> {
        // The caller may write the weights: the flag would go stale.
        self.finite = OnceLock::new();
        if self.grad_weight_cleared {
            self.grad_weight.as_mut_slice().fill(0.0);
            self.grad_weight_cleared = false;
        }
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
    /// all-finite flag survives: gradient saliency zeroes grads every
    /// frame. `dW` is only marked zero; see the type's docs.
    fn zero_grads(&mut self) {
        self.grad_weight_cleared = true;
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

    fn layer_with(w: Vec<f32>, b: Vec<f32>, inp: usize, out: usize) -> Dense {
        Dense::from_parts(
            Tensor::from_vec([inp, out], w).unwrap(),
            Tensor::from_vec([out], b).unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn forward_computes_affine_map() {
        // y = x·W + b with W = [[1, 3], [2, 4]], b = [10, 20].
        let layer = layer_with(vec![1., 3., 2., 4.], vec![10., 20.], 2, 2);
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

    /// `x·W + b` one dot product at a time: each output is a chain from
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
                    acc += xs[i * inp + l] * w[l * out + j];
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
                inp,
                out,
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
            assert_eq!(layer.finite.get(), Some(&true), "the skipping path ran");
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
                    w[2 * out + col] = bad; // input 2
                    let layer = layer_with(w, vec![0.0; out], inp, out);
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

    /// A layer with no outputs — an `[in, 0]` weight a detector file may
    /// hold — serves an empty `[N, 0]` output instead of panicking.
    #[test]
    fn zero_output_layer_forwards_empty() {
        let layer = layer_with(Vec::new(), Vec::new(), 4, 0);
        let x = Tensor::from_vec([2, 4], vec![0.5; 8]).unwrap();
        assert_eq!(layer.forward(&x).unwrap().shape().dims(), &[2, 0]);
    }

    /// A layer that served with finite weights and then took a NaN through
    /// `set_params` drops its all-finite flag.
    #[test]
    fn nan_after_serving_finite_still_poisons_through_zero_input() {
        let (inp, out) = (70, 65);
        let mut layer = layer_with(pseudo(out * inp, 3, 0), pseudo(out, 4, 0), inp, out);
        let x = Tensor::from_vec([2, inp], zero_heavy(2, inp, 5)).unwrap();
        assert!(layer
            .forward(&x)
            .unwrap()
            .as_slice()
            .iter()
            .all(|v| v.is_finite()));
        assert_eq!(layer.finite.get(), Some(&true));

        let mut w = pseudo(out * inp, 3, 0);
        let zero_input = (0..inp).find(|&l| x.as_slice()[l] == 0.0).unwrap();
        w[zero_input * out + 10] = f32::NAN; // output 10
        layer
            .set_params(&[
                Tensor::from_vec([inp, out], w).unwrap(),
                Tensor::from_vec([out], pseudo(out, 4, 0)).unwrap(),
            ])
            .unwrap();
        let y = layer.forward(&x).unwrap();
        assert!(y.as_slice()[10].is_nan(), "got {}", y.as_slice()[10]);
        assert_eq!(layer.finite.get(), Some(&false));
    }

    /// The derived all-finite flag never outlives a weight change.
    #[test]
    fn forward_follows_set_params_and_optimizer_steps() {
        use crate::optim::{Adam, Optimizer};
        let (inp, out) = (70, 65);
        let mut layer = layer_with(pseudo(out * inp, 3, 0), pseudo(out, 4, 0), inp, out);
        let x = Tensor::from_vec([3, inp], pseudo(3 * inp, 5, 0)).unwrap();
        let fresh = |layer: &Dense| {
            let rebuilt = Dense::from_parts(layer.weight.clone(), layer.bias.clone()).unwrap();
            forward_bits(&rebuilt, &x)
        };
        let before = forward_bits(&layer, &x);

        let w = Tensor::from_vec([inp, out], pseudo(out * inp, 6, 0)).unwrap();
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

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Every gradient of `net` after one training step on `x`, through
    /// [`crate::Network::backward`] or [`crate::Network::backward_params`].
    fn network_grads(net: &mut crate::Network, x: &Tensor, params_only: bool) -> Vec<Vec<u32>> {
        let y = net.forward_train(x).unwrap();
        let g = Tensor::from_vec(y.shape().clone(), pseudo(y.len(), 9, 3)).unwrap();
        if params_only {
            net.backward_params(&g).unwrap();
        } else {
            net.backward(&g).unwrap();
        }
        net.params_and_grads()
            .iter()
            .map(|pg| bits(pg.grad.as_slice()))
            .collect()
    }

    /// On zero-heavy `x` and `g`, `dW` is the naive chain over the batch,
    /// `db` the column sums and `dx` the chain over outputs ascending, each
    /// from `0.0`; `backward_params` leaves the same gradient bits and
    /// consumes the cache like `backward`.
    #[test]
    fn backward_is_bit_equal_to_naive_chains_on_both_entry_points() {
        let inp = 70;
        for (case, out) in [1usize, 63, 64, 65, 130].into_iter().enumerate() {
            let seed = 10 * case as u64;
            let (w, b) = (pseudo(inp * out, seed, 0), pseudo(out, seed + 1, 0));
            for m in [1usize, 2, 15] {
                let xs = zero_heavy(m, inp, seed + m as u64);
                let gs = zero_heavy(m, out, seed + 7 * m as u64 + 1);
                let (x, g) = (
                    Tensor::from_vec([m, inp], xs.clone()).unwrap(),
                    Tensor::from_vec([m, out], gs.clone()).unwrap(),
                );
                let mut dw = Vec::new();
                for l in 0..inp {
                    for j in 0..out {
                        let mut acc = 0.0f32;
                        for i in 0..m {
                            acc += xs[i * inp + l] * gs[i * out + j];
                        }
                        dw.push(acc.to_bits());
                    }
                }
                let db: Vec<u32> = (0..out)
                    .map(|j| {
                        (0..m)
                            .fold(0.0f32, |acc, i| acc + gs[i * out + j])
                            .to_bits()
                    })
                    .collect();
                let mut dx = Vec::new();
                for i in 0..m {
                    for l in 0..inp {
                        let mut acc = 0.0f32;
                        for j in 0..out {
                            acc += gs[i * out + j] * w[l * out + j];
                        }
                        dx.push(acc.to_bits());
                    }
                }

                let case = format!("m{m} out{out}");
                let mut full = layer_with(w.clone(), b.clone(), inp, out);
                let mut params_only = layer_with(w.clone(), b.clone(), inp, out);
                full.forward_train(&x).unwrap();
                params_only.forward_train(&x).unwrap();
                let got_dx = full.backward(&g).unwrap();
                params_only.backward_params(&g).unwrap();
                assert_eq!(bits(got_dx.as_slice()), dx, "dx {case}");
                for layer in [&full, &params_only] {
                    assert_eq!(bits(layer.grad_weight.as_slice()), dw, "dW {case}");
                    assert_eq!(bits(layer.grad_bias.as_slice()), db, "db {case}");
                }
                assert!(matches!(
                    full.backward(&g),
                    Err(NeuralError::MissingCache { .. })
                ));
                assert!(matches!(
                    params_only.backward_params(&g),
                    Err(NeuralError::MissingCache { .. })
                ));
            }
        }

        use crate::layer::{Conv2d, Flatten, ReLU};
        use ndtensor::Conv2dSpec;
        let dense_first = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            crate::Network::new()
                .with(Dense::new(inp, 65, &mut rng).unwrap())
                .with(ReLU::new())
                .with(Dense::new(65, 3, &mut rng).unwrap())
        };
        let conv_first = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            crate::Network::new()
                .with(Conv2d::new(1, 2, (3, 3), Conv2dSpec::unit(), &mut rng).unwrap())
                .with(ReLU::new())
                .with(Flatten::new())
                .with(Dense::new(2 * 5 * 12, 4, &mut rng).unwrap())
        };
        let x = Tensor::from_vec([15, inp], zero_heavy(15, inp, 3)).unwrap();
        assert_eq!(
            network_grads(&mut dense_first(1), &x, false),
            network_grads(&mut dense_first(1), &x, true)
        );
        let x = Tensor::from_vec([2, 1, 7, 14], zero_heavy(2, 98, 4)).unwrap();
        assert_eq!(
            network_grads(&mut conv_first(2), &x, false),
            network_grads(&mut conv_first(2), &x, true)
        );
    }

    #[test]
    fn construction_validates() {
        let mut rng = StdRng::seed_from_u64(0);
        assert!(Dense::new(0, 2, &mut rng).is_err());
        assert!(Dense::new(2, 0, &mut rng).is_err());
        assert!(Dense::from_parts(Tensor::zeros([3, 2]), Tensor::zeros([3])).is_err());
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
        // Weight gradient: dL/dW[i][o] = Σ_batch x[n][i].
        let pgs = layer.params_and_grads();
        let gw = pgs[0].grad.clone();
        for o in 0..2 {
            for i in 0..3 {
                let expect = x.at(&[0, i]).unwrap() + x.at(&[1, i]).unwrap();
                assert!((gw.at(&[i, o]).unwrap() - expect).abs() < 1e-5);
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
        assert!(pgs[0].grad.as_slice().iter().all(|v| v.to_bits() == 0));
    }

    /// `zero_grads` followed by a backward assigns `dW = xᵀ·g`, with the
    /// bits of writing zeros and accumulating onto them (as `zero_grads`
    /// did before): over two training steps, each followed by a second
    /// backward that accumulates onto the assigned `dW`, through both
    /// backward entry points, with NaN, ±∞ and ±0.0 in `x` and `g`. A
    /// reader between `zero_grads` and the backward sees zeros.
    #[test]
    fn zero_grads_then_backward_matches_zero_then_accumulate() {
        let nan_bits = |t: &Tensor| -> Vec<u32> {
            t.as_slice()
                .iter()
                .map(|v| {
                    if v.is_nan() {
                        f32::NAN.to_bits()
                    } else {
                        v.to_bits()
                    }
                })
                .collect()
        };
        let (m, inp, out) = (5usize, 70usize, 65usize);
        let (w, b) = (pseudo(inp * out, 60, 0), pseudo(out, 61, 0));
        let mut fast = layer_with(w.clone(), b.clone(), inp, out);
        let mut slow = layer_with(w, b, inp, out);
        let hostile = |seed: u64, len: usize, specials: &[(usize, f32)]| {
            let mut v = zero_heavy(1, len, seed);
            for (i, x) in pseudo(len, seed + 1, 0).into_iter().enumerate() {
                if i % 3 == 0 {
                    v[i] = x;
                }
            }
            for &(at, s) in specials {
                v[at % len] = s;
            }
            v
        };
        for step in 0..2u64 {
            let seed = 70 + 10 * step;
            let specials = [(3, f32::NAN), (10, -0.0), (20, f32::INFINITY), (41, 0.0)];
            let x = Tensor::from_vec([m, inp], hostile(seed, m * inp, &specials)).unwrap();
            let g_specials = [(1, -0.0), (7, f32::NAN), (9, f32::NEG_INFINITY), (30, 0.0)];
            let g = Tensor::from_vec([m, out], hostile(seed + 2, m * out, &g_specials)).unwrap();
            let x2 = Tensor::from_vec([m, inp], pseudo(m * inp, seed + 4, 3)).unwrap();
            let g2 = Tensor::from_vec([m, out], pseudo(m * out, seed + 5, 2)).unwrap();

            fast.zero_grads();
            slow.zero_grads();
            for pg in slow.params_and_grads() {
                pg.grad.as_mut_slice().fill(0.0);
            }
            assert!(slow.grad_weight.as_slice().iter().all(|v| v.to_bits() == 0));
            fast.forward_train(&x).unwrap();
            slow.forward_train(&x).unwrap();
            if step == 0 {
                fast.backward_params(&g).unwrap();
                slow.backward_params(&g).unwrap();
            } else {
                fast.backward(&g).unwrap();
                slow.backward(&g).unwrap();
            }
            let label = format!("step {step}");
            assert_eq!(
                nan_bits(&fast.grad_weight),
                nan_bits(&slow.grad_weight),
                "{label} dW"
            );
            assert_eq!(
                nan_bits(&fast.grad_bias),
                nan_bits(&slow.grad_bias),
                "{label} db"
            );

            fast.forward_train(&x2).unwrap();
            slow.forward_train(&x2).unwrap();
            fast.backward_params(&g2).unwrap();
            slow.backward_params(&g2).unwrap();
            assert_eq!(
                nan_bits(&fast.grad_weight),
                nan_bits(&slow.grad_weight),
                "{label} dW acc"
            );
            assert_eq!(
                nan_bits(&fast.grad_bias),
                nan_bits(&slow.grad_bias),
                "{label} db acc"
            );
        }
    }

    /// `dW` accumulates in the stored gradient: two `backward_params`
    /// calls without `zero_grads`, onto a non-zero gradient, leave
    /// `(grad + dW₁) + dW₂` with each `dW = xᵀ·g` a separate product
    /// tensor — the accumulation as it ran before it moved into the
    /// kernel's store — bit for bit. Inputs are ReLU-like (exact zeros,
    /// whose terms the product skips) and dense, at the paper's batch of
    /// 32 and the 9600 → 64 encode and 64 → 9600 decode widths.
    #[test]
    fn backward_params_accumulates_like_separate_products() {
        // Schoolbook xᵀ·g: each element one chain from 0.0 over ascending
        // samples, skipping exact-zero inputs.
        fn product(x: &[f32], g: &[f32], m: usize, inp: usize, out: usize) -> Vec<f32> {
            let mut dw = vec![0.0f32; inp * out];
            for i in 0..inp {
                for j in 0..out {
                    let mut acc = 0.0f32;
                    for l in 0..m {
                        if x[l * inp + i] != 0.0 {
                            acc += x[l * inp + i] * g[l * out + j];
                        }
                    }
                    dw[i * out + j] = acc;
                }
            }
            dw
        }
        let m = 32;
        for (case, (inp, out)) in [(9600usize, 64usize), (64, 9600), (70, 65)]
            .into_iter()
            .enumerate()
        {
            let seed = 40 + case as u64;
            let mut layer = layer_with(
                pseudo(inp * out, seed, 0),
                pseudo(out, seed + 1, 0),
                inp,
                out,
            );
            let start = pseudo(inp * out, seed + 2, 0);
            layer.params_and_grads()[0]
                .grad
                .as_mut_slice()
                .copy_from_slice(&start);
            let mut want = start;
            for (step, x) in [zero_heavy(m, inp, seed + 3), pseudo(m * inp, seed + 4, 7)]
                .into_iter()
                .enumerate()
            {
                let g = pseudo(m * out, seed + 5 + step as u64, 0);
                let dw = product(&x, &g, m, inp, out);
                for (w, d) in want.iter_mut().zip(&dw) {
                    *w += d;
                }
                layer
                    .forward_train(&Tensor::from_vec([m, inp], x).unwrap())
                    .unwrap();
                layer
                    .backward_params(&Tensor::from_vec([m, out], g).unwrap())
                    .unwrap();
            }
            let got: Vec<u32> = layer
                .grad_weight
                .as_slice()
                .iter()
                .map(|v| v.to_bits())
                .collect();
            let want: Vec<u32> = want.iter().map(|v| v.to_bits()).collect();
            assert!(got == want, "{inp} -> {out}: accumulated dW differs");
        }
    }

    #[test]
    fn param_count_and_set_params() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut layer = Dense::new(4, 3, &mut rng).unwrap();
        assert_eq!(layer.param_count(), 4 * 3 + 3);
        let new_w = Tensor::ones([4, 3]);
        let new_b = Tensor::ones([3]);
        layer.set_params(&[new_w.clone(), new_b]).unwrap();
        assert_eq!(layer.params()[0], &new_w);
        assert!(layer.set_params(&[Tensor::zeros([2, 2])]).is_err());
    }
}
