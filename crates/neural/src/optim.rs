//! First-order optimizers: plain SGD and Adam.
//!
//! Adam's moment state is keyed positionally on the parameter list, which
//! is stable because a [`crate::Network`]'s layer structure is fixed after
//! construction; it validates that the list keeps the same length and
//! shapes across steps.

use ndtensor::Tensor;

use crate::layer::ParamGrad;
use crate::{NeuralError, Result};

/// A first-order optimizer over a fixed parameter list.
pub trait Optimizer: std::fmt::Debug + Send {
    /// Applies one update step given parameters and accumulated gradients.
    /// Gradients are left untouched (callers zero them explicitly).
    ///
    /// # Errors
    ///
    /// Fails when the parameter list changes shape between calls.
    fn step(&mut self, params: &mut [ParamGrad<'_>]) -> Result<()>;
}

fn validate_lr(op: &'static str, lr: f32) -> Result<()> {
    if !lr.is_finite() || lr <= 0.0 {
        return Err(NeuralError::invalid(
            op,
            format!("learning rate must be positive and finite, got {lr}"),
        ));
    }
    Ok(())
}

fn check_state(op: &'static str, state: &[Tensor], params: &[ParamGrad<'_>]) -> Result<()> {
    if state.len() != params.len() {
        return Err(NeuralError::invalid(
            op,
            format!(
                "parameter count changed: optimizer saw {}, now {}",
                state.len(),
                params.len()
            ),
        ));
    }
    for (s, pg) in state.iter().zip(params) {
        if s.shape() != pg.param.shape() {
            return Err(NeuralError::invalid(
                op,
                format!(
                    "parameter shape changed: {} vs {}",
                    s.shape(),
                    pg.param.shape()
                ),
            ));
        }
    }
    Ok(())
}

/// Plain stochastic gradient descent: `θ ← θ − lr·g`.
#[derive(Debug)]
pub struct Sgd {
    lr: f32,
}

impl Sgd {
    /// SGD with learning rate `lr`.
    ///
    /// # Errors
    ///
    /// Fails when `lr` is not positive and finite.
    pub fn new(lr: f32) -> Result<Self> {
        validate_lr("Sgd::new", lr)?;
        Ok(Sgd { lr })
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, params: &mut [ParamGrad<'_>]) -> Result<()> {
        for pg in params.iter_mut() {
            pg.param.axpy(-self.lr, pg.grad)?;
        }
        Ok(())
    }
}

/// Adam's first-moment decay `β1`.
const BETA1: f32 = 0.9;
/// Adam's second-moment decay `β2`.
const BETA2: f32 = 0.999;
/// Adam's denominator stabiliser `ε`.
const EPS: f32 = 1e-8;

/// Adam (Kingma & Ba, 2015) with bias correction and the standard
/// hyper-parameters `β1 = 0.9`, `β2 = 0.999`, `ε = 1e-8`.
#[derive(Debug)]
pub struct Adam {
    lr: f32,
    t: u64,
    m: Vec<Tensor>,
    v: Vec<Tensor>,
}

impl Adam {
    /// Adam with learning rate `lr`.
    ///
    /// # Errors
    ///
    /// Fails when `lr` is not positive and finite.
    pub fn new(lr: f32) -> Result<Self> {
        validate_lr("Adam::new", lr)?;
        Ok(Adam {
            lr,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        })
    }
}

impl Optimizer for Adam {
    fn step(&mut self, params: &mut [ParamGrad<'_>]) -> Result<()> {
        if self.m.is_empty() {
            self.m = params
                .iter()
                .map(|pg| Tensor::zeros(pg.param.shape().clone()))
                .collect();
            self.v = self.m.clone();
        }
        check_state("Adam::step", &self.m, params)?;
        self.t += 1;
        let bc1 = 1.0 - BETA1.powi(self.t as i32);
        let bc2 = 1.0 - BETA2.powi(self.t as i32);
        let lr = self.lr;
        for ((m, v), pg) in self.m.iter_mut().zip(&mut self.v).zip(params.iter_mut()) {
            // Zipped slices, one element at a time with no cross-element
            // dependence: the loop vectorises.
            let moments = m.as_mut_slice().iter_mut().zip(v.as_mut_slice());
            let terms = pg.param.as_mut_slice().iter_mut().zip(pg.grad.as_slice());
            for ((p, &gi), (mi, vi)) in terms.zip(moments) {
                *mi = BETA1 * *mi + (1.0 - BETA1) * gi;
                *vi = BETA2 * *vi + (1.0 - BETA2) * gi * gi;
                let m_hat = *mi / bc1;
                let v_hat = *vi / bc2;
                *p -= lr * m_hat / (v_hat.sqrt() + EPS);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::{Dense, Layer};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn quadratic_step(opt: &mut dyn Optimizer, theta: &mut Tensor) {
        // Minimise f(θ) = ½‖θ‖²; ∇f = θ.
        let mut grad = theta.clone();
        let mut pgs = vec![ParamGrad {
            param: theta,
            grad: &mut grad,
        }];
        opt.step(&mut pgs).unwrap();
    }

    #[test]
    fn construction_validates() {
        assert!(Sgd::new(0.0).is_err());
        assert!(Sgd::new(-1.0).is_err());
        assert!(Adam::new(f32::NAN).is_err());
    }

    #[test]
    fn sgd_shrinks_quadratic() {
        let mut theta = Tensor::from_vec([3], vec![1.0, -2.0, 0.5]).unwrap();
        let mut opt = Sgd::new(0.1).unwrap();
        let before = theta.norm_l2();
        for _ in 0..50 {
            quadratic_step(&mut opt, &mut theta);
        }
        assert!(theta.norm_l2() < before * 0.01);
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let mut theta = Tensor::from_vec([2], vec![5.0, -5.0]).unwrap();
        let mut opt = Sgd::new(0.05).unwrap();
        for _ in 0..200 {
            quadratic_step(&mut opt, &mut theta);
        }
        assert!(theta.norm_l2() < 0.05, "‖θ‖ = {}", theta.norm_l2());
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut theta = Tensor::from_vec([4], vec![3.0, -1.0, 2.0, -4.0]).unwrap();
        let mut opt = Adam::new(0.2).unwrap();
        for _ in 0..200 {
            quadratic_step(&mut opt, &mut theta);
        }
        assert!(theta.norm_l2() < 0.05, "‖θ‖ = {}", theta.norm_l2());
    }

    #[test]
    fn plain_sgd_is_exact_update() {
        let mut theta = Tensor::from_vec([1], vec![1.0]).unwrap();
        let mut opt = Sgd::new(0.25).unwrap();
        quadratic_step(&mut opt, &mut theta);
        assert!((theta.as_slice()[0] - 0.75).abs() < 1e-7);
    }

    /// The zipped update keeps the bits of the indexed per-element loop
    /// over several steps, on zero, negative, tiny and large gradients.
    #[test]
    fn adam_step_matches_indexed_loop_bitwise() {
        let grads: Vec<f32> = (0..67)
            .map(|i| match i % 7 {
                0 => 0.0,
                1 => -0.0,
                2 => -(i as f32) * 0.37,
                3 => 1e-30 * i as f32,
                4 => f32::MIN_POSITIVE * 3.0,
                5 => 3e30 * (i as f32 - 30.0),
                _ => (i as f32).sin(),
            })
            .collect();
        let (lr, beta1, beta2, eps) = (0.003f32, 0.9f32, 0.999f32, 1e-8f32);
        let mut opt = Adam::new(lr).unwrap();
        let mut theta = Tensor::from_fn([67], |i| (i[0] as f32 - 33.0) * 0.01);
        let (mut p, mut m, mut v) = (
            theta.as_slice().to_vec(),
            vec![0.0f32; 67],
            vec![0.0f32; 67],
        );
        for t in 1..=6i32 {
            let scale = [1.0f32, -2.0, 0.5][t as usize % 3];
            let mut grad = Tensor::from_fn([67], |i| grads[i[0]] * scale);
            let g = grad.as_slice().to_vec();
            opt.step(&mut [ParamGrad {
                param: &mut theta,
                grad: &mut grad,
            }])
            .unwrap();
            let bc1 = 1.0 - beta1.powi(t);
            let bc2 = 1.0 - beta2.powi(t);
            for i in 0..g.len() {
                let gi = g[i];
                m[i] = beta1 * m[i] + (1.0 - beta1) * gi;
                v[i] = beta2 * v[i] + (1.0 - beta2) * gi * gi;
                let m_hat = m[i] / bc1;
                let v_hat = v[i] / bc2;
                p[i] -= lr * m_hat / (v_hat.sqrt() + eps);
            }
            let bits = |x: &[f32]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(theta.as_slice()), bits(&p), "step {t}");
            assert_eq!(bits(opt.m[0].as_slice()), bits(&m), "step {t}");
            assert_eq!(bits(opt.v[0].as_slice()), bits(&v), "step {t}");
        }
    }

    #[test]
    fn adam_rejects_changed_parameter_list() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut layer_a = Dense::new(2, 2, &mut rng).unwrap();
        let mut layer_b = Dense::new(3, 3, &mut rng).unwrap();
        let mut opt = Adam::new(0.1).unwrap();
        opt.step(&mut layer_a.params_and_grads()).unwrap();
        assert!(opt.step(&mut layer_b.params_and_grads()).is_err());
        let mut one = layer_a.params_and_grads();
        let mut partial = one.drain(..1).collect::<Vec<_>>();
        assert!(opt.step(&mut partial).is_err());
    }
}
