//! First-order optimizers: SGD (with momentum) and Adam.
//!
//! Optimizer state is keyed positionally on the parameter list, which is
//! stable because a [`crate::Network`]'s layer structure is fixed after
//! construction. Both optimizers validate that the parameter list keeps
//! the same length and shapes across steps.

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

    /// The current learning rate.
    fn learning_rate(&self) -> f32;

    /// Overrides the learning rate (for schedules).
    fn set_learning_rate(&mut self, lr: f32);
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

/// Stochastic gradient descent with classical momentum:
/// `v ← μ·v − lr·g`, `θ ← θ + v`.
#[derive(Debug)]
pub struct Sgd {
    lr: f32,
    momentum: f32,
    velocity: Vec<Tensor>,
}

impl Sgd {
    /// Plain SGD without momentum.
    ///
    /// # Errors
    ///
    /// Fails when `lr` is not positive and finite.
    pub fn new(lr: f32) -> Result<Self> {
        Self::with_momentum(lr, 0.0)
    }

    /// SGD with momentum `μ ∈ [0, 1)`.
    ///
    /// # Errors
    ///
    /// Fails when `lr` is invalid or `momentum` is outside `[0, 1)`.
    pub fn with_momentum(lr: f32, momentum: f32) -> Result<Self> {
        validate_lr("Sgd::new", lr)?;
        if !momentum.is_finite() || !(0.0..1.0).contains(&momentum) {
            return Err(NeuralError::invalid(
                "Sgd::new",
                format!("momentum must be in [0, 1), got {momentum}"),
            ));
        }
        Ok(Sgd {
            lr,
            momentum,
            velocity: Vec::new(),
        })
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, params: &mut [ParamGrad<'_>]) -> Result<()> {
        if self.velocity.is_empty() {
            self.velocity = params
                .iter()
                .map(|pg| Tensor::zeros(pg.param.shape().clone()))
                .collect();
        }
        check_state("Sgd::step", &self.velocity, params)?;
        for (v, pg) in self.velocity.iter_mut().zip(params.iter_mut()) {
            if self.momentum > 0.0 {
                for (vi, &gi) in v.as_mut_slice().iter_mut().zip(pg.grad.as_slice()) {
                    *vi = self.momentum * *vi - self.lr * gi;
                }
                pg.param.axpy(1.0, v)?;
            } else {
                pg.param.axpy(-self.lr, pg.grad)?;
            }
        }
        Ok(())
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

/// Adam (Kingma & Ba, 2015) with bias correction.
#[derive(Debug)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: u64,
    m: Vec<Tensor>,
    v: Vec<Tensor>,
}

impl Adam {
    /// Adam with the standard hyper-parameters `β1 = 0.9`, `β2 = 0.999`,
    /// `ε = 1e-8`.
    ///
    /// # Errors
    ///
    /// Fails when `lr` is not positive and finite.
    pub fn new(lr: f32) -> Result<Self> {
        Self::with_betas(lr, 0.9, 0.999)
    }

    /// Adam with custom moment decays.
    ///
    /// # Errors
    ///
    /// Fails when `lr` is invalid or either beta is outside `[0, 1)`.
    pub fn with_betas(lr: f32, beta1: f32, beta2: f32) -> Result<Self> {
        validate_lr("Adam::new", lr)?;
        for (name, b) in [("beta1", beta1), ("beta2", beta2)] {
            if !b.is_finite() || !(0.0..1.0).contains(&b) {
                return Err(NeuralError::invalid(
                    "Adam::new",
                    format!("{name} must be in [0, 1), got {b}"),
                ));
            }
        }
        Ok(Adam {
            lr,
            beta1,
            beta2,
            eps: 1e-8,
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
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        let (lr, beta1, beta2, eps) = (self.lr, self.beta1, self.beta2, self.eps);
        for ((m, v), pg) in self.m.iter_mut().zip(&mut self.v).zip(params.iter_mut()) {
            // Zipped slices, one element at a time with no cross-element
            // dependence: the loop vectorises.
            let moments = m.as_mut_slice().iter_mut().zip(v.as_mut_slice());
            let terms = pg.param.as_mut_slice().iter_mut().zip(pg.grad.as_slice());
            for ((p, &gi), (mi, vi)) in terms.zip(moments) {
                *mi = beta1 * *mi + (1.0 - beta1) * gi;
                *vi = beta2 * *vi + (1.0 - beta2) * gi * gi;
                let m_hat = *mi / bc1;
                let v_hat = *vi / bc2;
                *p -= lr * m_hat / (v_hat.sqrt() + eps);
            }
        }
        Ok(())
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
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
        assert!(Sgd::with_momentum(0.1, 1.0).is_err());
        assert!(Adam::new(f32::NAN).is_err());
        assert!(Adam::with_betas(0.1, 0.9, 1.5).is_err());
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
    fn sgd_with_momentum_converges_on_quadratic() {
        let mut theta = Tensor::from_vec([2], vec![5.0, -5.0]).unwrap();
        let mut opt = Sgd::with_momentum(0.05, 0.9).unwrap();
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
        let mut opt = Adam::with_betas(lr, beta1, beta2).unwrap();
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
    fn learning_rate_accessors() {
        let mut opt = Adam::new(0.01).unwrap();
        assert_eq!(opt.learning_rate(), 0.01);
        opt.set_learning_rate(0.001);
        assert_eq!(opt.learning_rate(), 0.001);
    }

    #[test]
    fn optimizer_rejects_changed_parameter_list() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut layer_a = Dense::new(2, 2, &mut rng).unwrap();
        let mut layer_b = Dense::new(3, 3, &mut rng).unwrap();
        let mut opt = Sgd::new(0.1).unwrap();
        opt.step(&mut layer_a.params_and_grads()).unwrap();
        assert!(opt.step(&mut layer_b.params_and_grads()).is_err());
        let mut opt2 = Adam::new(0.1).unwrap();
        opt2.step(&mut layer_a.params_and_grads()).unwrap();
        let mut one = layer_a.params_and_grads();
        let mut partial = one.drain(..1).collect::<Vec<_>>();
        assert!(opt2.step(&mut partial).is_err());
    }
}
