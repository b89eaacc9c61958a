//! Finite-difference gradient checking.
//!
//! Used throughout the test suites to validate every analytic backward
//! pass against a central-difference approximation. Exposed publicly so
//! downstream crates (and users extending the layer set) can verify their
//! own derivatives.

use ndtensor::Tensor;

use crate::loss::Loss;
use crate::{Network, NeuralError, Result};

/// Central-difference gradient of a scalar function `f` at `at`.
///
/// # Errors
///
/// Propagates errors from `f` and rejects non-positive `eps`.
pub fn numeric_gradient(
    mut f: impl FnMut(&Tensor) -> Result<f32>,
    at: &Tensor,
    eps: f32,
) -> Result<Tensor> {
    if !eps.is_finite() || eps <= 0.0 {
        return Err(NeuralError::invalid(
            "numeric_gradient",
            format!("eps must be positive and finite, got {eps}"),
        ));
    }
    let mut grad = Tensor::zeros(at.shape().clone());
    let mut probe = at.clone();
    for i in 0..at.len() {
        let orig = probe.as_slice()[i];
        probe.as_mut_slice()[i] = orig + eps;
        let plus = f(&probe)?;
        probe.as_mut_slice()[i] = orig - eps;
        let minus = f(&probe)?;
        probe.as_mut_slice()[i] = orig;
        grad.as_mut_slice()[i] = (plus - minus) / (2.0 * eps);
    }
    Ok(grad)
}

/// Summary of one gradient check.
#[derive(Debug, Clone, PartialEq)]
pub struct GradCheckReport {
    /// Maximum absolute difference between analytic and numeric entries.
    pub max_abs_diff: f32,
    /// Maximum relative difference (`|a − n| / (1 + |n|)`).
    pub max_rel_diff: f32,
}

impl GradCheckReport {
    /// `true` when both difference measures are below `tol`.
    pub fn passes(&self, tol: f32) -> bool {
        self.max_abs_diff < tol && self.max_rel_diff < tol
    }
}

fn compare(analytic: &Tensor, numeric: &Tensor) -> GradCheckReport {
    let mut max_abs = 0.0f32;
    let mut max_rel = 0.0f32;
    for (&a, &n) in analytic.as_slice().iter().zip(numeric.as_slice()) {
        let abs = (a - n).abs();
        max_abs = max_abs.max(abs);
        max_rel = max_rel.max(abs / (1.0 + n.abs()));
    }
    GradCheckReport {
        max_abs_diff: max_abs,
        max_rel_diff: max_rel,
    }
}

/// Checks a network's *input* gradient (`∂L/∂x` from backprop) against
/// finite differences of `loss(net(x), target)`.
///
/// # Errors
///
/// Propagates forward/backward and loss errors.
pub fn check_input_gradient(
    network: &mut Network,
    loss: &dyn Loss,
    input: &Tensor,
    target: &Tensor,
    eps: f32,
) -> Result<GradCheckReport> {
    let pred = network.forward_train(input)?;
    let g = loss.grad(&pred, target)?;
    network.zero_grads();
    let analytic = network.backward(&g)?;
    let numeric = numeric_gradient(
        |x| {
            let p = network.forward(x)?;
            loss.loss(&p, target)
        },
        input,
        eps,
    )?;
    Ok(compare(&analytic, &numeric))
}

/// Checks every *parameter* gradient of the network against finite
/// differences of `loss(net(x), target)`.
///
/// # Errors
///
/// Propagates forward/backward and loss errors.
pub fn check_parameter_gradients(
    network: &mut Network,
    loss: &dyn Loss,
    input: &Tensor,
    target: &Tensor,
    eps: f32,
) -> Result<GradCheckReport> {
    let pred = network.forward_train(input)?;
    let g = loss.grad(&pred, target)?;
    network.zero_grads();
    network.backward_params(&g)?;
    let analytic: Vec<Tensor> = network
        .params_and_grads()
        .iter()
        .map(|pg| pg.grad.clone())
        .collect();

    let mut worst = GradCheckReport {
        max_abs_diff: 0.0,
        max_rel_diff: 0.0,
    };
    let param_count = analytic.len();
    for pi in 0..param_count {
        let shape = {
            let pgs = network.params_and_grads();
            pgs[pi].param.shape().clone()
        };
        let mut numeric = Tensor::zeros(shape);
        for i in 0..numeric.len() {
            let eval = |net: &mut Network, delta: f32| -> Result<f32> {
                {
                    let mut pgs = net.params_and_grads();
                    pgs[pi].param.as_mut_slice()[i] += delta;
                }
                let p = net.forward(input)?;
                let l = loss.loss(&p, target)?;
                {
                    let mut pgs = net.params_and_grads();
                    pgs[pi].param.as_mut_slice()[i] -= delta;
                }
                Ok(l)
            };
            let plus = eval(network, eps)?;
            let minus = eval(network, -eps)?;
            numeric.as_mut_slice()[i] = (plus - minus) / (2.0 * eps);
        }
        let report = compare(&analytic[pi], &numeric);
        worst.max_abs_diff = worst.max_abs_diff.max(report.max_abs_diff);
        worst.max_rel_diff = worst.max_rel_diff.max(report.max_rel_diff);
    }
    Ok(worst)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::{Conv2d, Dense, Flatten, ReLU, Sigmoid, Tanh};
    use crate::loss::MseLoss;
    use ndtensor::Conv2dSpec;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn numeric_gradient_of_quadratic_is_linear() {
        let at = Tensor::from_vec([3], vec![1.0, -2.0, 0.5]).unwrap();
        // f(x) = ½‖x‖² → ∇f = x.
        let g = numeric_gradient(
            |x| Ok(0.5 * x.dot(x).map_err(NeuralError::from)?),
            &at,
            1e-3,
        )
        .unwrap();
        for (a, b) in g.as_slice().iter().zip(at.as_slice()) {
            assert!((a - b).abs() < 1e-3);
        }
        assert!(numeric_gradient(|_| Ok(0.0), &at, 0.0).is_err());
    }

    #[test]
    fn mlp_gradients_pass_gradcheck() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut net = Network::new()
            .with(Dense::new(4, 6, &mut rng).unwrap())
            .with(Tanh::new())
            .with(Dense::new(6, 3, &mut rng).unwrap())
            .with(Sigmoid::new());
        let mut x = Tensor::zeros([2, 4]);
        ndtensor::fill_uniform(&mut x, &mut rng, -1.0, 1.0).unwrap();
        let target = Tensor::full([2, 3], 0.3);

        let input_report =
            check_input_gradient(&mut net, &MseLoss::new(), &x, &target, 1e-3).unwrap();
        assert!(input_report.passes(1e-2), "{input_report:?}");

        let param_report =
            check_parameter_gradients(&mut net, &MseLoss::new(), &x, &target, 1e-2).unwrap();
        assert!(param_report.passes(1e-2), "{param_report:?}");
    }

    #[test]
    fn convnet_gradients_pass_gradcheck() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut net = Network::new()
            .with(Conv2d::new(1, 2, (3, 3), Conv2dSpec::new((2, 2), (1, 1)), &mut rng).unwrap())
            .with(ReLU::new())
            .with(Flatten::new())
            .with(Dense::new(2 * 4 * 4, 2, &mut rng).unwrap())
            .with(Tanh::new());
        let mut x = Tensor::zeros([1, 1, 7, 7]);
        ndtensor::fill_uniform(&mut x, &mut rng, -1.0, 1.0).unwrap();
        let target = Tensor::zeros([1, 2]);

        let report =
            check_parameter_gradients(&mut net, &MseLoss::new(), &x, &target, 1e-2).unwrap();
        assert!(report.passes(2e-2), "{report:?}");

        let input_report =
            check_input_gradient(&mut net, &MseLoss::new(), &x, &target, 1e-2).unwrap();
        assert!(input_report.passes(2e-2), "{input_report:?}");
    }

    #[test]
    fn report_pass_threshold() {
        let r = GradCheckReport {
            max_abs_diff: 0.5,
            max_rel_diff: 0.001,
        };
        assert!(!r.passes(0.01));
        assert!(r.passes(0.6));
    }
}
