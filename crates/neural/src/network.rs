use ndtensor::Tensor;

use crate::layer::{Layer, ParamGrad};
use crate::{NeuralError, Result};

/// A sequential feed-forward network.
///
/// Layers execute in insertion order. The network supports three forward
/// modes: inference ([`Network::forward`]), training with caches
/// ([`Network::forward_train`]), and activation collection
/// ([`Network::forward_collect`]) used by the saliency methods, which need
/// every intermediate feature map.
///
/// # Example
///
/// ```
/// use neural::{layer::{Dense, Tanh}, Network};
/// use ndtensor::Tensor;
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), neural::NeuralError> {
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let net = Network::new()
///     .with(Dense::new(2, 4, &mut rng)?)
///     .with(Tanh::new())
///     .with(Dense::new(4, 1, &mut rng)?);
/// assert_eq!(net.layer_count(), 3);
/// assert_eq!(net.forward(&Tensor::zeros([3, 2]))?.shape().dims(), &[3, 1]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct Network {
    layers: Vec<Box<dyn Layer>>,
}

impl Network {
    /// Creates an empty network.
    pub fn new() -> Self {
        Network { layers: Vec::new() }
    }

    /// Appends a layer (consuming builder style).
    pub fn with(mut self, layer: impl Layer + 'static) -> Self {
        self.layers.push(Box::new(layer));
        self
    }

    /// Appends an already-boxed layer (used by deserialization).
    pub fn with_boxed(mut self, layer: Box<dyn Layer>) -> Self {
        self.layers.push(layer);
        self
    }

    /// Appends a layer in place.
    pub fn push(&mut self, layer: impl Layer + 'static) {
        self.layers.push(Box::new(layer));
    }

    /// The layers, in execution order.
    pub fn layers(&self) -> &[Box<dyn Layer>] {
        &self.layers
    }

    /// Number of layers.
    pub fn layer_count(&self) -> usize {
        self.layers.len()
    }

    /// Total number of scalar parameters.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(|l| l.param_count()).sum()
    }

    fn require_nonempty(&self, op: &'static str) -> Result<()> {
        if self.layers.is_empty() {
            return Err(NeuralError::invalid(op, "network has no layers"));
        }
        Ok(())
    }

    /// Inference forward pass.
    ///
    /// # Errors
    ///
    /// Fails when the network is empty or any layer rejects its input.
    pub fn forward(&self, input: &Tensor) -> Result<Tensor> {
        let mut layers = self.layers.iter();
        let first = layers
            .next()
            .ok_or_else(|| NeuralError::invalid("Network::forward", "network has no layers"))?;
        let mut x = first.forward(input)?;
        for layer in layers {
            x = layer.forward(&x)?;
        }
        Ok(x)
    }

    /// Batch-parallel inference forward pass.
    ///
    /// Splits the leading (batch) dimension into contiguous chunks and
    /// runs each chunk through the layer stack on the work pool configured
    /// in [`ndtensor::par`]. Every layer treats batch samples
    /// independently, so the concatenated result is bit-identical to
    /// [`Network::forward`] on the full batch for any thread count
    /// (enforced by `tests/parallel_parity.rs` at the workspace root).
    ///
    /// # Errors
    ///
    /// Fails when the network is empty, the input has no batch dimension,
    /// or any layer rejects its input.
    pub fn forward_batch(&self, input: &Tensor) -> Result<Tensor> {
        self.require_nonempty("Network::forward_batch")?;
        let dims = input.shape().dims();
        let n = *dims.first().ok_or_else(|| {
            NeuralError::invalid(
                "Network::forward_batch",
                "input must have a batch dimension",
            )
        })?;
        if n <= 1 {
            return self.forward(input);
        }
        let sample_dims = dims[1..].to_vec(); // sncheck:allow(hot-path-transitive-alloc): rank-length shape header, copied once per batch call
        let sample_len = input.len() / n;
        let chunks = ndtensor::thread_config().threads().clamp(1, n);
        let per = n.div_ceil(chunks);
        let ranges: Vec<(usize, usize)> = (0..chunks)
            .map(|i| (i * per, ((i + 1) * per).min(n)))
            .filter(|(start, end)| start < end)
            .collect();
        // Work estimate: parameters touched once per sample.
        let work = self.param_count().saturating_mul(n);
        let outputs = ndtensor::par::try_parallel_map(ranges.len(), work, |i| {
            let (start, end) = ranges[i];
            let mut shape = vec![end - start]; // sncheck:allow(hot-path-transitive-alloc): rank-length chunk shape, one per worker chunk (not per sample)
            shape.extend_from_slice(&sample_dims);
            let chunk = Tensor::from_slice(
                shape,
                &input.as_slice()[start * sample_len..end * sample_len],
            )?;
            self.forward(&chunk)
        })?;
        let mut out_sample_dims: Option<Vec<usize>> = None;
        let total: usize = outputs.iter().map(|o| o.len()).sum();
        let mut data = ndtensor::scratch::take(total);
        for (output, &(start, end)) in outputs.iter().zip(&ranges) {
            let odims = output.shape().dims();
            if odims.first() != Some(&(end - start)) {
                return Err(NeuralError::invalid(
                    "Network::forward_batch",
                    "layer stack did not preserve the batch dimension",
                ));
            }
            match &out_sample_dims {
                None => out_sample_dims = Some(odims[1..].to_vec()), // sncheck:allow(hot-path-transitive-alloc): rank-length shape header, captured once per batch call
                Some(expect) if expect.as_slice() == &odims[1..] => {}
                Some(_) => {
                    return Err(NeuralError::invalid(
                        "Network::forward_batch",
                        "inconsistent per-sample output shapes across chunks",
                    ))
                }
            }
            data.extend_from_slice(output.as_slice());
        }
        let mut out_shape = vec![n]; // sncheck:allow(hot-path-transitive-alloc): rank-length output shape, one per batch call
        out_shape.extend(out_sample_dims.unwrap_or_default());
        Ok(Tensor::from_vec(out_shape, data)?)
    }

    /// Inference forward pass that returns the activation *after every
    /// layer* (index 0 = output of the first layer). Saliency methods use
    /// this to reach the conv feature maps.
    ///
    /// # Errors
    ///
    /// Fails when the network is empty or any layer rejects its input.
    pub fn forward_collect(&self, input: &Tensor) -> Result<Vec<Tensor>> {
        let mut acts = Vec::with_capacity(self.layers.len()); // sncheck:allow(hot-path-transitive-alloc): per-layer activation list is this API's return value; callers on the hot path reuse forward_collect_into instead
        self.forward_collect_into(input, &mut acts)?;
        Ok(acts)
    }

    /// Like [`Network::forward_collect`], but reuses `acts` (cleared
    /// first), so a warmed caller performs no per-call allocation: the
    /// vector keeps its capacity and every activation tensor draws its
    /// storage from the [`ndtensor::scratch`] pool.
    ///
    /// # Errors
    ///
    /// Fails when the network is empty or any layer rejects its input.
    pub fn forward_collect_into(&self, input: &Tensor, acts: &mut Vec<Tensor>) -> Result<()> {
        self.require_nonempty("Network::forward_collect")?;
        acts.clear();
        for layer in &self.layers {
            let x = match acts.last() {
                Some(prev) => layer.forward(prev)?,
                None => layer.forward(input)?,
            };
            acts.push(x);
        }
        Ok(())
    }

    /// Training forward pass (caches per-layer state for
    /// [`Network::backward`]).
    ///
    /// # Errors
    ///
    /// Fails when the network is empty or any layer rejects its input.
    pub fn forward_train(&mut self, input: &Tensor) -> Result<Tensor> {
        let mut layers = self.layers.iter_mut();
        let first = layers.next().ok_or_else(|| {
            NeuralError::invalid("Network::forward_train", "network has no layers")
        })?;
        let mut x = first.forward_train(input)?;
        for layer in layers {
            x = layer.forward_train(&x)?;
        }
        Ok(x)
    }

    /// Backpropagates `∂L/∂output`, accumulating parameter gradients, and
    /// returns `∂L/∂input`.
    ///
    /// # Errors
    ///
    /// Fails when a layer is missing its forward cache (i.e.
    /// [`Network::forward_train`] was not called immediately before).
    pub fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        let mut layers = self.layers.iter_mut().rev();
        let first = layers
            .next()
            .ok_or_else(|| NeuralError::invalid("Network::backward", "network has no layers"))?;
        let mut g = first.backward(grad_output)?;
        for layer in layers {
            g = layer.backward(&g)?;
        }
        Ok(g)
    }

    /// All parameters paired with their gradients, across layers.
    pub fn params_and_grads(&mut self) -> Vec<ParamGrad<'_>> {
        self.layers
            .iter_mut()
            .flat_map(|l| l.params_and_grads())
            .collect()
    }

    /// Zeroes all accumulated gradients.
    pub fn zero_grads(&mut self) {
        for layer in &mut self.layers {
            layer.zero_grads();
        }
    }

    /// A one-line-per-layer structural summary.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        for (i, layer) in self.layers.iter().enumerate() {
            out.push_str(&format!(
                "{i:>3}: {:<10} params={}\n",
                layer.kind().name(),
                layer.param_count()
            ));
        }
        out.push_str(&format!("total params: {}", self.param_count()));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::{Dense, ReLU, Sigmoid};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_net(seed: u64) -> Network {
        let mut rng = StdRng::seed_from_u64(seed);
        Network::new()
            .with(Dense::new(3, 5, &mut rng).unwrap())
            .with(ReLU::new())
            .with(Dense::new(5, 2, &mut rng).unwrap())
            .with(Sigmoid::new())
    }

    #[test]
    fn empty_network_errors() {
        let net = Network::new();
        assert!(net.forward(&Tensor::zeros([1, 1])).is_err());
        let mut net = Network::new();
        assert!(net.forward_train(&Tensor::zeros([1, 1])).is_err());
        assert!(net.backward(&Tensor::zeros([1, 1])).is_err());
    }

    /// A NaN weight below a ReLU reaches the network output: a corrupt
    /// network cannot score finite.
    #[test]
    fn nan_weight_below_relu_poisons_the_output() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut first = Dense::new(3, 4, &mut rng).unwrap();
        let x = Tensor::from_vec([2, 3], vec![0.5, -1.0, 0.25, 1.0, 0.0, -0.5]).unwrap();
        assert!(first
            .forward(&x)
            .unwrap()
            .as_slice()
            .iter()
            .all(|v| v.is_finite()));
        let mut w = first.params()[0].clone();
        w.as_mut_slice()[4] = f32::NAN; // output 1, input 1
        let b = first.params()[1].clone();
        first.set_params(&[w, b]).unwrap();
        let net = Network::new()
            .with(first)
            .with(ReLU::new())
            .with(Dense::new(4, 2, &mut rng).unwrap());
        let y = net.forward(&x).unwrap();
        assert!(
            y.as_slice().iter().all(|v| v.is_nan()),
            "{:?}",
            y.as_slice()
        );
    }

    #[test]
    fn forward_shapes_flow_through() {
        let net = small_net(1);
        let y = net.forward(&Tensor::zeros([7, 3])).unwrap();
        assert_eq!(y.shape().dims(), &[7, 2]);
        // Sigmoid output in (0, 1).
        assert!(y.as_slice().iter().all(|&v| v > 0.0 && v < 1.0));
    }

    #[test]
    fn forward_and_forward_train_agree() {
        let mut net = small_net(2);
        let x = Tensor::from_fn([4, 3], |i| (i[0] + i[1]) as f32 * 0.1);
        let a = net.forward(&x).unwrap();
        let b = net.forward_train(&x).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn forward_batch_matches_forward_bitwise() {
        let net = small_net(9);
        let x = Tensor::from_fn([13, 3], |i| ((i[0] * 3 + i[1]) as f32).sin());
        let serial = net.forward(&x).unwrap();
        for threads in [1, 2, 4] {
            ndtensor::set_thread_config(ndtensor::ThreadConfig::new(threads));
            let batched = net.forward_batch(&x).unwrap();
            assert_eq!(serial, batched, "threads={threads}");
        }
        ndtensor::set_thread_config(ndtensor::ThreadConfig::from_env());
    }

    #[test]
    fn forward_batch_handles_single_sample_and_empty_net() {
        let net = small_net(10);
        let x = Tensor::from_fn([1, 3], |i| i[1] as f32);
        assert_eq!(net.forward(&x).unwrap(), net.forward_batch(&x).unwrap());
        assert!(Network::new().forward_batch(&x).is_err());
    }

    #[test]
    fn forward_collect_returns_all_activations() {
        let net = small_net(3);
        let acts = net.forward_collect(&Tensor::zeros([2, 3])).unwrap();
        assert_eq!(acts.len(), 4);
        assert_eq!(acts[0].shape().dims(), &[2, 5]);
        assert_eq!(acts[3].shape().dims(), &[2, 2]);
        // Last activation equals forward output.
        assert_eq!(acts[3], net.forward(&Tensor::zeros([2, 3])).unwrap());
    }

    #[test]
    fn backward_produces_input_gradient() {
        let mut net = small_net(4);
        let x = Tensor::from_fn([2, 3], |i| (i[1] as f32 - 1.0) * 0.5);
        let y = net.forward_train(&x).unwrap();
        let gin = net.backward(&Tensor::ones(y.shape().clone())).unwrap();
        assert_eq!(gin.shape(), x.shape());

        // Finite-difference spot check.
        let eps = 1e-3f32;
        for probe in [0usize, 3, 5] {
            let mut xp = x.clone();
            xp.as_mut_slice()[probe] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[probe] -= eps;
            let numeric =
                (net.forward(&xp).unwrap().sum() - net.forward(&xm).unwrap().sum()) / (2.0 * eps);
            assert!(
                (numeric - gin.as_slice()[probe]).abs() < 1e-2,
                "input grad {probe}"
            );
        }
    }

    #[test]
    fn params_and_grads_cover_all_layers() {
        let mut net = small_net(5);
        assert_eq!(net.params_and_grads().len(), 4); // two Dense layers × (W, b)
        assert_eq!(net.param_count(), 3 * 5 + 5 + 5 * 2 + 2);
    }

    #[test]
    fn zero_grads_resets_accumulation() {
        let mut net = small_net(6);
        let x = Tensor::ones([1, 3]);
        let y = net.forward_train(&x).unwrap();
        net.backward(&Tensor::ones(y.shape().clone())).unwrap();
        let any_nonzero = net
            .params_and_grads()
            .iter()
            .any(|pg| pg.grad.as_slice().iter().any(|&v| v != 0.0));
        assert!(any_nonzero);
        net.zero_grads();
        let all_zero = net
            .params_and_grads()
            .iter()
            .all(|pg| pg.grad.as_slice().iter().all(|&v| v == 0.0));
        assert!(all_zero);
    }

    #[test]
    fn summary_mentions_layers() {
        let net = small_net(7);
        let s = net.summary();
        assert!(s.contains("Dense"));
        assert!(s.contains("ReLU"));
        assert!(s.contains("total params"));
    }
}
