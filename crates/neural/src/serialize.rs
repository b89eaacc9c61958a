//! JSON (de)serialization of trained networks.
//!
//! A [`crate::Network`] round-trips through [`NetworkSpec`], a plain data
//! description (layer kinds + weights) that serde can handle. JSON keeps
//! saved models human-inspectable; weights are exact because `f32` values
//! survive the decimal round-trip performed by `serde_json`.
//!
//! This module alone knows the persisted dense layout: [`Dense`] stores
//! `W` as `[in, out]`, while [`LayerSpec::Dense`] keeps `[out, in]`, the
//! form every detector file holds, so both directions transpose.

use ndtensor::{Conv2dSpec, Tensor};
use serde::{Deserialize, Serialize};

use crate::layer::{Conv2d, Dense, Flatten, Layer, LayerKind, ReLU, Sigmoid, Tanh};
use crate::{Network, NeuralError, Result};

/// A shape + flat data pair, the serialized form of a [`Tensor`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TensorData {
    /// Dimension list, outermost first.
    pub shape: Vec<usize>,
    /// Row-major element data.
    pub data: Vec<f32>,
}

impl TensorData {
    fn from_tensor(t: &Tensor) -> Self {
        TensorData {
            shape: t.shape().dims().to_vec(), // sncheck:allow(hot-path-transitive-alloc): snapshot serialization owns its bytes by design; reached from scoring only when a recorder requests a weight snapshot
            data: t.as_slice().to_vec(), // sncheck:allow(hot-path-transitive-alloc): same — the serialized copy must outlive the tensor it snapshots
        }
    }

    fn into_tensor(self) -> Result<Tensor> {
        Ok(Tensor::from_vec(self.shape, self.data)?)
    }
}

/// Serialized form of one layer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum LayerSpec {
    /// Fully-connected layer.
    Dense {
        /// Weight matrix `[out, in]` (transposed to and from the layer's
        /// `[in, out]`).
        weight: TensorData,
        /// Bias vector `[out]`.
        bias: TensorData,
    },
    /// 2-D convolution.
    Conv2d {
        /// Kernel bank `[F, C, KH, KW]`.
        weight: TensorData,
        /// Bias vector `[F]`.
        bias: TensorData,
        /// `(stride_h, stride_w)`.
        stride: (usize, usize),
        /// `(pad_h, pad_w)`.
        padding: (usize, usize),
    },
    /// Rectified linear activation.
    ReLU,
    /// Logistic sigmoid activation.
    Sigmoid,
    /// Hyperbolic tangent activation.
    Tanh,
    /// Batch-preserving flatten.
    Flatten,
}

/// Serialized form of a whole network.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetworkSpec {
    /// Layers in execution order.
    pub layers: Vec<LayerSpec>,
}

/// Extracts a serializable spec from a network.
///
/// # Errors
///
/// Currently infallible for all built-in layers; returns an error if a
/// layer reports parameters inconsistent with its kind.
pub fn to_spec(network: &Network) -> Result<NetworkSpec> {
    let mut layers = Vec::with_capacity(network.layer_count()); // sncheck:allow(hot-path-transitive-alloc): spec construction is a serialization step, run when recording snapshots, not per frame
    for layer in network.layers() {
        let params = layer.params();
        let spec = match layer.kind() {
            LayerKind::Dense { .. } => {
                let [w, b] = two_params("Dense", &params)?;
                LayerSpec::Dense {
                    weight: TensorData::from_tensor(&w.transpose2d()?),
                    bias: TensorData::from_tensor(b),
                }
            }
            LayerKind::Conv2d { spec, .. } => {
                let [w, b] = two_params("Conv2d", &params)?;
                LayerSpec::Conv2d {
                    weight: TensorData::from_tensor(w),
                    bias: TensorData::from_tensor(b),
                    stride: spec.stride,
                    padding: spec.padding,
                }
            }
            LayerKind::ReLU => LayerSpec::ReLU,
            LayerKind::Sigmoid => LayerSpec::Sigmoid,
            LayerKind::Tanh => LayerSpec::Tanh,
            LayerKind::Flatten => LayerSpec::Flatten,
        };
        layers.push(spec);
    }
    Ok(NetworkSpec { layers })
}

fn two_params<'a>(kind: &'static str, params: &[&'a Tensor]) -> Result<[&'a Tensor; 2]> {
    match params {
        [w, b] => Ok([w, b]),
        _ => Err(NeuralError::invalid(
            "to_spec",
            format!(
                "{kind} layer reported {} parameter tensors, expected 2",
                params.len()
            ),
        )),
    }
}

/// Reconstructs a network from its spec.
///
/// # Errors
///
/// Fails when any stored tensor is malformed (shape/data mismatch) or a
/// layer rejects its weights.
pub fn from_spec(spec: NetworkSpec) -> Result<Network> {
    let mut net = Network::new();
    for layer in spec.layers {
        let boxed: Box<dyn Layer> = match layer {
            LayerSpec::Dense { weight, bias } => Box::new(Dense::from_parts(
                weight.into_tensor()?.transpose2d()?,
                bias.into_tensor()?,
            )?),
            LayerSpec::Conv2d {
                weight,
                bias,
                stride,
                padding,
            } => Box::new(Conv2d::from_parts(
                weight.into_tensor()?,
                bias.into_tensor()?,
                Conv2dSpec::new(stride, padding),
            )?),
            LayerSpec::ReLU => Box::new(ReLU::new()),
            LayerSpec::Sigmoid => Box::new(Sigmoid::new()),
            LayerSpec::Tanh => Box::new(Tanh::new()),
            LayerSpec::Flatten => Box::new(Flatten::new()),
        };
        net = net.with_boxed(boxed);
    }
    Ok(net)
}

/// Deep-copies a network by round-tripping its spec. `Network` holds
/// boxed trait objects and is deliberately not `Clone`; this is the
/// supported way to duplicate one (e.g. to share a trained CNN across
/// several pipelines).
///
/// # Errors
///
/// Propagates spec-extraction errors.
pub fn clone_network(network: &Network) -> Result<Network> {
    from_spec(to_spec(network)?)
}

/// Serializes a network to a JSON string.
///
/// # Errors
///
/// Propagates spec-extraction and JSON errors.
pub fn to_json(network: &Network) -> Result<String> {
    let spec = to_spec(network)?;
    serde_json::to_string(&spec).map_err(|e| NeuralError::Serde(e.to_string()))
}

/// Deserializes a network from a JSON string.
///
/// # Errors
///
/// Fails on malformed JSON or invalid layer data.
pub fn from_json(json: &str) -> Result<Network> {
    let spec: NetworkSpec =
        serde_json::from_str(json).map_err(|e| NeuralError::Serde(e.to_string()))?;
    from_spec(spec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::{autoencoder, pilotnet, PilotNetConfig};

    #[test]
    fn autoencoder_roundtrips_exactly() {
        let net = autoencoder(40, &[8, 4, 8], 3).unwrap();
        let x = Tensor::from_fn([2, 40], |i| ((i[0] * 40 + i[1]) % 13) as f32 / 12.0);
        let before = net.forward(&x).unwrap();
        let back = from_json(&to_json(&net).unwrap()).unwrap();
        let after = back.forward(&x).unwrap();
        assert_eq!(before, after);
        assert_eq!(back.layer_count(), net.layer_count());
    }

    #[test]
    fn pilotnet_roundtrips_exactly() {
        let cfg = PilotNetConfig {
            height: 40,
            width: 60,
            conv_channels: [2, 3, 4, 4, 4],
            dense_widths: vec![8],
        };
        let net = pilotnet(&cfg, 9).unwrap();
        let x = Tensor::from_fn([1, 1, 40, 60], |i| ((i[2] * 7 + i[3]) % 5) as f32 / 4.0);
        let before = net.forward(&x).unwrap();
        let back = from_json(&to_json(&net).unwrap()).unwrap();
        assert_eq!(back.forward(&x).unwrap(), before);
    }

    #[test]
    fn malformed_json_is_rejected() {
        assert!(from_json("not json").is_err());
        assert!(from_json("{\"layers\": [{\"Dense\": {\"weight\": {\"shape\": [2, 2], \"data\": [1.0]}, \"bias\": {\"shape\": [2], \"data\": [0.0, 0.0]}}}]}").is_err());
    }

    /// One Dense layer persisted as `[out, in]`, with the given weight and
    /// bias tensors.
    fn dense_json(w_shape: &str, w_data: &str, b_shape: &str, b_data: &str) -> String {
        format!(
            "{{\"layers\":[{{\"Dense\":{{\"weight\":{{\"shape\":[{w_shape}],\"data\":[{w_data}]}},\
             \"bias\":{{\"shape\":[{b_shape}],\"data\":[{b_data}]}}}}}}]}}"
        )
    }

    /// The persisted `[out, in]` layout is read as `y = x·Wᵀ + b` and
    /// written back byte for byte; malformed Dense specs are typed errors.
    #[test]
    fn dense_spec_keeps_the_persisted_out_in_layout() {
        let json = dense_json("2,3", "1.0,2.0,3.0,4.0,5.0,6.0", "2", "0.5,-1.0");
        let net = from_json(&json).unwrap();
        let x = Tensor::from_vec([2, 3], vec![1., 0., -1., 0.5, 2., 1.]).unwrap();
        assert_eq!(net.forward(&x).unwrap().as_slice(), &[-1.5, -3., 8., 17.]);
        assert_eq!(to_json(&net).unwrap(), json);

        for bad in [
            dense_json("6", "1.0,2.0,3.0,4.0,5.0,6.0", "2", "0.5,-1.0"),
            dense_json("1,2,3", "1.0,2.0,3.0,4.0,5.0,6.0", "2", "0.5,-1.0"),
            dense_json("2,3", "1.0,2.0,3.0,4.0,5.0,6.0", "3", "0.5,-1.0,0.0"),
        ] {
            assert!(
                matches!(
                    from_json(&bad),
                    Err(NeuralError::Tensor(_) | NeuralError::Invalid { .. })
                ),
                "{bad}"
            );
        }

        let empty = from_json(&dense_json("0,4", "", "0", "")).unwrap();
        let y = empty.forward(&Tensor::zeros([3, 4])).unwrap();
        assert_eq!(y.shape().dims(), &[3, 0]);
    }

    /// A network holding each of the six layer kinds once comes back
    /// with the same kinds, bit-equal outputs and the same JSON.
    #[test]
    fn every_layer_kind_roundtrips_exactly() {
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(4);
        let net = Network::new()
            .with(Conv2d::new(1, 2, (3, 3), Conv2dSpec::new((2, 1), (1, 0)), &mut rng).unwrap())
            .with(ReLU::new())
            .with(Tanh::new())
            .with(Flatten::new())
            .with(Dense::new(2 * 3 * 4, 3, &mut rng).unwrap())
            .with(Sigmoid::new());
        let kinds = |n: &Network| n.layers().iter().map(|l| l.kind()).collect::<Vec<_>>();
        let names: Vec<&str> = kinds(&net).iter().map(LayerKind::name).collect();
        assert_eq!(
            names,
            ["Conv2d", "ReLU", "Tanh", "Flatten", "Dense", "Sigmoid"]
        );

        let json = to_json(&net).unwrap();
        let back = from_json(&json).unwrap();
        assert_eq!(kinds(&back), kinds(&net));
        assert_eq!(to_json(&back).unwrap(), json);
        let x = Tensor::from_fn([2, 1, 5, 6], |i| {
            ((i[0] + i[2] * 6 + i[3]) % 7) as f32 / 6.0 - 0.4
        });
        let bits = |t: Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(back.forward(&x).unwrap()),
            bits(net.forward(&x).unwrap())
        );
    }

    #[test]
    fn spec_preserves_structure() {
        let net = autoencoder(6, &[3], 0).unwrap();
        let spec = to_spec(&net).unwrap();
        assert_eq!(spec.layers.len(), 4);
        assert!(matches!(spec.layers[0], LayerSpec::Dense { .. }));
        assert!(matches!(spec.layers[1], LayerSpec::ReLU));
        assert!(matches!(spec.layers[3], LayerSpec::Sigmoid));
    }
}
