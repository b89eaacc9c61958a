use std::fmt;

use ndtensor::TensorError;

/// Error type for network construction, training and serialization.
#[derive(Debug)]
pub enum NeuralError {
    /// An underlying tensor operation failed.
    Tensor(TensorError),
    /// A network- or layer-level invariant was violated.
    Invalid {
        /// Short name of the operation that failed.
        op: &'static str,
        /// Human-readable description of the violated invariant.
        reason: String,
    },
    /// `backward` was called without a preceding `forward_train`.
    MissingCache {
        /// Name of the layer missing its forward cache.
        layer: &'static str,
    },
    /// Weight (de)serialization failed.
    Serde(String),
}

impl NeuralError {
    /// Builds an [`NeuralError::Invalid`].
    pub fn invalid(op: &'static str, reason: impl Into<String>) -> Self {
        NeuralError::Invalid {
            op,
            reason: reason.into(),
        }
    }
}

impl fmt::Display for NeuralError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NeuralError::Tensor(e) => write!(f, "tensor error: {e}"),
            NeuralError::Invalid { op, reason } => write!(f, "{op}: {reason}"),
            NeuralError::MissingCache { layer } => {
                write!(f, "{layer}: backward called without forward_train")
            }
            NeuralError::Serde(msg) => write!(f, "serialization error: {msg}"),
        }
    }
}

impl std::error::Error for NeuralError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NeuralError::Tensor(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TensorError> for NeuralError {
    fn from(e: TensorError) -> Self {
        NeuralError::Tensor(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(NeuralError::invalid("fit", "empty dataset")
            .to_string()
            .contains("fit"));
        assert!(NeuralError::MissingCache { layer: "Dense" }
            .to_string()
            .contains("Dense"));
        assert!(NeuralError::Serde("bad json".into())
            .to_string()
            .contains("bad json"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<NeuralError>();
    }
}
