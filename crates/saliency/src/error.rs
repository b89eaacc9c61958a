use std::fmt;

use ndtensor::TensorError;
use neural::NeuralError;
use vision::VisionError;

/// Error type for saliency computation.
#[derive(Debug)]
pub enum SaliencyError {
    /// The underlying network evaluation failed.
    Neural(NeuralError),
    /// A tensor operation failed.
    Tensor(TensorError),
    /// An image operation failed.
    Vision(VisionError),
    /// A saliency-level invariant was violated (e.g. no conv layers).
    Invalid {
        /// Short name of the operation that failed.
        op: &'static str,
        /// Human-readable description of the violated invariant.
        reason: String,
    },
    /// A computed map holds a NaN or `±∞`: the network's arithmetic
    /// overflowed or was fed a non-finite weight, so the map explains
    /// nothing.
    NonFinite {
        /// Short name of the operation whose output is non-finite.
        op: &'static str,
    },
}

impl SaliencyError {
    /// Builds an [`SaliencyError::Invalid`].
    pub fn invalid(op: &'static str, reason: impl Into<String>) -> Self {
        SaliencyError::Invalid {
            op,
            reason: reason.into(),
        }
    }
}

impl fmt::Display for SaliencyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SaliencyError::Neural(e) => write!(f, "network error: {e}"),
            SaliencyError::Tensor(e) => write!(f, "tensor error: {e}"),
            SaliencyError::Vision(e) => write!(f, "image error: {e}"),
            SaliencyError::Invalid { op, reason } => write!(f, "{op}: {reason}"),
            SaliencyError::NonFinite { op } => write!(f, "{op}: map holds a NaN or ±inf"),
        }
    }
}

impl std::error::Error for SaliencyError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SaliencyError::Neural(e) => Some(e),
            SaliencyError::Tensor(e) => Some(e),
            SaliencyError::Vision(e) => Some(e),
            SaliencyError::Invalid { .. } | SaliencyError::NonFinite { .. } => None,
        }
    }
}

impl From<NeuralError> for SaliencyError {
    fn from(e: NeuralError) -> Self {
        SaliencyError::Neural(e)
    }
}

impl From<TensorError> for SaliencyError {
    fn from(e: TensorError) -> Self {
        SaliencyError::Tensor(e)
    }
}

impl From<VisionError> for SaliencyError {
    fn from(e: VisionError) -> Self {
        SaliencyError::Vision(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        use std::error::Error;
        let e = SaliencyError::invalid("vbp", "network has no conv layers");
        assert!(e.to_string().contains("vbp"));
        assert!(e.source().is_none());
        let e = SaliencyError::from(NeuralError::invalid("x", "y"));
        assert!(e.source().is_some());
        let e = SaliencyError::NonFinite { op: "vbp" };
        assert!(e.to_string().contains("NaN") && e.source().is_none());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SaliencyError>();
    }
}
