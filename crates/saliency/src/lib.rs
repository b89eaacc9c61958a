#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]
#![warn(missing_docs)]

//! Network-saliency methods for convolutional models.
//!
//! The paper's preprocessing layer is **VisualBackProp** (Bojarski et al.,
//! ICRA 2018): a fast method that identifies the input pixels a trained
//! CNN relies on, by averaging each convolutional block's feature maps and
//! cascading them back to input resolution through deconvolutions with
//! pointwise products. This crate implements VBP plus the comparison
//! methods the paper cites:
//!
//! * [`visual_backprop`] — the paper's choice (order-of-magnitude faster),
//! * [`lrp`] — ε-rule Layer-wise Relevance Propagation (paper reference 11),
//! * [`gradient_saliency`] — vanilla input-gradient magnitude,
//! * [`occlusion_saliency`] — sliding-window occlusion probing,
//! * [`mask`] — mask normalisation, overlays and mask/ground-truth
//!   agreement scores used by experiment E1 (Fig. 2).
//!
//! All methods take the trained steering [`Network`] and a grayscale
//! [`Image`], and return a saliency mask normalised to `[0, 1]` at input
//! resolution.

pub mod mask;

mod error;
mod grad;
mod lrp;
mod occlusion;
mod vbp;

pub use error::SaliencyError;
pub use grad::gradient_saliency;
pub use lrp::{lrp, LrpConfig};
pub use occlusion::{occlusion_saliency, OcclusionConfig};
pub use vbp::{visual_backprop, visual_backprop_batch};

use neural::Network;
use vision::Image;

/// Convenience alias used across the crate.
pub type Result<T> = std::result::Result<T, SaliencyError>;

/// Which saliency method to run, so one loop can compare methods side by
/// side (`examples/saliency_viewer.rs`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SaliencyMethod {
    /// VisualBackProp (the paper's preprocessing layer).
    Vbp,
    /// ε-rule Layer-wise Relevance Propagation.
    Lrp {
        /// Stabiliser added to denominators (sign-matched).
        epsilon: f32,
    },
    /// Vanilla input-gradient magnitude.
    Gradient,
    /// Sliding-window occlusion probing.
    Occlusion {
        /// Occluder side length in pixels.
        window: usize,
        /// Step between occluder positions in pixels.
        stride: usize,
    },
}

impl SaliencyMethod {
    /// Short lowercase name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            SaliencyMethod::Vbp => "vbp",
            SaliencyMethod::Lrp { .. } => "lrp",
            SaliencyMethod::Gradient => "gradient",
            SaliencyMethod::Occlusion { .. } => "occlusion",
        }
    }

    /// Runs the selected method. Gradient saliency needs mutable access
    /// to the network (it reuses the training caches); the other methods
    /// only read it, so this dispatcher takes `&mut` for all.
    ///
    /// # Errors
    ///
    /// Propagates the underlying method's errors.
    pub fn compute(&self, network: &mut Network, image: &Image) -> Result<Image> {
        match *self {
            SaliencyMethod::Vbp => visual_backprop(network, image),
            SaliencyMethod::Lrp { epsilon } => lrp(network, image, &LrpConfig { epsilon }),
            SaliencyMethod::Gradient => gradient_saliency(network, image),
            SaliencyMethod::Occlusion { window, stride } => occlusion_saliency(
                network,
                image,
                &OcclusionConfig {
                    window,
                    stride,
                    fill: 0.5,
                },
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn method_names() {
        assert_eq!(SaliencyMethod::Vbp.name(), "vbp");
        assert_eq!(SaliencyMethod::Lrp { epsilon: 0.01 }.name(), "lrp");
        assert_eq!(SaliencyMethod::Gradient.name(), "gradient");
        assert_eq!(
            SaliencyMethod::Occlusion {
                window: 8,
                stride: 4
            }
            .name(),
            "occlusion"
        );
    }
}
