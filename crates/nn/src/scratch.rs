//! Persistent network workspace for the zero-allocation train path.
//!
//! A [`NetScratch`] owns every intermediate buffer one
//! [`crate::model::Sequential`] needs for a training step or an inference
//! pass: per-layer activations, per-layer input gradients, per-layer
//! kernel workspaces ([`LayerWs`]), the loss gradient and the parameter
//! gradient plane. Buffers are grown on first use and retained across
//! calls, so a steady-state training loop allocates nothing.

use crate::layer::LayerWs;
use middle_tensor::Tensor;

/// Reusable activation/gradient/workspace storage for one model.
///
/// A scratch is tied to a model *depth*, not a model identity: reusing one
/// scratch across models of the same architecture is fine (buffers are
/// resized on the fly and fully overwritten), and feeding a model of a
/// different depth simply re-grows the vectors. The gradient plane is the
/// exception to "overwritten": backward passes add into it, and every
/// optimizer step leaves it all `+0.0`, so it is zero whenever no step
/// is under way, whatever model the scratch last trained.
#[derive(Clone)]
pub struct NetScratch {
    /// `acts[i]` = output of layer `i` from the most recent pass.
    pub(crate) acts: Vec<Tensor>,
    /// `grads[i]` = gradient w.r.t. the input of layer `i`.
    pub(crate) grads: Vec<Tensor>,
    /// Per-layer kernel workspaces.
    pub(crate) ws: Vec<LayerWs>,
    /// Gradient of the loss w.r.t. the logits.
    pub(crate) dlogits: Tensor,
    /// Gradient of the loss w.r.t. the parameters, laid out like the
    /// model's parameter plane.
    pub(crate) grad_plane: Vec<f32>,
}

impl Default for NetScratch {
    fn default() -> Self {
        Self::new()
    }
}

impl NetScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        NetScratch {
            acts: Vec::new(),
            grads: Vec::new(),
            ws: Vec::new(),
            dlogits: Tensor::zeros([0]),
            grad_plane: Vec::new(),
        }
    }

    /// Sizes the per-layer vectors for a model of `depth` layers.
    pub(crate) fn ensure(&mut self, depth: usize) {
        if self.ws.len() != depth {
            self.acts = (0..depth).map(|_| Tensor::zeros([0])).collect();
            self.grads = (0..depth).map(|_| Tensor::zeros([0])).collect();
            self.ws = (0..depth).map(|_| LayerWs::None).collect();
        }
    }

    /// Sizes the gradient plane for a model of `len` parameters: a plane
    /// of another length is replaced by zeros; one of this length is
    /// already zero (the last optimizer step zeroed it).
    pub(crate) fn ensure_grad_plane(&mut self, len: usize) {
        if self.grad_plane.len() != len {
            self.grad_plane.clear();
            self.grad_plane.resize(len, 0.0);
        }
    }

    /// The parameter gradient plane; all `+0.0` between training steps.
    pub fn grad_plane(&self) -> &[f32] {
        &self.grad_plane
    }
}
