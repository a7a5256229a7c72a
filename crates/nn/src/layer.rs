//! The [`Layer`] trait and trainable [`Param`] storage.

use middle_tensor::conv::ConvScratch;
use middle_tensor::Tensor;
use serde::{Deserialize, Serialize};

/// A trainable parameter tensor paired with its gradient accumulator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Param {
    /// Current parameter values.
    pub value: Tensor,
    /// Gradient of the loss w.r.t. `value`, accumulated by `backward`.
    pub grad: Tensor,
}

impl Param {
    /// Wraps an initial value with a zeroed gradient of the same shape.
    pub fn new(value: Tensor) -> Self {
        let grad = Tensor::zeros(value.shape().clone());
        Param { value, grad }
    }

    /// Number of scalar parameters.
    pub fn len(&self) -> usize {
        self.value.len()
    }

    /// True when the parameter holds no elements.
    pub fn is_empty(&self) -> bool {
        self.value.is_empty()
    }

    /// Clears the accumulated gradient.
    pub fn zero_grad(&mut self) {
        self.grad.data_mut().fill(0.0);
    }
}

/// Per-layer reusable workspace for the zero-allocation train path.
///
/// One `LayerWs` accompanies each layer inside a
/// [`crate::scratch::NetScratch`]. Layers lazily coerce the slot to their
/// own variant on first use, so a fresh `NetScratch` starts as all
/// [`LayerWs::None`]; layers without a workspace override simply leave it
/// there and run the allocating fallback path.
#[derive(Debug, Default, Clone)]
pub enum LayerWs {
    /// No workspace (allocating fallback path).
    #[default]
    None,
    /// Batched convolution workspace.
    Conv {
        /// The padded batch the forward leaves for the backward, and the
        /// backward's own staging buffers.
        scratch: ConvScratch,
        /// Weight-gradient staging, added into [`Param::grad`] per batch.
        dw: Tensor,
        /// Bias-gradient staging.
        db: Tensor,
    },
    /// Dense parameter-gradient staging.
    Dense {
        /// Weight-gradient staging.
        dw: Tensor,
        /// Bias-gradient staging.
        db: Tensor,
    },
    /// Max-pool argmax table.
    Pool {
        /// Flat argmax indices from the forward pass.
        arg: Vec<u32>,
    },
}

/// One differentiable stage of a [`crate::model::Sequential`] network.
///
/// The forward pass may cache whatever it needs for the backward pass
/// (inputs, masks, argmax tables); `backward` must be called after the
/// matching `forward`, with the upstream gradient of the forward output,
/// and returns the gradient w.r.t. the forward input while accumulating
/// parameter gradients into [`Param::grad`].
pub trait Layer: Send + Sync {
    /// Human-readable layer name for summaries and error messages.
    fn name(&self) -> &'static str;

    /// Forward pass. `train` enables training-only behaviour (dropout).
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor;

    /// Backward pass: upstream gradient in, input gradient out.
    fn backward(&mut self, grad_out: &Tensor) -> Tensor;

    /// Cache-free evaluation-mode forward pass.
    ///
    /// Semantically equivalent to `forward(input, false)` but takes
    /// `&self`: no backward caches are written, so shared references to a
    /// model can run inference concurrently. The default falls back to
    /// cloning the layer; every concrete layer overrides it with a
    /// direct computation.
    fn infer(&self, input: &Tensor) -> Tensor {
        let mut scratch = self.clone_box();
        scratch.forward(input, false)
    }

    /// Mutable access to this layer's trainable parameters (possibly none).
    fn params_mut(&mut self) -> &mut [Param] {
        &mut []
    }

    /// Shared access to this layer's trainable parameters (possibly none).
    fn params(&self) -> &[Param] {
        &[]
    }

    /// Clones the layer behind the trait object (models are cloned per
    /// federated device).
    fn clone_box(&self) -> Box<dyn Layer>;

    /// Returns the layer's non-parameter state to what
    /// [`Layer::clone_box`] hands out: backward caches dropped, a
    /// layer-owned rng re-seeded. Parameters and gradients are left
    /// alone. A pooled model is re-purposed for another device through
    /// this, so whatever a layer carries between batches besides its
    /// parameters must be reset here.
    fn reset_state(&mut self) {}

    /// Workspace-backed forward pass writing into caller-owned `out`.
    ///
    /// Bitwise-identical to [`Layer::forward`] but allocation-free when
    /// overridden: `out` is resized and fully overwritten, and whatever
    /// the backward pass needs lands in `ws` instead of internal caches.
    /// Overriding layers must not rely on internal caches —
    /// [`Layer::backward_into`] receives the forward `input`/`output`
    /// tensors explicitly. The default falls back to the allocating
    /// [`Layer::forward`] (which caches), so unoverridden layers keep
    /// working through their cache-based [`Layer::backward`].
    fn forward_into(&mut self, input: &Tensor, train: bool, ws: &mut LayerWs, out: &mut Tensor) {
        let _ = ws;
        *out = self.forward(input, train);
    }

    /// Workspace-backed backward pass writing into caller-owned `grad_in`.
    ///
    /// `input`/`output` are the exact tensors seen/produced by the
    /// matching [`Layer::forward_into`]. Parameter gradients accumulate
    /// into [`Param::grad`] exactly like [`Layer::backward`]. When
    /// `need_grad_in` is false the input gradient may be skipped entirely
    /// (the first layer of a network never needs one) and `grad_in` is
    /// left unspecified.
    #[allow(clippy::too_many_arguments)]
    fn backward_into(
        &mut self,
        input: &Tensor,
        output: &Tensor,
        grad_out: &Tensor,
        ws: &mut LayerWs,
        grad_in: &mut Tensor,
        need_grad_in: bool,
    ) {
        let _ = (input, output, ws);
        let g = self.backward(grad_out);
        if need_grad_in {
            *grad_in = g;
        }
    }

    /// Workspace-backed evaluation-mode forward pass into caller-owned
    /// `out`. Bitwise-identical to [`Layer::infer`].
    fn infer_into(&self, input: &Tensor, ws: &mut LayerWs, out: &mut Tensor) {
        let _ = ws;
        *out = self.infer(input);
    }
}

impl Clone for Box<dyn Layer> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn param_starts_with_zero_grad() {
        let p = Param::new(Tensor::ones([3]));
        assert_eq!(p.grad.data(), &[0., 0., 0.]);
        assert_eq!(p.len(), 3);
    }

    #[test]
    fn zero_grad_clears() {
        let mut p = Param::new(Tensor::ones([2]));
        p.grad.data_mut().copy_from_slice(&[5., 6.]);
        p.zero_grad();
        assert_eq!(p.grad.data(), &[0., 0.]);
    }
}
