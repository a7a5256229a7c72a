//! The [`Layer`] trait.
//!
//! A layer holds its shapes and, between a forward and its backward,
//! whatever that pair caches; its parameters live in the owning
//! [`crate::model::Sequential`]'s one parameter plane, and every pass is
//! handed the layer's slice of it. Gradients live in a plane of the
//! trainer's ([`crate::scratch::NetScratch`] on the workspace path), of
//! which a backward pass is handed the same slice.

use middle_tensor::conv::ConvScratch;
use middle_tensor::Tensor;

/// Per-layer reusable workspace for the zero-allocation train path.
///
/// One `LayerWs` accompanies each layer inside a
/// [`crate::scratch::NetScratch`]. Layers lazily coerce the slot to their
/// own variant on first use, so a fresh `NetScratch` starts as all
/// [`LayerWs::None`]; layers that need no workspace leave it there.
#[derive(Debug, Default, Clone)]
pub enum LayerWs {
    /// No workspace.
    #[default]
    None,
    /// Batched convolution workspace.
    Conv {
        /// The padded batch the forward leaves for the backward, and the
        /// backward's own staging buffers.
        scratch: ConvScratch,
        /// Weight-gradient staging, added into the gradient plane per
        /// batch.
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
/// Every pass takes `params`, the layer's slice of the model's parameter
/// plane: its parameter tensors back to back in the order of
/// [`Layer::param_lens`] (a parameterless layer gets an empty slice).
/// A layer computes the same function in training and evaluation and
/// carries nothing from one batch to the next. Every pass comes in two
/// forms. The allocating oracle pair ([`Layer::forward`] /
/// [`Layer::backward`], and [`Layer::infer`]) caches what the backward
/// needs (inputs, masks, argmax tables) in the layer; `backward` must be
/// called after the matching `forward`, with the upstream gradient of
/// the forward output, and returns the gradient w.r.t. the forward input
/// while adding the parameter gradients into `grads`, the layer's slice
/// of a gradient plane laid out like `params`. The workspace passes
/// (`*_into`) keep that state in a [`LayerWs`] instead and are bitwise
/// identical to the oracle pair.
pub trait Layer: Send + Sync {
    /// Human-readable layer name for error messages.
    fn name(&self) -> &'static str;

    /// Forward pass.
    fn forward(&mut self, params: &[f32], input: &Tensor) -> Tensor;

    /// Backward pass: upstream gradient in, input gradient out; the
    /// parameter gradients are added into `grads`.
    fn backward(&mut self, params: &[f32], grads: &mut [f32], grad_out: &Tensor) -> Tensor;

    /// Cache-free forward pass: equal to [`Layer::forward`] but takes
    /// `&self`, so no backward caches are written and shared references
    /// to a model can run inference concurrently.
    fn infer(&self, params: &[f32], input: &Tensor) -> Tensor;

    /// Lengths of the layer's parameter tensors, in canonical order (a
    /// dense layer's weight, then its bias); empty for a parameterless
    /// layer. Their sum is the length of the layer's slice of the plane.
    fn param_lens(&self) -> &[usize] {
        &[]
    }

    /// Moves out the layer's initial parameter values, laid out as
    /// [`Layer::param_lens`] says. [`crate::model::Sequential::push`]
    /// appends them to the model's plane, after which the layer holds
    /// shapes only and this returns an empty vector.
    fn take_params(&mut self) -> Vec<f32> {
        Vec::new()
    }

    /// Heap bytes of the values the layer holds: backward caches, and
    /// initial parameters not yet taken. Zero for a layer of a model
    /// that trains through the workspace path.
    #[doc(hidden)]
    fn held_bytes(&self) -> usize {
        0
    }

    /// Clones the layer behind the trait object (models are cloned per
    /// federated device).
    fn clone_box(&self) -> Box<dyn Layer>;

    /// Returns the layer to what [`Layer::clone_box`] hands out: the
    /// allocating forward's backward cache dropped. A pooled model is
    /// re-purposed for another device through this.
    fn reset_state(&mut self) {}

    /// Workspace-backed forward pass writing into caller-owned `out`.
    ///
    /// Bitwise-identical to [`Layer::forward`] and allocation-free in
    /// steady state: `out` is resized and fully overwritten, and whatever
    /// the backward pass needs lands in `ws`, never in the layer —
    /// [`Layer::backward_into`] receives the forward `input`/`output`
    /// tensors explicitly.
    fn forward_into(&mut self, params: &[f32], input: &Tensor, ws: &mut LayerWs, out: &mut Tensor);

    /// Workspace-backed backward pass writing into caller-owned `grad_in`.
    ///
    /// `input`/`output` are the exact tensors seen/produced by the
    /// matching [`Layer::forward_into`]. Parameter gradients are added
    /// into `grads` exactly like [`Layer::backward`] adds them. When
    /// `need_grad_in` is false the input gradient may be skipped entirely
    /// (the first layer of a network never needs one) and `grad_in` is
    /// left unspecified.
    #[allow(clippy::too_many_arguments)]
    fn backward_into(
        &mut self,
        params: &[f32],
        grads: &mut [f32],
        input: &Tensor,
        output: &Tensor,
        grad_out: &Tensor,
        ws: &mut LayerWs,
        grad_in: &mut Tensor,
        need_grad_in: bool,
    );

    /// Workspace-backed cache-free forward pass into caller-owned `out`.
    /// Bitwise-identical to [`Layer::infer`].
    fn infer_into(&self, params: &[f32], input: &Tensor, ws: &mut LayerWs, out: &mut Tensor);
}

/// `grads += staged`, elementwise: a backward pass's compute-then-add of
/// one parameter tensor's gradient. Adding into the zeroed plane, rather
/// than storing, keeps a `-0.0` gradient `+0.0`, as a fresh accumulator
/// always made it.
pub(crate) fn add_grad(grads: &mut [f32], staged: &[f32]) {
    assert_eq!(grads.len(), staged.len(), "gradient slice length");
    for (g, &d) in grads.iter_mut().zip(staged) {
        *g += d;
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
    fn add_grad_keeps_a_negative_zero_positive() {
        let mut plane = [0.0f32, 1.0];
        add_grad(&mut plane, &[-0.0, 2.0]);
        assert_eq!(plane[0].to_bits(), 0.0f32.to_bits());
        assert_eq!(plane[1], 3.0);
    }
}
