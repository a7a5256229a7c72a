//! Sequential model container.

use crate::layer::{Layer, Param};
use crate::loss::{softmax_cross_entropy, softmax_cross_entropy_into};
use crate::optim::{Optimizer, ParamSet};
use crate::scratch::NetScratch;
use middle_tensor::reduce::argmax_rows;
use middle_tensor::Tensor;

/// A feed-forward stack of layers trained with softmax cross-entropy.
///
/// `Sequential` is the unit of federated exchange: devices, edges and the
/// cloud all hold `Sequential` models and blend them through the flat
/// parameter view in [`crate::params`].
#[derive(Clone, Default)]
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl Sequential {
    /// An empty model; add layers with [`Sequential::push`].
    pub fn new() -> Self {
        Sequential { layers: Vec::new() }
    }

    /// Appends a layer, returning `self` for builder-style chaining.
    pub fn push(mut self, layer: impl Layer + 'static) -> Self {
        self.layers.push(Box::new(layer));
        self
    }

    /// Number of layers.
    pub fn depth(&self) -> usize {
        self.layers.len()
    }

    /// Layer names in order, for summaries.
    pub fn layer_names(&self) -> Vec<&'static str> {
        self.layers.iter().map(|l| l.name()).collect()
    }

    /// Forward pass through all layers.
    pub fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        let mut x = input.clone();
        for layer in &mut self.layers {
            x = layer.forward(&x, train);
        }
        x
    }

    /// Backward pass through all layers (after a matching `forward`).
    pub fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let mut g = grad_out.clone();
        for layer in self.layers.iter_mut().rev() {
            g = layer.backward(&g);
        }
        g
    }

    /// All trainable parameters in canonical (layer, param) order.
    pub fn params(&self) -> Vec<&Param> {
        self.layers.iter().flat_map(|l| l.params()).collect()
    }

    /// Mutable view of all trainable parameters in canonical order.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        self.layers
            .iter_mut()
            .flat_map(|l| l.params_mut())
            .collect()
    }

    /// Total scalar parameter count.
    pub fn param_count(&self) -> usize {
        self.params().iter().map(|p| p.len()).sum()
    }

    /// Clears all accumulated gradients.
    pub fn zero_grad(&mut self) {
        self.visit(&mut |_, p| p.zero_grad());
    }

    /// Resets every layer's non-parameter state ([`Layer::reset_state`]):
    /// afterwards the model differs from a fresh clone of itself only in
    /// its parameter values.
    pub fn reset_state(&mut self) {
        for layer in &mut self.layers {
            layer.reset_state();
        }
    }

    /// One supervised training step on a classification batch:
    /// forward, cross-entropy, backward, optimizer step.
    ///
    /// Returns the batch loss.
    pub fn train_batch(
        &mut self,
        inputs: &Tensor,
        labels: &[usize],
        optimizer: &mut dyn Optimizer,
    ) -> f32 {
        let logits = self.forward(inputs, true);
        let (loss, dlogits) = softmax_cross_entropy(&logits, labels);
        self.backward(&dlogits);
        optimizer.step(self);
        loss
    }

    /// Workspace-backed training step: bitwise-identical to
    /// [`Sequential::train_batch`] but allocation-free in steady state.
    ///
    /// All intermediates live in `scratch`, which is grown on first use
    /// and reused across calls; layers with workspace kernels (conv,
    /// dense, relu, pool, flatten) run their batched `_into` paths and the
    /// rest fall back to the allocating trait defaults.
    ///
    /// The backward pass stops at the lowest layer with parameters, which
    /// computes no input gradient: nothing below it has a gradient to
    /// take (the Speech MLP's first `Dense` no longer computes a `dx` its
    /// `Flatten` would drop). The skipped tensors are never read, so this
    /// moves no bit.
    pub fn train_batch_ws(
        &mut self,
        inputs: &Tensor,
        labels: &[usize],
        optimizer: &mut dyn Optimizer,
        scratch: &mut NetScratch,
    ) -> f32 {
        let depth = self.layers.len();
        assert!(depth > 0, "cannot train an empty model");
        scratch.ensure(depth);

        for i in 0..depth {
            let (prev, rest) = scratch.acts.split_at_mut(i);
            let input = if i == 0 { inputs } else { &prev[i - 1] };
            self.layers[i].forward_into(input, true, &mut scratch.ws[i], &mut rest[0]);
        }
        let loss =
            softmax_cross_entropy_into(&scratch.acts[depth - 1], labels, &mut scratch.dlogits);
        let lowest = self
            .layers
            .iter()
            .position(|l| !l.params().is_empty())
            .unwrap_or(depth);
        for i in (lowest..depth).rev() {
            let input = if i == 0 { inputs } else { &scratch.acts[i - 1] };
            let output = &scratch.acts[i];
            let (lo, hi) = scratch.grads.split_at_mut(i + 1);
            let grad_out: &Tensor = if i + 1 == depth {
                &scratch.dlogits
            } else {
                &hi[0]
            };
            self.layers[i].backward_into(
                input,
                output,
                grad_out,
                &mut scratch.ws[i],
                &mut lo[i],
                i > lowest,
            );
        }
        optimizer.step(self);
        loss
    }

    /// Workspace-backed evaluation-mode forward pass: bitwise-identical to
    /// [`Sequential::infer`] but allocation-free in steady state. Returns
    /// the logits held inside `scratch`.
    pub fn infer_ws<'s>(&self, input: &Tensor, scratch: &'s mut NetScratch) -> &'s Tensor {
        let depth = self.layers.len();
        assert!(depth > 0, "cannot infer with an empty model");
        scratch.ensure(depth);
        for i in 0..depth {
            let (prev, rest) = scratch.acts.split_at_mut(i);
            let x = if i == 0 { input } else { &prev[i - 1] };
            self.layers[i].infer_into(x, &mut scratch.ws[i], &mut rest[0]);
        }
        &scratch.acts[depth - 1]
    }

    /// Cache-free evaluation-mode forward pass through all layers.
    ///
    /// Numerically identical to `forward(input, false)` but takes `&self`,
    /// so evaluation never needs a model clone or exclusive access.
    pub fn infer(&self, input: &Tensor) -> Tensor {
        let mut x = input.clone();
        for layer in &self.layers {
            x = layer.infer(&x);
        }
        x
    }

    /// Predicted class labels for a batch (evaluation mode).
    pub fn predict(&self, inputs: &Tensor) -> Vec<usize> {
        let logits = self.infer(inputs);
        argmax_rows(&logits)
    }

    /// Mean cross-entropy loss on a batch without updating parameters.
    pub fn eval_loss(&self, inputs: &Tensor, labels: &[usize]) -> f32 {
        let logits = self.infer(inputs);
        softmax_cross_entropy(&logits, labels).0
    }
}

impl ParamSet for Sequential {
    fn count(&self) -> usize {
        self.layers.iter().map(|l| l.params().len()).sum()
    }

    fn visit(&mut self, f: &mut dyn FnMut(usize, &mut Param)) {
        let params = self.layers.iter_mut().flat_map(|l| l.params_mut());
        for (i, p) in params.enumerate() {
            f(i, p);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Dense, Relu};
    use crate::optim::Sgd;
    use middle_tensor::random::rng;

    fn tiny_model(seed: u64) -> Sequential {
        let mut r = rng(seed);
        Sequential::new()
            .push(Dense::new(2, 8, &mut r))
            .push(Relu::new())
            .push(Dense::new(8, 2, &mut r))
    }

    #[test]
    fn forward_shapes_flow_through() {
        let mut m = tiny_model(1);
        let y = m.forward(&Tensor::zeros([5, 2]), false);
        assert_eq!(y.shape().dims(), &[5, 2]);
        assert_eq!(m.depth(), 3);
        assert_eq!(m.layer_names(), vec!["dense", "relu", "dense"]);
    }

    #[test]
    fn param_count_matches_layer_sizes() {
        let m = tiny_model(2);
        // dense(2,8): 16+8, dense(8,2): 16+2.
        assert_eq!(m.param_count(), 16 + 8 + 16 + 2);
    }

    #[test]
    fn training_separates_two_blobs() {
        // Two linearly separable clusters; a tiny MLP must fit them.
        let mut m = tiny_model(3);
        let mut opt = Sgd::new(0.5);
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..20 {
            let t = i as f32 * 0.1;
            xs.extend_from_slice(&[1.0 + 0.05 * t, 1.0 - 0.05 * t]);
            ys.push(0usize);
            xs.extend_from_slice(&[-1.0 - 0.05 * t, -1.0 + 0.05 * t]);
            ys.push(1usize);
        }
        let x = Tensor::from_vec([40, 2], xs);
        let mut last = f32::INFINITY;
        for _ in 0..100 {
            last = m.train_batch(&x, &ys, &mut opt);
        }
        assert!(last < 0.05, "loss {last}");
        let preds = m.predict(&x);
        let correct = preds.iter().zip(&ys).filter(|(a, b)| a == b).count();
        assert_eq!(correct, 40);
    }

    #[test]
    fn infer_matches_eval_forward_bitwise() {
        use crate::layers::{Conv2d, Dropout, Flatten, MaxPool2d, Tanh};
        use middle_tensor::conv::ConvGeometry;
        let mut r = rng(6);
        let mut m = Sequential::new()
            .push(Conv2d::new(
                ConvGeometry {
                    in_c: 1,
                    out_c: 2,
                    kernel: 3,
                    stride: 1,
                    pad: 1,
                    in_h: 4,
                    in_w: 4,
                },
                &mut r,
            ))
            .push(Relu::new())
            .push(MaxPool2d::new(2))
            .push(Flatten::new())
            .push(Dropout::new(0.3, 11))
            .push(Dense::new(8, 3, &mut r))
            .push(Tanh::new());
        let x = Tensor::from_vec(
            [2, 1, 4, 4],
            (0..32).map(|i| (i as f32) * 0.17 - 2.0).collect(),
        );
        let via_forward = m.forward(&x, false);
        let via_infer = m.infer(&x);
        assert_eq!(via_forward.shape(), via_infer.shape());
        for (a, b) in via_forward.data().iter().zip(via_infer.data()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn clone_is_independent() {
        let mut a = tiny_model(4);
        let b = a.clone();
        let mut opt = Sgd::new(0.1);
        a.train_batch(&Tensor::ones([1, 2]), &[0], &mut opt);
        // b unchanged.
        let pa = a.params();
        let pb = b.params();
        assert_ne!(pa[0].value, pb[0].value);
    }

    #[test]
    fn zero_grad_clears_all() {
        let mut m = tiny_model(5);
        let y = m.forward(&Tensor::ones([2, 2]), true);
        m.backward(&Tensor::ones(y.shape().clone()));
        assert!(m
            .params()
            .iter()
            .any(|p| p.grad.data().iter().any(|&g| g != 0.0)));
        m.zero_grad();
        assert!(m
            .params()
            .iter()
            .all(|p| p.grad.data().iter().all(|&g| g == 0.0)));
    }
}
