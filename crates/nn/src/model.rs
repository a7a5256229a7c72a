//! Sequential model container.

use crate::layer::Layer;
use crate::loss::{softmax_cross_entropy, softmax_cross_entropy_into};
use crate::optim::Optimizer;
use crate::scratch::NetScratch;
use middle_tensor::Tensor;

/// A feed-forward stack of layers trained with softmax cross-entropy.
///
/// `Sequential` is the unit of federated exchange: devices, edges and the
/// cloud all hold `Sequential` models and blend them through their
/// parameter planes ([`crate::params`]). The model owns every parameter
/// in one contiguous plane — layer after layer, each layer's tensors in
/// its [`Layer::param_lens`] order, the canonical order checkpoints and
/// aggregation use — and its layers hold shapes only. Gradients are not
/// the model's: a training step adds them into a plane of the trainer's
/// ([`NetScratch`] on the workspace path).
#[derive(Clone, Default)]
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
    /// The parameter plane.
    params: Vec<f32>,
    /// Lengths of the parameter tensors the plane is cut into, in order.
    layout: Vec<usize>,
}

/// Length of `layer`'s slice of the plane.
fn width(layer: &dyn Layer) -> usize {
    layer.param_lens().iter().sum()
}

impl Sequential {
    /// An empty model; add layers with [`Sequential::push`].
    pub fn new() -> Self {
        Sequential::default()
    }

    /// Appends a layer, moving its initial parameters to the end of the
    /// plane ([`Layer::take_params`]); returns `self` for builder-style
    /// chaining. The plane is grown to exactly its new length.
    ///
    /// # Panics
    /// Panics when the layer's initial values do not fill its
    /// [`Layer::param_lens`].
    pub fn push(mut self, mut layer: impl Layer + 'static) -> Self {
        let init = layer.take_params();
        assert_eq!(
            init.len(),
            width(&layer),
            "{} hands over parameters its layout does not describe",
            layer.name()
        );
        self.params.reserve_exact(init.len());
        self.params.extend_from_slice(&init);
        self.layout.extend_from_slice(layer.param_lens());
        self.layers.push(Box::new(layer));
        self
    }

    /// Number of layers.
    pub fn depth(&self) -> usize {
        self.layers.len()
    }

    /// The parameter plane: every parameter in canonical order.
    pub fn params(&self) -> &[f32] {
        &self.params
    }

    /// Mutable access to the parameter plane. A holder that caches
    /// something derived from it (a device's norm) must refresh that
    /// cache after writing here.
    pub fn params_mut(&mut self) -> &mut [f32] {
        &mut self.params
    }

    /// Lengths of the parameter tensors, in plane order — the
    /// architecture fingerprint checkpoints carry.
    pub fn layout(&self) -> &[usize] {
        &self.layout
    }

    /// Total scalar parameter count.
    pub fn param_count(&self) -> usize {
        self.params.len()
    }

    /// Heap bytes of the values the model holds: the plane's allocation
    /// and whatever its layers hold ([`Layer::held_bytes`]).
    #[doc(hidden)]
    pub fn held_bytes(&self) -> usize {
        let layers: usize = self.layers.iter().map(|l| l.held_bytes()).sum();
        size_of::<f32>() * self.params.capacity() + layers
    }

    /// Resets every layer's non-parameter state ([`Layer::reset_state`]):
    /// afterwards the model differs from a fresh clone of itself only in
    /// its parameter values.
    pub fn reset_state(&mut self) {
        for layer in &mut self.layers {
            layer.reset_state();
        }
    }

    /// Forward pass through all layers, caching what
    /// [`Sequential::backward`] needs in them.
    pub fn forward(&mut self, input: &Tensor) -> Tensor {
        let mut x = input.clone();
        let mut rest = &self.params[..];
        for layer in &mut self.layers {
            let (p, tail) = rest.split_at(width(&**layer));
            x = layer.forward(p, &x);
            rest = tail;
        }
        x
    }

    /// Backward pass through all layers (after a matching `forward`):
    /// returns the input gradient and adds every parameter gradient into
    /// `grads`, a plane laid out like [`Sequential::params`].
    ///
    /// # Panics
    /// Panics when `grads` is not the plane's length.
    pub fn backward(&mut self, grad_out: &Tensor, grads: &mut [f32]) -> Tensor {
        assert_eq!(grads.len(), self.params.len(), "gradient plane length");
        let mut g = grad_out.clone();
        let mut end = self.params.len();
        for layer in self.layers.iter_mut().rev() {
            let start = end - width(&**layer);
            g = layer.backward(&self.params[start..end], &mut grads[start..end], &g);
            end = start;
        }
        g
    }

    /// One supervised training step on a classification batch:
    /// forward, cross-entropy, backward into a fresh gradient plane,
    /// optimizer step.
    ///
    /// Returns the batch loss.
    pub fn train_batch(
        &mut self,
        inputs: &Tensor,
        labels: &[usize],
        optimizer: &mut dyn Optimizer,
    ) -> f32 {
        let logits = self.forward(inputs);
        let (loss, dlogits) = softmax_cross_entropy(&logits, labels);
        let mut grads = vec![0.0; self.params.len()];
        self.backward(&dlogits, &mut grads);
        optimizer.step(&mut self.params, &mut grads);
        loss
    }

    /// Workspace-backed training step: bitwise-identical to
    /// [`Sequential::train_batch`] but allocation-free in steady state.
    ///
    /// All intermediates live in `scratch`, which is grown on first use
    /// and reused across calls; every layer runs its batched `_into`
    /// passes, which keep their state there. The gradients go
    /// into the scratch's gradient plane ([`NetScratch::grad_plane`]),
    /// which the optimizer step leaves all `+0.0` for the next call.
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
        scratch.ensure_grad_plane(self.params.len());
        let Sequential { layers, params, .. } = self;

        let mut rest = &params[..];
        for i in 0..depth {
            let (p, tail) = rest.split_at(width(&*layers[i]));
            rest = tail;
            let (prev, out) = scratch.acts.split_at_mut(i);
            let input = if i == 0 { inputs } else { &prev[i - 1] };
            layers[i].forward_into(p, input, &mut scratch.ws[i], &mut out[0]);
        }
        let loss =
            softmax_cross_entropy_into(&scratch.acts[depth - 1], labels, &mut scratch.dlogits);
        let lowest = layers
            .iter()
            .position(|l| !l.param_lens().is_empty())
            .unwrap_or(depth);
        let mut end = params.len();
        for i in (lowest..depth).rev() {
            let start = end - width(&*layers[i]);
            let input = if i == 0 { inputs } else { &scratch.acts[i - 1] };
            let output = &scratch.acts[i];
            let (lo, hi) = scratch.grads.split_at_mut(i + 1);
            let grad_out: &Tensor = if i + 1 == depth {
                &scratch.dlogits
            } else {
                &hi[0]
            };
            layers[i].backward_into(
                &params[start..end],
                &mut scratch.grad_plane[start..end],
                input,
                output,
                grad_out,
                &mut scratch.ws[i],
                &mut lo[i],
                i > lowest,
            );
            end = start;
        }
        optimizer.step(params, &mut scratch.grad_plane);
        loss
    }

    /// Workspace-backed cache-free forward pass: bitwise-identical to
    /// [`Sequential::infer`] but allocation-free in steady state. Returns
    /// the logits held inside `scratch`.
    pub fn infer_ws<'s>(&self, input: &Tensor, scratch: &'s mut NetScratch) -> &'s Tensor {
        let depth = self.layers.len();
        assert!(depth > 0, "cannot infer with an empty model");
        scratch.ensure(depth);
        let mut rest = &self.params[..];
        for i in 0..depth {
            let (p, tail) = rest.split_at(width(&*self.layers[i]));
            rest = tail;
            let (prev, out) = scratch.acts.split_at_mut(i);
            let x = if i == 0 { input } else { &prev[i - 1] };
            self.layers[i].infer_into(p, x, &mut scratch.ws[i], &mut out[0]);
        }
        &scratch.acts[depth - 1]
    }

    /// Cache-free forward pass through all layers.
    ///
    /// Numerically identical to [`Sequential::forward`] but takes `&self`,
    /// so evaluation never needs a model clone or exclusive access.
    pub fn infer(&self, input: &Tensor) -> Tensor {
        let mut x = input.clone();
        let mut rest = &self.params[..];
        for layer in &self.layers {
            let (p, tail) = rest.split_at(width(&**layer));
            x = layer.infer(p, &x);
            rest = tail;
        }
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Dense, Relu};
    use crate::optim::Sgd;
    use middle_tensor::random::rng;
    use middle_tensor::reduce::argmax_rows;

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
        let y = m.forward(&Tensor::zeros([5, 2]));
        assert_eq!(y.shape().dims(), &[5, 2]);
        assert_eq!(m.depth(), 3);
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
        let preds = argmax_rows(&m.infer(&x));
        let correct = preds.iter().zip(&ys).filter(|(a, b)| a == b).count();
        assert_eq!(correct, 40);
    }

    #[test]
    fn infer_matches_eval_forward_bitwise() {
        use crate::layers::{Conv2d, Flatten, MaxPool2d};
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
            .push(Dense::new(8, 3, &mut r))
            .push(Relu::new());
        let x = Tensor::from_vec(
            [2, 1, 4, 4],
            (0..32).map(|i| (i as f32) * 0.17 - 2.0).collect(),
        );
        let via_forward = m.forward(&x);
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
        a.train_batch(&Tensor::full([1, 2], 1.0), &[0], &mut opt);
        // b unchanged.
        assert_ne!(a.params(), b.params());
    }

    #[test]
    fn push_builds_one_exact_plane_in_layer_order() {
        let m = tiny_model(5);
        assert_eq!(m.layout(), &[16, 8, 16, 2]);
        assert_eq!(m.params().len(), 42);
        // The plane is the whole of what the model holds.
        assert_eq!(m.held_bytes(), 4 * 42);
        assert_eq!(m.clone().held_bytes(), 4 * 42);
        // Biases start at zero: the slots after each weight.
        assert!(m.params()[16..24].iter().all(|&b| b == 0.0));
        assert!(m.params()[40..].iter().all(|&b| b == 0.0));
    }

    #[test]
    fn backward_adds_into_the_callers_gradient_plane() {
        let mut m = tiny_model(5);
        let y = m.forward(&Tensor::full([2, 2], 1.0));
        let mut once = vec![0.0; m.param_count()];
        m.backward(&Tensor::full(y.shape().clone(), 1.0), &mut once);
        assert!(once.iter().any(|&g| g != 0.0));
        let mut twice = once.clone();
        m.backward(&Tensor::full(y.shape().clone(), 1.0), &mut twice);
        for (a, b) in once.iter().zip(&twice) {
            assert_eq!((a + a).to_bits(), b.to_bits());
        }
    }
}
