//! The ReLU activation layer.

use crate::layer::{Layer, LayerWs};
use middle_tensor::Tensor;

/// Rectified linear unit `max(x, 0)`.
#[derive(Clone, Default)]
pub struct Relu {
    mask: Option<Vec<bool>>,
}

impl Relu {
    /// Creates a ReLU activation.
    pub fn new() -> Self {
        Relu { mask: None }
    }
}

impl Layer for Relu {
    fn name(&self) -> &'static str {
        "relu"
    }

    fn forward(&mut self, _params: &[f32], input: &Tensor) -> Tensor {
        let mut out = input.clone();
        let mask: Vec<bool> = out
            .data_mut()
            .iter_mut()
            .map(|x| {
                let pass = *x > 0.0;
                if !pass {
                    *x = 0.0;
                }
                pass
            })
            .collect();
        self.mask = Some(mask);
        out
    }

    fn infer(&self, _params: &[f32], input: &Tensor) -> Tensor {
        input.map(|x| if x > 0.0 { x } else { 0.0 })
    }

    fn backward(&mut self, _params: &[f32], _grads: &mut [f32], grad_out: &Tensor) -> Tensor {
        let mask = self.mask.as_ref().expect("backward called before forward");
        assert_eq!(
            mask.len(),
            grad_out.len(),
            "grad shape changed since forward"
        );
        let mut out = grad_out.clone();
        for (g, &pass) in out.data_mut().iter_mut().zip(mask) {
            if !pass {
                *g = 0.0;
            }
        }
        out
    }

    fn held_bytes(&self) -> usize {
        self.mask.as_ref().map_or(0, Vec::len)
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(Relu { mask: None })
    }

    fn reset_state(&mut self) {
        self.mask = None;
    }

    fn forward_into(
        &mut self,
        _params: &[f32],
        input: &Tensor,
        _ws: &mut LayerWs,
        out: &mut Tensor,
    ) {
        relu_into(input, out);
    }

    fn backward_into(
        &mut self,
        _params: &[f32],
        _grads: &mut [f32],
        _input: &Tensor,
        output: &Tensor,
        grad_out: &Tensor,
        _ws: &mut LayerWs,
        grad_in: &mut Tensor,
        need_grad_in: bool,
    ) {
        if !need_grad_in {
            return;
        }
        // The mask is recoverable from the forward output: out > 0 ⇔ the
        // input passed (out = x when x > 0, else exactly 0.0) — so no
        // stored mask is needed.
        assert_eq!(output.len(), grad_out.len(), "grad shape changed");
        grad_in.resize(grad_out.shape());
        for ((gi, &go), &y) in grad_in
            .data_mut()
            .iter_mut()
            .zip(grad_out.data())
            .zip(output.data())
        {
            *gi = if y > 0.0 { go } else { 0.0 };
        }
    }

    fn infer_into(&self, _params: &[f32], input: &Tensor, _ws: &mut LayerWs, out: &mut Tensor) {
        relu_into(input, out);
    }
}

/// `out = max(input, 0)` into caller-owned storage, elementwise-identical
/// to the allocating forward/infer paths.
fn relu_into(input: &Tensor, out: &mut Tensor) {
    out.resize(input.shape());
    for (o, &x) in out.data_mut().iter_mut().zip(input.data()) {
        *o = if x > 0.0 { x } else { 0.0 };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_forward_clamps_negatives() {
        let mut r = Relu::new();
        let y = r.forward(&[], &Tensor::from_vec([4], vec![-1., 0., 2., -3.]));
        assert_eq!(y.data(), &[0., 0., 2., 0.]);
    }

    #[test]
    fn relu_backward_masks_gradient() {
        let mut r = Relu::new();
        r.forward(&[], &Tensor::from_vec([4], vec![-1., 0.5, 2., -3.]));
        let dx = r.backward(
            &[],
            &mut [],
            &Tensor::from_vec([4], vec![10., 10., 10., 10.]),
        );
        assert_eq!(dx.data(), &[0., 10., 10., 0.]);
    }

    #[test]
    fn relu_gradient_at_zero_is_zero() {
        // Subgradient convention: x == 0 blocks the gradient.
        let mut r = Relu::new();
        r.forward(&[], &Tensor::from_vec([1], vec![0.0]));
        let dx = r.backward(&[], &mut [], &Tensor::from_vec([1], vec![5.0]));
        assert_eq!(dx.data(), &[0.0]);
    }
}
