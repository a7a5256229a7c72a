//! Elementwise activation layers.

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

    fn forward(&mut self, input: &Tensor, _train: bool) -> Tensor {
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

    fn infer(&self, input: &Tensor) -> Tensor {
        input.map(|x| if x > 0.0 { x } else { 0.0 })
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
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

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(Relu { mask: None })
    }

    fn reset_state(&mut self) {
        self.mask = None;
    }

    fn forward_into(&mut self, input: &Tensor, _train: bool, _ws: &mut LayerWs, out: &mut Tensor) {
        relu_into(input, out);
    }

    fn backward_into(
        &mut self,
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

    fn infer_into(&self, input: &Tensor, _ws: &mut LayerWs, out: &mut Tensor) {
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

/// Hyperbolic tangent activation.
#[derive(Clone, Default)]
pub struct Tanh {
    cached_output: Option<Tensor>,
}

impl Tanh {
    /// Creates a tanh activation.
    pub fn new() -> Self {
        Tanh {
            cached_output: None,
        }
    }
}

impl Layer for Tanh {
    fn name(&self) -> &'static str {
        "tanh"
    }

    fn forward(&mut self, input: &Tensor, _train: bool) -> Tensor {
        let out = input.map(|x| x.tanh());
        self.cached_output = Some(out.clone());
        out
    }

    fn infer(&self, input: &Tensor) -> Tensor {
        input.map(|x| x.tanh())
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let y = self
            .cached_output
            .as_ref()
            .expect("backward called before forward");
        let mut out = grad_out.clone();
        for (g, &yv) in out.data_mut().iter_mut().zip(y.data()) {
            *g *= 1.0 - yv * yv;
        }
        out
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(Tanh {
            cached_output: None,
        })
    }

    fn reset_state(&mut self) {
        self.cached_output = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_forward_clamps_negatives() {
        let mut r = Relu::new();
        let y = r.forward(&Tensor::from_vec([4], vec![-1., 0., 2., -3.]), true);
        assert_eq!(y.data(), &[0., 0., 2., 0.]);
    }

    #[test]
    fn relu_backward_masks_gradient() {
        let mut r = Relu::new();
        r.forward(&Tensor::from_vec([4], vec![-1., 0.5, 2., -3.]), true);
        let dx = r.backward(&Tensor::from_vec([4], vec![10., 10., 10., 10.]));
        assert_eq!(dx.data(), &[0., 10., 10., 0.]);
    }

    #[test]
    fn relu_gradient_at_zero_is_zero() {
        // Subgradient convention: x == 0 blocks the gradient.
        let mut r = Relu::new();
        r.forward(&Tensor::from_vec([1], vec![0.0]), true);
        let dx = r.backward(&Tensor::from_vec([1], vec![5.0]));
        assert_eq!(dx.data(), &[0.0]);
    }

    #[test]
    fn tanh_matches_finite_difference() {
        let mut t = Tanh::new();
        let x = Tensor::from_vec([3], vec![-0.7, 0.0, 1.3]);
        t.forward(&x, true);
        let dx = t.backward(&Tensor::ones([3]));
        let eps = 1e-3;
        for i in 0..3 {
            let fd = ((x.data()[i] + eps).tanh() - (x.data()[i] - eps).tanh()) / (2.0 * eps);
            assert!((fd - dx.data()[i]).abs() < 1e-4);
        }
    }
}
