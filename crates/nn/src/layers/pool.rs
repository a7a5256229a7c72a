//! Max-pooling layer over NCHW activations.

use crate::layer::{Layer, LayerWs};
use middle_tensor::conv::{
    maxpool2d_backward, maxpool2d_backward_into, maxpool2d_forward, maxpool2d_forward_into,
};
use middle_tensor::{Shape, Tensor};

/// Coerces a workspace slot to the pool variant, initialising it lazily.
fn pool_ws(ws: &mut LayerWs) -> &mut Vec<u32> {
    if !matches!(ws, LayerWs::Pool { .. }) {
        *ws = LayerWs::Pool { arg: Vec::new() };
    }
    match ws {
        LayerWs::Pool { arg } => arg,
        _ => unreachable!(),
    }
}

/// Non-overlapping max pooling with a square window (stride = window).
#[derive(Clone)]
pub struct MaxPool2d {
    window: usize,
    cached: Option<(Shape, Vec<u32>)>,
}

impl MaxPool2d {
    /// Creates a pooling layer with the given window extent.
    ///
    /// # Panics
    /// Panics when `window == 0`.
    pub fn new(window: usize) -> Self {
        assert!(window > 0, "pool window must be positive");
        MaxPool2d {
            window,
            cached: None,
        }
    }
}

impl Layer for MaxPool2d {
    fn name(&self) -> &'static str {
        "maxpool2d"
    }

    fn forward(&mut self, _params: &[f32], input: &Tensor) -> Tensor {
        let (out, arg) = maxpool2d_forward(input, self.window);
        self.cached = Some((input.shape().clone(), arg));
        out
    }

    fn infer(&self, _params: &[f32], input: &Tensor) -> Tensor {
        let (out, _) = maxpool2d_forward(input, self.window);
        out
    }

    fn backward(&mut self, _params: &[f32], _grads: &mut [f32], grad_out: &Tensor) -> Tensor {
        let (shape, arg) = self
            .cached
            .as_ref()
            .expect("backward called before forward");
        maxpool2d_backward(shape, grad_out, arg)
    }

    fn held_bytes(&self) -> usize {
        size_of::<u32>() * self.cached.as_ref().map_or(0, |(_, arg)| arg.len())
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(MaxPool2d {
            window: self.window,
            cached: None,
        })
    }

    fn reset_state(&mut self) {
        self.cached = None;
    }

    fn forward_into(
        &mut self,
        _params: &[f32],
        input: &Tensor,
        ws: &mut LayerWs,
        out: &mut Tensor,
    ) {
        maxpool2d_forward_into(input, self.window, out, pool_ws(ws));
    }

    fn backward_into(
        &mut self,
        _params: &[f32],
        _grads: &mut [f32],
        input: &Tensor,
        _output: &Tensor,
        grad_out: &Tensor,
        ws: &mut LayerWs,
        grad_in: &mut Tensor,
        need_grad_in: bool,
    ) {
        if !need_grad_in {
            return;
        }
        maxpool2d_backward_into(input.shape(), grad_out, pool_ws(ws), grad_in);
    }

    fn infer_into(&self, _params: &[f32], input: &Tensor, ws: &mut LayerWs, out: &mut Tensor) {
        maxpool2d_forward_into(input, self.window, out, pool_ws(ws));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_backward_roundtrip() {
        let mut p = MaxPool2d::new(2);
        let x = Tensor::from_vec([1, 1, 2, 2], vec![1., 4., 2., 3.]);
        let y = p.forward(&[], &x);
        assert_eq!(y.data(), &[4.]);
        let dx = p.backward(&[], &mut [], &Tensor::from_vec([1, 1, 1, 1], vec![2.0]));
        assert_eq!(dx.data(), &[0., 2., 0., 0.]);
    }

    #[test]
    fn shape_halves_with_window_two() {
        let mut p = MaxPool2d::new(2);
        let y = p.forward(&[], &Tensor::zeros([2, 3, 8, 8]));
        assert_eq!(y.shape().dims(), &[2, 3, 4, 4]);
    }
}
