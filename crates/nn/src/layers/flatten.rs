//! Flatten layer: NCHW activations → `[N, C*H*W]` features.

use crate::layer::{Layer, LayerWs};
use middle_tensor::{Shape, Tensor};

/// Reshapes `[N, ...]` into `[N, prod(...)]`, remembering the original
/// shape for the backward pass. A pure view change — no arithmetic.
#[derive(Clone, Default)]
pub struct Flatten {
    cached_shape: Option<Shape>,
}

impl Flatten {
    /// Creates a flatten layer.
    pub fn new() -> Self {
        Flatten { cached_shape: None }
    }
}

impl Layer for Flatten {
    fn name(&self) -> &'static str {
        "flatten"
    }

    fn forward(&mut self, input: &Tensor, _train: bool) -> Tensor {
        assert!(input.shape().rank() >= 1, "flatten needs a batch dimension");
        self.cached_shape = Some(input.shape().clone());
        let n = input.shape().dim(0);
        let rest = input.len() / n.max(1);
        input.reshaped([n, rest])
    }

    fn infer(&self, input: &Tensor) -> Tensor {
        assert!(input.shape().rank() >= 1, "flatten needs a batch dimension");
        let n = input.shape().dim(0);
        let rest = input.len() / n.max(1);
        input.reshaped([n, rest])
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let shape = self
            .cached_shape
            .as_ref()
            .expect("backward called before forward");
        grad_out.reshaped(shape.clone())
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(Flatten { cached_shape: None })
    }

    fn reset_state(&mut self) {
        self.cached_shape = None;
    }

    fn forward_into(&mut self, input: &Tensor, _train: bool, _ws: &mut LayerWs, out: &mut Tensor) {
        flatten_into(input, out);
    }

    fn backward_into(
        &mut self,
        input: &Tensor,
        _output: &Tensor,
        grad_out: &Tensor,
        _ws: &mut LayerWs,
        grad_in: &mut Tensor,
        need_grad_in: bool,
    ) {
        if !need_grad_in {
            return;
        }
        grad_in.resize(input.shape());
        grad_in.data_mut().copy_from_slice(grad_out.data());
    }

    fn infer_into(&self, input: &Tensor, _ws: &mut LayerWs, out: &mut Tensor) {
        flatten_into(input, out);
    }
}

/// Copies `input` into `out` under the flattened `[N, rest]` shape — the
/// workspace counterpart of the reshaping clone.
fn flatten_into(input: &Tensor, out: &mut Tensor) {
    assert!(input.shape().rank() >= 1, "flatten needs a batch dimension");
    let n = input.shape().dim(0);
    let rest = input.len() / n.max(1);
    out.resize([n, rest]);
    out.data_mut().copy_from_slice(input.data());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_flattens_and_backward_restores() {
        let mut f = Flatten::new();
        let x = Tensor::from_vec([2, 1, 2, 2], (0..8).map(|i| i as f32).collect());
        let y = f.forward(&x, true);
        assert_eq!(y.shape().dims(), &[2, 4]);
        let dx = f.backward(&y);
        assert_eq!(dx.shape().dims(), &[2, 1, 2, 2]);
        assert_eq!(dx.data(), x.data());
    }
}
