//! Inverted dropout with a layer-owned deterministic RNG.

use crate::layer::{Layer, LayerWs};
use middle_tensor::random::rng;
use middle_tensor::Tensor;
use rand::rngs::StdRng;
use rand::Rng;

/// The mask of `ws`, coercing the slot to [`LayerWs::Dropout`].
fn ws_mask(ws: &mut LayerWs) -> &mut Vec<f32> {
    if !matches!(ws, LayerWs::Dropout { .. }) {
        *ws = LayerWs::Dropout { mask: Vec::new() };
    }
    match ws {
        LayerWs::Dropout { mask } => mask,
        _ => unreachable!(),
    }
}

/// `out = input`, into caller-owned storage.
fn copy_into(input: &Tensor, out: &mut Tensor) {
    out.resize(input.shape());
    out.data_mut().copy_from_slice(input.data());
}

/// `out = input ⊙ mask`, elementwise, into caller-owned storage.
fn mask_into(input: &Tensor, mask: &[f32], out: &mut Tensor) {
    out.resize(input.shape());
    for ((o, &x), &m) in out.data_mut().iter_mut().zip(input.data()).zip(mask) {
        *o = x * m;
    }
}

/// Inverted dropout: at train time each activation is zeroed with
/// probability `p` and survivors are scaled by `1/(1-p)`, so evaluation
/// needs no rescaling. Each layer instance owns a seeded RNG, keeping
/// whole-simulation runs reproducible.
pub struct Dropout {
    p: f32,
    rng: StdRng,
    seed: u64,
    mask: Option<Vec<f32>>,
}

impl Dropout {
    /// Creates a dropout layer with drop probability `p` and RNG seed.
    ///
    /// # Panics
    /// Panics unless `0.0 <= p < 1.0`.
    pub fn new(p: f32, seed: u64) -> Self {
        assert!((0.0..1.0).contains(&p), "dropout p must be in [0, 1)");
        Dropout {
            p,
            rng: rng(seed),
            seed,
            mask: None,
        }
    }

    /// Draws a fresh mask of `len` factors into `mask`: one `f32` from
    /// the layer's rng per activation, kept (`1/(1-p)`) below `1 − p`.
    fn draw_mask(&mut self, len: usize, mask: &mut Vec<f32>) {
        let keep = 1.0 - self.p;
        let scale = 1.0 / keep;
        mask.clear();
        mask.extend((0..len).map(|_| {
            if self.rng.gen::<f32>() < keep {
                scale
            } else {
                0.0
            }
        }));
    }
}

impl Layer for Dropout {
    fn name(&self) -> &'static str {
        "dropout"
    }

    fn forward(&mut self, _params: &[f32], input: &Tensor, train: bool) -> Tensor {
        if !train || self.p == 0.0 {
            self.mask = None;
            return input.clone();
        }
        let mut mask = Vec::new();
        self.draw_mask(input.len(), &mut mask);
        let mut out = Tensor::zeros([0]);
        mask_into(input, &mask, &mut out);
        self.mask = Some(mask);
        out
    }

    fn infer(&self, _params: &[f32], input: &Tensor) -> Tensor {
        // Inverted dropout is the identity at evaluation time.
        input.clone()
    }

    fn backward(&mut self, _params: &[f32], _grads: &mut [f32], grad_out: &Tensor) -> Tensor {
        match &self.mask {
            None => grad_out.clone(),
            Some(mask) => {
                let mut out = grad_out.clone();
                for (g, &m) in out.data_mut().iter_mut().zip(mask) {
                    *g *= m;
                }
                out
            }
        }
    }

    fn held_bytes(&self) -> usize {
        size_of::<f32>() * self.mask.as_ref().map_or(0, Vec::len)
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(Dropout::new(self.p, self.seed))
    }

    fn reset_state(&mut self) {
        self.rng = rng(self.seed);
        self.mask = None;
    }

    fn forward_into(
        &mut self,
        _params: &[f32],
        input: &Tensor,
        train: bool,
        ws: &mut LayerWs,
        out: &mut Tensor,
    ) {
        let mask = ws_mask(ws);
        if !train || self.p == 0.0 {
            mask.clear();
            copy_into(input, out);
        } else {
            self.draw_mask(input.len(), mask);
            mask_into(input, mask, out);
        }
    }

    fn backward_into(
        &mut self,
        _params: &[f32],
        _grads: &mut [f32],
        _input: &Tensor,
        _output: &Tensor,
        grad_out: &Tensor,
        ws: &mut LayerWs,
        grad_in: &mut Tensor,
        need_grad_in: bool,
    ) {
        if !need_grad_in {
            return;
        }
        let mask = ws_mask(ws);
        if mask.is_empty() {
            copy_into(grad_out, grad_in);
        } else {
            assert_eq!(mask.len(), grad_out.len(), "grad shape changed");
            mask_into(grad_out, mask, grad_in);
        }
    }

    fn infer_into(&self, _params: &[f32], input: &Tensor, _ws: &mut LayerWs, out: &mut Tensor) {
        copy_into(input, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_mode_is_identity() {
        let mut d = Dropout::new(0.5, 1);
        let x = Tensor::from_vec([4], vec![1., 2., 3., 4.]);
        assert_eq!(d.forward(&[], &x, false), x);
    }

    #[test]
    fn train_mode_preserves_expectation_roughly() {
        let mut d = Dropout::new(0.3, 42);
        let x = Tensor::ones([10_000]);
        let y = d.forward(&[], &x, true);
        assert!((y.mean() - 1.0).abs() < 0.05, "mean {}", y.mean());
    }

    #[test]
    fn backward_uses_same_mask() {
        let mut d = Dropout::new(0.5, 7);
        let x = Tensor::ones([100]);
        let y = d.forward(&[], &x, true);
        let dx = d.backward(&[], &mut [], &Tensor::ones([100]));
        // Gradient passes exactly where the forward passed.
        for (yv, dv) in y.data().iter().zip(dx.data()) {
            assert_eq!(yv, dv);
        }
    }

    #[test]
    fn zero_probability_never_drops() {
        let mut d = Dropout::new(0.0, 9);
        let x = Tensor::from_vec([5], vec![1., 2., 3., 4., 5.]);
        assert_eq!(d.forward(&[], &x, true), x);
    }
}
