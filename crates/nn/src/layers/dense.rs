//! Fully connected (affine) layer.

use crate::layer::{add_grad, Layer, LayerWs};
use middle_tensor::matmul::{
    matmul_at, matmul_at_into, matmul_bt_into, matmul_bt_into_reference, matmul_into,
    matmul_into_reference,
};
use middle_tensor::random::xavier_uniform;
use middle_tensor::reduce::sum_axis0;
use middle_tensor::Tensor;
use rand::rngs::StdRng;

/// Coerces a workspace slot to the dense variant, initialising it lazily.
fn dense_ws(ws: &mut LayerWs) -> (&mut Tensor, &mut Tensor) {
    if !matches!(ws, LayerWs::Dense { .. }) {
        *ws = LayerWs::Dense {
            dw: Tensor::zeros([0]),
            db: Tensor::zeros([0]),
        };
    }
    match ws {
        LayerWs::Dense { dw, db } => (dw, db),
        _ => unreachable!(),
    }
}

/// Affine layer `y = x · Wᵀ + b` over `[N, in]` activations.
///
/// Weights are stored `[out, in]` so the forward pass is a fused
/// `matmul_bt` and the backward weight gradient is `dyᵀ · x`. The
/// layer's slice of the parameter plane is the weight, then the bias.
pub struct Dense {
    in_features: usize,
    out_features: usize,
    /// `[out · in, out]`: the weight's and the bias's lengths.
    lens: [usize; 2],
    /// Initial weight and bias until [`Layer::take_params`] moves them
    /// into a model's plane.
    init: Vec<f32>,
    cached_input: Option<Tensor>,
}

impl Dense {
    /// Creates a dense layer with Xavier-uniform weights and zero bias.
    pub fn new(in_features: usize, out_features: usize, rng: &mut StdRng) -> Self {
        let weight = xavier_uniform([out_features, in_features], in_features, out_features, rng);
        let mut init = weight.into_vec();
        init.resize(init.len() + out_features, 0.0);
        Dense {
            in_features,
            out_features,
            lens: [out_features * in_features, out_features],
            init,
            cached_input: None,
        }
    }

    /// The weight and the bias, the layer's slice `params` split.
    fn split<'p>(&self, params: &'p [f32]) -> (&'p [f32], &'p [f32]) {
        assert_eq!(params.len(), self.lens[0] + self.lens[1], "dense params");
        params.split_at(self.lens[0])
    }

    fn check_input(&self, input: &Tensor) {
        assert_eq!(input.shape().rank(), 2, "dense input must be [N, in]");
        assert_eq!(
            input.shape().dim(1),
            self.in_features,
            "dense input features mismatch"
        );
    }

    /// The allocating forward: the reference `a · bᵀ` kernel, then the
    /// broadcast bias add.
    fn affine(&self, params: &[f32], input: &Tensor) -> Tensor {
        self.check_input(input);
        let (weight, bias) = self.split(params);
        let n = input.shape().dim(0);
        let mut out = Tensor::zeros([n, self.out_features]);
        matmul_bt_into_reference(
            input.data(),
            weight,
            out.data_mut(),
            n,
            self.in_features,
            self.out_features,
        );
        add_bias_rows(out.data_mut(), bias);
        out
    }

    /// `out = input · Wᵀ + b` into caller-owned storage — the shared core
    /// of `forward_into`/`infer_into`, bitwise-identical to the
    /// allocating path's reference kernel and bias add.
    fn affine_into(&self, params: &[f32], input: &Tensor, out: &mut Tensor) {
        self.check_input(input);
        let (weight, bias) = self.split(params);
        let n = input.shape().dim(0);
        out.resize([n, self.out_features]);
        matmul_bt_into(
            input.data(),
            weight,
            out.data_mut(),
            n,
            self.in_features,
            self.out_features,
        );
        add_bias_rows(out.data_mut(), bias);
    }
}

/// Adds `bias` to every row of `out` (rows of `bias.len()` values).
fn add_bias_rows(out: &mut [f32], bias: &[f32]) {
    for row in out.chunks_mut(bias.len()) {
        for (v, &b) in row.iter_mut().zip(bias) {
            *v += b;
        }
    }
}

impl Clone for Dense {
    fn clone(&self) -> Self {
        Dense {
            in_features: self.in_features,
            out_features: self.out_features,
            lens: self.lens,
            init: self.init.clone(),
            cached_input: None,
        }
    }
}

impl Layer for Dense {
    fn name(&self) -> &'static str {
        "dense"
    }

    fn forward(&mut self, params: &[f32], input: &Tensor) -> Tensor {
        let out = self.affine(params, input);
        self.cached_input = Some(input.clone());
        out
    }

    fn infer(&self, params: &[f32], input: &Tensor) -> Tensor {
        self.affine(params, input)
    }

    fn backward(&mut self, params: &[f32], grads: &mut [f32], grad_out: &Tensor) -> Tensor {
        let input = self
            .cached_input
            .as_ref()
            .expect("backward called before forward");
        let (weight, _) = self.split(params);
        let (gw, gb) = grads.split_at_mut(self.lens[0]);
        // dW = dyᵀ · x  ([out, N]·[N, in] = [out, in]), via matmul_at(dy, x).
        add_grad(gw, matmul_at(grad_out, input).data());
        add_grad(gb, sum_axis0(grad_out).data());
        // dx = dy · W  ([N, out]·[out, in]).
        let n = grad_out.shape().dim(0);
        let mut dx = Tensor::zeros([n, self.in_features]);
        matmul_into_reference(
            grad_out.data(),
            weight,
            dx.data_mut(),
            n,
            self.out_features,
            self.in_features,
        );
        dx
    }

    fn param_lens(&self) -> &[usize] {
        &self.lens
    }

    fn take_params(&mut self) -> Vec<f32> {
        std::mem::take(&mut self.init)
    }

    fn held_bytes(&self) -> usize {
        let cached = self.cached_input.as_ref().map_or(0, Tensor::len);
        size_of::<f32>() * (self.init.capacity() + cached)
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn reset_state(&mut self) {
        self.cached_input = None;
    }

    fn forward_into(
        &mut self,
        params: &[f32],
        input: &Tensor,
        _ws: &mut LayerWs,
        out: &mut Tensor,
    ) {
        self.affine_into(params, input, out);
    }

    fn backward_into(
        &mut self,
        params: &[f32],
        grads: &mut [f32],
        input: &Tensor,
        _output: &Tensor,
        grad_out: &Tensor,
        ws: &mut LayerWs,
        grad_in: &mut Tensor,
        need_grad_in: bool,
    ) {
        let (dw, db) = dense_ws(ws);
        let n = grad_out.shape().dim(0);
        let (out_f, in_f) = (self.out_features, self.in_features);
        let (weight, _) = self.split(params);
        let (gw, gb) = grads.split_at_mut(self.lens[0]);

        // dW = dyᵀ · x, staged into ws then added into the plane — the
        // same compute-then-add sequence as the allocating path.
        dw.resize([out_f, in_f]);
        matmul_at_into(grad_out.data(), input.data(), dw.data_mut(), out_f, n, in_f);
        add_grad(gw, dw.data());

        // dbias = column sums of dy, with `sum_axis0`'s row-ascending order.
        db.resize([out_f]);
        db.data_mut().fill(0.0);
        for i in 0..n {
            for (o, &v) in db.data_mut().iter_mut().zip(grad_out.row(i)) {
                *o += v;
            }
        }
        add_grad(gb, db.data());

        if need_grad_in {
            // dx = dy · W.
            grad_in.resize([n, in_f]);
            matmul_into(grad_out.data(), weight, grad_in.data_mut(), n, out_f, in_f);
        }
    }

    fn infer_into(&self, params: &[f32], input: &Tensor, _ws: &mut LayerWs, out: &mut Tensor) {
        self.affine_into(params, input, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use middle_tensor::random::rng;

    #[test]
    fn forward_matches_manual_affine() {
        let mut d = Dense::new(2, 3, &mut rng(1));
        // Known weights [3, 2], then the bias.
        let params = [1., 0., 0., 1., 1., 1., 0.5, -0.5, 0.0];
        let x = Tensor::from_vec([1, 2], vec![2., 3.]);
        let y = d.forward(&params, &x);
        assert_eq!(y.data(), &[2.5, 2.5, 5.0]);
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut d = Dense::new(3, 2, &mut rng(7));
        let mut params = d.take_params();
        let mut grads = vec![0.0; params.len()];
        let x = Tensor::from_vec([2, 3], vec![0.1, -0.2, 0.3, 0.4, 0.5, -0.6]);
        let y = d.forward(&params, &x);
        let dout = Tensor::ones(y.shape().clone());
        let dx = d.backward(&params, &mut grads, &dout);

        let eps = 1e-3;
        let loss = |d: &mut Dense, p: &[f32], x: &Tensor| d.forward(p, x).sum();

        // Input gradient.
        for i in 0..x.len() {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let fd = (loss(&mut d, &params, &xp) - loss(&mut d, &params, &xm)) / (2.0 * eps);
            assert!((fd - dx.data()[i]).abs() < 1e-2, "dx[{i}]");
        }
        // Weight gradient (spot check).
        for i in [0usize, 3, 5] {
            let orig = params[i];
            params[i] = orig + eps;
            let lp = loss(&mut d, &params, &x);
            params[i] = orig - eps;
            let lm = loss(&mut d, &params, &x);
            params[i] = orig;
            let fd = (lp - lm) / (2.0 * eps);
            assert!((fd - grads[i]).abs() < 1e-2, "dw[{i}]");
        }
    }

    #[test]
    fn clone_resets_cache_and_take_params_leaves_shapes_only() {
        let mut d = Dense::new(2, 2, &mut rng(3));
        let c = d.clone();
        let params = d.take_params();
        assert_eq!(params.len(), 6);
        assert_eq!(d.param_lens(), &[4, 2]);
        assert_eq!(d.held_bytes(), 0);
        assert!(d.take_params().is_empty());
        let x = Tensor::from_vec([1, 2], vec![1., 2.]);
        d.forward(&params, &x);
        assert_eq!(d.held_bytes(), 8);
        assert!(d.clone().cached_input.is_none());
        assert_eq!(c.init, params);
    }

    #[test]
    #[should_panic(expected = "features mismatch")]
    fn wrong_input_width_panics() {
        let mut d = Dense::new(4, 2, &mut rng(1));
        let params = d.take_params();
        d.forward(&params, &Tensor::zeros([1, 3]));
    }
}
