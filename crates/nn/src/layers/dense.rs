//! Fully connected (affine) layer.

use crate::layer::{Layer, LayerWs, Param};
use middle_tensor::matmul::{matmul_at, matmul_at_into, matmul_bt, matmul_bt_into, matmul_into};
use middle_tensor::random::xavier_uniform;
use middle_tensor::reduce::sum_axis0;
use middle_tensor::{ops, Tensor};
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
/// `matmul_bt` and the backward weight gradient is `dyᵀ · x`.
pub struct Dense {
    /// `[weight [out, in], bias [out]]`, in canonical parameter order.
    params: [Param; 2],
    in_features: usize,
    out_features: usize,
    cached_input: Option<Tensor>,
}

impl Dense {
    /// Creates a dense layer with Xavier-uniform weights and zero bias.
    pub fn new(in_features: usize, out_features: usize, rng: &mut StdRng) -> Self {
        let weight = xavier_uniform([out_features, in_features], in_features, out_features, rng);
        Dense {
            params: [
                Param::new(weight),
                Param::new(Tensor::zeros([out_features])),
            ],
            in_features,
            out_features,
            cached_input: None,
        }
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    fn weight(&self) -> &Tensor {
        &self.params[0].value
    }

    fn bias(&self) -> &Tensor {
        &self.params[1].value
    }
}

impl Clone for Dense {
    fn clone(&self) -> Self {
        Dense {
            params: self.params.clone(),
            in_features: self.in_features,
            out_features: self.out_features,
            cached_input: None,
        }
    }
}

impl Layer for Dense {
    fn name(&self) -> &'static str {
        "dense"
    }

    fn forward(&mut self, input: &Tensor, _train: bool) -> Tensor {
        assert_eq!(input.shape().rank(), 2, "dense input must be [N, in]");
        assert_eq!(
            input.shape().dim(1),
            self.in_features,
            "dense input features mismatch"
        );
        self.cached_input = Some(input.clone());
        let mut out = matmul_bt(input, self.weight());
        ops::add_inplace(&mut out, self.bias());
        out
    }

    fn infer(&self, input: &Tensor) -> Tensor {
        assert_eq!(input.shape().rank(), 2, "dense input must be [N, in]");
        assert_eq!(
            input.shape().dim(1),
            self.in_features,
            "dense input features mismatch"
        );
        let mut out = matmul_bt(input, self.weight());
        ops::add_inplace(&mut out, self.bias());
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let input = self
            .cached_input
            .as_ref()
            .expect("backward called before forward");
        let [weight, bias] = &mut self.params;
        // dW = dyᵀ · x  ([out, N]·[N, in] = [out, in]), via matmul_at(dy, x).
        let dw = matmul_at(grad_out, input);
        ops::add_inplace(&mut weight.grad, &dw);
        ops::add_inplace(&mut bias.grad, &sum_axis0(grad_out));
        // dx = dy · W  ([N, out]·[out, in]).
        middle_tensor::matmul::matmul(grad_out, &weight.value)
    }

    fn params_mut(&mut self) -> &mut [Param] {
        &mut self.params
    }

    fn params(&self) -> &[Param] {
        &self.params
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn reset_state(&mut self) {
        self.cached_input = None;
    }

    fn forward_into(&mut self, input: &Tensor, _train: bool, _ws: &mut LayerWs, out: &mut Tensor) {
        self.affine_into(input, out);
    }

    fn backward_into(
        &mut self,
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
        let [weight, bias] = &mut self.params;

        // dW = dyᵀ · x, staged into ws then accumulated — the same
        // compute-then-add sequence as the allocating path.
        dw.resize([out_f, in_f]);
        matmul_at_into(grad_out.data(), input.data(), dw.data_mut(), out_f, n, in_f);
        ops::add_inplace(&mut weight.grad, dw);

        // dbias = column sums of dy, with `sum_axis0`'s row-ascending order.
        db.resize([out_f]);
        db.data_mut().fill(0.0);
        for i in 0..n {
            for (o, &v) in db.data_mut().iter_mut().zip(grad_out.row(i)) {
                *o += v;
            }
        }
        ops::add_inplace(&mut bias.grad, db);

        if need_grad_in {
            // dx = dy · W.
            grad_in.resize([n, in_f]);
            matmul_into(
                grad_out.data(),
                weight.value.data(),
                grad_in.data_mut(),
                n,
                out_f,
                in_f,
            );
        }
    }

    fn infer_into(&self, input: &Tensor, _ws: &mut LayerWs, out: &mut Tensor) {
        self.affine_into(input, out);
    }
}

impl Dense {
    /// `out = input · Wᵀ + b` into caller-owned storage — the shared core
    /// of `forward_into`/`infer_into`, bitwise-identical to the
    /// `matmul_bt` + broadcast-add of the allocating path.
    fn affine_into(&self, input: &Tensor, out: &mut Tensor) {
        assert_eq!(input.shape().rank(), 2, "dense input must be [N, in]");
        assert_eq!(
            input.shape().dim(1),
            self.in_features,
            "dense input features mismatch"
        );
        let n = input.shape().dim(0);
        out.resize([n, self.out_features]);
        matmul_bt_into(
            input.data(),
            self.weight().data(),
            out.data_mut(),
            n,
            self.in_features,
            self.out_features,
        );
        let bias = self.bias().data();
        for row in out.data_mut().chunks_mut(self.out_features) {
            for (v, &b) in row.iter_mut().zip(bias) {
                *v += b;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use middle_tensor::random::rng;

    #[test]
    fn forward_matches_manual_affine() {
        let mut d = Dense::new(2, 3, &mut rng(1));
        // Overwrite with known weights.
        d.params[0].value = Tensor::from_vec([3, 2], vec![1., 0., 0., 1., 1., 1.]);
        d.params[1].value = Tensor::from_vec([3], vec![0.5, -0.5, 0.0]);
        let x = Tensor::from_vec([1, 2], vec![2., 3.]);
        let y = d.forward(&x, true);
        assert_eq!(y.data(), &[2.5, 2.5, 5.0]);
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut d = Dense::new(3, 2, &mut rng(7));
        let x = Tensor::from_vec([2, 3], vec![0.1, -0.2, 0.3, 0.4, 0.5, -0.6]);
        let y = d.forward(&x, true);
        let dout = Tensor::ones(y.shape().clone());
        let dx = d.backward(&dout);

        let eps = 1e-3;
        let loss = |d: &mut Dense, x: &Tensor| d.forward(x, true).sum();

        // Input gradient.
        for i in 0..x.len() {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let fd = (loss(&mut d, &xp) - loss(&mut d, &xm)) / (2.0 * eps);
            assert!((fd - dx.data()[i]).abs() < 1e-2, "dx[{i}]");
        }
        // Weight gradient (spot check).
        let wg = d.params()[0].grad.clone();
        for i in [0usize, 3, 5] {
            let orig = d.params[0].value.data()[i];
            d.params[0].value.data_mut()[i] = orig + eps;
            let lp = loss(&mut d, &x);
            d.params[0].value.data_mut()[i] = orig - eps;
            let lm = loss(&mut d, &x);
            d.params[0].value.data_mut()[i] = orig;
            let fd = (lp - lm) / (2.0 * eps);
            assert!((fd - wg.data()[i]).abs() < 1e-2, "dw[{i}]");
        }
    }

    #[test]
    fn clone_resets_cache_but_keeps_params() {
        let mut d = Dense::new(2, 2, &mut rng(3));
        let x = Tensor::from_vec([1, 2], vec![1., 2.]);
        d.forward(&x, true);
        let c = d.clone();
        assert_eq!(c.params()[0].value, d.params()[0].value);
        assert!(c.cached_input.is_none());
    }

    #[test]
    #[should_panic(expected = "features mismatch")]
    fn wrong_input_width_panics() {
        let mut d = Dense::new(4, 2, &mut rng(1));
        d.forward(&Tensor::zeros([1, 3]), true);
    }
}
