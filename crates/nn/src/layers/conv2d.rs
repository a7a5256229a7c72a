//! 2-D convolution layer over NCHW activations.

use crate::layer::{Layer, LayerWs, Param};
use middle_tensor::conv::{
    conv2d_backward, conv2d_backward_into, conv2d_forward, conv2d_forward_into, ConvGeometry,
    ConvScratch,
};
use middle_tensor::random::he_normal;
use middle_tensor::{ops, Tensor};
use rand::rngs::StdRng;

/// Coerces a workspace slot to the conv variant, initialising it lazily.
fn conv_ws(ws: &mut LayerWs) -> (&mut ConvScratch, &mut Tensor, &mut Tensor) {
    if !matches!(ws, LayerWs::Conv { .. }) {
        *ws = LayerWs::Conv {
            scratch: ConvScratch::default(),
            dw: Tensor::zeros([0]),
            db: Tensor::zeros([0]),
        };
    }
    match ws {
        LayerWs::Conv { scratch, dw, db } => (scratch, dw, db),
        _ => unreachable!(),
    }
}

/// Convolution layer with square kernels, He-normal initialisation.
pub struct Conv2d {
    geometry: ConvGeometry,
    /// `[weight [out_c, patch_len], bias [out_c]]`, in canonical
    /// parameter order.
    params: [Param; 2],
    cached_input: Option<Tensor>,
}

impl Conv2d {
    /// Creates a convolution layer for the given geometry.
    pub fn new(geometry: ConvGeometry, rng: &mut StdRng) -> Self {
        let fan_in = geometry.patch_len();
        let weight = he_normal([geometry.out_c, fan_in], fan_in, rng);
        Conv2d {
            geometry,
            params: [
                Param::new(weight),
                Param::new(Tensor::zeros([geometry.out_c])),
            ],
            cached_input: None,
        }
    }

    /// The layer's static geometry.
    pub fn geometry(&self) -> &ConvGeometry {
        &self.geometry
    }

    fn weight(&self) -> &Tensor {
        &self.params[0].value
    }

    fn bias(&self) -> &Tensor {
        &self.params[1].value
    }
}

impl Clone for Conv2d {
    fn clone(&self) -> Self {
        Conv2d {
            geometry: self.geometry,
            params: self.params.clone(),
            cached_input: None,
        }
    }
}

impl Layer for Conv2d {
    fn name(&self) -> &'static str {
        "conv2d"
    }

    fn forward(&mut self, input: &Tensor, _train: bool) -> Tensor {
        self.cached_input = Some(input.clone());
        conv2d_forward(input, self.weight(), self.bias(), &self.geometry)
    }

    fn infer(&self, input: &Tensor) -> Tensor {
        conv2d_forward(input, self.weight(), self.bias(), &self.geometry)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let input = self
            .cached_input
            .as_ref()
            .expect("backward called before forward");
        let (dx, dw, db) = conv2d_backward(input, self.weight(), grad_out, &self.geometry);
        let [weight, bias] = &mut self.params;
        ops::add_inplace(&mut weight.grad, &dw);
        ops::add_inplace(&mut bias.grad, &db);
        dx
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

    fn forward_into(&mut self, input: &Tensor, _train: bool, ws: &mut LayerWs, out: &mut Tensor) {
        let (scratch, _, _) = conv_ws(ws);
        conv2d_forward_into(
            input,
            self.weight(),
            self.bias(),
            &self.geometry,
            scratch,
            out,
        );
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
        let (scratch, dw, db) = conv_ws(ws);
        conv2d_backward_into(
            input,
            self.weight(),
            grad_out,
            &self.geometry,
            scratch,
            dw,
            db,
            if need_grad_in { Some(grad_in) } else { None },
        );
        let [weight, bias] = &mut self.params;
        ops::add_inplace(&mut weight.grad, dw);
        ops::add_inplace(&mut bias.grad, db);
    }

    fn infer_into(&self, input: &Tensor, ws: &mut LayerWs, out: &mut Tensor) {
        let (scratch, _, _) = conv_ws(ws);
        conv2d_forward_into(
            input,
            self.weight(),
            self.bias(),
            &self.geometry,
            scratch,
            out,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use middle_tensor::random::rng;

    fn geom() -> ConvGeometry {
        ConvGeometry {
            in_c: 1,
            out_c: 2,
            kernel: 3,
            stride: 1,
            pad: 1,
            in_h: 4,
            in_w: 4,
        }
    }

    #[test]
    fn forward_shape() {
        let mut c = Conv2d::new(geom(), &mut rng(1));
        let x = Tensor::zeros([3, 1, 4, 4]);
        let y = c.forward(&x, true);
        assert_eq!(y.shape().dims(), &[3, 2, 4, 4]);
    }

    #[test]
    fn backward_accumulates_param_grads() {
        let mut c = Conv2d::new(geom(), &mut rng(2));
        let x = Tensor::ones([1, 1, 4, 4]);
        let y = c.forward(&x, true);
        let dx = c.backward(&Tensor::ones(y.shape().clone()));
        assert_eq!(dx.shape(), x.shape());
        let bias_grad = &c.params()[1].grad;
        // dL/db for sum loss is out_h*out_w per channel.
        assert_eq!(bias_grad.data(), &[16.0, 16.0]);
    }

    #[test]
    fn two_forwards_then_backward_uses_latest_input() {
        let mut c = Conv2d::new(geom(), &mut rng(3));
        let x1 = Tensor::zeros([1, 1, 4, 4]);
        let x2 = Tensor::ones([1, 1, 4, 4]);
        c.forward(&x1, true);
        let y = c.forward(&x2, true);
        // Backward with the cached x2: weight grads equal sum of windows of x2,
        // which is nonzero — would be all zero if x1 were cached.
        c.backward(&Tensor::ones(y.shape().clone()));
        assert!(c.params()[0].grad.data().iter().any(|&g| g != 0.0));
    }
}
