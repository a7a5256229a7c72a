//! 2-D convolution layer over NCHW activations.

use crate::layer::{add_grad, Layer, LayerWs};
use middle_tensor::conv::{
    conv2d_backward_slices, conv2d_backward_slices_into, conv2d_forward_slices,
    conv2d_forward_slices_into, ConvGeometry, ConvScratch,
};
use middle_tensor::random::he_normal;
use middle_tensor::Tensor;
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

/// Convolution layer with square kernels, He-normal initialisation. The
/// layer's slice of the parameter plane is the weight
/// (`[out_c, patch_len]`), then the bias (`[out_c]`).
pub struct Conv2d {
    geometry: ConvGeometry,
    /// `[out_c · patch_len, out_c]`: the weight's and the bias's lengths.
    lens: [usize; 2],
    /// Initial weight and bias until [`Layer::take_params`] moves them
    /// into a model's plane.
    init: Vec<f32>,
    cached_input: Option<Tensor>,
}

impl Conv2d {
    /// Creates a convolution layer for the given geometry.
    pub fn new(geometry: ConvGeometry, rng: &mut StdRng) -> Self {
        let fan_in = geometry.patch_len();
        let weight = he_normal([geometry.out_c, fan_in], fan_in, rng);
        let mut init = weight.into_vec();
        init.resize(init.len() + geometry.out_c, 0.0);
        Conv2d {
            geometry,
            lens: [geometry.out_c * fan_in, geometry.out_c],
            init,
            cached_input: None,
        }
    }

    /// The weight and the bias, the layer's slice `params` split.
    fn split<'p>(&self, params: &'p [f32]) -> (&'p [f32], &'p [f32]) {
        assert_eq!(params.len(), self.lens[0] + self.lens[1], "conv2d params");
        params.split_at(self.lens[0])
    }
}

impl Clone for Conv2d {
    fn clone(&self) -> Self {
        Conv2d {
            geometry: self.geometry,
            lens: self.lens,
            init: self.init.clone(),
            cached_input: None,
        }
    }
}

impl Layer for Conv2d {
    fn name(&self) -> &'static str {
        "conv2d"
    }

    fn forward(&mut self, params: &[f32], input: &Tensor) -> Tensor {
        self.cached_input = Some(input.clone());
        self.infer(params, input)
    }

    fn infer(&self, params: &[f32], input: &Tensor) -> Tensor {
        let (weight, bias) = self.split(params);
        conv2d_forward_slices(input, weight, bias, &self.geometry)
    }

    fn backward(&mut self, params: &[f32], grads: &mut [f32], grad_out: &Tensor) -> Tensor {
        let input = self
            .cached_input
            .as_ref()
            .expect("backward called before forward");
        let (weight, _) = self.split(params);
        let (dx, dw, db) = conv2d_backward_slices(input, weight, grad_out, &self.geometry);
        let (gw, gb) = grads.split_at_mut(self.lens[0]);
        add_grad(gw, dw.data());
        add_grad(gb, db.data());
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

    fn forward_into(&mut self, params: &[f32], input: &Tensor, ws: &mut LayerWs, out: &mut Tensor) {
        self.infer_into(params, input, ws, out);
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
        let (scratch, dw, db) = conv_ws(ws);
        let (weight, _) = self.split(params);
        conv2d_backward_slices_into(
            input,
            weight,
            grad_out,
            &self.geometry,
            scratch,
            dw,
            db,
            if need_grad_in { Some(grad_in) } else { None },
        );
        let (gw, gb) = grads.split_at_mut(self.lens[0]);
        add_grad(gw, dw.data());
        add_grad(gb, db.data());
    }

    fn infer_into(&self, params: &[f32], input: &Tensor, ws: &mut LayerWs, out: &mut Tensor) {
        let (scratch, _, _) = conv_ws(ws);
        let (weight, bias) = self.split(params);
        conv2d_forward_slices_into(input, weight, bias, &self.geometry, scratch, out);
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
        let params = c.take_params();
        let x = Tensor::zeros([3, 1, 4, 4]);
        let y = c.forward(&params, &x);
        assert_eq!(y.shape().dims(), &[3, 2, 4, 4]);
    }

    #[test]
    fn backward_accumulates_param_grads() {
        let mut c = Conv2d::new(geom(), &mut rng(2));
        let params = c.take_params();
        let mut grads = vec![0.0; params.len()];
        let x = Tensor::full([1, 1, 4, 4], 1.0);
        let y = c.forward(&params, &x);
        let dx = c.backward(&params, &mut grads, &Tensor::full(y.shape().clone(), 1.0));
        assert_eq!(dx.shape(), x.shape());
        // dL/db for sum loss is out_h*out_w per channel: the bias is the
        // slice's last `out_c` values.
        assert_eq!(&grads[c.param_lens()[0]..], &[16.0, 16.0]);
    }

    #[test]
    fn two_forwards_then_backward_uses_latest_input() {
        let mut c = Conv2d::new(geom(), &mut rng(3));
        let params = c.take_params();
        let mut grads = vec![0.0; params.len()];
        let x1 = Tensor::zeros([1, 1, 4, 4]);
        let x2 = Tensor::full([1, 1, 4, 4], 1.0);
        c.forward(&params, &x1);
        let y = c.forward(&params, &x2);
        // Backward with the cached x2: weight grads equal sum of windows of x2,
        // which is nonzero — would be all zero if x1 were cached.
        c.backward(&params, &mut grads, &Tensor::full(y.shape().clone(), 1.0));
        assert!(grads[..c.param_lens()[0]].iter().any(|&g| g != 0.0));
    }
}
