//! The dense `f32` tensor type.

use crate::shape::Shape;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A dense, contiguous, row-major `f32` tensor.
///
/// This is the single storage type used throughout the MIDDLE reproduction:
/// model parameters, gradients, activations, and dataset samples are all
/// `Tensor`s. It is deliberately simple — owned `Vec<f32>` storage, no
/// views or reference counting — because federated aggregation repeatedly
/// blends and clones whole parameter sets, and a flat owned buffer makes
/// those operations cache-friendly `memcpy`-class loops.
#[derive(Clone, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor from a shape and backing data.
    ///
    /// # Panics
    /// Panics when `data.len() != shape.len()`.
    pub fn from_vec(shape: impl Into<Shape>, data: Vec<f32>) -> Self {
        let shape = shape.into();
        assert_eq!(
            data.len(),
            shape.len(),
            "data length {} does not match shape {} ({} elements)",
            data.len(),
            shape,
            shape.len()
        );
        Tensor { shape, data }
    }

    /// A tensor of zeros.
    pub fn zeros(shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        let n = shape.len();
        Tensor {
            shape,
            data: vec![0.0; n],
        }
    }

    /// A tensor of ones.
    pub fn ones(shape: impl Into<Shape>) -> Self {
        Self::full(shape, 1.0)
    }

    /// A tensor filled with `value`.
    pub fn full(shape: impl Into<Shape>, value: f32) -> Self {
        let shape = shape.into();
        let n = shape.len();
        Tensor {
            shape,
            data: vec![value; n],
        }
    }

    /// A rank-0 scalar tensor.
    pub fn scalar(value: f32) -> Self {
        Tensor {
            shape: Shape::scalar(),
            data: vec![value],
        }
    }

    /// The tensor's shape.
    #[inline]
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the tensor holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Read-only view of the backing buffer in row-major order.
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the backing buffer in row-major order.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor, returning the backing buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Element at a multi-dimensional index.
    #[inline]
    pub fn at(&self, index: &[usize]) -> f32 {
        self.data[self.shape.offset(index)]
    }

    /// Sets the element at a multi-dimensional index.
    #[inline]
    pub fn set(&mut self, index: &[usize], value: f32) {
        let off = self.shape.offset(index);
        self.data[off] = value;
    }

    /// The single value of a scalar or one-element tensor.
    ///
    /// # Panics
    /// Panics when the tensor holds more than one element.
    pub fn item(&self) -> f32 {
        assert_eq!(self.len(), 1, "item() requires a one-element tensor");
        self.data[0]
    }

    /// Reinterprets the buffer under a new shape with the same element count.
    ///
    /// # Panics
    /// Panics when the element counts differ.
    pub fn reshape(mut self, shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        assert_eq!(
            self.len(),
            shape.len(),
            "cannot reshape {} elements into {}",
            self.len(),
            shape
        );
        self.shape = shape;
        self
    }

    /// Returns a reshaped clone without consuming `self`.
    pub fn reshaped(&self, shape: impl Into<Shape>) -> Self {
        self.clone().reshape(shape)
    }

    /// Re-shapes in place to `dims`, growing or shrinking the backing
    /// buffer while keeping its capacity and the shape's own (the
    /// scratch-reuse primitive of the zero-alloc train path: in steady
    /// state it allocates nothing).
    ///
    /// Element values are unspecified after a resize — surviving elements
    /// keep their old values and grown elements are zero — so callers must
    /// fully overwrite the tensor before reading it.
    pub fn resize(&mut self, dims: impl AsRef<[usize]>) {
        self.shape.set_dims(dims.as_ref());
        self.data.resize(self.shape.len(), 0.0);
    }

    /// Row `i` of a rank-2 tensor as a slice.
    ///
    /// # Panics
    /// Panics when the tensor is not rank 2 or `i` is out of bounds.
    pub fn row(&self, i: usize) -> &[f32] {
        assert_eq!(self.shape.rank(), 2, "row() requires a matrix");
        let cols = self.shape.dim(1);
        &self.data[i * cols..(i + 1) * cols]
    }

    /// Mutable row `i` of a rank-2 tensor.
    pub fn row_mut(&mut self, i: usize) -> &mut [f32] {
        assert_eq!(self.shape.rank(), 2, "row_mut() requires a matrix");
        let cols = self.shape.dim(1);
        &mut self.data[i * cols..(i + 1) * cols]
    }

    /// Transposes a rank-2 tensor.
    pub fn transpose(&self) -> Tensor {
        assert_eq!(self.shape.rank(), 2, "transpose() requires a matrix");
        let (r, c) = (self.shape.dim(0), self.shape.dim(1));
        let mut out = vec![0.0f32; r * c];
        // Blocked transpose keeps both source and destination lines warm.
        const B: usize = 32;
        for i0 in (0..r).step_by(B) {
            for j0 in (0..c).step_by(B) {
                for i in i0..(i0 + B).min(r) {
                    for j in j0..(j0 + B).min(c) {
                        out[j * r + i] = self.data[i * c + j];
                    }
                }
            }
        }
        Tensor::from_vec([c, r], out)
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0.0 for empty tensors).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Euclidean (L2) norm of the flattened tensor.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum::<f32>().sqrt()
    }

    /// Index of the maximum element of a rank-1 tensor (ties: first wins).
    pub fn argmax(&self) -> usize {
        assert!(!self.data.is_empty(), "argmax of empty tensor");
        let mut best = 0usize;
        let mut best_v = self.data[0];
        for (i, &v) in self.data.iter().enumerate().skip(1) {
            if v > best_v {
                best = i;
                best_v = v;
            }
        }
        best
    }

    /// True when every element is finite (no NaN/inf).
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Returns a new tensor with `f` applied to every element.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.len() <= 8 {
            write!(f, "Tensor({}, {:?})", self.shape, self.data)
        } else {
            write!(
                f,
                "Tensor({}, [{:.4}, {:.4}, ... {:.4}])",
                self.shape,
                self.data[0],
                self.data[1],
                self.data[self.len() - 1]
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let t = Tensor::from_vec([2, 3], vec![1., 2., 3., 4., 5., 6.]);
        assert_eq!(t.at(&[0, 2]), 3.0);
        assert_eq!(t.at(&[1, 0]), 4.0);
        assert_eq!(t.row(1), &[4., 5., 6.]);
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn mismatched_data_panics() {
        Tensor::from_vec([2, 2], vec![1.0; 3]);
    }

    #[test]
    fn zeros_ones_full() {
        assert_eq!(Tensor::zeros([3]).data(), &[0., 0., 0.]);
        assert_eq!(Tensor::ones([2]).data(), &[1., 1.]);
        assert_eq!(Tensor::full([2], 7.5).data(), &[7.5, 7.5]);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec([2, 3], vec![1., 2., 3., 4., 5., 6.]).reshape([3, 2]);
        assert_eq!(t.shape().dims(), &[3, 2]);
        assert_eq!(t.at(&[2, 1]), 6.0);
    }

    #[test]
    #[should_panic(expected = "cannot reshape")]
    fn bad_reshape_panics() {
        Tensor::zeros([4]).reshape([3]);
    }

    #[test]
    fn transpose_square_and_rect() {
        let t = Tensor::from_vec([2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let tt = t.transpose();
        assert_eq!(tt.shape().dims(), &[3, 2]);
        assert_eq!(tt.at(&[0, 1]), 4.0);
        assert_eq!(tt.at(&[2, 0]), 3.0);
        // Double transpose is identity.
        assert_eq!(tt.transpose(), t);
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_vec([4], vec![1., -2., 3., -4.]);
        assert_eq!(t.sum(), -2.0);
        assert_eq!(t.mean(), -0.5);
        assert!((t.norm() - 30.0f32.sqrt()).abs() < 1e-6);
    }

    #[test]
    fn argmax_first_tie_wins() {
        let t = Tensor::from_vec([5], vec![1., 5., 5., 2., 0.]);
        assert_eq!(t.argmax(), 1);
    }

    #[test]
    fn scalar_item() {
        assert_eq!(Tensor::scalar(3.25).item(), 3.25);
    }

    #[test]
    fn finite_check_catches_nan() {
        let mut t = Tensor::ones([3]);
        assert!(t.all_finite());
        t.data_mut()[1] = f32::NAN;
        assert!(!t.all_finite());
    }

    #[test]
    fn map_applies_elementwise() {
        let t = Tensor::from_vec([3], vec![1., 2., 3.]).map(|x| x * 2.0);
        assert_eq!(t.data(), &[2., 4., 6.]);
    }
}
