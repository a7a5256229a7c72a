//! Shapes and row-major strides for dense tensors.
//!
//! A [`Shape`] is an ordered list of dimension extents. All tensors in this
//! crate are stored contiguously in row-major (C) order, so strides are
//! derived rather than stored per-tensor.

use serde::{Deserialize, Serialize};
use std::fmt;

/// The shape (dimension extents) of a dense tensor.
///
/// Supports rank 0 (scalar) through arbitrary rank, though the library's
/// kernels are specialised for ranks 1, 2 and 4 (vectors, matrices and
/// NCHW image batches).
#[derive(Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Shape(Vec<usize>);

impl Shape {
    /// Creates a shape from dimension extents.
    pub fn new(dims: impl Into<Vec<usize>>) -> Self {
        Shape(dims.into())
    }

    /// Number of dimensions.
    #[inline]
    pub fn rank(&self) -> usize {
        self.0.len()
    }

    /// Dimension extents as a slice.
    #[inline]
    pub fn dims(&self) -> &[usize] {
        &self.0
    }

    /// Extent of dimension `i`. Panics if `i >= rank`.
    #[inline]
    pub fn dim(&self, i: usize) -> usize {
        self.0[i]
    }

    /// Total number of elements (product of extents; 1 for scalars).
    #[inline]
    pub fn len(&self) -> usize {
        self.0.iter().product()
    }

    /// True when the shape holds zero elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Linear (row-major) offset of a multi-dimensional index.
    ///
    /// Panics in debug builds when the index is out of bounds or has the
    /// wrong rank.
    #[inline]
    pub fn offset(&self, index: &[usize]) -> usize {
        debug_assert_eq!(index.len(), self.rank(), "index rank mismatch");
        let mut off = 0usize;
        let mut stride = 1usize;
        for i in (0..self.rank()).rev() {
            debug_assert!(index[i] < self.0[i], "index out of bounds");
            off += index[i] * stride;
            stride *= self.0[i];
        }
        off
    }

    /// Overwrites the extents with `dims`, reusing this shape's buffer.
    pub(crate) fn set_dims(&mut self, dims: &[usize]) {
        self.0.clear();
        self.0.extend_from_slice(dims);
    }
}

impl fmt::Debug for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Shape{:?}", self.0)
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.0)
    }
}

impl AsRef<[usize]> for Shape {
    fn as_ref(&self) -> &[usize] {
        &self.0
    }
}

impl From<Vec<usize>> for Shape {
    fn from(v: Vec<usize>) -> Self {
        Shape(v)
    }
}

impl From<&[usize]> for Shape {
    fn from(v: &[usize]) -> Self {
        Shape(v.to_vec())
    }
}

impl<const N: usize> From<[usize; N]> for Shape {
    fn from(v: [usize; N]) -> Self {
        Shape(v.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn len_is_product_of_dims() {
        assert_eq!(Shape::from([2, 3, 4]).len(), 24);
        assert_eq!(Shape::from([7]).len(), 7);
        assert_eq!(Shape::from([5, 0, 2]).len(), 0);
    }

    #[test]
    fn offset_matches_strides() {
        let s = Shape::from([2, 3, 4]);
        assert_eq!(s.offset(&[0, 0, 0]), 0);
        assert_eq!(s.offset(&[1, 2, 3]), 12 + 8 + 3);
        assert_eq!(s.offset(&[0, 1, 1]), 5);
    }

    #[test]
    fn equality_and_hash_by_dims() {
        assert_eq!(Shape::from([3, 2]), Shape::new(vec![3, 2]));
        assert_ne!(Shape::from([3, 2]), Shape::from([2, 3]));
    }
}
