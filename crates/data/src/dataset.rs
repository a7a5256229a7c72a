//! In-memory labelled datasets.

use middle_tensor::{Shape, Tensor};

/// An in-memory classification dataset: one NCHW input tensor plus one
/// class label per sample.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    inputs: Tensor,
    labels: Vec<usize>,
    classes: usize,
}

impl Dataset {
    /// Creates a dataset.
    ///
    /// # Panics
    /// Panics when the batch dimension of `inputs` disagrees with
    /// `labels.len()` or any label is `>= classes`.
    pub fn new(inputs: Tensor, labels: Vec<usize>, classes: usize) -> Self {
        assert!(inputs.shape().rank() >= 1, "inputs need a batch dimension");
        assert_eq!(
            inputs.shape().dim(0),
            labels.len(),
            "inputs/labels length mismatch"
        );
        assert!(
            labels.iter().all(|&l| l < classes),
            "label out of range for {classes} classes"
        );
        Dataset {
            inputs,
            labels,
            classes,
        }
    }

    /// An empty dataset with the given per-sample shape.
    pub fn empty(sample_shape: &[usize], classes: usize) -> Self {
        let mut dims = vec![0usize];
        dims.extend_from_slice(sample_shape);
        Dataset {
            inputs: Tensor::zeros(dims),
            labels: Vec::new(),
            classes,
        }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// True when the dataset has no samples.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Number of classes.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// The full input tensor (`[N, ...]`).
    pub fn inputs(&self) -> &Tensor {
        &self.inputs
    }

    /// All labels.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// The per-sample shape (input shape without the batch dimension).
    pub fn sample_shape(&self) -> Vec<usize> {
        self.inputs.shape().dims()[1..].to_vec()
    }

    /// Scalars per sample.
    pub fn sample_len(&self) -> usize {
        self.sample_shape().iter().product()
    }

    /// A new dataset containing the samples at `indices`, in order
    /// (indices may repeat).
    pub fn subset(&self, indices: &[usize]) -> Dataset {
        let slen = self.sample_len();
        let mut data = Vec::with_capacity(indices.len() * slen);
        let mut labels = Vec::with_capacity(indices.len());
        let src = self.inputs.data();
        for &i in indices {
            assert!(i < self.len(), "subset index {i} out of bounds");
            data.extend_from_slice(&src[i * slen..(i + 1) * slen]);
            labels.push(self.labels[i]);
        }
        let mut dims = vec![indices.len()];
        dims.extend_from_slice(&self.sample_shape());
        Dataset {
            inputs: Tensor::from_vec(Shape::new(dims), data),
            labels,
            classes: self.classes,
        }
    }

    /// [`subset`](Self::subset) into an existing dataset, reusing its
    /// buffers: `out` becomes bitwise the dataset `subset(indices)`
    /// returns, and allocates nothing once its buffers are large enough.
    pub fn subset_into(&self, indices: &[usize], out: &mut Dataset) {
        self.gather_into(indices, &mut out.inputs, &mut out.labels);
        out.classes = self.classes;
    }

    /// The batch `[indices]` as `(inputs, labels)` ready for training.
    pub fn gather(&self, indices: &[usize]) -> (Tensor, Vec<usize>) {
        let s = self.subset(indices);
        (s.inputs, s.labels)
    }

    /// [`gather`](Self::gather) into caller-provided buffers: `x` is
    /// resized to `[indices.len(), ...sample_shape]` and fully
    /// overwritten, `y` is cleared and refilled. Steady-state callers
    /// allocate nothing.
    pub fn gather_into(&self, indices: &[usize], x: &mut Tensor, y: &mut Vec<usize>) {
        let slen = self.sample_len();
        let mut dims = vec![indices.len()];
        dims.extend_from_slice(&self.sample_shape());
        x.resize(dims);
        let src = self.inputs.data();
        let dst = x.data_mut();
        y.clear();
        for (j, &i) in indices.iter().enumerate() {
            assert!(i < self.len(), "gather index {i} out of bounds");
            dst[j * slen..(j + 1) * slen].copy_from_slice(&src[i * slen..(i + 1) * slen]);
            y.push(self.labels[i]);
        }
    }

    /// Sample indices belonging to each class.
    pub fn indices_by_class(&self) -> Vec<Vec<usize>> {
        let mut by = vec![Vec::new(); self.classes];
        for (i, &l) in self.labels.iter().enumerate() {
            by[l].push(i);
        }
        by
    }

    /// Concatenates two datasets over the batch dimension.
    ///
    /// # Panics
    /// Panics when sample shapes or class counts differ.
    pub fn concat(&self, other: &Dataset) -> Dataset {
        assert_eq!(self.classes, other.classes, "class count mismatch");
        assert_eq!(
            self.sample_shape(),
            other.sample_shape(),
            "sample shape mismatch"
        );
        let mut data = self.inputs.data().to_vec();
        data.extend_from_slice(other.inputs.data());
        let mut labels = self.labels.clone();
        labels.extend_from_slice(&other.labels);
        let mut dims = vec![self.len() + other.len()];
        dims.extend_from_slice(&self.sample_shape());
        Dataset {
            inputs: Tensor::from_vec(Shape::new(dims), data),
            labels,
            classes: self.classes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ds() -> Dataset {
        // 4 samples of shape [1, 2, 2], labels 0..3 over 4 classes.
        let inputs = Tensor::from_vec([4, 1, 2, 2], (0..16).map(|i| i as f32).collect());
        Dataset::new(inputs, vec![0, 1, 2, 3], 4)
    }

    #[test]
    fn basic_accessors() {
        let d = ds();
        assert_eq!(d.len(), 4);
        assert_eq!(d.classes(), 4);
        assert_eq!(d.sample_shape(), vec![1, 2, 2]);
        assert_eq!(d.sample_len(), 4);
    }

    #[test]
    fn subset_selects_and_reorders() {
        let d = ds();
        let s = d.subset(&[2, 0]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.labels(), &[2, 0]);
        assert_eq!(&s.inputs().data()[..4], &[8., 9., 10., 11.]);
    }

    #[test]
    fn subset_allows_repeats() {
        let d = ds();
        let s = d.subset(&[1, 1, 1]);
        assert_eq!(s.labels(), &[1, 1, 1]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn subset_rejects_bad_index() {
        ds().subset(&[9]);
    }

    #[test]
    fn class_counts_and_indices() {
        let inputs = Tensor::zeros([5, 1]);
        let d = Dataset::new(inputs, vec![0, 1, 1, 2, 1], 3);
        let by_class = d.indices_by_class();
        assert_eq!(by_class.iter().map(Vec::len).collect::<Vec<_>>(), [1, 3, 1]);
        assert_eq!(by_class[1], vec![1, 2, 4]);
    }

    #[test]
    fn concat_appends() {
        let d = ds();
        let c = d.concat(&d);
        assert_eq!(c.len(), 8);
        assert_eq!(c.labels()[4..], d.labels()[..]);
    }

    #[test]
    #[should_panic(expected = "label out of range")]
    fn out_of_range_label_panics() {
        Dataset::new(Tensor::zeros([1, 1]), vec![5], 3);
    }

    #[test]
    fn empty_dataset() {
        let d = Dataset::empty(&[1, 4, 4], 10);
        assert!(d.is_empty());
        assert_eq!(d.sample_shape(), vec![1, 4, 4]);
    }
}
