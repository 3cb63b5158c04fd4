//! The dense, contiguous, row-major `f32` tensor type.

use crate::error::{TensorError, TensorResult};
use crate::shape::Shape;

/// A dense, contiguous, row-major tensor of `f32` values.
///
/// This is the single array type used throughout the reproduction: model
/// activations, gradients, convolution kernels, and datasets are all
/// `Tensor`s. Flattened model parameters use plain `Vec<f32>` (see
/// [`crate::vecops`]) because the federated algorithms treat parameters as
/// opaque vectors in ℝ^d.
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor from raw data and a shape.
    pub fn from_vec(data: Vec<f32>, dims: &[usize]) -> TensorResult<Self> {
        let shape = Shape::new(dims);
        if data.len() != shape.num_elements() {
            return Err(TensorError::DataShapeMismatch {
                data_len: data.len(),
                shape_len: shape.num_elements(),
            });
        }
        Ok(Tensor { shape, data })
    }

    /// Creates a zero-filled tensor of the given shape.
    pub fn zeros(dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        let n = shape.num_elements();
        Tensor {
            shape,
            data: vec![0.0; n],
        }
    }

    /// Creates a one-filled tensor of the given shape.
    pub fn ones(dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        let n = shape.num_elements();
        Tensor {
            shape,
            data: vec![1.0; n],
        }
    }

    /// Creates a tensor filled with a constant value.
    pub fn full(dims: &[usize], value: f32) -> Self {
        let shape = Shape::new(dims);
        let n = shape.num_elements();
        Tensor {
            shape,
            data: vec![value; n],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut t = Tensor::zeros(&[n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// Returns the tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Returns the dimension sizes.
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Returns the rank (number of dimensions).
    pub fn rank(&self) -> usize {
        self.shape.rank()
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying row-major buffer.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying row-major buffer.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor and returns its buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Reads the element at a multi-dimensional index.
    pub fn get(&self, index: &[usize]) -> TensorResult<f32> {
        let off = self.shape.flat_index(index)?;
        Ok(self.data[off])
    }

    /// Writes the element at a multi-dimensional index.
    pub fn set(&mut self, index: &[usize], value: f32) -> TensorResult<()> {
        let off = self.shape.flat_index(index)?;
        self.data[off] = value;
        Ok(())
    }

    /// Resizes the tensor to `dims`, keeping and reusing the existing
    /// buffer. New elements (if the tensor grows) are zero; existing
    /// element values are *not* meaningful after a resize — this is a
    /// scratch-buffer primitive for callers about to overwrite the
    /// contents. Allocation-free once the buffer has capacity for the
    /// largest shape it has seen.
    pub fn resize_in_place(&mut self, dims: &[usize]) {
        let elements: usize = dims.iter().product();
        self.data.resize(elements, 0.0);
        self.shape.set_dims(dims);
    }

    /// Swaps in `data` as the tensor's buffer under shape `dims` and
    /// returns the previous buffer.
    ///
    /// This lets a caller move an external `Vec<f32>` into tensor form and
    /// back without copying — the round-trip partner of [`Tensor::into_vec`]
    /// for reusable scratch buffers.
    pub fn replace_data(&mut self, data: Vec<f32>, dims: &[usize]) -> TensorResult<Vec<f32>> {
        let elements: usize = dims.iter().product();
        if data.len() != elements {
            return Err(TensorError::DataShapeMismatch {
                data_len: data.len(),
                shape_len: elements,
            });
        }
        self.shape.set_dims(dims);
        Ok(std::mem::replace(&mut self.data, data))
    }

    /// In-place scalar multiplication.
    pub fn scale_in_place(&mut self, alpha: f32) {
        for x in &mut self.data {
            *x *= alpha;
        }
    }

    /// Applies `f` elementwise, producing a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0 for an empty tensor).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Transposes a rank-2 tensor.
    pub fn transpose(&self) -> TensorResult<Tensor> {
        let (rows, cols) = self.shape.as_matrix()?;
        let mut out = Tensor::zeros(&[cols, rows]);
        for r in 0..rows {
            for c in 0..cols {
                out.data[c * rows + r] = self.data[r * cols + c];
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn from_vec_checks_len() {
        assert!(Tensor::from_vec(vec![1.0, 2.0], &[2]).is_ok());
        assert!(Tensor::from_vec(vec![1.0, 2.0], &[3]).is_err());
    }

    #[test]
    fn zeros_ones_full() {
        assert_eq!(Tensor::zeros(&[2, 2]).sum(), 0.0);
        assert_eq!(Tensor::ones(&[2, 2]).sum(), 4.0);
        assert_eq!(Tensor::full(&[3], 2.5).sum(), 7.5);
    }

    #[test]
    fn eye_diagonal() {
        let t = Tensor::eye(3);
        assert_eq!(t.get(&[0, 0]).unwrap(), 1.0);
        assert_eq!(t.get(&[1, 2]).unwrap(), 0.0);
        assert_eq!(t.sum(), 3.0);
    }

    #[test]
    fn get_set_roundtrip() {
        let mut t = Tensor::zeros(&[2, 3]);
        t.set(&[1, 2], 5.0).unwrap();
        assert_eq!(t.get(&[1, 2]).unwrap(), 5.0);
        assert_eq!(t.data()[5], 5.0);
    }

    #[test]
    fn scale_and_map() {
        let mut a = Tensor::from_vec(vec![1.0, -2.0], &[2]).unwrap();
        assert_eq!(a.map(f32::abs).data(), &[1.0, 2.0]);
        a.scale_in_place(2.0);
        assert_eq!(a.data(), &[2.0, -4.0]);
    }

    #[test]
    fn reductions() {
        let a = Tensor::from_vec(vec![1.0, -2.0, 3.0, 0.0], &[4]).unwrap();
        assert_eq!(a.sum(), 2.0);
        assert_eq!(a.mean(), 0.5);
        assert_eq!(Tensor::zeros(&[0]).mean(), 0.0);
    }

    #[test]
    fn transpose_2d() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        let t = a.transpose().unwrap();
        assert_eq!(t.dims(), &[3, 2]);
        assert_eq!(t.get(&[0, 1]).unwrap(), 4.0);
        assert_eq!(t.get(&[2, 0]).unwrap(), 3.0);
    }

    proptest! {
        /// Transposing twice is the identity.
        #[test]
        fn prop_transpose_involution(rows in 1usize..6, cols in 1usize..6) {
            let data: Vec<f32> = (0..rows * cols).map(|x| x as f32).collect();
            let a = Tensor::from_vec(data, &[rows, cols]).unwrap();
            let tt = a.transpose().unwrap().transpose().unwrap();
            prop_assert_eq!(tt, a);
        }
    }
}
