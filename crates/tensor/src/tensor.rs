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

    /// Returns a copy reshaped to `dims` (same element count required).
    pub fn reshape(&self, dims: &[usize]) -> TensorResult<Tensor> {
        let new_shape = Shape::new(dims);
        if new_shape.num_elements() != self.len() {
            return Err(TensorError::InvalidReshape {
                from: self.len(),
                to: new_shape.num_elements(),
            });
        }
        Ok(Tensor {
            shape: new_shape,
            data: self.data.clone(),
        })
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

    /// Elementwise addition, producing a new tensor.
    pub fn add(&self, other: &Tensor) -> TensorResult<Tensor> {
        self.zip_map(other, |a, b| a + b)
    }

    /// Elementwise subtraction, producing a new tensor.
    pub fn sub(&self, other: &Tensor) -> TensorResult<Tensor> {
        self.zip_map(other, |a, b| a - b)
    }

    /// In-place `self += alpha * other` (BLAS `axpy`).
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) -> TensorResult<()> {
        self.zip_assign(other, |a, b| *a += alpha * b)
    }

    /// Multiplies every element by `alpha`, producing a new tensor.
    pub fn scale(&self, alpha: f32) -> Tensor {
        self.map(|x| x * alpha)
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

    /// Maximum element (negative infinity for an empty tensor).
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element (positive infinity for an empty tensor).
    pub fn min(&self) -> f32 {
        self.data.iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Index of the maximum element in the flattened buffer.
    pub fn argmax(&self) -> usize {
        let mut best = 0usize;
        let mut best_val = f32::NEG_INFINITY;
        for (i, &v) in self.data.iter().enumerate() {
            if v > best_val {
                best_val = v;
                best = i;
            }
        }
        best
    }

    /// Euclidean (L2) norm of the flattened tensor.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum::<f32>().sqrt()
    }

    /// Dot product of two tensors viewed as flat vectors.
    pub fn dot(&self, other: &Tensor) -> TensorResult<f32> {
        if self.len() != other.len() {
            return Err(TensorError::ShapeMismatch {
                left: self.dims().to_vec(),
                right: other.dims().to_vec(),
            });
        }
        Ok(self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| a * b)
            .sum())
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

    /// Extracts row `r` of a rank-2 tensor as a rank-1 tensor.
    pub fn row(&self, r: usize) -> TensorResult<Tensor> {
        let (rows, cols) = self.shape.as_matrix()?;
        if r >= rows {
            return Err(TensorError::IndexOutOfBounds {
                index: vec![r],
                shape: self.dims().to_vec(),
            });
        }
        Ok(Tensor {
            shape: Shape::new(&[cols]),
            data: self.data[r * cols..(r + 1) * cols].to_vec(),
        })
    }

    /// Stacks rank-`k` tensors of identical shape into a rank-`k+1` tensor.
    pub fn stack(tensors: &[Tensor]) -> TensorResult<Tensor> {
        if tensors.is_empty() {
            return Err(TensorError::InvalidArgument(
                "cannot stack an empty list of tensors".into(),
            ));
        }
        let first_shape = tensors[0].shape.clone();
        for t in tensors.iter().skip(1) {
            if !t.shape.same_as(&first_shape) {
                return Err(TensorError::ShapeMismatch {
                    left: first_shape.dims().to_vec(),
                    right: t.dims().to_vec(),
                });
            }
        }
        let mut dims = vec![tensors.len()];
        dims.extend_from_slice(first_shape.dims());
        let mut data = Vec::with_capacity(tensors.len() * first_shape.num_elements());
        for t in tensors {
            data.extend_from_slice(&t.data);
        }
        Tensor::from_vec(data, &dims)
    }

    fn zip_map(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> TensorResult<Tensor> {
        if !self.shape.same_as(&other.shape) {
            return Err(TensorError::ShapeMismatch {
                left: self.dims().to_vec(),
                right: other.dims().to_vec(),
            });
        }
        Ok(Tensor {
            shape: self.shape.clone(),
            data: self
                .data
                .iter()
                .zip(other.data.iter())
                .map(|(&a, &b)| f(a, b))
                .collect(),
        })
    }

    fn zip_assign(&mut self, other: &Tensor, f: impl Fn(&mut f32, f32)) -> TensorResult<()> {
        if !self.shape.same_as(&other.shape) {
            return Err(TensorError::ShapeMismatch {
                left: self.dims().to_vec(),
                right: other.dims().to_vec(),
            });
        }
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            f(a, b);
        }
        Ok(())
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
    fn elementwise_ops() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]).unwrap();
        let b = Tensor::from_vec(vec![4.0, 5.0, 6.0], &[3]).unwrap();
        assert_eq!(a.add(&b).unwrap().data(), &[5.0, 7.0, 9.0]);
        assert_eq!(b.sub(&a).unwrap().data(), &[3.0, 3.0, 3.0]);
    }

    #[test]
    fn elementwise_shape_mismatch() {
        let a = Tensor::zeros(&[2, 2]);
        let b = Tensor::zeros(&[4]);
        assert!(a.add(&b).is_err());
    }

    #[test]
    fn axpy_matches_manual() {
        let mut a = Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap();
        let b = Tensor::from_vec(vec![10.0, 20.0], &[2]).unwrap();
        a.axpy(0.5, &b).unwrap();
        assert_eq!(a.data(), &[6.0, 12.0]);
    }

    #[test]
    fn scale_and_map() {
        let a = Tensor::from_vec(vec![1.0, -2.0], &[2]).unwrap();
        assert_eq!(a.scale(2.0).data(), &[2.0, -4.0]);
        assert_eq!(a.map(f32::abs).data(), &[1.0, 2.0]);
    }

    #[test]
    fn reductions() {
        let a = Tensor::from_vec(vec![1.0, -2.0, 3.0, 0.0], &[4]).unwrap();
        assert_eq!(a.sum(), 2.0);
        assert_eq!(a.mean(), 0.5);
        assert_eq!(a.max(), 3.0);
        assert_eq!(a.min(), -2.0);
        assert_eq!(a.argmax(), 2);
    }

    #[test]
    fn norm_and_dot() {
        let a = Tensor::from_vec(vec![3.0, 4.0], &[2]).unwrap();
        assert!((a.norm() - 5.0).abs() < 1e-6);
        let b = Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap();
        assert_eq!(a.dot(&b).unwrap(), 11.0);
    }

    #[test]
    fn transpose_2d() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        let t = a.transpose().unwrap();
        assert_eq!(t.dims(), &[3, 2]);
        assert_eq!(t.get(&[0, 1]).unwrap(), 4.0);
        assert_eq!(t.get(&[2, 0]).unwrap(), 3.0);
    }

    #[test]
    fn reshape_checks_count() {
        let a = Tensor::zeros(&[2, 3]);
        assert!(a.reshape(&[3, 2]).is_ok());
        assert!(a.reshape(&[6]).is_ok());
        assert!(a.reshape(&[7]).is_err());
    }

    #[test]
    fn row_extraction() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        assert_eq!(a.row(1).unwrap().data(), &[3.0, 4.0]);
        assert!(a.row(2).is_err());
    }

    #[test]
    fn stack_tensors() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap();
        let b = Tensor::from_vec(vec![3.0, 4.0], &[2]).unwrap();
        let s = Tensor::stack(&[a, b]).unwrap();
        assert_eq!(s.dims(), &[2, 2]);
        assert_eq!(s.data(), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn stack_empty_or_mismatched_fails() {
        assert!(Tensor::stack(&[]).is_err());
        let a = Tensor::zeros(&[2]);
        let b = Tensor::zeros(&[3]);
        assert!(Tensor::stack(&[a, b]).is_err());
    }

    proptest! {
        /// add is commutative and sub(add(a,b), b) == a (elementwise, exact
        /// for these small integer-valued floats).
        #[test]
        fn prop_add_sub_roundtrip(v in proptest::collection::vec(-100i32..100, 1..64)) {
            let n = v.len();
            let a = Tensor::from_vec(v.iter().map(|&x| x as f32).collect(), &[n]).unwrap();
            let b = Tensor::ones(&[n]);
            let c = a.add(&b).unwrap().sub(&b).unwrap();
            prop_assert_eq!(c.data(), a.data());
            let ab = a.add(&b).unwrap();
            let ba = b.add(&a).unwrap();
            prop_assert_eq!(ab.data(), ba.data());
        }

        /// The L2 norm is absolutely homogeneous: ||αx|| = |α|·||x||.
        #[test]
        fn prop_norm_homogeneous(v in proptest::collection::vec(-10.0f32..10.0, 1..32), alpha in -4.0f32..4.0) {
            let n = v.len();
            let a = Tensor::from_vec(v, &[n]).unwrap();
            let lhs = a.scale(alpha).norm();
            let rhs = alpha.abs() * a.norm();
            prop_assert!((lhs - rhs).abs() <= 1e-3 * (1.0 + rhs.abs()));
        }

        /// Transposing twice is the identity.
        #[test]
        fn prop_transpose_involution(rows in 1usize..6, cols in 1usize..6) {
            let data: Vec<f32> = (0..rows * cols).map(|x| x as f32).collect();
            let a = Tensor::from_vec(data, &[rows, cols]).unwrap();
            let tt = a.transpose().unwrap().transpose().unwrap();
            prop_assert_eq!(tt, a);
        }

        /// Dot product against self equals squared norm.
        #[test]
        fn prop_dot_self_is_norm_sq(v in proptest::collection::vec(-5.0f32..5.0, 1..32)) {
            let n = v.len();
            let a = Tensor::from_vec(v, &[n]).unwrap();
            let d = a.dot(&a).unwrap();
            let nrm = a.norm();
            prop_assert!((d - nrm * nrm).abs() <= 1e-3 * (1.0 + d.abs()));
        }
    }
}
