//! Shape and stride bookkeeping for row-major tensors.

use crate::error::{TensorError, TensorResult};

/// The shape of a tensor: a list of dimension sizes, outermost first.
///
/// Shapes are stored densely; tensors in this crate are always contiguous
/// and row-major, so strides can be derived on demand via
/// [`Shape::strides`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Shape {
    dims: Vec<usize>,
}

impl Shape {
    /// Creates a shape from a slice of dimension sizes.
    ///
    /// A scalar is represented by an empty dimension list.
    pub fn new(dims: &[usize]) -> Self {
        Shape {
            dims: dims.to_vec(),
        }
    }

    /// Returns the dimension sizes.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Overwrites the dimension sizes in place, reusing the existing
    /// allocation when its capacity suffices.
    pub fn set_dims(&mut self, dims: &[usize]) {
        self.dims.clear();
        self.dims.extend_from_slice(dims);
    }

    /// Returns the number of dimensions (the rank).
    pub fn rank(&self) -> usize {
        self.dims.len()
    }

    /// Total number of elements described by this shape.
    ///
    /// The empty shape (a scalar) has one element.
    pub fn num_elements(&self) -> usize {
        self.dims.iter().product()
    }

    /// Row-major strides for this shape, in elements.
    pub fn strides(&self) -> Vec<usize> {
        let mut strides = vec![1usize; self.dims.len()];
        for i in (0..self.dims.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * self.dims[i + 1];
        }
        strides
    }

    /// Converts a multi-dimensional index into a flat offset.
    ///
    /// Returns an error if the index rank or any coordinate is out of
    /// bounds.
    pub fn flat_index(&self, index: &[usize]) -> TensorResult<usize> {
        if index.len() != self.dims.len() {
            return Err(TensorError::IndexOutOfBounds {
                index: index.to_vec(),
                shape: self.dims.clone(),
            });
        }
        let mut offset = 0usize;
        let strides = self.strides();
        for (axis, (&i, &d)) in index.iter().zip(self.dims.iter()).enumerate() {
            if i >= d {
                return Err(TensorError::IndexOutOfBounds {
                    index: index.to_vec(),
                    shape: self.dims.clone(),
                });
            }
            offset += i * strides[axis];
        }
        Ok(offset)
    }

    /// Interprets this shape as a 2-D matrix `(rows, cols)`.
    ///
    /// Rank-1 shapes are treated as a single row.
    pub fn as_matrix(&self) -> TensorResult<(usize, usize)> {
        match self.dims.len() {
            1 => Ok((1, self.dims[0])),
            2 => Ok((self.dims[0], self.dims[1])),
            r => Err(TensorError::RankMismatch {
                expected: 2,
                actual: r,
            }),
        }
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape::new(dims)
    }
}

impl From<Vec<usize>> for Shape {
    fn from(dims: Vec<usize>) -> Self {
        Shape { dims }
    }
}

impl std::fmt::Display for Shape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[")?;
        for (i, d) in self.dims.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn num_elements_product() {
        assert_eq!(Shape::new(&[2, 3, 4]).num_elements(), 24);
        assert_eq!(Shape::new(&[]).num_elements(), 1);
        assert_eq!(Shape::new(&[0, 5]).num_elements(), 0);
    }

    #[test]
    fn strides_row_major() {
        assert_eq!(Shape::new(&[2, 3, 4]).strides(), vec![12, 4, 1]);
        assert_eq!(Shape::new(&[7]).strides(), vec![1]);
        assert!(Shape::new(&[]).strides().is_empty());
    }

    #[test]
    fn flat_index_roundtrip() {
        let s = Shape::new(&[2, 3, 4]);
        assert_eq!(s.flat_index(&[0, 0, 0]).unwrap(), 0);
        assert_eq!(s.flat_index(&[1, 2, 3]).unwrap(), 23);
        assert_eq!(s.flat_index(&[1, 0, 2]).unwrap(), 14);
    }

    #[test]
    fn flat_index_out_of_bounds() {
        let s = Shape::new(&[2, 3]);
        assert!(s.flat_index(&[2, 0]).is_err());
        assert!(s.flat_index(&[0]).is_err());
        assert!(s.flat_index(&[0, 3]).is_err());
    }

    #[test]
    fn as_matrix_shapes() {
        assert_eq!(Shape::new(&[5]).as_matrix().unwrap(), (1, 5));
        assert_eq!(Shape::new(&[4, 7]).as_matrix().unwrap(), (4, 7));
        assert!(Shape::new(&[2, 2, 2]).as_matrix().is_err());
    }

    #[test]
    fn display_formats_dims() {
        assert_eq!(Shape::new(&[2, 3]).to_string(), "[2, 3]");
        assert_eq!(Shape::new(&[]).to_string(), "[]");
    }

    proptest! {
        /// Every valid multi-index maps to a distinct flat offset below the
        /// element count (a bijection onto 0..n for contiguous tensors).
        #[test]
        fn prop_flat_index_in_bounds(d0 in 1usize..6, d1 in 1usize..6, d2 in 1usize..6) {
            let s = Shape::new(&[d0, d1, d2]);
            let mut seen = std::collections::HashSet::new();
            for i in 0..d0 {
                for j in 0..d1 {
                    for k in 0..d2 {
                        let off = s.flat_index(&[i, j, k]).unwrap();
                        prop_assert!(off < s.num_elements());
                        prop_assert!(seen.insert(off));
                    }
                }
            }
            prop_assert_eq!(seen.len(), s.num_elements());
        }

        /// Strides of the outermost axis times its size equals the total
        /// element count.
        #[test]
        fn prop_strides_consistent(dims in proptest::collection::vec(1usize..8, 1..4)) {
            let s = Shape::new(&dims);
            let strides = s.strides();
            prop_assert_eq!(strides[0] * dims[0], s.num_elements());
        }
    }
}
