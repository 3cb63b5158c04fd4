//! Flat parameter vectors in ℝ^d.
//!
//! Every quantity the federated algorithms manipulate — the global model θ,
//! local models `w_i`, dual variables `y_i`, control variates `c_i`, update
//! messages `Δ_i` — is a vector in ℝ^d where `d` is the model's parameter
//! count. [`ParamVector`] is a thin newtype over `Vec<f32>` with the small
//! amount of vector algebra the algorithms need, so that algorithm code
//! reads like the paper's equations.

use fedadmm_tensor::vecops;

/// A dense vector in ℝ^d (model parameters, duals, messages, ...).
#[derive(Debug, Clone, PartialEq)]
pub struct ParamVector(Vec<f32>);

impl ParamVector {
    /// The zero vector of dimension `d`.
    pub fn zeros(d: usize) -> Self {
        ParamVector(vec![0.0; d])
    }

    /// Wraps an existing vector.
    pub fn from_vec(v: Vec<f32>) -> Self {
        ParamVector(v)
    }

    /// Dimension `d`.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the vector has dimension zero.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Immutable view of the underlying values.
    pub fn as_slice(&self) -> &[f32] {
        &self.0
    }

    /// Mutable view of the underlying values.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.0
    }

    /// Consumes the wrapper and returns the underlying vector.
    pub fn into_vec(self) -> Vec<f32> {
        self.0
    }

    /// `self += alpha * other`.
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    pub fn axpy(&mut self, alpha: f32, other: &ParamVector) {
        vecops::axpy(alpha, &other.0, &mut self.0);
    }

    /// `self *= alpha`.
    pub fn scale(&mut self, alpha: f32) {
        vecops::scale(alpha, &mut self.0);
    }

    /// Returns `self - other` as a new vector.
    ///
    /// The result is produced in one fused pass with no intermediate
    /// zero-fill (each output element is written exactly once).
    ///
    /// # Panics
    /// Panics on dimension mismatch (checked in debug and release builds;
    /// the `debug_assert` merely fails earlier with a clearer message).
    pub fn sub(&self, other: &ParamVector) -> ParamVector {
        debug_assert_eq!(
            self.0.len(),
            other.0.len(),
            "ParamVector::sub dimension mismatch"
        );
        ParamVector(vecops::sub_new(&self.0, &other.0))
    }

    /// Returns `self + other` as a new vector.
    ///
    /// The result is produced in one fused pass with no intermediate
    /// zero-fill (each output element is written exactly once).
    ///
    /// # Panics
    /// Panics on dimension mismatch (checked in debug and release builds;
    /// the `debug_assert` merely fails earlier with a clearer message).
    pub fn add(&self, other: &ParamVector) -> ParamVector {
        debug_assert_eq!(
            self.0.len(),
            other.0.len(),
            "ParamVector::add dimension mismatch"
        );
        ParamVector(vecops::add_new(&self.0, &other.0))
    }

    /// Fused accumulation: `self += Σ_k alpha_k · v_k` in a single pass —
    /// the server-aggregation hot path (one sweep over ℝ^d regardless of
    /// how many client messages are folded in, instead of one `axpy` sweep
    /// per message).
    ///
    /// # Panics
    /// Panics on any dimension mismatch.
    pub fn accumulate(&mut self, terms: &[(f32, &ParamVector)]) {
        let (alphas, xs): (Vec<f32>, Vec<&[f32]>) =
            terms.iter().map(|(a, v)| (*a, v.0.as_slice())).unzip();
        vecops::axpy_fused(&alphas, &xs, &mut self.0);
    }

    /// Fused overwrite: `self = Σ_k alpha_k · v_k` in a single pass (no
    /// zeroing pass beforehand).
    ///
    /// # Panics
    /// Panics on any dimension mismatch.
    pub fn assign_weighted_sum(&mut self, terms: &[(f32, &ParamVector)]) {
        let (alphas, xs): (Vec<f32>, Vec<&[f32]>) =
            terms.iter().map(|(a, v)| (*a, v.0.as_slice())).unzip();
        vecops::weighted_sum_into(&alphas, &xs, &mut self.0);
    }

    /// Euclidean norm ‖·‖₂.
    pub fn norm(&self) -> f32 {
        vecops::norm(&self.0)
    }

    /// Euclidean distance to another vector.
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    pub fn dist(&self, other: &ParamVector) -> f32 {
        vecops::dist(&self.0, &other.0)
    }

    /// Dot product.
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    pub fn dot(&self, other: &ParamVector) -> f32 {
        vecops::dot(&self.0, &other.0)
    }

    /// Copies the values of `other` into this vector.
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    pub fn copy_from(&mut self, other: &ParamVector) {
        vecops::copy(&other.0, &mut self.0);
    }
}

impl From<Vec<f32>> for ParamVector {
    fn from(v: Vec<f32>) -> Self {
        ParamVector(v)
    }
}

impl AsRef<[f32]> for ParamVector {
    fn as_ref(&self) -> &[f32] {
        &self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn construction_and_accessors() {
        let z = ParamVector::zeros(4);
        assert_eq!(z.len(), 4);
        assert!(!z.is_empty());
        assert_eq!(z.as_slice(), &[0.0; 4]);
        let v = ParamVector::from_vec(vec![1.0, 2.0]);
        assert_eq!(v.clone().into_vec(), vec![1.0, 2.0]);
        assert_eq!(v.as_ref(), &[1.0, 2.0]);
    }

    #[test]
    fn arithmetic() {
        let a = ParamVector::from_vec(vec![1.0, 2.0]);
        let b = ParamVector::from_vec(vec![3.0, 5.0]);
        assert_eq!(b.sub(&a).as_slice(), &[2.0, 3.0]);
        assert_eq!(b.add(&a).as_slice(), &[4.0, 7.0]);
        assert_eq!(a.dot(&b), 13.0);
        let mut c = a.clone();
        c.axpy(2.0, &b);
        assert_eq!(c.as_slice(), &[7.0, 12.0]);
        c.scale(0.5);
        assert_eq!(c.as_slice(), &[3.5, 6.0]);
        c.copy_from(&b);
        assert_eq!(c.as_slice(), b.as_slice());
    }

    #[test]
    fn norms() {
        let a = ParamVector::from_vec(vec![3.0, 4.0]);
        assert_eq!(a.norm(), 5.0);
        assert_eq!(a.dist(&ParamVector::zeros(2)), 5.0);
    }

    #[test]
    #[should_panic]
    fn mismatched_dims_panic() {
        let a = ParamVector::zeros(2);
        let b = ParamVector::zeros(3);
        let _ = a.add(&b);
    }

    #[test]
    #[should_panic]
    fn mismatched_sub_dims_panic() {
        let a = ParamVector::zeros(2);
        let b = ParamVector::zeros(3);
        let _ = a.sub(&b);
    }

    #[test]
    fn fused_accumulate_matches_sequential_axpys() {
        let v1 = ParamVector::from_vec(vec![1.0, 2.0]);
        let v2 = ParamVector::from_vec(vec![-3.0, 0.5]);
        let mut fused = ParamVector::from_vec(vec![10.0, 10.0]);
        fused.accumulate(&[(2.0, &v1), (4.0, &v2)]);
        let mut sequential = ParamVector::from_vec(vec![10.0, 10.0]);
        sequential.axpy(2.0, &v1);
        sequential.axpy(4.0, &v2);
        assert_eq!(fused, sequential);
    }

    #[test]
    fn assign_weighted_sum_overwrites_in_one_pass() {
        let v1 = ParamVector::from_vec(vec![2.0, 4.0]);
        let v2 = ParamVector::from_vec(vec![6.0, 8.0]);
        let mut out = ParamVector::from_vec(vec![99.0, 99.0]);
        out.assign_weighted_sum(&[(0.5, &v1), (0.5, &v2)]);
        assert_eq!(out.as_slice(), &[4.0, 6.0]);
        out.assign_weighted_sum(&[]);
        assert_eq!(out.as_slice(), &[0.0, 0.0]);
    }

    proptest! {
        /// The triangle inequality holds for dist.
        #[test]
        fn prop_triangle_inequality(
            a in proptest::collection::vec(-5.0f32..5.0, 8),
            b in proptest::collection::vec(-5.0f32..5.0, 8),
            c in proptest::collection::vec(-5.0f32..5.0, 8),
        ) {
            let a = ParamVector::from_vec(a);
            let b = ParamVector::from_vec(b);
            let c = ParamVector::from_vec(c);
            prop_assert!(a.dist(&c) <= a.dist(&b) + b.dist(&c) + 1e-4);
        }

        /// (a + b) - b == a up to floating-point error.
        #[test]
        fn prop_add_sub_inverse(
            a in proptest::collection::vec(-5.0f32..5.0, 8),
            b in proptest::collection::vec(-5.0f32..5.0, 8),
        ) {
            let a = ParamVector::from_vec(a);
            let b = ParamVector::from_vec(b);
            let r = a.add(&b).sub(&b);
            for (x, y) in r.as_slice().iter().zip(a.as_slice().iter()) {
                prop_assert!((x - y).abs() < 1e-4);
            }
        }
    }
}
