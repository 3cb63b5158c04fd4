//! Plain stochastic gradient descent on flat parameter vectors.
//!
//! The paper uses SGD as the local solver for every algorithm ("SGD was
//! chosen as the local solver in all cases"). This is the plain step; the
//! federated algorithms' local trainer fuses each algorithm's proximal /
//! dual correction term into a step of its own, with this step's bits.

use fedadmm_tensor::vecops;

/// Plain SGD (the paper uses no weight decay).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sgd {
    /// Learning rate η_i (the paper selects it from {0.01, 0.1, 0.2, 0.5}).
    pub learning_rate: f32,
}

impl Sgd {
    /// Creates an SGD optimizer with the given learning rate.
    pub fn new(learning_rate: f32) -> Self {
        Sgd { learning_rate }
    }

    /// Performs one update: `params -= lr * grads`.
    ///
    /// # Panics
    /// Panics if `params.len() != grads.len()`.
    pub fn step(&self, params: &mut [f32], grads: &[f32]) {
        assert_eq!(params.len(), grads.len(), "Sgd::step length mismatch");
        vecops::axpy(-self.learning_rate, grads, params);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_moves_against_gradient() {
        let sgd = Sgd::new(0.1);
        let mut p = vec![1.0, 2.0];
        sgd.step(&mut p, &[1.0, -1.0]);
        assert_eq!(p, vec![0.9, 2.1]);
    }

    #[test]
    fn zero_lr_is_noop() {
        let sgd = Sgd::new(0.0);
        let mut p = vec![3.0, -4.0];
        sgd.step(&mut p, &[100.0, 100.0]);
        assert_eq!(p, vec![3.0, -4.0]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        Sgd::new(0.1).step(&mut [1.0], &[1.0, 2.0]);
    }

    #[test]
    fn converges_on_quadratic() {
        // Minimise f(x) = 0.5 * ||x - t||^2 with gradient (x - t).
        let target = [1.0f32, -2.0, 3.0];
        let mut x = vec![0.0f32; 3];
        let sgd = Sgd::new(0.5);
        for _ in 0..50 {
            let grads: Vec<f32> = x.iter().zip(target.iter()).map(|(a, t)| a - t).collect();
            sgd.step(&mut x, &grads);
        }
        for (a, t) in x.iter().zip(target.iter()) {
            assert!((a - t).abs() < 1e-3);
        }
    }
}
