//! Random tensor initialisation helpers.
//!
//! All helpers take an explicit RNG so that experiments are reproducible:
//! the paper reports results averaged over five seeded runs, and the
//! reproduction harness does the same.

use crate::tensor::Tensor;
use rand::Rng;
use rand_distr::{Distribution, Normal, Uniform};

/// Samples a tensor with i.i.d. `N(mean, std²)` entries.
pub fn randn(dims: &[usize], mean: f32, std: f32, rng: &mut impl Rng) -> Tensor {
    let normal = Normal::new(mean, std.max(f32::EPSILON)).expect("valid normal parameters");
    let mut t = Tensor::zeros(dims);
    for x in t.data_mut() {
        *x = normal.sample(rng);
    }
    t
}

/// Kaiming / He uniform initialisation for layers followed by ReLU, written
/// into a weight that lives in a caller-owned slice (a layer's range of its
/// network's parameter vector).
///
/// Samples `Uniform(-b, b)` with `b = sqrt(6 / fan_in)`; this is PyTorch's
/// default for `Conv2d`/`Linear` up to the gain constant, and is what the
/// paper's PyTorch reference implementation uses implicitly.
pub fn kaiming_uniform(weight: &mut [f32], fan_in: usize, rng: &mut impl Rng) {
    let bound = (6.0 / fan_in.max(1) as f32).sqrt();
    let uniform = Uniform::new(-bound, bound);
    for x in weight {
        *x = uniform.sample(rng);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn randn_statistics() {
        let mut rng = SmallRng::seed_from_u64(7);
        let t = randn(&[10_000], 1.0, 2.0, &mut rng);
        let mean = t.mean();
        let var = t.map(|x| (x - mean) * (x - mean)).mean();
        assert!((mean - 1.0).abs() < 0.1, "mean was {mean}");
        assert!((var - 4.0).abs() < 0.3, "variance was {var}");
    }

    #[test]
    fn kaiming_bound_respected() {
        let mut rng = SmallRng::seed_from_u64(3);
        let fan_in = 25;
        let bound = (6.0f32 / fan_in as f32).sqrt();
        let mut w = [0.0f32; 500];
        kaiming_uniform(&mut w, fan_in, &mut rng);
        assert!(w.iter().all(|v| v.abs() <= bound));
        assert!(w.iter().any(|&v| v != 0.0));
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = SmallRng::seed_from_u64(99);
        let mut b = SmallRng::seed_from_u64(99);
        let ta = randn(&[32], 0.0, 1.0, &mut a);
        let tb = randn(&[32], 0.0, 1.0, &mut b);
        assert_eq!(ta, tb);
    }
}
