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

/// Samples a tensor with i.i.d. `Uniform(low, high)` entries.
pub fn rand_uniform(dims: &[usize], low: f32, high: f32, rng: &mut impl Rng) -> Tensor {
    assert!(low < high, "rand_uniform requires low < high");
    let uniform = Uniform::new(low, high);
    let mut t = Tensor::zeros(dims);
    for x in t.data_mut() {
        *x = uniform.sample(rng);
    }
    t
}

/// Kaiming / He uniform initialisation for layers followed by ReLU.
///
/// Samples `Uniform(-b, b)` with `b = sqrt(6 / fan_in)`; this is PyTorch's
/// default for `Conv2d`/`Linear` up to the gain constant, and is what the
/// paper's PyTorch reference implementation uses implicitly.
pub fn kaiming_uniform(dims: &[usize], fan_in: usize, rng: &mut impl Rng) -> Tensor {
    let bound = (6.0 / fan_in.max(1) as f32).sqrt();
    rand_uniform(dims, -bound, bound, rng)
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
    fn rand_uniform_bounds() {
        let mut rng = SmallRng::seed_from_u64(7);
        let t = rand_uniform(&[1000], -0.5, 0.5, &mut rng);
        assert!(t.max() <= 0.5);
        assert!(t.min() >= -0.5);
    }

    #[test]
    #[should_panic(expected = "low < high")]
    fn rand_uniform_bad_range() {
        let mut rng = SmallRng::seed_from_u64(7);
        rand_uniform(&[4], 1.0, 1.0, &mut rng);
    }

    #[test]
    fn kaiming_bound_respected() {
        let mut rng = SmallRng::seed_from_u64(3);
        let fan_in = 25;
        let bound = (6.0f32 / fan_in as f32).sqrt();
        let t = kaiming_uniform(&[500], fan_in, &mut rng);
        assert!(t.max() <= bound);
        assert!(t.min() >= -bound);
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
