//! Random weight initialisation.
//!
//! The initialiser takes an explicit RNG so that experiments are reproducible:
//! the paper reports results averaged over five seeded runs, and the
//! reproduction harness does the same.

use rand::Rng;
use rand_distr::{Distribution, Uniform};

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
        let (mut wa, mut wb) = ([0.0f32; 32], [0.0f32; 32]);
        kaiming_uniform(&mut wa, 8, &mut a);
        kaiming_uniform(&mut wb, 8, &mut b);
        assert_eq!(wa, wb);
    }
}
