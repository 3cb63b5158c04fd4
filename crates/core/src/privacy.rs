//! Differential privacy: update clipping, the Gaussian mechanism, and zCDP
//! accounting.
//!
//! The paper notes (Section III, footnote 1) that "standard
//! privacy-preserving methods, such as differential privacy and secure
//! multi-party computation can be combined with FedADMM". This module
//! implements the first in the form used throughout the FL literature the
//! paper cites (\[31\]–\[33\]). Hand a [`GaussianMechanism`] to
//! [`WirePathConfig::with_guard`](crate::engine::WirePathConfig::with_guard)
//! and every dispatch worker clips and noises each uploaded vector before it
//! leaves the client, for any algorithm, with or without quantization.
//!
//! The mechanism composes cleanly with FedADMM because the server only ever
//! consumes the *average* of the uploaded messages; it never needs an
//! individual client's `Δ_i` (Algorithm 1, line 10), so DP noise averages
//! down with the number of participants.
//!
//! The standard recipe for client-level differential privacy in FL (\[32\]
//! in the paper's bibliography) is:
//!
//! 1. clip each client's update to a fixed ℓ₂ norm `C`, so one client's
//!    contribution to the aggregate has bounded sensitivity;
//! 2. add isotropic Gaussian noise with standard deviation `σ·C` (per
//!    coordinate) to the clipped update;
//! 3. account for the privacy cost of the whole training run.
//!
//! [`GaussianMechanism`] implements steps 1–2 over raw `f32` slices (so it
//! can be applied to any algorithm's upload payload), and
//! [`PrivacyAccountant`] implements step 3 using zero-concentrated
//! differential privacy: a single Gaussian release with multiplier `σ`
//! costs `ρ = 1/(2σ²)`; with client subsampling at rate `q` the standard
//! (and slightly conservative at small `q·ρ`) approximation `ρ_round ≈
//! q²/(2σ²)` is used; zCDP composes additively over rounds and converts to
//! `(ε, δ)`-DP via `ε = ρ + 2·√(ρ·ln(1/δ))`.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use rand_distr::StandardNormal;

/// Clipping + Gaussian noise applied to one uploaded vector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GaussianMechanism {
    /// ℓ₂ clipping norm `C`: updates longer than this are scaled down to it.
    pub clip_norm: f32,
    /// Noise multiplier `σ`: the per-coordinate noise standard deviation is
    /// `σ · C`. `σ = 0` disables the noise (clipping only).
    pub noise_multiplier: f32,
}

impl GaussianMechanism {
    /// Creates the mechanism.
    ///
    /// # Panics
    /// Panics if `clip_norm <= 0`, `noise_multiplier < 0` or either is not
    /// finite (an infinite `σ·C` would turn every upload into ±∞ / NaN).
    pub fn new(clip_norm: f32, noise_multiplier: f32) -> Self {
        assert!(clip_norm > 0.0, "the clipping norm must be positive");
        assert!(clip_norm.is_finite(), "the clipping norm must be finite");
        assert!(
            noise_multiplier >= 0.0,
            "the noise multiplier cannot be negative"
        );
        assert!(
            noise_multiplier.is_finite(),
            "the noise multiplier must be finite"
        );
        GaussianMechanism {
            clip_norm,
            noise_multiplier,
        }
    }

    /// Clips `update` in place to ℓ₂ norm `clip_norm` and returns the factor
    /// that was applied (1.0 when no clipping was needed). The norm uses the
    /// lane-chunked [`fedadmm_tensor::vecops::norm`] kernel — a serial
    /// sum-of-squares fold
    /// cannot vectorize, and this runs once per upload on the wire path.
    pub fn clip(&self, update: &mut [f32]) -> f32 {
        let norm = fedadmm_tensor::vecops::norm(update);
        if norm <= self.clip_norm || norm == 0.0 {
            return 1.0;
        }
        let factor = self.clip_norm / norm;
        for v in update.iter_mut() {
            *v *= factor;
        }
        factor
    }

    /// Adds `N(0, (σ·C)²)` noise to every coordinate, using `seed` so the
    /// simulation stays deterministic.
    ///
    /// Noise generation sits on the engine's wire hot path (one call per
    /// upload, d draws each), so samples come from `rand_distr`'s ziggurat
    /// [`StandardNormal`]: the common case is one generator step plus a
    /// table lookup and multiply, with no transcendentals — several times
    /// cheaper per coordinate than Box–Muller or the polar method. The whole
    /// upload goes through the sampler's slice entry in one call, which
    /// draws exactly what one `rng.sample(StandardNormal)` per coordinate
    /// would (the test module keeps that loop as the reference) without
    /// re-fetching the ziggurat tables for every draw.
    pub fn add_noise(&self, update: &mut [f32], seed: u64) {
        if self.noise_multiplier == 0.0 {
            return;
        }
        let std = self.noise_multiplier * self.clip_norm;
        StandardNormal.add_scaled(&mut SmallRng::seed_from_u64(seed), std, update);
    }

    /// Clips then noises `update` in place — the full mechanism. On the
    /// wire path `seed` is [`guard_seed`](crate::engine::wire::guard_seed)
    /// of the dispatch order's `(run seed, tick, client)` seed, so the noise
    /// is deterministic per `(seed, round, client)` and independent of the
    /// thread schedule.
    pub fn privatize(&self, update: &mut [f32], seed: u64) {
        self.clip(update);
        self.add_noise(update, seed);
    }
}

/// The cumulative privacy guarantee of a training run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrivacySpent {
    /// zCDP parameter ρ accumulated so far.
    pub rho_zcdp: f64,
    /// The ε of the equivalent (ε, δ)-DP guarantee.
    pub epsilon: f64,
    /// The δ at which ε was computed.
    pub delta: f64,
    /// Rounds accounted for.
    pub rounds: usize,
}

/// Composes the per-round zCDP cost of subsampled Gaussian releases.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrivacyAccountant {
    /// Noise multiplier σ used every round.
    pub noise_multiplier: f64,
    /// Client sampling rate `q = |S_t| / m` per round.
    pub sampling_rate: f64,
    /// Target δ of the reported (ε, δ) guarantee.
    pub delta: f64,
    rho_accumulated: f64,
    rounds: usize,
}

impl PrivacyAccountant {
    /// Creates an accountant for a run with the given mechanism parameters.
    ///
    /// # Panics
    /// Panics if `noise_multiplier <= 0`, `sampling_rate ∉ (0, 1]` or
    /// `delta ∉ (0, 1)`.
    pub fn new(noise_multiplier: f64, sampling_rate: f64, delta: f64) -> Self {
        assert!(
            noise_multiplier > 0.0,
            "privacy accounting needs a positive noise multiplier"
        );
        assert!(
            sampling_rate > 0.0 && sampling_rate <= 1.0,
            "the sampling rate must lie in (0, 1]"
        );
        assert!(delta > 0.0 && delta < 1.0, "δ must lie in (0, 1)");
        PrivacyAccountant {
            noise_multiplier,
            sampling_rate,
            delta,
            rho_accumulated: 0.0,
            rounds: 0,
        }
    }

    /// The zCDP cost of one round:
    /// `ρ_round = q² / (2σ²)` (amplification-by-subsampling approximation;
    /// exact, `1/(2σ²)`, when `q = 1`).
    pub fn rho_per_round(&self) -> f64 {
        let q = self.sampling_rate;
        q * q / (2.0 * self.noise_multiplier * self.noise_multiplier)
    }

    /// Records `rounds` additional rounds.
    pub fn step(&mut self, rounds: usize) {
        self.rounds += rounds;
        self.rho_accumulated += rounds as f64 * self.rho_per_round();
    }

    /// The guarantee accumulated so far.
    pub fn spent(&self) -> PrivacySpent {
        self.forecast(0)
    }

    /// The guarantee a run of `rounds` rounds would have (without mutating
    /// the accountant) — handy for planning a privacy budget up front.
    pub fn forecast(&self, rounds: usize) -> PrivacySpent {
        let rho = self.rho_accumulated + rounds as f64 * self.rho_per_round();
        let epsilon = rho + 2.0 * (rho * (1.0 / self.delta).ln()).sqrt();
        PrivacySpent {
            rho_zcdp: rho,
            epsilon,
            delta: self.delta,
            rounds: self.rounds + rounds,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clipping_preserves_short_updates_and_rescales_long_ones() {
        let mech = GaussianMechanism::new(1.0, 0.0);
        let mut short = vec![0.3, 0.4]; // norm 0.5 < 1
        assert_eq!(mech.clip(&mut short), 1.0);
        assert_eq!(short, vec![0.3, 0.4]);

        let mut long = vec![3.0, 4.0]; // norm 5 > 1
        let factor = mech.clip(&mut long);
        assert!((factor - 0.2).abs() < 1e-7);
        let norm = (long[0] * long[0] + long[1] * long[1]).sqrt();
        assert!((norm - 1.0).abs() < 1e-6);
        // Direction is preserved.
        assert!((long[1] / long[0] - 4.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn clipping_a_zero_vector_is_a_noop() {
        let mech = GaussianMechanism::new(0.5, 0.0);
        let mut zero = vec![0.0; 4];
        assert_eq!(mech.clip(&mut zero), 1.0);
        assert!(zero.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn noise_is_deterministic_in_seed_and_zero_when_disabled() {
        let mech = GaussianMechanism::new(1.0, 0.5);
        let mut a = vec![0.0f32; 100];
        let mut b = vec![0.0f32; 100];
        mech.add_noise(&mut a, 42);
        mech.add_noise(&mut b, 42);
        assert_eq!(a, b);
        let mut c = vec![0.0f32; 100];
        mech.add_noise(&mut c, 43);
        assert_ne!(a, c);

        let noiseless = GaussianMechanism::new(1.0, 0.0);
        let mut d = vec![1.0f32; 10];
        noiseless.add_noise(&mut d, 0);
        assert_eq!(d, vec![1.0f32; 10]);
    }

    /// The draw-at-a-time noise loop [`GaussianMechanism::add_noise`]
    /// replaced, kept as the definition of its stream: one
    /// `rng.sample(StandardNormal)` per coordinate, in order.
    mod reference {
        use super::*;
        use rand::Rng;

        pub fn add_noise(mech: &GaussianMechanism, update: &mut [f32], seed: u64) {
            if mech.noise_multiplier == 0.0 {
                return;
            }
            let std = mech.noise_multiplier * mech.clip_norm;
            let mut rng = SmallRng::seed_from_u64(seed);
            for v in update.iter_mut() {
                let z: f32 = rng.sample(StandardNormal);
                *v += std * z;
            }
        }
    }

    #[test]
    fn add_noise_matches_the_per_sample_reference_and_is_a_noop_at_sigma_zero() {
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for n in [0, 1, 15, 16, 17, 7_850] {
            let mut base: Vec<f32> = (0..n).map(|i| (i as f32 * 0.37).sin() * 2.0).collect();
            if n > 16 {
                // What a non-finite upload should do is not decided here;
                // its coordinates take their noise like any other.
                (base[3], base[9], base[16]) = (f32::NAN, f32::INFINITY, f32::NEG_INFINITY);
            }
            for (clip, sigma) in [(1.0, 0.5), (20.0, 1e-3), (0.25, 3.0)] {
                let mech = GaussianMechanism::new(clip, sigma);
                for seed in [0u64, 42, 0x6A2D_5EED_0FF5_E75B] {
                    let (mut want, mut got) = (base.clone(), base.clone());
                    reference::add_noise(&mech, &mut want, seed);
                    mech.add_noise(&mut got, seed);
                    assert_eq!(
                        bits(&got),
                        bits(&want),
                        "n {n}, C {clip}, σ {sigma}, seed {seed}"
                    );
                }
            }
            let mut untouched = base.clone();
            GaussianMechanism::new(1.0, 0.0).add_noise(&mut untouched, 42);
            assert_eq!(
                bits(&untouched),
                bits(&base),
                "σ = 0 changed a vector of {n}"
            );
        }
    }

    #[test]
    fn noise_magnitude_scales_with_sigma_and_clip_norm() {
        let small = GaussianMechanism::new(1.0, 0.1);
        let large = GaussianMechanism::new(1.0, 1.0);
        let n = 10_000;
        let mut a = vec![0.0f32; n];
        let mut b = vec![0.0f32; n];
        small.add_noise(&mut a, 7);
        large.add_noise(&mut b, 7);
        let std = |v: &[f32]| {
            (v.iter().map(|x| (*x as f64) * (*x as f64)).sum::<f64>() / v.len() as f64).sqrt()
        };
        assert!((std(&a) - 0.1).abs() < 0.01, "measured σ = {}", std(&a));
        assert!((std(&b) - 1.0).abs() < 0.05, "measured σ = {}", std(&b));
    }

    #[test]
    fn privatize_applies_both_steps() {
        let mech = GaussianMechanism::new(1.0, 0.2);
        let mut update = vec![30.0f32, 40.0];
        mech.privatize(&mut update, 5);
        // After clipping the norm was 1; noise perturbs it but by far less
        // than the original norm of 50.
        let norm = (update[0] * update[0] + update[1] * update[1]).sqrt();
        assert!(norm < 3.0, "norm after privatization: {norm}");
    }

    #[test]
    #[should_panic(expected = "clipping norm must be positive")]
    fn zero_clip_norm_is_rejected() {
        GaussianMechanism::new(0.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "clipping norm must be finite")]
    fn non_finite_clip_norm_is_rejected() {
        GaussianMechanism::new(f32::INFINITY, 0.5);
    }

    #[test]
    #[should_panic(expected = "noise multiplier must be finite")]
    fn non_finite_noise_multiplier_is_rejected() {
        GaussianMechanism::new(1.0, f32::INFINITY);
    }

    #[test]
    fn accountant_composes_linearly_in_rho() {
        let mut acc = PrivacyAccountant::new(1.0, 0.1, 1e-5);
        assert_eq!(acc.spent().rho_zcdp, 0.0);
        acc.step(100);
        let spent = acc.spent();
        // ρ per round = 0.01/2 = 0.005; 100 rounds → 0.5.
        assert!((spent.rho_zcdp - 0.5).abs() < 1e-12);
        assert_eq!(spent.rounds, 100);
        acc.step(100);
        assert!((acc.spent().rho_zcdp - 1.0).abs() < 1e-12);
    }

    #[test]
    fn epsilon_grows_sublinearly_in_rounds() {
        // zCDP composition gives ε = O(√T) for fixed per-round cost — the
        // whole point of using it over naive (ε, δ) composition.
        let acc = PrivacyAccountant::new(1.0, 0.1, 1e-5);
        let e100 = acc.forecast(100).epsilon;
        let e400 = acc.forecast(400).epsilon;
        assert!(e400 > e100);
        assert!(
            e400 < 4.0 * e100,
            "ε must compose sublinearly: {e100} vs {e400}"
        );
        // And with everything else fixed, more noise means less ε.
        let quieter = PrivacyAccountant::new(2.0, 0.1, 1e-5);
        assert!(quieter.forecast(100).epsilon < e100);
    }

    #[test]
    fn full_participation_costs_more_than_subsampling() {
        let sub = PrivacyAccountant::new(1.0, 0.1, 1e-5);
        let full = PrivacyAccountant::new(1.0, 1.0, 1e-5);
        assert!(full.rho_per_round() > sub.rho_per_round() * 50.0);
        assert!((full.rho_per_round() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn forecast_does_not_mutate() {
        let acc = PrivacyAccountant::new(1.0, 0.2, 1e-6);
        let _ = acc.forecast(1000);
        assert_eq!(acc.spent().rounds, 0);
        assert_eq!(acc.spent().rho_zcdp, 0.0);
    }

    #[test]
    #[should_panic(expected = "sampling rate")]
    fn invalid_sampling_rate_is_rejected() {
        PrivacyAccountant::new(1.0, 0.0, 1e-5);
    }

    #[test]
    #[should_panic(expected = "δ must lie in")]
    fn invalid_delta_is_rejected() {
        PrivacyAccountant::new(1.0, 0.5, 0.0);
    }
}
