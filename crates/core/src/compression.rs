//! Lossy upload compression (uniform quantization) as an algorithm adapter.
//!
//! The paper's efficiency claim is that FedADMM reduces the *number* of
//! communication rounds while keeping the per-round upload at `d` floats.
//! A complementary (and composable) lever is shrinking the upload itself:
//! quantizing each uploaded vector to `b` bits per coordinate cuts the bytes
//! on the wire by `32/b×` at the cost of bounded quantization error — error
//! that FedADMM is naturally robust to, because Theorem 1 already tolerates
//! inexact local solutions (the quantization error simply adds to `ε_i`).
//!
//! * [`Quantizer`] implements uniform `b`-bit quantization with an optional
//!   unbiased stochastic-rounding mode (the standard QSGD-style trick:
//!   `E[dequantize(quantize(x))] = x`);
//! * [`QuantizedAlgorithm`] wraps any [`Algorithm`] and passes every
//!   uploaded vector through quantize → dequantize, so a simulation
//!   faithfully sees the *information loss* of compressed uploads while the
//!   server-side code remains unchanged. Byte accounting for the compressed
//!   messages is exposed through [`QuantizedAlgorithm::compressed_bytes`]
//!   (the `ClientMessage` float counters keep reporting the uncompressed
//!   `d`, since they count model *coordinates* communicated).

use crate::algorithms::{Algorithm, ClientMessage, ServerOutcome, UpdateScratch};
use crate::client::ClientState;
use crate::param::ParamVector;
use crate::trainer::LocalEnv;
use fedadmm_tensor::TensorResult;
use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};
use serde::{Deserialize, Serialize};

/// Uniform `b`-bit quantizer over the range of each individual vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Quantizer {
    /// Bits per coordinate, between 1 and 16.
    pub bits: u8,
    /// Whether to use unbiased stochastic rounding instead of
    /// round-to-nearest.
    pub stochastic: bool,
}

/// A quantized vector: per-vector affine parameters plus one code per
/// coordinate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuantizedVector {
    /// Minimum of the original vector (the value code 0 decodes to).
    pub min: f32,
    /// Quantization step; code `k` decodes to `min + k · step`.
    pub step: f32,
    /// One code per coordinate (stored in a `u16` regardless of `bits`; the
    /// wire-size accounting uses `bits`).
    pub codes: Vec<u16>,
    /// Bits per coordinate used to produce the codes.
    pub bits: u8,
}

impl QuantizedVector {
    /// Bytes this vector occupies on the wire: `⌈bits·len/8⌉` for the codes
    /// plus the two `f32` affine parameters.
    pub fn wire_bytes(&self) -> usize {
        (self.bits as usize * self.codes.len()).div_ceil(8) + 8
    }

    /// Decodes back to `f32` coordinates.
    pub fn dequantize(&self) -> Vec<f32> {
        self.codes
            .iter()
            .map(|&k| self.min + k as f32 * self.step)
            .collect()
    }
}

/// The compressed (and optionally privatized) representation of one client
/// upload, attached to a `ClientMessage` by the engine's wire path.
///
/// Staleness damping lands in [`WirePayload::scale`] rather than in the
/// codes: quantized coordinates cannot be scaled in place without decoding,
/// so the schedulers multiply the scale and the server folds it into the
/// per-message fold coefficient — the decode-scale-accumulate still happens
/// in one pass.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WirePayload {
    /// Multiplier folded into the server-side fold coefficient (1.0 for a
    /// fresh arrival; staleness weights multiply into it).
    pub scale: f32,
    /// One quantized vector per dense payload vector the algorithm produced.
    pub vectors: Vec<QuantizedVector>,
}

impl WirePayload {
    /// Total bytes on the wire (codes + affine parameters + the scale).
    pub fn wire_bytes(&self) -> usize {
        4 + self.vectors.iter().map(|v| v.wire_bytes()).sum::<usize>()
    }

    /// Total coded coordinates across all vectors.
    pub fn coords(&self) -> usize {
        self.vectors.iter().map(|v| v.codes.len()).sum()
    }
}

impl Quantizer {
    /// Creates a quantizer.
    ///
    /// # Panics
    /// Panics unless `1 ≤ bits ≤ 16`.
    pub fn new(bits: u8, stochastic: bool) -> Self {
        assert!(
            (1..=16).contains(&bits),
            "supported quantization widths are 1–16 bits"
        );
        Quantizer { bits, stochastic }
    }

    /// Number of quantization levels (`2^bits`).
    pub fn levels(&self) -> u32 {
        1u32 << self.bits
    }

    /// Quantizes `values`. The `seed` drives stochastic rounding (ignored in
    /// deterministic mode).
    pub fn quantize(&self, values: &[f32], seed: u64) -> QuantizedVector {
        let mut codes = Vec::with_capacity(values.len());
        let (min, step) = self.quantize_into(values, seed, &mut codes);
        QuantizedVector {
            min,
            step,
            codes,
            bits: self.bits,
        }
    }

    /// Quantizes `values` into a reusable code buffer (cleared and refilled,
    /// so steady-state callers pay no allocation), returning the affine
    /// `(min, step)` decode parameters. Produces exactly the codes
    /// [`Quantizer::quantize`] would for the same seed — the engine's wire
    /// path calls this from the per-worker dispatch scratch.
    pub fn quantize_into(&self, values: &[f32], seed: u64, codes: &mut Vec<u16>) -> (f32, f32) {
        assert!(!values.is_empty(), "cannot quantize an empty vector");
        let (min, max) = fedadmm_tensor::vecops::min_max(values);
        let levels = self.levels() as f32;
        let range = (max - min).max(f32::EPSILON);
        let step = range / (levels - 1.0);
        // One multiply per element instead of a divide — this loop runs per
        // upload on the wire hot path.
        let inv_step = 1.0 / step;
        codes.clear();
        if self.stochastic {
            // Stochastic rounding as `⌊x + U⌋` with `U` uniform in [0, 1):
            // the carry fires with probability exactly frac(x), and the
            // whole dither is one add on top of the affine map. `x ≥ 0`
            // (min subtracted), so the `u16` cast truncates = floors, and
            // only the upper bound needs clamping. Each raw `u64` supplies
            // the 24-bit dithers for two consecutive elements.
            const U24: f32 = 1.0 / (1u32 << 24) as f32;
            let top = levels - 1.0;
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut pairs = values.chunks_exact(2);
            for pair in &mut pairs {
                let bits = rng.next_u64();
                let u0 = (bits as u32 >> 8) as f32 * U24;
                let u1 = ((bits >> 40) as u32) as f32 * U24;
                codes.push(((pair[0] - min) * inv_step + u0).min(top) as u16);
                codes.push(((pair[1] - min) * inv_step + u1).min(top) as u16);
            }
            if let [last] = pairs.remainder() {
                let u0 = (rng.next_u32() >> 8) as f32 * U24;
                codes.push(((last - min) * inv_step + u0).min(top) as u16);
            }
        } else {
            codes.extend(
                values
                    .iter()
                    .map(|&v| ((v - min) * inv_step).round().clamp(0.0, levels - 1.0) as u16),
            );
        }
        (min, step)
    }

    /// Worst-case absolute error per coordinate for a vector whose values
    /// span `range`: half a quantization step (deterministic) or a full step
    /// (stochastic).
    pub fn max_error(&self, range: f32) -> f32 {
        let step = range.max(f32::EPSILON) / (self.levels() as f32 - 1.0);
        if self.stochastic {
            step
        } else {
            step / 2.0
        }
    }

    /// Compression ratio versus uncompressed `f32` uploads.
    pub fn compression_ratio(&self) -> f64 {
        32.0 / self.bits as f64
    }
}

/// Wraps an algorithm so that every uploaded vector is quantized (and
/// immediately dequantized, so the rest of the pipeline is unchanged while
/// the information loss is faithfully simulated).
#[derive(Debug, Clone)]
pub struct QuantizedAlgorithm<A> {
    inner: A,
    quantizer: Quantizer,
}

impl<A: Algorithm> QuantizedAlgorithm<A> {
    /// Wraps `inner` with the given quantizer.
    pub fn new(inner: A, quantizer: Quantizer) -> Self {
        QuantizedAlgorithm { inner, quantizer }
    }

    /// The wrapped algorithm.
    pub fn inner(&self) -> &A {
        &self.inner
    }

    /// The quantizer in use.
    pub fn quantizer(&self) -> Quantizer {
        self.quantizer
    }

    /// Bytes actually uploaded per client per round for a model of dimension
    /// `dim` (compare with the uncompressed `4 · upload_floats_per_client`).
    pub fn compressed_bytes(&self, dim: usize) -> usize {
        let vectors = self.inner.upload_floats_per_client(dim) / dim.max(1);
        vectors * ((self.quantizer.bits as usize * dim).div_ceil(8) + 8)
    }
}

impl<A: Algorithm> Algorithm for QuantizedAlgorithm<A> {
    fn name(&self) -> &'static str {
        "quantized"
    }

    fn init(&mut self, dim: usize, num_clients: usize) {
        self.inner.init(dim, num_clients);
    }

    fn requires_full_participation(&self) -> bool {
        self.inner.requires_full_participation()
    }

    fn supports_variable_work(&self) -> bool {
        self.inner.supports_variable_work()
    }

    fn upload_floats_per_client(&self, dim: usize) -> usize {
        self.inner.upload_floats_per_client(dim)
    }

    fn client_update_scratch(
        &self,
        client: &mut ClientState,
        global: &ParamVector,
        env: &LocalEnv<'_>,
        scratch: &mut UpdateScratch,
    ) -> TensorResult<ClientMessage> {
        let mut message = self
            .inner
            .client_update_scratch(client, global, env, scratch)?;
        for (k, payload) in message.payload.iter_mut().enumerate() {
            let raw = payload.as_slice();
            let quantized = self.quantizer.quantize(raw, env.seed ^ (k as u64) << 48);
            *payload = ParamVector::from_vec(quantized.dequantize());
        }
        Ok(message)
    }

    fn server_update(
        &mut self,
        global: &mut ParamVector,
        messages: &[ClientMessage],
        num_clients: usize,
        rng: &mut dyn rand::RngCore,
    ) -> ServerOutcome {
        self.inner.server_update(global, messages, num_clients, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{FedAdmm, ServerStepSize};
    use crate::config::{DataDistribution, FedConfig, Participation};
    use crate::engine::{RoundEngine, SyncRounds};
    use fedadmm_data::batching::BatchSize;
    use fedadmm_data::synthetic::SyntheticDataset;
    use fedadmm_nn::models::ModelSpec;

    #[test]
    fn round_trip_error_is_within_half_a_step() {
        let q = Quantizer::new(8, false);
        let values: Vec<f32> = (0..1000).map(|i| (i as f32 * 0.37).sin() * 3.0).collect();
        let encoded = q.quantize(&values, 0);
        let decoded = encoded.dequantize();
        let range = 6.0f32;
        let bound = q.max_error(range) * 1.001;
        for (a, b) in values.iter().zip(decoded.iter()) {
            assert!(
                (a - b).abs() <= bound,
                "error {} exceeds {}",
                (a - b).abs(),
                bound
            );
        }
    }

    #[test]
    fn more_bits_mean_less_error_and_less_compression() {
        let coarse = Quantizer::new(2, false);
        let fine = Quantizer::new(12, false);
        assert!(fine.max_error(1.0) < coarse.max_error(1.0));
        assert!(coarse.compression_ratio() > fine.compression_ratio());
        assert_eq!(coarse.levels(), 4);
        assert_eq!(Quantizer::new(16, false).levels(), 65536);
    }

    #[test]
    fn stochastic_rounding_is_unbiased_on_average() {
        let q = Quantizer::new(2, true); // very coarse so the bias would show
        let value = 0.3f32; // sits strictly between two of the 4 levels of [0, 1]
        let values = vec![0.0f32, 1.0, value]; // pin the range to [0, 1]
        let n = 20_000;
        let mut sum = 0.0f64;
        for seed in 0..n {
            let decoded = q.quantize(&values, seed).dequantize();
            sum += decoded[2] as f64;
        }
        let mean = sum / n as f64;
        assert!(
            (mean - value as f64).abs() < 0.01,
            "stochastic rounding is biased: {mean}"
        );
    }

    #[test]
    fn wire_bytes_account_for_bit_width() {
        let q = Quantizer::new(4, false);
        let encoded = q.quantize(&[0.0f32; 1000], 0);
        // 4 bits × 1000 = 500 bytes of codes + 8 bytes of affine parameters.
        assert_eq!(encoded.wire_bytes(), 508);
        let q1 = Quantizer::new(1, false);
        assert_eq!(q1.quantize(&[0.0f32; 7], 0).wire_bytes(), 1 + 8);
    }

    #[test]
    fn constant_vectors_survive_quantization_exactly() {
        let q = Quantizer::new(3, false);
        let encoded = q.quantize(&[2.5f32; 16], 1);
        for v in encoded.dequantize() {
            assert!((v - 2.5).abs() < 1e-6);
        }
    }

    #[test]
    #[should_panic(expected = "1–16 bits")]
    fn unsupported_bit_width_is_rejected() {
        Quantizer::new(0, false);
    }

    #[test]
    fn quantized_fedadmm_still_learns_at_8_bits() {
        let config = FedConfig {
            num_clients: 8,
            participation: Participation::Fraction(0.3),
            local_epochs: 2,
            system_heterogeneity: false,
            batch_size: BatchSize::Size(16),
            local_learning_rate: 0.1,
            model: ModelSpec::Logistic {
                input_dim: 784,
                num_classes: 10,
            },
            seed: 4,
            eval_subset: usize::MAX,
        };
        let (train, test) = SyntheticDataset::Mnist.generate(400, 100, 4);
        let partition = DataDistribution::Iid.partition(&train, 8, 4);
        let algorithm = QuantizedAlgorithm::new(
            FedAdmm::new(0.3, ServerStepSize::Constant(1.0)),
            Quantizer::new(8, true),
        );
        assert_eq!(algorithm.inner().name(), "FedADMM");
        let d = config.model.num_params();
        assert!(
            algorithm.compressed_bytes(d) < 4 * d / 3,
            "8-bit codes should be ~4× smaller"
        );
        let mut sim =
            RoundEngine::new(config, train, test, partition, algorithm, SyncRounds).unwrap();
        let (_, acc0) = sim.evaluate_global().unwrap();
        sim.run_rounds(10).unwrap();
        assert!(
            sim.history().best_accuracy() > acc0 + 0.15,
            "8-bit quantized uploads failed to learn: {acc0} → {}",
            sim.history().best_accuracy()
        );
    }

    #[test]
    fn aggressive_quantization_degrades_but_does_not_diverge() {
        let config = FedConfig {
            num_clients: 6,
            participation: Participation::Fraction(0.5),
            local_epochs: 1,
            system_heterogeneity: false,
            batch_size: BatchSize::Size(16),
            local_learning_rate: 0.1,
            model: ModelSpec::Logistic {
                input_dim: 784,
                num_classes: 10,
            },
            seed: 6,
            eval_subset: usize::MAX,
        };
        let (train, test) = SyntheticDataset::Mnist.generate(240, 60, 6);
        let partition = DataDistribution::Iid.partition(&train, 6, 6);
        let algorithm = QuantizedAlgorithm::new(
            FedAdmm::new(0.3, ServerStepSize::Constant(1.0)),
            Quantizer::new(2, true),
        );
        let mut sim =
            RoundEngine::new(config, train, test, partition, algorithm, SyncRounds).unwrap();
        sim.run_rounds(6).unwrap();
        assert!(sim
            .history()
            .accuracy_series()
            .iter()
            .all(|a| a.is_finite()));
        assert!(sim.global_model().as_slice().iter().all(|v| v.is_finite()));
    }
}
