//! Lossy upload compression (uniform quantization).
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
//! * [`QuantizedVector`] / [`WirePayload`] are the coded upload the engine's
//!   [wire path](crate::engine::wire) attaches to a `ClientMessage` and the
//!   server folds without decoding.

use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};

/// Uniform `b`-bit quantizer over the range of each individual vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Quantizer {
    /// Bits per coordinate, between 1 and 16 (32 marks the identity
    /// quantizer of the wire path's guard-only mode: no codes, no error).
    pub bits: u8,
    /// Whether to use unbiased stochastic rounding instead of
    /// round-to-nearest.
    pub stochastic: bool,
}

/// A quantized vector: per-vector affine parameters plus one code per
/// coordinate.
#[derive(Debug, Clone, PartialEq)]
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
#[derive(Debug, Clone, PartialEq)]
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

/// What `x as u16` is for every `x` that is not above 65 535: `⌊x⌋`, and 0
/// below zero and for NaN. The cast itself also saturates at the top, which
/// costs a handful of scalar instructions per element and keeps a loop
/// around it from vectorizing; this is five lane-wise operations. Adding
/// 2²³ to an `x` in `[0, 2¹⁶)` lands where one ulp is 1, so the sum's low
/// mantissa bits hold `x` rounded to the nearest integer, and one compare
/// against `x` turns nearest into floor.
#[inline(always)]
fn floor_code(x: f32) -> u16 {
    const TWO_23: f32 = 8_388_608.0;
    let x = x.max(0.0);
    let sum = x + TWO_23;
    let nearest = sum.to_bits() as i32 - TWO_23.to_bits() as i32;
    (nearest - i32::from(sum - TWO_23 > x)) as u16
}

impl Quantizer {
    /// The 32-bit "quantizer" that leaves a vector as the `f32`s it is: no
    /// codes, no error, no compression. The wire path's guard-only mode runs
    /// under it.
    pub(crate) const IDENTITY: Quantizer = Quantizer {
        bits: 32,
        stochastic: false,
    };

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
    ///
    /// # Panics
    /// Panics for the identity quantizer, which has no code grid.
    pub fn levels(&self) -> u32 {
        assert!(self.bits <= 16, "the identity quantizer has no code grid");
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

    /// Quantizes `values` into a reusable code buffer (overwritten and left
    /// at `values.len()` codes, so steady-state callers pay no allocation),
    /// returning the affine `(min, step)` decode parameters. Produces exactly
    /// the codes [`Quantizer::quantize`] would for the same seed — the
    /// engine's wire path calls this from the per-worker dispatch scratch.
    pub fn quantize_into(&self, values: &[f32], seed: u64, codes: &mut Vec<u16>) -> (f32, f32) {
        /// Coordinates the stochastic branch rounds per batch of raw words.
        const BLOCK: usize = 16;
        assert!(!values.is_empty(), "cannot quantize an empty vector");
        let (min, max) = fedadmm_tensor::vecops::min_max(values);
        let levels = self.levels() as f32;
        let range = (max - min).max(f32::EPSILON);
        let step = range / (levels - 1.0);
        // One multiply per element instead of a divide — this loop runs per
        // upload on the wire hot path.
        let inv_step = 1.0 / step;
        if self.stochastic {
            // Stochastic rounding as `⌊x + U⌋` with `U` uniform in [0, 1):
            // the carry fires with probability exactly frac(x), and the
            // whole dither is one add on top of the affine map. `x ≥ 0`
            // (min subtracted), so only the upper bound needs clamping
            // before the floor. Each raw `u64` supplies the 24-bit dithers
            // for two consecutive elements, low half first.
            const U24: f32 = 1.0 / (1u32 << 24) as f32;
            let dithers = |bits: u64| {
                let low = (bits as u32 >> 8) as f32 * U24;
                (low, ((bits >> 40) as u32) as f32 * U24)
            };
            let top = levels - 1.0;
            let code = |v: f32, u: f32| floor_code(((v - min) * inv_step + u).min(top));
            // Codes are written by index into a buffer of the final length
            // (a `push` per element pays a capacity check), in blocks of 16
            // that draw their eight words first: the affine map, the clamp
            // and the floor over a block are then branch-free and lane-wise.
            // The words, and which element each half dithers, are those of
            // a pair-at-a-time loop.
            codes.resize(values.len(), 0);
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut blocks = values.chunks_exact(BLOCK);
            let mut coded = codes.chunks_exact_mut(BLOCK);
            for (block, out) in (&mut blocks).zip(&mut coded) {
                let words: [u64; BLOCK / 2] = std::array::from_fn(|_| rng.next_u64());
                let mut u = [0.0f32; BLOCK];
                for (pair, &bits) in u.chunks_exact_mut(2).zip(&words) {
                    (pair[0], pair[1]) = dithers(bits);
                }
                for ((c, &v), &u) in out.iter_mut().zip(block).zip(&u) {
                    *c = code(v, u);
                }
            }
            let mut pairs = blocks.remainder().chunks_exact(2);
            let mut coded = coded.into_remainder().chunks_exact_mut(2);
            for (pair, out) in (&mut pairs).zip(&mut coded) {
                let (u0, u1) = dithers(rng.next_u64());
                out[0] = code(pair[0], u0);
                out[1] = code(pair[1], u1);
            }
            if let ([last], [out]) = (pairs.remainder(), coded.into_remainder()) {
                let u0 = (rng.next_u32() >> 8) as f32 * U24;
                *out = code(*last, u0);
            }
        } else {
            codes.clear();
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
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The element-at-a-time encoder [`Quantizer::quantize_into`] replaced,
    /// kept as the definition of its codes and of its dither stream: one raw
    /// word per pair of elements, the low half first, `next_u32` for an odd
    /// last element.
    mod reference {
        use super::*;

        pub fn quantize_into(
            q: &Quantizer,
            values: &[f32],
            seed: u64,
            codes: &mut Vec<u16>,
        ) -> (f32, f32) {
            let (min, max) = fedadmm_tensor::vecops::min_max(values);
            let levels = q.levels() as f32;
            let range = (max - min).max(f32::EPSILON);
            let step = range / (levels - 1.0);
            let inv_step = 1.0 / step;
            codes.clear();
            if q.stochastic {
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
    }

    #[test]
    fn floor_code_is_the_saturating_cast_below_its_upper_limit() {
        let edges = [
            0.0f32,
            -0.0,
            f32::MIN_POSITIVE,
            1e-40,
            0.49999997,
            0.5,
            0.99999994,
            1.0,
            1.5,
            2.5,
            254.99998,
            255.0,
            32_767.998,
            65_534.5,
            65_534.996,
            65_535.0,
            -0.5,
            -1.0,
            -3e9,
            f32::NEG_INFINITY,
            f32::NAN,
        ];
        for x in edges {
            assert_eq!(floor_code(x), x as u16, "{x}");
        }
        // Every float between two neighbouring integers, at both ends of
        // the code range, and a coarse sweep of everything between.
        for start in [0.0f32, 1.0, 2.0, 65_533.0] {
            let mut x = start;
            while x <= start + 2.0 && x <= 65_535.0 {
                assert_eq!(floor_code(x), x as u16, "{x}");
                x = f32::from_bits(x.to_bits() + if start < 3.0 { 4_099 } else { 1 });
            }
        }
        for k in 0..=655_350 {
            let x = k as f32 * 0.1;
            assert_eq!(floor_code(x), x as u16, "{x}");
        }
    }

    /// Values spread over several quantization steps, no two lengths alike.
    fn ramp(n: usize, seed: u64) -> Vec<f32> {
        (0..n)
            .map(|i| ((i as f32 + seed as f32 * 0.61) * 0.37).sin() * 3.0 - 0.5)
            .collect()
    }

    #[test]
    fn quantize_into_matches_the_reference_at_every_length_width_and_mode() {
        // 1..=70 covers an empty, a partial and a full pair tail behind zero
        // to four whole blocks; the warm buffer starts longer or shorter
        // than the input and full of codes that must not survive.
        for n in (1..=70).chain([127, 128, 129, 7_850]) {
            for bits in [1u8, 4, 8, 16] {
                for stochastic in [true, false] {
                    let q = Quantizer::new(bits, stochastic);
                    for seed in [0u64, 42, 0x00C0_DEC5_17E5_EED5] {
                        let values = ramp(n, seed);
                        let mut want = Vec::new();
                        let want_grid = reference::quantize_into(&q, &values, seed, &mut want);
                        for warm in [0, n / 2, n + 37] {
                            let mut got = vec![0xBEEF; warm];
                            let got_grid = q.quantize_into(&values, seed, &mut got);
                            let case = format!("n {n}, {bits} bits, stochastic {stochastic}, seed {seed}, warm {warm}");
                            assert_eq!(got, want, "{case}");
                            assert_eq!(got_grid, want_grid, "{case}");
                        }
                        assert_eq!(q.quantize(&values, seed).codes, want);
                    }
                }
            }
        }
    }

    #[test]
    fn non_finite_inputs_get_the_codes_the_reference_gives_them() {
        // What a NaN or ±∞ upload *should* do is a policy the engine does
        // not have yet; until it does, the codes it gets must not move.
        for (at, bad) in [
            (0, f32::NAN),
            (5, f32::NAN),
            (16, f32::INFINITY),
            (33, f32::NEG_INFINITY),
            (40, f32::NAN),
        ] {
            for n in [41, 48] {
                for stochastic in [true, false] {
                    let q = Quantizer::new(8, stochastic);
                    let mut values = ramp(n, 7);
                    values[at] = bad;
                    values[n - 1] = if at % 2 == 0 { bad } else { -bad };
                    let (mut want, mut got) = (Vec::new(), Vec::new());
                    let want_grid = reference::quantize_into(&q, &values, 9, &mut want);
                    let got_grid = q.quantize_into(&values, 9, &mut got);
                    assert_eq!(got, want, "{bad} at {at} of {n}, stochastic {stochastic}");
                    // NaN ≠ NaN, so the grid is compared by bits.
                    assert_eq!(
                        (got_grid.0.to_bits(), got_grid.1.to_bits()),
                        (want_grid.0.to_bits(), want_grid.1.to_bits())
                    );
                }
            }
        }
    }

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
        assert!(coarse.levels() < fine.levels());
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
}
