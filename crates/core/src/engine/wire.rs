//! The engine's wire path: compression + privacy fused into the upload →
//! aggregate hot path, in the FedPAQ style (quantize at the client edge,
//! accumulate in the coded domain). It is the only code that transforms an
//! upload.
//!
//! ```text
//!   dispatch worker (per-worker scratch; per job, one exact-size code vector)
//!   ┌───────────────────────────────────────────────────────────┐
//!   │ local SGD → Δ_i ── guard.privatize (clip+noise, in place) │
//!   │           └─ quantize_into(worker codes buffer)           │
//!   └───────────────┬───────────────────────────────────────────┘
//!                   │ WirePayload { scale, [codes] }   (~bits/32 of 4d bytes)
//!                   ▼
//!   server fold  θ += Σ_i c_i·s_i·(min_i + k·step_i)   — ONE 8-lane sweep
//!                   (vecops::dequant_axpy_fused, "fuse_pass" span)
//! ```
//!
//! * **Client side** — each [`DispatchPool`](super::DispatchPool) worker
//!   applies the optional guard, a [`GaussianMechanism`] (DP clipping +
//!   Gaussian noise, in place), and then quantizes the payload
//!   *inside its existing dispatch scratch*: the per-worker
//!   [`Vec<u16>`] code buffer is reused across jobs, so steady-state
//!   encoding allocates only the exact-size code vector that rides in the
//!   message itself (half the dense payload at 16 bits, an eighth at 4).
//!   A guard without a quantizer privatizes in place and leaves the payload
//!   dense — DP without compression.
//! * **Server side** — [`EngineCore::aggregate`](super::EngineCore::aggregate)
//!   applies the algorithm's [`FoldPlan`](crate::algorithms::FoldPlan) to
//!   the coded cohort: one
//!   [`vecops::dequant_axpy_fused`](fedadmm_tensor::vecops) sweep
//!   dequantize-accumulates it directly into θ (or one
//!   [`dequant_sum_into`](fedadmm_tensor::vecops::dequant_sum_into) per
//!   shard under [`AggregationMode::Hierarchical`](super::AggregationMode)),
//!   so compression-on + privacy-on costs a single pass over ℝ^d instead of
//!   a decode pass, a privatize pass and a fold pass. Algorithms without a
//!   plan and multi-vector uploads take [`decode_message`] + their own
//!   `server_update`.
//! * **Schedulers** — staleness damping multiplies
//!   [`WirePayload::scale`](crate::compression::WirePayload::scale) (codes
//!   cannot be scaled without decoding); the server folds the scale into
//!   the per-message coefficient, reproducing the dense semantics.
//!
//! The path is on iff
//! [`RoundEngine::with_wire_path`](super::RoundEngine::with_wire_path) was
//! given a quantizer or a guard; off, the engine is byte-identical to one
//! without it (pinned by the golden-digest parity tests). On, correctness is
//! *bounded-error* against the naive compress → decompress → aggregate
//! reference ([`decode_message`]) — `tests/wire_path.rs` pins the bound.

use crate::algorithms::ClientMessage;
use crate::compression::{QuantizedVector, Quantizer, WirePayload};
use crate::param::ParamVector;
use crate::privacy::GaussianMechanism;
use fedadmm_tensor::vecops;
use std::sync::Arc;

/// Salt separating the stochastic-rounding stream from every other
/// consumer of the dispatch seed.
const QUANT_SALT: u64 = 0x00C0_DEC5_17E5_EED5;
/// Salt separating the guard's noise stream from every other consumer of
/// the dispatch seed.
const GUARD_SALT: u64 = 0x6A2D_5EED_0FF5_E75B;

/// The stochastic-rounding seed for payload vector `k` of a dispatch order.
pub fn quant_seed(order_seed: u64, k: usize) -> u64 {
    order_seed ^ QUANT_SALT ^ ((k as u64) << 48)
}

/// The guard (noise) seed for payload vector `k` of a dispatch order.
pub fn guard_seed(order_seed: u64, k: usize) -> u64 {
    order_seed ^ GUARD_SALT.rotate_left((k as u32) & 63)
}

/// Wire-path configuration: the path is on iff a quantizer or a guard is
/// set. The default is off.
#[derive(Debug, Clone, Default)]
pub struct WirePathConfig {
    /// The quantizer; `None` leaves uploads dense.
    pub quantizer: Option<Quantizer>,
    /// Optional privatization applied before quantization.
    pub guard: Option<Arc<GaussianMechanism>>,
}

impl WirePathConfig {
    /// A configuration that turns the path on with the given quantizer.
    pub fn enabled(quantizer: Quantizer) -> Self {
        WirePathConfig {
            quantizer: Some(quantizer),
            guard: None,
        }
    }

    /// The default: uploads stay dense and untouched.
    pub fn disabled() -> Self {
        WirePathConfig::default()
    }

    /// Adds a privatization guard (applied before quantization). On
    /// [`WirePathConfig::disabled`] this is the guard-only mode: uploads are
    /// privatized in place and stay dense.
    pub fn with_guard(mut self, guard: Arc<GaussianMechanism>) -> Self {
        self.guard = Some(guard);
        self
    }

    /// `Some(path)` when the wire path is on, `None` when uploads stay
    /// dense and untouched.
    pub fn resolve(&self) -> Option<WirePath> {
        if self.quantizer.is_none() && self.guard.is_none() {
            return None;
        }
        Some(WirePath {
            quantizer: self.quantizer.unwrap_or(Quantizer::IDENTITY),
            guard: self.guard.clone(),
        })
    }
}

/// The resolved, active wire path threaded through the engine core.
#[derive(Debug, Clone)]
pub struct WirePath {
    /// Per-vector uniform quantizer (32-bit identity in guard-only mode).
    pub quantizer: Quantizer,
    /// Optional pre-quantization privatization.
    pub guard: Option<Arc<GaussianMechanism>>,
}

impl WirePath {
    /// Encodes a freshly computed message in place on the dispatch worker:
    /// privatize each payload vector (optional), quantize it through the
    /// worker's reusable `codes` buffer, and replace the dense payload with
    /// the [`WirePayload`]. Under the identity quantizer the privatized
    /// payload stays dense.
    pub fn encode(&self, message: &mut ClientMessage, order_seed: u64, codes: &mut Vec<u16>) {
        if let Some(guard) = &self.guard {
            for (k, payload) in message.payload.iter_mut().enumerate() {
                guard.privatize(payload.as_mut_slice(), guard_seed(order_seed, k));
            }
        }
        if self.quantizer == Quantizer::IDENTITY {
            return;
        }
        let mut vectors = Vec::with_capacity(message.payload.len());
        for (k, payload) in message.payload.iter().enumerate() {
            let values = payload.as_slice();
            let (min, step) =
                self.quantizer
                    .quantize_into(values, quant_seed(order_seed, k), codes);
            vectors.push(QuantizedVector {
                min,
                step,
                // The only per-job allocation: the exact-size code vector
                // that travels in the message itself (bits/32 of the dense
                // payload bytes).
                codes: codes.clone(),
                bits: self.quantizer.bits,
            });
        }
        message.payload.clear();
        message.wire = Some(WirePayload {
            scale: 1.0,
            vectors,
        });
    }
}

/// The naive compress → decompress reference: decodes a wire message back
/// to a dense [`ClientMessage`] (applying the staleness scale), leaving
/// dense messages untouched. The server's fused coded fold must agree with
/// aggregating these within the quantizer's error bound; it is also the
/// fallback the engine uses for algorithms without a
/// [`FoldPlan`](crate::algorithms::FoldPlan) or with multi-vector uploads
/// (SCAFFOLD).
pub fn decode_message(message: &ClientMessage) -> ClientMessage {
    let Some(wire) = &message.wire else {
        return message.clone();
    };
    let payload = wire
        .vectors
        .iter()
        .map(|v| {
            let mut dense = v.dequantize();
            if wire.scale != 1.0 {
                vecops::scale(wire.scale, &mut dense);
            }
            ParamVector::from_vec(dense)
        })
        .collect();
    ClientMessage {
        client_id: message.client_id,
        num_samples: message.num_samples,
        payload,
        epochs_run: message.epochs_run,
        samples_processed: message.samples_processed,
        wire: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn message(values: Vec<f32>) -> ClientMessage {
        ClientMessage {
            client_id: 3,
            num_samples: 10,
            payload: vec![ParamVector::from_vec(values)],
            epochs_run: 2,
            samples_processed: 20,
            wire: None,
        }
    }

    #[test]
    fn encode_moves_the_payload_onto_the_wire() {
        let path = WirePathConfig::enabled(Quantizer::new(8, false))
            .resolve()
            .unwrap();
        let values: Vec<f32> = (0..100).map(|i| (i as f32 * 0.31).sin()).collect();
        let mut msg = message(values.clone());
        let dense_bytes = msg.wire_bytes();
        let mut codes = Vec::new();
        path.encode(&mut msg, 7, &mut codes);
        assert!(
            msg.payload.is_empty(),
            "dense payload must move to the wire"
        );
        let wire = msg.wire.as_ref().unwrap();
        assert_eq!(wire.scale, 1.0);
        assert_eq!(wire.coords(), 100);
        assert!(
            msg.wire_bytes() < dense_bytes / 3,
            "8-bit codes ≈ 4× smaller"
        );
        // upload_floats still counts coordinates, not bytes.
        assert_eq!(msg.upload_floats(), 100);
        // The decoded reference stays within the quantizer's error bound.
        let decoded = decode_message(&msg);
        let bound = path.quantizer.max_error(2.0) * 1.001;
        for (a, b) in values.iter().zip(decoded.payload[0].as_slice()) {
            assert!((a - b).abs() <= bound, "{a} vs {b}");
        }
    }

    #[test]
    fn encode_is_deterministic_in_the_order_seed() {
        let path = WirePathConfig::enabled(Quantizer::new(4, true))
            .resolve()
            .unwrap();
        let values: Vec<f32> = (0..64).map(|i| (i as f32 * 0.7).cos()).collect();
        let (mut a, mut b, mut c) = (
            message(values.clone()),
            message(values.clone()),
            message(values),
        );
        let mut codes = Vec::new();
        path.encode(&mut a, 11, &mut codes);
        path.encode(&mut b, 11, &mut codes);
        path.encode(&mut c, 12, &mut codes);
        assert_eq!(a.wire, b.wire);
        assert_ne!(a.wire, c.wire, "different seeds round differently");
    }

    #[test]
    fn the_path_is_on_iff_a_quantizer_or_a_guard_is_set() {
        assert!(WirePathConfig::default().resolve().is_none());
        assert!(WirePathConfig::disabled().resolve().is_none());
        let coded = WirePathConfig::enabled(Quantizer::new(8, true)).resolve();
        assert_eq!(coded.unwrap().quantizer, Quantizer::new(8, true));
        let guarded = WirePathConfig::disabled()
            .with_guard(Arc::new(GaussianMechanism::new(1.0, 0.0)))
            .resolve()
            .unwrap();
        assert_eq!(guarded.quantizer, Quantizer::IDENTITY);
        assert_eq!(
            guarded.guard.as_deref(),
            Some(&GaussianMechanism::new(1.0, 0.0))
        );
    }

    #[test]
    fn guard_only_privatizes_in_place_and_stays_dense() {
        // Clip-only: the update is scaled to unit norm, v / ‖v‖.
        let path = WirePathConfig::disabled()
            .with_guard(Arc::new(GaussianMechanism::new(1.0, 0.0)))
            .resolve()
            .unwrap();
        let mut msg = message(vec![3.0, -4.0, 0.0]);
        let mut codes = Vec::new();
        path.encode(&mut msg, 5, &mut codes);
        assert!(msg.wire.is_none() && codes.is_empty());
        assert_eq!(msg.payload[0].as_slice(), &[0.6, -0.8, 0.0]);
        assert_eq!(msg.wire_bytes(), 12);
    }

    #[test]
    fn seed_streams_are_distinct() {
        let s = 0xDEAD_BEEF_u64;
        assert_ne!(quant_seed(s, 0), s);
        assert_ne!(quant_seed(s, 0), guard_seed(s, 0));
        assert_ne!(quant_seed(s, 0), quant_seed(s, 1));
        assert_ne!(guard_seed(s, 0), guard_seed(s, 1));
    }
}
