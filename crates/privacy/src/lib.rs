//! # fedadmm-privacy
//!
//! Differential privacy for the FedADMM framework.
//!
//! The paper notes (Section III, footnote 1) that "standard
//! privacy-preserving methods, such as differential privacy and secure
//! multi-party computation can be combined with FedADMM". This crate
//! implements the first in the form used throughout the FL literature the
//! paper cites (\[31\]–\[33\]): [`dp`] — update clipping and the Gaussian
//! mechanism, with a zero-concentrated-DP (zCDP) accountant that composes
//! the per-round cost over a training run and converts it to an (ε, δ)
//! guarantee.
//!
//! [`dp::GaussianMechanism`] is a [`fedadmm_core::engine::WireGuard`]: hand
//! it to `RoundEngine::with_wire_path` and every dispatch worker clips and
//! noises each uploaded vector before it leaves the client, for any
//! algorithm, with or without quantization.
//!
//! The mechanism composes cleanly with FedADMM because the server only ever
//! consumes the *average* of the uploaded messages; it never needs an
//! individual client's `Δ_i` (Algorithm 1, line 10), so DP noise averages
//! down with the number of participants.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod dp;

/// Convenient re-exports of the most commonly used types.
pub mod prelude {
    pub use crate::dp::{GaussianMechanism, PrivacyAccountant, PrivacySpent};
}
