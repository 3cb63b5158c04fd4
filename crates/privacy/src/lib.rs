//! # fedadmm-privacy
//!
//! Privacy-preserving extensions for the FedADMM framework.
//!
//! The paper notes (Section III, footnote 1) that "standard
//! privacy-preserving methods, such as differential privacy and secure
//! multi-party computation can be combined with FedADMM". This crate
//! implements the two mechanisms that footnote refers to, in the form used
//! throughout the FL literature the paper cites (\[31\]–\[33\]):
//!
//! * [`dp`] — update clipping and the Gaussian mechanism, with a zero-
//!   concentrated-DP (zCDP) accountant that composes the per-round cost over
//!   a training run and converts it to an (ε, δ) guarantee;
//! * [`secure_agg`] — pairwise-mask secure aggregation: each pair of
//!   participating clients derives a shared mask from a common seed, one
//!   adds it and the other subtracts it, so individual updates are hidden
//!   from the server while the *sum* — the only quantity the FedADMM server
//!   update (equation 5) needs — is recovered exactly.
//!
//! [`dp::GaussianMechanism`] is a [`fedadmm_core::engine::WireGuard`]: hand
//! it to `RoundEngine::with_wire_path` and every dispatch worker clips and
//! noises each uploaded vector before it leaves the client, for any
//! algorithm, with or without quantization.
//!
//! The important compatibility property — and the reason these mechanisms
//! compose cleanly with FedADMM — is that the server only ever consumes the
//! *average* of the uploaded messages; it never needs an individual client's
//! `Δ_i` (Algorithm 1, line 10). Masking therefore cancels exactly, and DP
//! noise averages down with the number of participants.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod dp;
pub mod secure_agg;

/// Convenient re-exports of the most commonly used types.
pub mod prelude {
    pub use crate::dp::{GaussianMechanism, PrivacyAccountant, PrivacySpent};
    pub use crate::secure_agg::SecureAggregator;
}
