//! Hierarchical (tree) aggregation of client payloads.
//!
//! The engine's default server fold is a single fused pass over ℝ^d — the
//! bit-exact legacy semantics — and it is no longer serial: the engine cuts
//! θ into coordinate ranges and folds each as a dispatch-pool job, exactly.
//! This module is the opt-in alternative that cuts the cohort instead:
//! payloads are grouped by the shard of their sender, each shard
//! folds its terms into one partial `ParamVector`, and a log-depth pairwise
//! combine reduces the partials to the round update. What it is still for
//! is a per-shard view of the fold (one partial and one timing per shard),
//! at the cost of a d-sized partial per shard and a combine pass that the
//! single pass does not make.
//!
//! This crate creates no threads: [`hierarchical_fold`] hands the per-shard
//! jobs to a `run_shards` callback. The engine passes its dispatch pool;
//! [`hierarchical_weighted_sum`] / [`hierarchical_dequant_sum`] run them
//! inline. Every shard writes its own slot and the combine walks the slots
//! in shard order, so the result is bit-identical however the jobs are
//! scheduled. Floating-point addition is not associative, so the tree
//! result differs from the fused pass in the last bits — which is exactly
//! why the engine keeps it opt-in (`AggregationMode::Hierarchical`) rather
//! than tying it to the store backend.

use crate::param::ParamVector;
use fedadmm_tensor::vecops::{self, DequantTerm};
use std::sync::OnceLock;
use std::time::Instant;

/// Timing/shape of one shard's partial fold (for telemetry spans).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardFoldStat {
    /// The shard that folded.
    pub shard: usize,
    /// Number of payloads folded into the partial.
    pub messages: usize,
    /// Seconds spent in the partial fold (0 when untimed).
    pub seconds: f64,
}

/// The tree fold behind both public sums: `fold_terms` turns one shard's
/// term list into its partial (overwriting a zeroed vector), and a
/// log-depth pairwise combine reduces the partials in `groups` order.
///
/// `run_shards(n, job)` must call `job(i)` exactly once for every
/// `i in 0..n`, on whatever threads it likes, and return once all calls
/// have finished. Per-shard timings are measured only when `timed` is set.
pub fn hierarchical_fold<T: Sync>(
    dim: usize,
    groups: &[(usize, Vec<T>)],
    timed: bool,
    fold_terms: impl Fn(&[T], &mut ParamVector) + Sync,
    run_shards: impl FnOnce(usize, &(dyn Fn(usize) + Sync)),
) -> (ParamVector, Vec<ShardFoldStat>) {
    let slots: Vec<OnceLock<(ParamVector, ShardFoldStat)>> =
        groups.iter().map(|_| OnceLock::new()).collect();
    run_shards(groups.len(), &|i| {
        let (shard, terms) = &groups[i];
        let start = timed.then(Instant::now);
        let mut partial = ParamVector::zeros(dim);
        fold_terms(terms, &mut partial);
        let stat = ShardFoldStat {
            shard: *shard,
            messages: terms.len(),
            seconds: start.map_or(0.0, |s| s.elapsed().as_secs_f64()),
        };
        assert!(slots[i].set((partial, stat)).is_ok(), "shard {i} ran twice");
    });
    let (mut partials, stats): (Vec<ParamVector>, Vec<ShardFoldStat>) = slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("every shard job ran"))
        .unzip();

    // Log-depth pairwise combine: (((p0+p1)+(p2+p3))+…); each level halves
    // the population, each sum is one fused pass.
    while partials.len() > 1 {
        let mut next = Vec::with_capacity(partials.len().div_ceil(2));
        let mut iter = partials.into_iter();
        while let Some(a) = iter.next() {
            match iter.next() {
                Some(b) => next.push(a.add(&b)),
                None => next.push(a),
            }
        }
        partials = next;
    }
    let sum = partials.pop().unwrap_or_else(|| ParamVector::zeros(dim));
    (sum, stats)
}

/// Runs the shard jobs one after another on the calling thread.
fn run_inline(jobs: usize, job: &(dyn Fn(usize) + Sync)) {
    (0..jobs).for_each(job);
}

/// Folds `groups` — per-shard `(shard, [(coeff, payload)])` term lists —
/// into `Σ coeff·payload` by per-shard partial sums and a log-depth
/// pairwise combine, on the calling thread. Deterministic for a fixed
/// `groups` order.
pub fn hierarchical_weighted_sum(
    dim: usize,
    groups: &[(usize, Vec<(f32, &ParamVector)>)],
    timed: bool,
) -> (ParamVector, Vec<ShardFoldStat>) {
    hierarchical_fold(
        dim,
        groups,
        timed,
        |terms, partial| partial.assign_weighted_sum(terms),
        run_inline,
    )
}

/// The compressed twin of [`hierarchical_weighted_sum`]: folds per-shard
/// [`DequantTerm`] lists — quantized wire payloads with their fold
/// coefficient baked into `alpha` — into `Σ αᵢ·(minᵢ + codeᵢ·stepᵢ)`
/// without ever materializing a dense decode. Each shard's partial is one
/// fused [`vecops::dequant_sum_into`] sweep through the same tree, so
/// determinism and telemetry semantics match the dense fold exactly.
pub fn hierarchical_dequant_sum(
    dim: usize,
    groups: &[(usize, Vec<DequantTerm<'_>>)],
    timed: bool,
) -> (ParamVector, Vec<ShardFoldStat>) {
    hierarchical_fold(
        dim,
        groups,
        timed,
        |terms, partial| vecops::dequant_sum_into(terms, partial.as_mut_slice()),
        run_inline,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vecs(n: usize, d: usize) -> Vec<ParamVector> {
        (0..n)
            .map(|i| {
                ParamVector::from_vec((0..d).map(|j| (i * d + j) as f32 * 0.25 - 1.0).collect())
            })
            .collect()
    }

    #[test]
    fn empty_input_folds_to_zero() {
        let (sum, stats) = hierarchical_weighted_sum(3, &[], true);
        assert_eq!(sum, ParamVector::zeros(3));
        assert!(stats.is_empty());
    }

    #[test]
    fn matches_the_fused_single_pass_up_to_rounding() {
        let d = 64;
        let payloads = vecs(13, d);
        // 5 shards of uneven size.
        let mut groups: Vec<(usize, Vec<(f32, &ParamVector)>)> =
            (0..5).map(|s| (s, Vec::new())).collect();
        for (i, p) in payloads.iter().enumerate() {
            groups[i % 5].1.push((0.1 + i as f32 * 0.05, p));
        }
        let (tree, stats) = hierarchical_weighted_sum(d, &groups, true);
        let flat_terms: Vec<(f32, &ParamVector)> =
            groups.iter().flat_map(|(_, t)| t.iter().copied()).collect();
        let mut fused = ParamVector::zeros(d);
        fused.assign_weighted_sum(&flat_terms);
        for (a, b) in tree.as_slice().iter().zip(fused.as_slice()) {
            assert!((a - b).abs() <= 1e-4 * (1.0 + b.abs()), "{a} vs {b}");
        }
        assert_eq!(stats.len(), 5);
        assert_eq!(stats.iter().map(|s| s.messages).sum::<usize>(), 13);
    }

    #[test]
    fn dequant_sum_matches_decode_then_weighted_sum() {
        let d = 37;
        // Integer-valued codes with exactly representable (min, step) make
        // the decode exact, so the two folds see identical inputs.
        let codes: Vec<Vec<u16>> = (0..9)
            .map(|i| (0..d).map(|j| ((i * 31 + j * 7) % 256) as u16).collect())
            .collect();
        let mut groups: Vec<(usize, Vec<DequantTerm<'_>>)> =
            (0..3).map(|s| (s, Vec::new())).collect();
        let mut decoded_terms: Vec<(f32, ParamVector)> = Vec::new();
        for (i, c) in codes.iter().enumerate() {
            let (alpha, min, step) = (0.25 + i as f32 * 0.125, -2.0, 0.03125);
            groups[i % 3].1.push(DequantTerm {
                alpha,
                min,
                step,
                codes: c,
            });
            decoded_terms.push((
                alpha,
                ParamVector::from_vec(c.iter().map(|&k| min + k as f32 * step).collect()),
            ));
        }
        let (fused, stats) = hierarchical_dequant_sum(d, &groups, true);
        // Reference: decode every payload densely, then run the dense
        // hierarchical fold over the same shard grouping.
        let mut groups_dense: Vec<(usize, Vec<(f32, &ParamVector)>)> =
            (0..3).map(|s| (s, Vec::new())).collect();
        for (i, (a, p)) in decoded_terms.iter().enumerate() {
            groups_dense[i % 3].1.push((*a, p));
        }
        let (reference, _) = hierarchical_weighted_sum(d, &groups_dense, false);
        for (a, b) in fused.as_slice().iter().zip(reference.as_slice()) {
            assert!((a - b).abs() <= 1e-4 * (1.0 + b.abs()), "{a} vs {b}");
        }
        assert_eq!(stats.iter().map(|s| s.messages).sum::<usize>(), 9);
    }

    #[test]
    fn dequant_sum_of_nothing_is_zero() {
        let (sum, stats) = hierarchical_dequant_sum(4, &[], false);
        assert_eq!(sum, ParamVector::zeros(4));
        assert!(stats.is_empty());
    }

    #[test]
    fn deterministic_across_invocations() {
        let d = 128;
        let payloads = vecs(40, d);
        let groups: Vec<(usize, Vec<(f32, &ParamVector)>)> = payloads
            .chunks(4)
            .enumerate()
            .map(|(s, chunk)| (s, chunk.iter().map(|p| (0.3, p)).collect()))
            .collect();
        let (a, _) = hierarchical_weighted_sum(d, &groups, false);
        let (b, _) = hierarchical_weighted_sum(d, &groups, false);
        // Bit-identical: the combine tree does not depend on thread timing.
        let (ab, bb): (Vec<u32>, Vec<u32>) = (
            a.as_slice().iter().map(|x| x.to_bits()).collect(),
            b.as_slice().iter().map(|x| x.to_bits()).collect(),
        );
        assert_eq!(ab, bb);
    }
}
