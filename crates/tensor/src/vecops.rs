//! BLAS-1 style helpers on plain `&[f32]` / `&mut [f32]` slices.
//!
//! The federated algorithms in `fedadmm-core` treat model parameters, dual
//! variables and control variates as opaque vectors in ℝ^d. These helpers
//! are the shared, allocation-free kernels they are built on. All functions
//! panic on length mismatch — length mismatches between parameter vectors
//! are programming errors, not recoverable conditions.
//!
//! The hot kernels run over fixed-width [`LANES`]-element blocks
//! (`chunks_exact`, so the compiler sees a constant trip count and no bounds
//! checks) with a scalar tail. Elementwise kernels (`axpy`, `sub_into`,
//! `axpy_fused`, `weighted_sum_into`, …) perform exactly the same operation
//! per element as the naive loop, so their results are bit-identical to the
//! scalar reference.
//!
//! The fold kernels (`axpy_fused`, `weighted_sum_into`, `dequant_axpy_fused`,
//! `dequant_sum_into`) also block the *terms*: [`TERM_BLOCK`] at a time, one
//! tile sweep over `out` per block. Each tile is loaded from `out` (from
//! `+0.0` for the first block of an overwrite), the block's `a_k · x_k` are
//! added in term order, and the tile is stored back for the next block. An
//! f32 store and reload is exact, so every element sees the same operations
//! in the same order as in the one-sweep loop — `+0.0`, then term 0, term 1,
//! … — and the bits do not move; only the number of term buffers a sweep
//! keeps live falls from the cohort size to [`TERM_BLOCK`]. The reductions
//! (`dot`, `norm_sq`, `dist`) keep
//! [`LANES`] independent accumulators, which *reassociates* the f32 sum:
//! results are deterministic but differ from a left-to-right fold in the
//! last ulps. Nothing on the engine's seeded training trajectory consumes
//! these reductions, so the byte-identity pins on the engine are unaffected.

/// Block width of the unrolled kernels (f32 lanes of one AVX2 register).
const LANES: usize = 8;

/// `y += alpha * x`.
///
/// # Panics
/// Panics if `x.len() != y.len()`.
pub fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
    assert_eq!(x.len(), y.len(), "axpy length mismatch");
    let mut xb = x.chunks_exact(LANES);
    let mut yb = y.chunks_exact_mut(LANES);
    for (ys, xs) in yb.by_ref().zip(xb.by_ref()) {
        for k in 0..LANES {
            ys[k] += alpha * xs[k];
        }
    }
    for (yi, xi) in yb.into_remainder().iter_mut().zip(xb.remainder()) {
        *yi += alpha * xi;
    }
}

/// `y = x` (copy).
///
/// # Panics
/// Panics if `x.len() != y.len()`.
pub fn copy(x: &[f32], y: &mut [f32]) {
    assert_eq!(x.len(), y.len(), "copy length mismatch");
    y.copy_from_slice(x);
}

/// `x *= alpha`.
pub fn scale(alpha: f32, x: &mut [f32]) {
    for xi in x.iter_mut() {
        *xi *= alpha;
    }
}

/// Dot product `⟨x, y⟩`.
///
/// Accumulates into [`LANES`] independent lanes so the loop vectorizes;
/// the lane sums are folded left-to-right, then the scalar tail is added.
///
/// # Panics
/// Panics if `x.len() != y.len()`.
pub fn dot(x: &[f32], y: &[f32]) -> f32 {
    assert_eq!(x.len(), y.len(), "dot length mismatch");
    let mut lanes = [0.0f32; LANES];
    let mut xb = x.chunks_exact(LANES);
    let mut yb = y.chunks_exact(LANES);
    for (xs, ys) in xb.by_ref().zip(yb.by_ref()) {
        for k in 0..LANES {
            lanes[k] += xs[k] * ys[k];
        }
    }
    let mut acc: f32 = lanes.iter().sum();
    for (a, b) in xb.remainder().iter().zip(yb.remainder()) {
        acc += a * b;
    }
    acc
}

/// Euclidean norm `‖x‖₂`.
pub fn norm(x: &[f32]) -> f32 {
    norm_sq(x).sqrt()
}

/// Squared Euclidean norm `‖x‖₂²` ([`LANES`] independent accumulators, like
/// [`dot`]).
pub fn norm_sq(x: &[f32]) -> f32 {
    let mut lanes = [0.0f32; LANES];
    let mut xb = x.chunks_exact(LANES);
    for xs in xb.by_ref() {
        for k in 0..LANES {
            lanes[k] += xs[k] * xs[k];
        }
    }
    let mut acc: f32 = lanes.iter().sum();
    for v in xb.remainder() {
        acc += v * v;
    }
    acc
}

/// Euclidean distance `‖x − y‖₂` ([`LANES`] independent accumulators, like
/// [`dot`]).
///
/// # Panics
/// Panics if `x.len() != y.len()`.
pub fn dist(x: &[f32], y: &[f32]) -> f32 {
    assert_eq!(x.len(), y.len(), "dist length mismatch");
    let mut lanes = [0.0f32; LANES];
    let mut xb = x.chunks_exact(LANES);
    let mut yb = y.chunks_exact(LANES);
    for (xs, ys) in xb.by_ref().zip(yb.by_ref()) {
        for k in 0..LANES {
            let d = xs[k] - ys[k];
            lanes[k] += d * d;
        }
    }
    let mut acc: f32 = lanes.iter().sum();
    for (a, b) in xb.remainder().iter().zip(yb.remainder()) {
        let d = a - b;
        acc += d * d;
    }
    acc.sqrt()
}

/// `out = x - y`, overwriting `out`.
///
/// # Panics
/// Panics on any length mismatch.
pub fn sub_into(x: &[f32], y: &[f32], out: &mut [f32]) {
    assert_eq!(x.len(), y.len(), "sub_into length mismatch");
    assert_eq!(x.len(), out.len(), "sub_into output length mismatch");
    let mut xb = x.chunks_exact(LANES);
    let mut yb = y.chunks_exact(LANES);
    let mut ob = out.chunks_exact_mut(LANES);
    for ((os, xs), ys) in ob.by_ref().zip(xb.by_ref()).zip(yb.by_ref()) {
        for k in 0..LANES {
            os[k] = xs[k] - ys[k];
        }
    }
    for ((o, a), b) in ob
        .into_remainder()
        .iter_mut()
        .zip(xb.remainder())
        .zip(yb.remainder())
    {
        *o = a - b;
    }
}

/// Returns `x - y` as a freshly allocated vector, writing each element
/// exactly once (no intermediate zero-fill).
///
/// # Panics
/// Panics if `x.len() != y.len()`.
pub fn sub_new(x: &[f32], y: &[f32]) -> Vec<f32> {
    assert_eq!(x.len(), y.len(), "sub_new length mismatch");
    x.iter().zip(y.iter()).map(|(a, b)| a - b).collect()
}

/// Returns `x + y` as a freshly allocated vector, writing each element
/// exactly once (no intermediate zero-fill).
///
/// # Panics
/// Panics if `x.len() != y.len()`.
pub fn add_new(x: &[f32], y: &[f32]) -> Vec<f32> {
    assert_eq!(x.len(), y.len(), "add_new length mismatch");
    x.iter().zip(y.iter()).map(|(a, b)| a + b).collect()
}

/// Terms one sweep of a fused fold kernel streams through each output tile.
///
/// The fold kernels ([`axpy_fused`], [`weighted_sum_into`],
/// [`dequant_axpy_fused`], [`dequant_sum_into`]) walk their terms in blocks
/// of this many, one [`LANES`]-tile sweep over `out` per block, so a sweep
/// reads at most this many term buffers at once — few enough for the L1
/// DTLB and the L2 prefetcher's stream table, where a 192-message cohort is
/// not.
pub const TERM_BLOCK: usize = 16;

/// Fused multi-`axpy`: `out[i] += Σ_k alphas[k] · xs[k][i]`, term blocks of
/// [`TERM_BLOCK`] in order, one sweep over `out` each.
///
/// Compared to one `axpy` sweep per term this touches `out` once per block
/// instead of once per term — the server-aggregation hot path of the
/// federated algorithms.
///
/// # Panics
/// Panics if `alphas.len() != xs.len()` or any `xs[k].len() != out.len()`.
pub fn axpy_fused(alphas: &[f32], xs: &[&[f32]], out: &mut [f32]) {
    assert_eq!(alphas.len(), xs.len(), "axpy_fused terms length mismatch");
    for x in xs {
        assert_eq!(x.len(), out.len(), "axpy_fused length mismatch");
    }
    for (a, x) in alphas.chunks(TERM_BLOCK).zip(xs.chunks(TERM_BLOCK)) {
        fused_block::<false>(a, x, out);
    }
}

/// Fused weighted sum: `out[i] = Σ_k alphas[k] · xs[k][i]` (overwrites
/// `out`; no zero-fill needed) — the first term block starts each tile at
/// `+0.0`, every later one continues from `out`, as in [`axpy_fused`].
///
/// # Panics
/// Panics if `alphas.len() != xs.len()` or any `xs[k].len() != out.len()`.
pub fn weighted_sum_into(alphas: &[f32], xs: &[&[f32]], out: &mut [f32]) {
    assert_eq!(
        alphas.len(),
        xs.len(),
        "weighted_sum_into terms length mismatch"
    );
    for x in xs {
        assert_eq!(x.len(), out.len(), "weighted_sum_into length mismatch");
    }
    if xs.is_empty() {
        zero(out);
        return;
    }
    let blocks = alphas.chunks(TERM_BLOCK).zip(xs.chunks(TERM_BLOCK));
    for (b, (a, x)) in blocks.enumerate() {
        if b == 0 {
            fused_block::<true>(a, x, out);
        } else {
            fused_block::<false>(a, x, out);
        }
    }
}

/// One term block of the dense fold kernels: every [`LANES`]-wide tile of
/// `out` starts from `+0.0` (`ASSIGN`) or from `out`, adds `a_k · x_k` in
/// term order and is stored back once.
#[inline(always)]
fn fused_block<const ASSIGN: bool>(alphas: &[f32], xs: &[&[f32]], out: &mut [f32]) {
    let n = out.len();
    let mut i = 0;
    while i + LANES <= n {
        let mut acc = [0.0f32; LANES];
        if !ASSIGN {
            acc.copy_from_slice(&out[i..i + LANES]);
        }
        for (&a, x) in alphas.iter().zip(xs) {
            let xt = &x[i..i + LANES];
            for k in 0..LANES {
                acc[k] += a * xt[k];
            }
        }
        out[i..i + LANES].copy_from_slice(&acc);
        i += LANES;
    }
    for (j, o) in out.iter_mut().enumerate().skip(i) {
        let mut acc = if ASSIGN { 0.0 } else { *o };
        for (&a, x) in alphas.iter().zip(xs) {
            acc += a * x[j];
        }
        *o = acc;
    }
}

/// One quantized term of a fused dequantize-accumulate: an affinely coded
/// vector (`decoded[i] = min + codes[i] as f32 · step`) and the fold
/// coefficient it is scaled by.
///
/// Borrowing the codes keeps the fold allocation-free; the engine's wire
/// path builds one term per client message straight over the received
/// payload.
#[derive(Debug, Clone, Copy)]
pub struct DequantTerm<'a> {
    /// Fold coefficient the decoded vector is scaled by.
    pub alpha: f32,
    /// Affine decode offset (the quantization grid minimum).
    pub min: f32,
    /// Affine decode step (grid spacing).
    pub step: f32,
    /// Quantization codes, one per output element.
    pub codes: &'a [u16],
}

/// Fused multi-message dequantize-accumulate:
/// `out[i] += Σ_t alphas[t] · (min[t] + codes[t][i] · step[t])` — the
/// compressed analogue of [`axpy_fused`], term-blocked the same way, so
/// results are bit-identical to decoding each term and folding it
/// scalar-wise.
///
/// # Panics
/// Panics if any term's `codes.len() != out.len()`.
pub fn dequant_axpy_fused(terms: &[DequantTerm<'_>], out: &mut [f32]) {
    for t in terms {
        assert_eq!(
            t.codes.len(),
            out.len(),
            "dequant_axpy_fused length mismatch"
        );
    }
    for block in terms.chunks(TERM_BLOCK) {
        dequant_block::<false>(block, out);
    }
}

/// Fused dequantized weighted sum:
/// `out[i] = Σ_t alphas[t] · (min[t] + codes[t][i] · step[t])`, overwriting
/// `out` — the compressed analogue of [`weighted_sum_into`].
///
/// # Panics
/// Panics if any term's `codes.len() != out.len()`.
pub fn dequant_sum_into(terms: &[DequantTerm<'_>], out: &mut [f32]) {
    for t in terms {
        assert_eq!(t.codes.len(), out.len(), "dequant_sum_into length mismatch");
    }
    if terms.is_empty() {
        zero(out);
        return;
    }
    for (b, block) in terms.chunks(TERM_BLOCK).enumerate() {
        if b == 0 {
            dequant_block::<true>(block, out);
        } else {
            dequant_block::<false>(block, out);
        }
    }
}

/// [`fused_block`] for coded terms.
#[inline(always)]
fn dequant_block<const ASSIGN: bool>(terms: &[DequantTerm<'_>], out: &mut [f32]) {
    let n = out.len();
    let mut i = 0;
    while i + LANES <= n {
        let mut acc = [0.0f32; LANES];
        if !ASSIGN {
            acc.copy_from_slice(&out[i..i + LANES]);
        }
        for t in terms {
            let ct = &t.codes[i..i + LANES];
            for k in 0..LANES {
                acc[k] += t.alpha * (t.min + ct[k] as f32 * t.step);
            }
        }
        out[i..i + LANES].copy_from_slice(&acc);
        i += LANES;
    }
    for (j, o) in out.iter_mut().enumerate().skip(i) {
        let mut acc = if ASSIGN { 0.0 } else { *o };
        for t in terms {
            acc += t.alpha * (t.min + t.codes[j] as f32 * t.step);
        }
        *o = acc;
    }
}

/// Minimum and maximum of `x` in one pass ([`LANES`] independent
/// accumulators per bound). Returns `(∞, −∞)` for an empty slice. Exact:
/// min/max are associative, so lane order cannot change the result.
///
/// This is the quantization-grid pass of the wire path — one call per
/// upload — which is why it is fused into a single sweep here instead of
/// two serial `fold`s at the call site.
pub fn min_max(x: &[f32]) -> (f32, f32) {
    let mut lo = [f32::INFINITY; LANES];
    let mut hi = [f32::NEG_INFINITY; LANES];
    let mut xb = x.chunks_exact(LANES);
    for xs in xb.by_ref() {
        for k in 0..LANES {
            lo[k] = lo[k].min(xs[k]);
            hi[k] = hi[k].max(xs[k]);
        }
    }
    let mut min = lo.iter().copied().fold(f32::INFINITY, f32::min);
    let mut max = hi.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    for &v in xb.remainder() {
        min = min.min(v);
        max = max.max(v);
    }
    (min, max)
}

/// Fills `x` with zeros.
pub fn zero(x: &mut [f32]) {
    for xi in x.iter_mut() {
        *xi = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn min_max_matches_serial_folds_at_every_remainder_shape() {
        assert_eq!(min_max(&[]), (f32::INFINITY, f32::NEG_INFINITY));
        for n in [1usize, 7, 8, 9, 31, 4097] {
            let x: Vec<f32> = (0..n as i64)
                .map(|i| ((i * 37 + 11).rem_euclid(101) - 50) as f32)
                .collect();
            let lo = x.iter().copied().fold(f32::INFINITY, f32::min);
            let hi = x.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            assert_eq!(min_max(&x), (lo, hi), "length {n}");
        }
    }

    #[test]
    fn axpy_basic() {
        let x = [1.0, 2.0, 3.0];
        let mut y = [10.0, 20.0, 30.0];
        axpy(2.0, &x, &mut y);
        assert_eq!(y, [12.0, 24.0, 36.0]);
    }

    #[test]
    #[should_panic(expected = "axpy length mismatch")]
    fn axpy_mismatch_panics() {
        let x = [1.0];
        let mut y = [1.0, 2.0];
        axpy(1.0, &x, &mut y);
    }

    #[test]
    fn dot_norm_dist() {
        let x = [3.0, 4.0];
        let y = [0.0, 0.0];
        assert_eq!(dot(&x, &x), 25.0);
        assert_eq!(norm(&x), 5.0);
        assert_eq!(norm_sq(&x), 25.0);
        assert_eq!(dist(&x, &y), 5.0);
    }

    #[test]
    fn sub_into_basic() {
        let x = [5.0, 7.0];
        let y = [2.0, 3.0];
        let mut out = [0.0; 2];
        sub_into(&x, &y, &mut out);
        assert_eq!(out, [3.0, 4.0]);
    }

    #[test]
    fn sub_add_new_match_the_into_variants() {
        let x = [5.0, 7.0];
        let y = [2.0, 3.0];
        assert_eq!(sub_new(&x, &y), vec![3.0, 4.0]);
        assert_eq!(add_new(&x, &y), vec![7.0, 10.0]);
    }

    #[test]
    #[should_panic(expected = "sub_new length mismatch")]
    fn sub_new_mismatch_panics() {
        sub_new(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn axpy_fused_matches_sequential_axpys() {
        let xs: Vec<Vec<f32>> = vec![
            vec![1.0, 2.0, 3.0],
            vec![-1.0, 0.5, 2.0],
            vec![4.0, 4.0, 4.0],
        ];
        let alphas = [0.5, 2.0, -1.0];
        let mut fused = vec![1.0f32, 1.0, 1.0];
        let refs: Vec<&[f32]> = xs.iter().map(|v| v.as_slice()).collect();
        axpy_fused(&alphas, &refs, &mut fused);
        let mut sequential = vec![1.0f32, 1.0, 1.0];
        for (&a, x) in alphas.iter().zip(xs.iter()) {
            axpy(a, x, &mut sequential);
        }
        for (f, s) in fused.iter().zip(sequential.iter()) {
            assert!((f - s).abs() < 1e-6);
        }
        // Degenerate arities.
        let mut one = vec![0.0f32; 3];
        axpy_fused(&[2.0], &[&xs[0]], &mut one);
        assert_eq!(one, vec![2.0, 4.0, 6.0]);
        axpy_fused(&[], &[], &mut one);
        assert_eq!(one, vec![2.0, 4.0, 6.0]);
    }

    #[test]
    fn weighted_sum_into_overwrites() {
        let a = [1.0, 2.0];
        let b = [3.0, 6.0];
        let mut out = [9.0, 9.0];
        weighted_sum_into(&[0.5, 0.5], &[&a, &b], &mut out);
        assert_eq!(out, [2.0, 4.0]);
        weighted_sum_into(&[], &[], &mut out);
        assert_eq!(out, [0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "axpy_fused length mismatch")]
    fn axpy_fused_mismatch_panics() {
        let mut out = [0.0f32; 2];
        axpy_fused(&[1.0], &[&[1.0, 2.0, 3.0][..]], &mut out);
    }

    #[test]
    fn copy_scale_zero() {
        let x = [1.0, 2.0];
        let mut y = [0.0, 0.0];
        copy(&x, &mut y);
        assert_eq!(y, [1.0, 2.0]);
        scale(3.0, &mut y);
        assert_eq!(y, [3.0, 6.0]);
        zero(&mut y);
        assert_eq!(y, [0.0, 0.0]);
    }

    /// Naive scalar references for the chunked kernels. On integer-valued
    /// f32 data every partial sum below 2^24 is exact, so any summation
    /// order produces the same bits — exact equality is a valid oracle even
    /// for the reassociated reductions.
    mod reference {
        pub fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
            for (yi, xi) in y.iter_mut().zip(x.iter()) {
                *yi += alpha * xi;
            }
        }
        pub fn dot(x: &[f32], y: &[f32]) -> f32 {
            x.iter().zip(y.iter()).map(|(a, b)| a * b).sum()
        }
        pub fn norm_sq(x: &[f32]) -> f32 {
            x.iter().map(|v| v * v).sum()
        }
        pub fn dist(x: &[f32], y: &[f32]) -> f32 {
            x.iter()
                .zip(y.iter())
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f32>()
                .sqrt()
        }
        pub fn sub_into(x: &[f32], y: &[f32], out: &mut [f32]) {
            for ((o, a), b) in out.iter_mut().zip(x.iter()).zip(y.iter()) {
                *o = a - b;
            }
        }
        pub fn axpy_fused(alphas: &[f32], xs: &[&[f32]], out: &mut [f32]) {
            for (i, o) in out.iter_mut().enumerate() {
                for (&a, x) in alphas.iter().zip(xs.iter()) {
                    *o += a * x[i];
                }
            }
        }
        pub fn weighted_sum_into(alphas: &[f32], xs: &[&[f32]], out: &mut [f32]) {
            for (i, o) in out.iter_mut().enumerate() {
                let mut acc = 0.0f32;
                for (&a, x) in alphas.iter().zip(xs.iter()) {
                    acc += a * x[i];
                }
                *o = acc;
            }
        }
        pub fn dequant_axpy_fused(terms: &[super::DequantTerm<'_>], out: &mut [f32]) {
            for (i, o) in out.iter_mut().enumerate() {
                for t in terms {
                    *o += t.alpha * (t.min + t.codes[i] as f32 * t.step);
                }
            }
        }
        pub fn dequant_sum_into(terms: &[super::DequantTerm<'_>], out: &mut [f32]) {
            for (i, o) in out.iter_mut().enumerate() {
                let mut acc = 0.0f32;
                for t in terms {
                    acc += t.alpha * (t.min + t.codes[i] as f32 * t.step);
                }
                *o = acc;
            }
        }
    }

    /// Lengths that exercise the empty, all-tail, exact-block and
    /// block-plus-tail paths of the LANES=8 kernels.
    const REMAINDER_LENGTHS: [usize; 7] = [0, 1, 7, 8, 9, 4095, 4097];

    /// Deterministic integer-valued f32 data in [-8, 8].
    fn ramp(n: usize, mul: i64, offset: i64) -> Vec<f32> {
        (0..n as i64)
            .map(|i| ((i * mul + offset).rem_euclid(17) - 8) as f32)
            .collect()
    }

    #[test]
    fn chunked_kernels_match_scalar_reference_exactly_on_remainder_lengths() {
        for &n in &REMAINDER_LENGTHS {
            let x = ramp(n, 7, 3);
            let y = ramp(n, 5, 11);
            let z = ramp(n, 3, 1);

            let mut got = y.clone();
            let mut want = y.clone();
            axpy(3.0, &x, &mut got);
            reference::axpy(3.0, &x, &mut want);
            assert_eq!(got, want, "axpy len {n}");

            assert_eq!(dot(&x, &y), reference::dot(&x, &y), "dot len {n}");
            assert_eq!(norm_sq(&x), reference::norm_sq(&x), "norm_sq len {n}");
            assert_eq!(norm(&x), reference::norm_sq(&x).sqrt(), "norm len {n}");
            assert_eq!(dist(&x, &y), reference::dist(&x, &y), "dist len {n}");

            let mut got = vec![0.0f32; n];
            let mut want = vec![0.0f32; n];
            sub_into(&x, &y, &mut got);
            reference::sub_into(&x, &y, &mut want);
            assert_eq!(got, want, "sub_into len {n}");

            let alphas = [2.0f32, -3.0, 5.0];
            let terms: [&[f32]; 3] = [&x, &y, &z];
            let mut got = z.clone();
            let mut want = z.clone();
            axpy_fused(&alphas, &terms, &mut got);
            reference::axpy_fused(&alphas, &terms, &mut want);
            assert_eq!(got, want, "axpy_fused len {n}");
            weighted_sum_into(&alphas, &terms, &mut got);
            reference::weighted_sum_into(&alphas, &terms, &mut want);
            assert_eq!(got, want, "weighted_sum_into len {n}");

            // Integer-valued (alpha, min, step, codes) keep every decode and
            // partial sum exact, so the fused dequant kernels must agree
            // with the scalar reference bit for bit.
            let codes_a = code_ramp(n, 7, 2);
            let codes_b = code_ramp(n, 5, 9);
            let codes_c = code_ramp(n, 11, 4);
            let dq_terms = [
                DequantTerm {
                    alpha: 2.0,
                    min: -8.0,
                    step: 2.0,
                    codes: &codes_a,
                },
                DequantTerm {
                    alpha: -3.0,
                    min: 4.0,
                    step: 1.0,
                    codes: &codes_b,
                },
                DequantTerm {
                    alpha: 5.0,
                    min: -2.0,
                    step: 3.0,
                    codes: &codes_c,
                },
            ];
            let mut got = z.clone();
            let mut want = z.clone();
            dequant_axpy_fused(&dq_terms, &mut got);
            reference::dequant_axpy_fused(&dq_terms, &mut want);
            assert_eq!(got, want, "dequant_axpy_fused len {n}");
            dequant_sum_into(&dq_terms, &mut got);
            reference::dequant_sum_into(&dq_terms, &mut want);
            assert_eq!(got, want, "dequant_sum_into len {n}");
        }
    }

    /// Term counts around the fold kernels' term blocks, up to the
    /// `dispatch-skew` cohort.
    const FOLD_TERM_COUNTS: [usize; 10] = [0, 1, 2, 15, 16, 17, 31, 32, 33, 192];

    /// [`REMAINDER_LENGTHS`] plus the logistic model's d.
    const FOLD_LENGTHS: [usize; 8] = [0, 1, 7, 8, 9, 4095, 4097, 7850];

    /// Deterministic non-integer f32 values over 2^-20..2^20 of either sign
    /// (splitmix64 bits), so nearly every partial sum rounds and a change of
    /// summation order shows in the bits.
    struct Values(u64);

    impl Values {
        fn bits(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn next(&mut self) -> f32 {
            let b = self.bits();
            let mantissa = 1.0 + (b >> 40) as f32 / (1u64 << 24) as f32;
            let sign = if b & 1 == 0 { 1.0 } else { -1.0 };
            sign * mantissa * 2f32.powi(((b >> 8) % 41) as i32 - 20)
        }
    }

    /// `v`, or at sparse `(term, index)` positions a special value: NaN and
    /// ±∞ rarely (each poisons its coordinate's sum), signed zeros and
    /// subnormals more often.
    fn salted(term: usize, i: usize, v: f32) -> f32 {
        let h = i * 31 + term * 17;
        if h.is_multiple_of(4099) {
            [f32::NAN, f32::INFINITY, f32::NEG_INFINITY][(term + i) % 3]
        } else if h.is_multiple_of(61) {
            [-0.0, 0.0, 1e-40, -3e-42][(term + i) % 4]
        } else {
            v
        }
    }

    fn assert_same_bits(got: &[f32], want: &[f32], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}: length");
        for (k, (g, w)) in got.iter().zip(want).enumerate() {
            assert!(
                g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
                "{what}[{k}]: {g:e} ({:#010x}) != {w:e} ({:#010x})",
                g.to_bits(),
                w.to_bits()
            );
        }
    }

    /// The four fold kernels against their per-element references, by bit
    /// pattern, on values whose sums round: the per-element order of the
    /// terms — message order, starting from `out` or from `+0.0` — is part
    /// of the kernels' contract, so any term count and length must give
    /// the reference's bits.
    #[test]
    fn fold_kernels_keep_the_reference_term_order_bit_for_bit() {
        let mut values = Values(0x5EED);
        for &terms in &FOLD_TERM_COUNTS {
            for &n in &FOLD_LENGTHS {
                let what = |kernel: &str| format!("{kernel}, {terms} terms, length {n}");
                let alphas: Vec<f32> = (0..terms).map(|_| values.next()).collect();
                let xs: Vec<Vec<f32>> = (0..terms)
                    .map(|k| (0..n).map(|i| salted(k, i, values.next())).collect())
                    .collect();
                let xs: Vec<&[f32]> = xs.iter().map(Vec::as_slice).collect();
                let init: Vec<f32> = (0..n).map(|i| salted(terms, i, values.next())).collect();

                let (mut got, mut want) = (init.clone(), init.clone());
                axpy_fused(&alphas, &xs, &mut got);
                reference::axpy_fused(&alphas, &xs, &mut want);
                assert_same_bits(&got, &want, &what("axpy_fused"));
                weighted_sum_into(&alphas, &xs, &mut got);
                reference::weighted_sum_into(&alphas, &xs, &mut want);
                assert_same_bits(&got, &want, &what("weighted_sum_into"));

                let codes: Vec<Vec<u16>> = (0..terms)
                    .map(|_| (0..n).map(|_| values.bits() as u16).collect())
                    .collect();
                let dq: Vec<DequantTerm<'_>> = codes
                    .iter()
                    .enumerate()
                    .map(|(k, codes)| DequantTerm {
                        alpha: alphas[k],
                        min: if k % 5 == 2 { -0.0 } else { values.next() },
                        step: values.next().abs() * 2f32.powi(-16),
                        codes,
                    })
                    .collect();
                let (mut got, mut want) = (init.clone(), init.clone());
                dequant_axpy_fused(&dq, &mut got);
                reference::dequant_axpy_fused(&dq, &mut want);
                assert_same_bits(&got, &want, &what("dequant_axpy_fused"));
                dequant_sum_into(&dq, &mut got);
                reference::dequant_sum_into(&dq, &mut want);
                assert_same_bits(&got, &want, &what("dequant_sum_into"));
            }
        }
    }

    /// Where every product is `−0.0` an assign must still start from `+0.0`
    /// (`0.0 + (−0.0)` is `+0.0`) and an accumulate from `out`.
    #[test]
    fn fold_kernels_keep_the_sign_of_zero_sums() {
        for &terms in &FOLD_TERM_COUNTS[1..] {
            let n = 37;
            // Positive coefficients times −0.0, negative ones times +0.0.
            let alphas: Vec<f32> = (0..terms)
                .map(|k| if k % 3 == 0 { -0.75 } else { 1.25 })
                .collect();
            let xs: Vec<Vec<f32>> = alphas
                .iter()
                .map(|&a| vec![if a > 0.0 { -0.0 } else { 0.0 }; n])
                .collect();
            let xs: Vec<&[f32]> = xs.iter().map(Vec::as_slice).collect();
            let codes = vec![0u16; n];
            // A zero code on a `+0.0` grid decodes to `+0.0`; a negative
            // coefficient turns it into `−0.0`.
            let dq: Vec<DequantTerm<'_>> = (0..terms)
                .map(|_| DequantTerm {
                    alpha: -0.5,
                    min: 0.0,
                    step: 0.125,
                    codes: &codes,
                })
                .collect();
            for init in [0.0f32, -0.0] {
                let what = |kernel: &str| format!("{kernel}, {terms} terms, out = {init:?}");
                let (mut got, mut want) = (vec![init; n], vec![init; n]);
                axpy_fused(&alphas, &xs, &mut got);
                reference::axpy_fused(&alphas, &xs, &mut want);
                assert_same_bits(&got, &want, &what("axpy_fused"));
                dequant_axpy_fused(&dq, &mut got);
                reference::dequant_axpy_fused(&dq, &mut want);
                assert_same_bits(&got, &want, &what("dequant_axpy_fused"));
                let mut got = vec![init; n];
                weighted_sum_into(&alphas, &xs, &mut got);
                assert!(
                    got.iter().all(|v| v.to_bits() == 0),
                    "{}",
                    what("weighted_sum_into")
                );
                let mut got = vec![init; n];
                dequant_sum_into(&dq, &mut got);
                assert!(
                    got.iter().all(|v| v.to_bits() == 0),
                    "{}",
                    what("dequant_sum_into")
                );
            }
        }
    }

    /// Deterministic quantization codes in [0, 13).
    fn code_ramp(n: usize, mul: u64, offset: u64) -> Vec<u16> {
        (0..n as u64)
            .map(|i| ((i * mul + offset) % 13) as u16)
            .collect()
    }

    #[test]
    fn dequant_axpy_matches_decode_then_axpy() {
        // Single-term fused fold ≡ materialize the decoded vector, then axpy.
        let codes = code_ramp(37, 3, 5);
        let (alpha, min, step) = (0.75f32, -0.4f32, 0.05f32);
        let decoded: Vec<f32> = codes.iter().map(|&c| min + c as f32 * step).collect();
        let mut via_decode = ramp(37, 5, 1);
        let mut direct = via_decode.clone();
        axpy(alpha, &decoded, &mut via_decode);
        dequant_axpy_fused(
            &[DequantTerm {
                alpha,
                min,
                step,
                codes: &codes,
            }],
            &mut direct,
        );
        assert_eq!(direct, via_decode);
    }

    #[test]
    fn dequant_fused_degenerate_arities() {
        let mut out = [1.0f32, 2.0, 3.0];
        dequant_axpy_fused(&[], &mut out);
        assert_eq!(out, [1.0, 2.0, 3.0]);
        dequant_sum_into(&[], &mut out);
        assert_eq!(out, [0.0, 0.0, 0.0]);
        let codes = [1u16, 2, 3];
        dequant_axpy_fused(
            &[DequantTerm {
                alpha: 2.0,
                min: 0.0,
                step: 1.0,
                codes: &codes,
            }],
            &mut out,
        );
        assert_eq!(out, [2.0, 4.0, 6.0]);
    }

    #[test]
    #[should_panic(expected = "dequant_axpy_fused length mismatch")]
    fn dequant_fused_mismatch_panics() {
        let codes = [1u16, 2, 3];
        let mut out = [0.0f32; 2];
        dequant_axpy_fused(
            &[DequantTerm {
                alpha: 1.0,
                min: 0.0,
                step: 1.0,
                codes: &codes,
            }],
            &mut out,
        );
    }

    proptest! {
        /// axpy then axpy with the negated coefficient restores the vector
        /// (up to floating-point error).
        #[test]
        fn prop_axpy_inverse(
            x in proptest::collection::vec(-10.0f32..10.0, 1..64),
            alpha in -3.0f32..3.0,
        ) {
            let mut y = vec![1.0f32; x.len()];
            let orig = y.clone();
            axpy(alpha, &x, &mut y);
            axpy(-alpha, &x, &mut y);
            for (a, b) in y.iter().zip(orig.iter()) {
                prop_assert!((a - b).abs() < 1e-3);
            }
        }

        /// Cauchy–Schwarz: |⟨x,y⟩| ≤ ‖x‖·‖y‖.
        #[test]
        fn prop_cauchy_schwarz(
            x in proptest::collection::vec(-5.0f32..5.0, 1..64),
        ) {
            let y: Vec<f32> = x.iter().map(|v| v * 0.5 + 1.0).collect();
            let lhs = dot(&x, &y).abs();
            let rhs = norm(&x) * norm(&y);
            prop_assert!(lhs <= rhs * (1.0 + 1e-4) + 1e-4);
        }
    }
}
