//! Dense matrix multiplication kernels.
//!
//! Three variants are provided because the linear-layer backward pass needs
//! products with one transposed operand, and materialising the transpose of
//! a large activation matrix would double memory traffic:
//!
//! * [`gemm_into`]      — `C = A·B`
//! * [`gemm_at_b_into`] — `C = Aᵀ·B`
//! * [`gemm_a_bt_into`] — `C = A·Bᵀ`
//!
//! Every kernel writes into a caller-owned tensor, resized in place, so a
//! training loop that re-presents the same shapes allocates nothing; a
//! caller that wants a fresh result passes an empty `Tensor`.
//! [`linear_forward_into`] fuses the dense-layer bias add (and optionally
//! ReLU) into the `A·Bᵀ` sweep. Each `gemm_*_into` is a shape check around
//! a raw kernel on slices ([`matmul_into`], [`matmul_at_b_into`],
//! [`matmul_a_bt_into`]; [`linear_forward_flat`] for the dense forward),
//! which is what a caller whose operands live in a flat store runs — the
//! layers of `fedadmm-nn` write a weight gradient straight into its range
//! of the network's gradient vector this way.
//!
//! **The rule every kernel obeys:** tiling may regroup *which outputs*
//! advance together, never the adds within one output. Each output element
//! has a single accumulator that starts at `+0.0` and receives its
//! contributions in increasing `l` (the contracted index), with the naive
//! kernels' zero-skip rules preserved (`A·B` and `Aᵀ·B` skip a zero `a`;
//! `A·Bᵀ` skips nothing, so `0·∞` is `NaN`). No FMA, no reassociation, no
//! `std::arch` intrinsics: SIMD lanes are always independent outputs, so
//! the results are bit-identical to the unblocked [`reference`] kernels at
//! any lane width (pinned by exactness tests here and end to end by the
//! engine-parity golden digests).
//!
//! **One body per kernel, three instantiations, tile constants per
//! instantiation.** Each register-tile kernel is a single `#[inline(always)]`
//! body in plain Rust, const-generic in its tile shape. It is compiled once
//! for the build's baseline target and, on x86-64, twice more, each inside a
//! `#[target_feature]` function that contains nothing but the call to that
//! body with its own tile constants: `enable = "avx2"` with the tiles of
//! `lanes8`, so the compiler vectorises the loops over 8 lanes instead of
//! SSE2's 4, and `enable = "avx512f"` with the tiles of `lanes16`, sized
//! for 16 lanes and 32 registers. A CPU that reports AVX-512F at run time
//! gets the third instantiation, one that reports AVX2 the second
//! ([`gemm_isa`] names the choice); every other CPU and architecture runs
//! the first. The one guarded call per dispatched kernel and instruction set
//! (in `ab_sweep`, `a_bt_panels` and `a_bt_tile`) is the only `unsafe` in
//! the crate's library code (the exactness tests call each instantiation
//! directly, behind the same check). There is no switch to set: the selection reads the CPU,
//! nothing else. Builds must not pass `-C target-cpu=native` either: the
//! kernels already choose their instruction set at run time, and on an
//! AVX-512 host that flag's tuning collapses the code generation of the
//! 8-row `A·Bᵀ` tile (a batch-4 dense forward about 5× slower; before the
//! 16-row tile existed, the gated training workloads ran 1.6–2.8× slower,
//! with the same bits). The AVX-512 instantiation sets only
//! `target_feature` and does not collapse under that flag.
//!
//! How each product vectorises follows from which index is contiguous:
//!
//! * `A·B` and `Aᵀ·B` have `B` and `C` contiguous along the output column
//!   `j`, so the lanes are output columns. They differ only in how
//!   `a(i, l)` is addressed and share one sweep (`ab_sweep`): column panels
//!   outermost, so a `k × TC` panel of `B` stays cached while every row
//!   tile passes over it; inside, a `TR × TC` tile of accumulators lives in
//!   registers across the `l` loop, each chunk of `B` serves all `TR` rows,
//!   a zero `a(i, l)` skips its row's adds for that `l`, and every output
//!   is stored once per block of `KB` values of `l` (the 16-lane tiles cut
//!   `k` into blocks so a panel's block of `B` stays in L1, and carry each
//!   accumulator through `out` from one block to the next). Ragged edges
//!   run narrower tiles of the same body.
//! * `A·Bᵀ` has both operands contiguous along `l`, so lanes cannot be
//!   `l` without reassociating the sum. `a_bt_panels` instead packs a panel
//!   of `MR` rows of `A` transposed into a small stack buffer, so the lanes
//!   are `MR` *output rows*, and keeps an `NR × MR` tile of accumulators in
//!   registers while it streams `NR` rows of `B` past the pack. The 16-row
//!   panel runs only on AVX-512 and only for products of at least 16 rows;
//!   smaller ones (batch-4 logistic regression) keep the 8-row panel. The
//!   dense forward ([`linear_forward_into`]), evaluation and the convolution
//!   weight gradient all run through this one kernel.
//!
//! Every kernel is a serial loop. Going parallel is the dispatch pool's
//! job, one level up: it runs whole client updates and whole evaluation
//! chunks side by side, so a kernel never forks inside a busy worker.

use crate::error::{TensorError, TensorResult};
use crate::tensor::Tensor;
use std::ops::Range;

/// Tile shapes sized for 8 lanes: the baseline and AVX2 instantiations.
mod lanes8 {
    /// Output rows per register tile of the `A·B` / `Aᵀ·B` sweep.
    pub(super) const TR: usize = 2;

    /// Output columns per register tile of the sweep: the SIMD lanes, each
    /// an independent output. `TR × TC` accumulators are 8 AVX2 registers,
    /// which leaves room for the `B` chunk and the broadcast `a`.
    pub(super) const TC: usize = 32;

    /// Values of `l` per block of the sweep: one block spans any `k`.
    pub(super) const KB: usize = usize::MAX;

    /// Rows of `A` per packed panel of the `A·Bᵀ` kernel: the SIMD lanes,
    /// each an independent output row.
    pub(super) const MR: usize = 8;

    /// Rows of `B` (output columns) per register tile of the `A·Bᵀ` kernel,
    /// so a tile holds `NR × MR` accumulators.
    pub(super) const NR: usize = 4;
}

/// Tile shapes sized for 16 lanes and 32 registers: the AVX-512
/// instantiation.
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
mod lanes16 {
    /// Output rows per register tile of the `A·B` / `Aᵀ·B` sweep.
    pub(super) const TR: usize = 4;

    /// Output columns per register tile of the sweep: `TR × TC`
    /// accumulators are 12 AVX-512 registers.
    pub(super) const TC: usize = 48;

    /// Width of the one-register panel that takes the columns left of the
    /// whole `TC` panels.
    pub(super) const TC_MID: usize = 16;

    /// Values of `l` per block of the sweep: a block of a `TC` panel of `B`
    /// is 24 KiB, which stays in L1 while every row tile passes over it.
    pub(super) const KB: usize = 128;

    /// Rows of `A` per packed panel of the `A·Bᵀ` kernel, used only when the
    /// product has at least this many rows.
    pub(super) const MR: usize = 16;

    /// Rows of `B` per register tile of the `A·Bᵀ` kernel: `NR × MR`
    /// accumulators are 8 AVX-512 registers.
    pub(super) const NR: usize = 8;
}

/// Width of the narrower tile that takes the columns left of the whole
/// panels before single columns do, in every instantiation.
const TC_EDGE: usize = 4;

/// Floats in the on-stack pack buffer of the `A·Bᵀ` kernel (16 KiB), so a
/// pass packs `PACK / MR` values of `l`.
const PACK: usize = 4096;

/// Computes `C = A·B` for rank-2 tensors `A: (m,k)` and `B: (k,n)` into a
/// caller-owned tensor, resizing it to `(m,n)`.
///
/// Allocation-free once `out` has capacity for the result.
pub fn gemm_into(a: &Tensor, b: &Tensor, out: &mut Tensor) -> TensorResult<()> {
    let (m, k) = a.shape().as_matrix()?;
    let (k2, n) = b.shape().as_matrix()?;
    if k != k2 {
        return Err(TensorError::MatmulDimMismatch {
            left: (m, k),
            right: (k2, n),
        });
    }
    out.resize_in_place(&[m, n]);
    matmul_into(a.data(), b.data(), out.data_mut(), m, k, n);
    Ok(())
}

/// Computes `C = Aᵀ·B` for `A: (k,m)` and `B: (k,n)` into a caller-owned
/// tensor, resizing it to `(m,n)`.
pub fn gemm_at_b_into(a: &Tensor, b: &Tensor, out: &mut Tensor) -> TensorResult<()> {
    let (k, m) = a.shape().as_matrix()?;
    let (k2, n) = b.shape().as_matrix()?;
    if k != k2 {
        return Err(TensorError::MatmulDimMismatch {
            left: (m, k),
            right: (k2, n),
        });
    }
    out.resize_in_place(&[m, n]);
    matmul_at_b_into(a.data(), b.data(), out.data_mut(), k, m, n);
    Ok(())
}

/// Computes `C = A·Bᵀ` for `A: (m,k)` and `B: (n,k)` into a caller-owned
/// tensor, resizing it to `(m,n)`.
pub fn gemm_a_bt_into(a: &Tensor, b: &Tensor, out: &mut Tensor) -> TensorResult<()> {
    let (m, k) = a.shape().as_matrix()?;
    let (n, k2) = b.shape().as_matrix()?;
    if k != k2 {
        return Err(TensorError::MatmulDimMismatch {
            left: (m, k),
            right: (n, k2),
        });
    }
    out.resize_in_place(&[m, n]);
    matmul_a_bt_into(a.data(), b.data(), out.data_mut(), m, k, n);
    Ok(())
}

/// The fused dense-layer forward kernel: `out = input·weightᵀ + bias`,
/// optionally through ReLU, applied to each panel of output rows as the
/// `A·Bᵀ` kernel finishes it.
///
/// `input: (m,k)`, `weight: (n,k)` (PyTorch `[out_features, in_features]`
/// layout), `bias: (n)`; `out` is resized to `(m,n)`. Bit-identical to
/// [`gemm_a_bt_into`] followed by a row-wise bias add (and a separate ReLU map):
/// each output's dot product accumulates in the same order, the bias is a
/// single add after it, and the ReLU mask test is the same `v > 0.0`.
pub fn linear_forward_into(
    input: &Tensor,
    weight: &Tensor,
    bias: &Tensor,
    out: &mut Tensor,
    relu: bool,
) -> TensorResult<()> {
    let (m, k) = input.shape().as_matrix()?;
    let (n, k2) = weight.shape().as_matrix()?;
    if k != k2 {
        return Err(TensorError::MatmulDimMismatch {
            left: (m, k),
            right: (n, k2),
        });
    }
    if bias.len() != n {
        return Err(TensorError::ShapeMismatch {
            left: vec![n],
            right: bias.dims().to_vec(),
        });
    }
    linear_forward_flat(input, weight.data(), bias.data(), out, relu)
}

/// [`linear_forward_into`] on parameters that live in a flat store:
/// `weight` is the row-major `(n,k)` matrix as a slice and `bias` its `n`
/// offsets, with `n = bias.len()` and `k` the width of `input`.
pub fn linear_forward_flat(
    input: &Tensor,
    weight: &[f32],
    bias: &[f32],
    out: &mut Tensor,
    relu: bool,
) -> TensorResult<()> {
    let (m, k) = input.shape().as_matrix()?;
    let n = bias.len();
    if weight.len() != n * k {
        return Err(TensorError::ShapeMismatch {
            left: vec![n, k],
            right: vec![weight.len()],
        });
    }
    out.resize_in_place(&[m, n]);
    a_bt_panels(input.data(), weight, out.data_mut(), k, n, |panel| {
        for out_row in panel.chunks_exact_mut(n) {
            for (o, &bias_v) in out_row.iter_mut().zip(bias.iter()) {
                *o += bias_v;
            }
            if relu {
                // `!(v > 0.0)` (not `v <= 0.0`): NaN must also collapse to
                // 0.0, exactly as the standalone ReLU layer's mask test does.
                #[allow(clippy::neg_cmp_op_on_partial_ord)]
                for o in out_row.iter_mut() {
                    if !(*o > 0.0) {
                        *o = 0.0;
                    }
                }
            }
        }
    });
    Ok(())
}

/// Raw kernel: `out[m×n] = a[m×k] · b[k×n]`, overwriting `out`: what the
/// callers that already hold flat buffers run (the im2col convolution, the
/// dense layer's input gradient).
///
/// # Panics
/// Like the two raw kernels below, panics if a slice's length is not its
/// stated shape.
pub fn matmul_into(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "matmul_into: a is not (m,k)");
    assert_eq!(b.len(), k * n, "matmul_into: b is not (k,n)");
    assert_eq!(out.len(), m * n, "matmul_into: out is not (m,n)");
    ab_sweep(LeftOperand::row_major(a, k), b, out, m, k, n);
}

/// Raw kernel: `out[m×n] = aᵀ[m×k] · b[k×n]` for `a: (k,m)`, overwriting
/// `out` (the dense layer's weight gradient `gᵀ·x`, written where it is
/// read).
pub fn matmul_at_b_into(a: &[f32], b: &[f32], out: &mut [f32], k: usize, m: usize, n: usize) {
    assert_eq!(a.len(), k * m, "matmul_at_b_into: a is not (k,m)");
    assert_eq!(b.len(), k * n, "matmul_at_b_into: b is not (k,n)");
    assert_eq!(out.len(), m * n, "matmul_at_b_into: out is not (m,n)");
    ab_sweep(LeftOperand::transposed(a, m), b, out, m, k, n);
}

/// The left operand of [`ab_sweep`] as an `m × k` matrix over a flat buffer:
/// `A` itself for `A·B`, the transposed view of a `(k,m)` buffer for `Aᵀ·B`.
#[derive(Clone, Copy)]
struct LeftOperand<'a> {
    data: &'a [f32],
    row_stride: usize,
    col_stride: usize,
}

impl<'a> LeftOperand<'a> {
    /// `a(i, l) = data[i·k + l]`: a row-major `(m,k)` buffer as it is.
    fn row_major(data: &'a [f32], k: usize) -> Self {
        Self {
            data,
            row_stride: k,
            col_stride: 1,
        }
    }

    /// `a(i, l) = data[l·m + i]`: a row-major `(k,m)` buffer read transposed.
    fn transposed(data: &'a [f32], m: usize) -> Self {
        Self {
            data,
            row_stride: 1,
            col_stride: m,
        }
    }

    #[inline(always)]
    fn at(&self, i: usize, l: usize) -> f32 {
        self.data[i * self.row_stride + l * self.col_stride]
    }
}

/// Whether the AVX2 instantiations of the register-tile kernels may run:
/// the CPU says so (std caches the answer after the first query), never a
/// setting.
#[inline]
fn has_avx2() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Whether the AVX-512 instantiations may run, read the same way.
#[inline]
fn has_avx512() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::is_x86_feature_detected!("avx512f")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Which instantiation of the GEMM kernels this process runs: `"avx512"`
/// on an x86-64 CPU that reports AVX-512F, `"avx2"` on one that reports
/// AVX2 but not AVX-512F, `"baseline"` (the build's own target features)
/// anywhere else. The results are the same bits every way; the speed is
/// not, so a timing is only comparable with this beside it.
pub fn gemm_isa() -> &'static str {
    if has_avx512() {
        "avx512"
    } else if has_avx2() {
        "avx2"
    } else {
        "baseline"
    }
}

/// The tiled sweep behind `A·B` and `Aᵀ·B`: `out[m×n] = a · b[k×n]`,
/// overwriting `out`, on the widest instantiation the CPU supports.
fn ab_sweep(a: LeftOperand<'_>, b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    #[cfg(target_arch = "x86_64")]
    {
        if has_avx512() {
            // SAFETY: `has_avx512` just reported that this CPU supports
            // AVX-512F, the only requirement of calling a function compiled
            // with it enabled.
            return unsafe { ab_sweep_avx512(a, b, out, m, k, n) };
        }
        if has_avx2() {
            // SAFETY: `has_avx2` just reported that this CPU supports AVX2,
            // the only requirement of calling a function compiled with it
            // enabled.
            return unsafe { ab_sweep_avx2(a, b, out, m, k, n) };
        }
    }
    ab_sweep_baseline(a, b, out, m, k, n);
}

// The three instantiations of `ab_sweep_body`: what differs is the target
// features they are compiled with and the tile constants sized for them,
// so nothing else belongs in them.
#[inline(never)]
fn ab_sweep_baseline(a: LeftOperand<'_>, b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    use lanes8::{KB, TC, TR};
    ab_sweep_body::<TR, TC, TC, KB>(a, b, out, m, k, n);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn ab_sweep_avx2(a: LeftOperand<'_>, b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    use lanes8::{KB, TC, TR};
    ab_sweep_body::<TR, TC, TC, KB>(a, b, out, m, k, n);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn ab_sweep_avx512(a: LeftOperand<'_>, b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    use lanes16::{KB, TC, TC_MID, TR};
    ab_sweep_body::<TR, TC, TC_MID, KB>(a, b, out, m, k, n);
}

/// Covers the output with `TC`-column panels, then `TC_MID`-column ones,
/// then `TC_EDGE`-column ones, then single columns: the ragged edge runs
/// narrower tiles of the same body (a `TC_MID` equal to `TC` finds no
/// columns left to take).
#[inline(always)]
fn ab_sweep_body<const TR: usize, const TC: usize, const TC_MID: usize, const KB: usize>(
    a: LeftOperand<'_>,
    b: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    let j0 = ab_panels::<TR, TC, KB>(a, b, out, m, k, n, 0);
    let j0 = ab_panels::<TR, TC_MID, KB>(a, b, out, m, k, n, j0);
    let j0 = ab_panels::<TR, TC_EDGE, KB>(a, b, out, m, k, n, j0);
    ab_panels::<TR, 1, KB>(a, b, out, m, k, n, j0);
}

/// Computes every whole `C`-column panel of the output from column `j0` on
/// and returns the first column it left. A panel is swept in blocks of `KB`
/// values of `l`, and within a block the row tiles run top to bottom, so
/// the block's `KB × C` slice of `b` is reused `m / R` times while it is
/// cached.
#[inline(always)]
fn ab_panels<const R: usize, const C: usize, const KB: usize>(
    a: LeftOperand<'_>,
    b: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    mut j0: usize,
) -> usize {
    while j0 + C <= n {
        let mut l0 = 0;
        // At least one block, even an empty one: a `k == 0` product still
        // writes its zeros.
        loop {
            let ls = l0..l0 + KB.min(k - l0);
            let mut i0 = 0;
            while i0 + R <= m {
                ab_tile::<R, C>(a, b, out, i0, j0, ls.clone(), n);
                i0 += R;
            }
            while i0 < m {
                ab_tile::<1, C>(a, b, out, i0, j0, ls.clone(), n);
                i0 += 1;
            }
            l0 = ls.end;
            if l0 == k {
                break;
            }
        }
        j0 += C;
    }
    j0
}

/// One `R × C` register tile over the block `ls` of the contraction:
/// `out[i0+r][j0+c] += Σ_{l ∈ ls} a(i0+r, l) · b[l][j0+c]` with one
/// accumulator per output, from `+0.0` in the first block and from the
/// value the previous block stored otherwise, in increasing `l`, skipping
/// the `l` whose `a(i0+r, l)` is zero — exactly the naive kernels'
/// arithmetic. The compiler vectorises over `c` (the outputs) and holds
/// `acc` in registers across the `l` loop.
#[inline(always)]
fn ab_tile<const R: usize, const C: usize>(
    a: LeftOperand<'_>,
    b: &[f32],
    out: &mut [f32],
    i0: usize,
    j0: usize,
    ls: Range<usize>,
    n: usize,
) {
    let mut acc = [[0.0f32; C]; R];
    if ls.start > 0 {
        for (r, acc_r) in acc.iter_mut().enumerate() {
            acc_r.copy_from_slice(&out[(i0 + r) * n + j0..][..C]);
        }
    }
    for l in ls {
        let b_chunk: &[f32; C] = b[l * n + j0..][..C].try_into().expect("exact lane chunk");
        for (r, acc_r) in acc.iter_mut().enumerate() {
            let a_v = a.at(i0 + r, l);
            if a_v == 0.0 {
                continue;
            }
            for (v, &b_v) in acc_r.iter_mut().zip(b_chunk) {
                *v += a_v * b_v;
            }
        }
    }
    for (r, acc_r) in acc.iter().enumerate() {
        out[(i0 + r) * n + j0..][..C].copy_from_slice(acc_r);
    }
}

/// Raw kernel: `out[m×n] = a[m×k] · bᵀ[k×n]` for `b: (n,k)`, overwriting
/// `out` (the convolution weight gradient).
pub fn matmul_a_bt_into(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "matmul_a_bt_into: a is not (m,k)");
    assert_eq!(b.len(), n * k, "matmul_a_bt_into: b is not (n,k)");
    assert_eq!(out.len(), m * n, "matmul_a_bt_into: out is not (m,n)");
    a_bt_panels(a, b, out, k, n, |_| {});
}

/// The `A·Bᵀ` panel kernel: `out[m×n] = a[m×k] · bᵀ`, then `finish` on each
/// finished panel of whole output rows (the fused bias / ReLU hook of
/// [`linear_forward_into`]). Panels are 16 rows high and run the AVX-512
/// tile when the CPU has it and the product has 16 rows to fill one; all
/// other products run 8-row panels on the AVX2 or baseline tile.
fn a_bt_panels(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    k: usize,
    n: usize,
    finish: impl FnMut(&mut [f32]),
) {
    if n == 0 {
        return;
    }
    #[cfg(target_arch = "x86_64")]
    if out.len() >= lanes16::MR * n && has_avx512() {
        let tile = |pack: &[f32],
                    rows: [&[f32]; lanes16::NR],
                    acc: &mut [[f32; lanes16::MR]; lanes16::NR]| {
            // SAFETY: this closure exists only once `has_avx512` has
            // reported that this CPU supports AVX-512F, the only
            // requirement of calling a function compiled with it enabled.
            unsafe { a_bt_tile_avx512(pack, rows, acc) }
        };
        return a_bt_panels_of(a, b, out, k, n, tile, finish);
    }
    a_bt_panels_of(a, b, out, k, n, a_bt_tile, finish);
}

/// The pack of the `A·Bᵀ` kernel, aligned so that each group of 16 lanes
/// is one cache line.
#[repr(align(64))]
struct PackBuffer([f32; PACK]);

/// [`a_bt_panels`] with one register tile of `NR × MR` accumulators.
///
/// `MR` rows of `A` are packed transposed (`pack[l·MR + r] = a[i0+r][l]`,
/// lanes past the last row zero), `PACK / MR` values of `l` at a time into
/// a stack buffer, and every `NR`-row tile of `B` is streamed against the
/// pack by `tile`: lane `r` of accumulator `c` is the output `(i0+r, j0+c)`
/// and receives `a·b` in increasing `l`. The first chunk starts every
/// accumulator at `+0.0`; later chunks resume from the value the previous
/// one stored in `out`, so each output is one running sum from `+0.0` in
/// the naive order, whatever `MR`, `NR`, the chunk length or the vector
/// width the compiler picks.
fn a_bt_panels_of<const MR: usize, const NR: usize>(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    k: usize,
    n: usize,
    tile: impl Fn(&[f32], [&[f32]; NR], &mut [[f32; MR]; NR]),
    mut finish: impl FnMut(&mut [f32]),
) {
    let chunk = PACK / MR;
    let mut pack = PackBuffer([0.0f32; PACK]);
    let pack = &mut pack.0;
    for (p, panel) in out.chunks_mut(MR * n).enumerate() {
        let mr = panel.len() / n;
        let a_rows = &a[p * MR * k..][..mr * k];
        if k == 0 {
            panel.fill(0.0);
        }
        for l0 in (0..k).step_by(chunk) {
            let kc = chunk.min(k - l0);
            let pack = &mut pack[..kc * MR];
            if mr < MR {
                // The lanes past the last row hold the previous panel's values.
                pack.fill(0.0);
            }
            for (r, a_row) in a_rows.chunks_exact(k).enumerate() {
                for (lanes, &a_v) in pack.chunks_exact_mut(MR).zip(&a_row[l0..l0 + kc]) {
                    lanes[r] = a_v;
                }
            }
            for j0 in (0..n).step_by(NR) {
                let nr = NR.min(n - j0);
                // A ragged last tile re-reads its last row of `B` in the
                // unused accumulators, which are never stored.
                let rows: [&[f32]; NR] = std::array::from_fn(|c| {
                    let j = j0 + c.min(nr - 1);
                    &b[j * k + l0..][..kc]
                });
                let mut acc = [[0.0f32; MR]; NR];
                if l0 > 0 {
                    for (c, acc_c) in acc.iter_mut().enumerate().take(nr) {
                        for (r, v) in acc_c.iter_mut().enumerate().take(mr) {
                            *v = panel[r * n + j0 + c];
                        }
                    }
                }
                tile(pack, rows, &mut acc);
                for (c, acc_c) in acc.iter().enumerate().take(nr) {
                    for (r, &v) in acc_c.iter().enumerate().take(mr) {
                        panel[r * n + j0 + c] = v;
                    }
                }
            }
        }
        finish(panel);
    }
}

/// The 8-row register tile of [`a_bt_panels_of`]: `acc[c][r] +=
/// pack[l·MR + r] · rows[c][l]` for every `l`, in increasing order, on the
/// AVX2 instantiation where the CPU has it.
#[inline]
fn a_bt_tile(pack: &[f32], rows: [&[f32]; lanes8::NR], acc: &mut [[f32; lanes8::MR]; lanes8::NR]) {
    #[cfg(target_arch = "x86_64")]
    if has_avx2() {
        // SAFETY: `has_avx2` just reported that this CPU supports AVX2, the
        // only requirement of calling a function compiled with it enabled.
        return unsafe { a_bt_tile_avx2(pack, rows, acc) };
    }
    a_bt_tile_baseline(pack, rows, acc);
}

// The three instantiations of `a_bt_tile_body`, each at the tile shape
// sized for its lanes. Out of line so the accumulators enter and leave as
// whole lane groups: the compiler then vectorises over `r` (the outputs)
// and holds the tile in registers across the `l` loop.
#[inline(never)]
fn a_bt_tile_baseline(
    pack: &[f32],
    rows: [&[f32]; lanes8::NR],
    acc: &mut [[f32; lanes8::MR]; lanes8::NR],
) {
    a_bt_tile_body(pack, rows, acc);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn a_bt_tile_avx2(
    pack: &[f32],
    rows: [&[f32]; lanes8::NR],
    acc: &mut [[f32; lanes8::MR]; lanes8::NR],
) {
    a_bt_tile_body(pack, rows, acc);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn a_bt_tile_avx512(
    pack: &[f32],
    rows: [&[f32]; lanes16::NR],
    acc: &mut [[f32; lanes16::MR]; lanes16::NR],
) {
    a_bt_tile_body(pack, rows, acc);
}

#[inline(always)]
fn a_bt_tile_body<const MR: usize, const NR: usize>(
    pack: &[f32],
    rows: [&[f32]; NR],
    acc: &mut [[f32; MR]; NR],
) {
    let mut tile = *acc;
    let kc = pack.len() / MR;
    let mut rows = rows;
    for row in &mut rows {
        *row = &row[..kc];
    }
    for (l, lanes) in (0..kc).zip(pack.chunks_exact(MR)) {
        let lanes: &[f32; MR] = lanes.try_into().expect("exact lane chunk");
        for (tile_c, row) in tile.iter_mut().zip(rows.iter()) {
            let b_v = row[l];
            for (v, &a_v) in tile_c.iter_mut().zip(lanes.iter()) {
                *v += a_v * b_v;
            }
        }
    }
    *acc = tile;
}

/// The unblocked reference kernels the blocked family is pinned against.
///
/// These are the original naive loops, kept verbatim: exactness tests
/// assert exact `f32` equality between each blocked kernel and its
/// reference at adversarial shapes. Not used on any hot path.
pub mod reference {
    /// Naive `out[m×n] = a[m×k] · b[k×n]`.
    pub fn matmul_into(a: &[f32], b: &[f32], out: &mut [f32], _m: usize, k: usize, n: usize) {
        for (i, out_row) in out.chunks_mut(n).enumerate() {
            out_row.iter_mut().for_each(|o| *o = 0.0);
            let a_row = &a[i * k..(i + 1) * k];
            for (l, &a_il) in a_row.iter().enumerate() {
                if a_il == 0.0 {
                    continue;
                }
                let b_row = &b[l * n..(l + 1) * n];
                for (o, &b_lj) in out_row.iter_mut().zip(b_row.iter()) {
                    *o += a_il * b_lj;
                }
            }
        }
    }

    /// Naive `out[m×n] = aᵀ · b` for `a: (k,m)`, `b: (k,n)`.
    pub fn matmul_at_b_into(a: &[f32], b: &[f32], out: &mut [f32], k: usize, m: usize, n: usize) {
        out.iter_mut().for_each(|o| *o = 0.0);
        for l in 0..k {
            let a_row = &a[l * m..(l + 1) * m];
            let b_row = &b[l * n..(l + 1) * n];
            for (i, &a_li) in a_row.iter().enumerate() {
                if a_li == 0.0 {
                    continue;
                }
                let out_row = &mut out[i * n..(i + 1) * n];
                for (o, &b_lj) in out_row.iter_mut().zip(b_row.iter()) {
                    *o += a_li * b_lj;
                }
            }
        }
    }

    /// Naive `out[m×n] = a · bᵀ` for `a: (m,k)`, `b: (n,k)`.
    pub fn matmul_a_bt_into(a: &[f32], b: &[f32], out: &mut [f32], _m: usize, k: usize, n: usize) {
        for (i, out_row) in out.chunks_mut(n).enumerate() {
            let a_row = &a[i * k..(i + 1) * k];
            for (j, o) in out_row.iter_mut().enumerate() {
                let b_row = &b[j * k..(j + 1) * k];
                let mut acc = 0.0f32;
                for (x, y) in a_row.iter().zip(b_row.iter()) {
                    acc += x * y;
                }
                *o = acc;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn t(data: &[f32], dims: &[usize]) -> Tensor {
        Tensor::from_vec(data.to_vec(), dims).unwrap()
    }

    /// Runs a `gemm_*_into` kernel into a fresh output tensor.
    fn fresh(
        kernel: fn(&Tensor, &Tensor, &mut Tensor) -> TensorResult<()>,
        a: &Tensor,
        b: &Tensor,
    ) -> TensorResult<Tensor> {
        let mut out = Tensor::zeros(&[0]);
        kernel(a, b, &mut out)?;
        Ok(out)
    }

    fn matmul(a: &Tensor, b: &Tensor) -> TensorResult<Tensor> {
        fresh(gemm_into, a, b)
    }

    fn matmul_at_b(a: &Tensor, b: &Tensor) -> TensorResult<Tensor> {
        fresh(gemm_at_b_into, a, b)
    }

    fn matmul_a_bt(a: &Tensor, b: &Tensor) -> TensorResult<Tensor> {
        fresh(gemm_a_bt_into, a, b)
    }

    #[test]
    fn matmul_small() {
        let a = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let b = t(&[7.0, 8.0, 9.0, 10.0, 11.0, 12.0], &[3, 2]);
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.dims(), &[2, 2]);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_identity() {
        let a = t(&[1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let c = matmul(&a, &Tensor::eye(2)).unwrap();
        assert_eq!(c.data(), a.data());
        let c2 = matmul(&Tensor::eye(2), &a).unwrap();
        assert_eq!(c2.data(), a.data());
    }

    #[test]
    fn matmul_dim_mismatch() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[2, 3]);
        assert!(matmul(&a, &b).is_err());
    }

    #[test]
    fn matmul_vector_as_row() {
        // rank-1 tensors are treated as a 1×n row.
        let a = t(&[1.0, 2.0], &[2]);
        let b = t(&[3.0, 4.0, 5.0, 6.0], &[2, 2]);
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.dims(), &[1, 2]);
        assert_eq!(c.data(), &[13.0, 16.0]);
    }

    #[test]
    fn at_b_matches_explicit_transpose() {
        let a = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[3, 2]);
        let b = t(&[1.0, 0.0, 2.0, 1.0, 0.0, 3.0], &[3, 2]);
        let expected = matmul(&a.transpose().unwrap(), &b).unwrap();
        let got = matmul_at_b(&a, &b).unwrap();
        assert_eq!(got, expected);
    }

    #[test]
    fn a_bt_matches_explicit_transpose() {
        let a = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let b = t(&[1.0, 0.0, 2.0, 1.0, 0.0, 3.0], &[2, 3]);
        let expected = matmul(&a, &b.transpose().unwrap()).unwrap();
        let got = matmul_a_bt(&a, &b).unwrap();
        assert_eq!(got, expected);
    }

    #[test]
    fn gemm_into_reuses_buffer_across_shapes() {
        let a = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let b = t(&[7.0, 8.0, 9.0, 10.0, 11.0, 12.0], &[3, 2]);
        let mut out = Tensor::zeros(&[4, 4]);
        gemm_into(&a, &b, &mut out).unwrap();
        assert_eq!(out.dims(), &[2, 2]);
        assert_eq!(out.data(), &[58.0, 64.0, 139.0, 154.0]);
        // Shrinking reuses the same buffer; the result is identical to a
        // fresh output tensor.
        gemm_a_bt_into(&a, &a, &mut out).unwrap();
        assert_eq!(out, matmul_a_bt(&a, &a).unwrap());
        gemm_at_b_into(&a, &a, &mut out).unwrap();
        assert_eq!(out, matmul_at_b(&a, &a).unwrap());
    }

    #[test]
    fn linear_forward_matches_separate_ops() {
        let x = t(&[1.0, -2.0, 0.5, 3.0, 0.0, -1.0], &[2, 3]);
        let w = t(&[0.5, 1.0, -1.0, 2.0, -0.5, 0.25], &[2, 3]);
        let bias = t(&[0.1, -0.2], &[2]);
        let mut fused = Tensor::zeros(&[1]);
        linear_forward_into(&x, &w, &bias, &mut fused, false).unwrap();
        let mut expected = matmul_a_bt(&x, &w).unwrap();
        for row in 0..2 {
            for col in 0..2 {
                let v = expected.get(&[row, col]).unwrap() + bias.data()[col];
                expected.set(&[row, col], v).unwrap();
            }
        }
        assert_eq!(fused, expected);
        // The fused ReLU applies the same `v > 0` mask as a separate map.
        let mut fused_relu = Tensor::zeros(&[1]);
        linear_forward_into(&x, &w, &bias, &mut fused_relu, true).unwrap();
        let relu_expected = expected.map(|v| if v > 0.0 { v } else { 0.0 });
        assert_eq!(fused_relu, relu_expected);
    }

    /// Deterministic operand data with embedded exact zeros, so the
    /// blocked kernels' zero-skip paths run.
    fn pattern(len: usize, mul: i64, offset: i64) -> Vec<f32> {
        (0..len)
            .map(|i| {
                let v = (i as i64 * mul + offset).rem_euclid(23) - 11;
                // Roughly 1 in 8 entries is exactly zero.
                if (i as i64 + offset).rem_euclid(8) == 0 {
                    0.0
                } else {
                    v as f32 * 0.37
                }
            })
            .collect()
    }

    /// Every instantiation of the `A·B` / `Aᵀ·B` sweep this CPU can run: the
    /// baseline one always and the AVX2 and AVX-512 ones when present, so a
    /// host with the wider lanes still tests the paths an older CPU takes.
    type AbSweep = for<'a> fn(LeftOperand<'a>, &[f32], &mut [f32], usize, usize, usize);

    fn ab_instantiations() -> Vec<(&'static str, AbSweep)> {
        let mut all: Vec<(&'static str, AbSweep)> = vec![("baseline", ab_sweep_baseline)];
        #[cfg(target_arch = "x86_64")]
        {
            if has_avx2() {
                all.push(("avx2", |a, b, out, m, k, n| {
                    // SAFETY: only reached on a CPU that reports AVX2.
                    unsafe { ab_sweep_avx2(a, b, out, m, k, n) }
                }));
            }
            if has_avx512() {
                all.push(("avx512", |a, b, out, m, k, n| {
                    // SAFETY: only reached on a CPU that reports AVX-512F.
                    unsafe { ab_sweep_avx512(a, b, out, m, k, n) }
                }));
            }
        }
        all
    }

    /// Operands `(a: (m,k), b: (k,n))` for the sweep's edge table: `pattern`
    /// values (one in eight an exact zero) and a `-0.0` in `b`. Row `k/2` of
    /// `b` is all `±Inf` / `NaN` and faces a column of `a` that is all `±0`,
    /// so the zero-skip alone keeps those products out of the sums. When
    /// there is a second row to put it in, the last row of `a` holds a
    /// `-Inf` that is *not* skipped, whose `±Inf` / `NaN` outputs must match
    /// the reference.
    fn ab_edge_operands(m: usize, k: usize, n: usize) -> (Vec<f32>, Vec<f32>) {
        if k == 0 {
            return (Vec::new(), Vec::new());
        }
        let mut a = pattern(m * k, 3, 1);
        let mut b = pattern(k * n, 5, 2);
        let poisoned = k / 2;
        for (i, a_row) in a.chunks_exact_mut(k).enumerate() {
            a_row[poisoned] = if i % 2 == 0 { 0.0 } else { -0.0 };
        }
        for (j, v) in b[poisoned * n..][..n].iter_mut().enumerate() {
            *v = [f32::INFINITY, f32::NAN, f32::NEG_INFINITY][j % 3];
        }
        if k > 1 {
            // Row 0 of `b` is not the poisoned one.
            b[n - 1] = -0.0;
            if m > 1 {
                a[(m - 1) * k] = f32::NEG_INFINITY;
            }
        }
        (a, b)
    }

    /// The blocked kernels are *exactly* equal to the naive reference.
    ///
    /// First all three products through their entry points at adversarial
    /// shapes (around the 8-lane groups, odd primes, strongly non-square).
    /// Then the `A·B` / `Aᵀ·B` sweep at every edge of either tiling —
    /// partial row tiles (`m` around each `TR`), whole, middle, narrow and
    /// single-column panels (`n` around each `TC`, past `TC_MID` and
    /// `TC_EDGE`), contractions around the 16-lane `KB` block and an empty
    /// one — on [`ab_edge_operands`], through each instantiation directly.
    /// Pins that a zero `a(i, l)` is skipped (the outputs it guards stay
    /// finite), that a ragged tile writes its own columns and every one of
    /// them (`out` starts as a sentinel, and `k == 0` must still write its
    /// zeros), that a running sum carried through `out` between blocks is
    /// the naive one, and that lane width is not part of the result: the
    /// instantiations agree with the reference and with each other.
    #[test]
    fn blocked_kernels_bit_identical_to_reference() {
        let sizes = [1usize, 7, 8, 9, 17, 33];
        let mut shapes: Vec<(usize, usize, usize)> = Vec::new();
        for &m in &sizes {
            for &k in &sizes {
                for &n in &sizes {
                    shapes.push((m, k, n));
                }
            }
        }
        // Strongly non-square shapes, including the paper's dense layers.
        shapes.extend([(1, 784, 10), (16, 784, 10), (3, 129, 65), (65, 3, 129)]);
        for (m, k, n) in shapes {
            let a_mk = pattern(m * k, 3, 1);
            let b_kn = pattern(k * n, 5, 2);
            let a_km = pattern(k * m, 7, 3);
            let b_nk = pattern(n * k, 11, 4);
            let mut got = vec![f32::NAN; m * n];
            let mut want = vec![f32::NAN; m * n];

            matmul_into(&a_mk, &b_kn, &mut got, m, k, n);
            reference::matmul_into(&a_mk, &b_kn, &mut want, m, k, n);
            assert_eq!(
                got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "matmul_into diverged at ({m},{k},{n})"
            );

            matmul_at_b_into(&a_km, &b_kn, &mut got, k, m, n);
            reference::matmul_at_b_into(&a_km, &b_kn, &mut want, k, m, n);
            assert_eq!(
                got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "matmul_at_b_into diverged at ({m},{k},{n})"
            );

            matmul_a_bt_into(&a_mk, &b_nk, &mut got, m, k, n);
            reference::matmul_a_bt_into(&a_mk, &b_nk, &mut want, m, k, n);
            assert_eq!(
                got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "matmul_a_bt_into diverged at ({m},{k},{n})"
            );
        }

        const SENTINEL: f32 = -12345.678;
        let instantiations = ab_instantiations();
        let (tr8, tc8) = (lanes8::TR, lanes8::TC);
        let (tr16, tc16, mid16, kb16) = (lanes16::TR, lanes16::TC, lanes16::TC_MID, lanes16::KB);
        let edges = |mut v: Vec<usize>| {
            v.sort_unstable();
            v.dedup();
            v
        };
        let ms = edges(vec![1, tr8 - 1, tr8, tr8 + 1, tr16 - 1, tr16, tr16 + 1, 17]);
        let ns = edges(vec![
            1,
            3,
            TC_EDGE,
            TC_EDGE + 1,
            tc8 - 1,
            tc8,
            tc8 + 1,
            tc8 + TC_EDGE + 1,
            tc16 - 1,
            tc16,
            tc16 + 1,
            tc16 + mid16 + TC_EDGE + 1,
            196,
            784,
        ]);
        let ks = edges(vec![
            0,
            1,
            2,
            16,
            64,
            kb16 - 1,
            kb16,
            kb16 + 1,
            2 * kb16 + 1,
            800,
        ]);
        for &m in &ms {
            for &n in &ns {
                for &k in &ks {
                    let (a_mk, b) = ab_edge_operands(m, k, n);
                    let a_km: Vec<f32> = (0..k * m).map(|x| a_mk[(x % m) * k + x / m]).collect();
                    let mut want = vec![SENTINEL; m * n];
                    let mut want_at_b = vec![SENTINEL; m * n];
                    reference::matmul_into(&a_mk, &b, &mut want, m, k, n);
                    reference::matmul_at_b_into(&a_km, &b, &mut want_at_b, k, m, n);
                    assert_eq!(bits(&want), bits(&want_at_b), "references at ({m},{k},{n})");
                    // Only the unskipped `-Inf` row may be contaminated.
                    let guarded = if k > 1 && m > 1 { m - 1 } else { m };
                    assert!(
                        want[..guarded * n].iter().all(|v| v.is_finite()),
                        "a zero `a` met the poisoned row of `b` at ({m},{k},{n})"
                    );

                    let as_a = LeftOperand::row_major(&a_mk, k);
                    let as_at = LeftOperand::transposed(&a_km, m);
                    for (product, a) in [("A·B", as_a), ("Aᵀ·B", as_at)] {
                        for &(isa, sweep) in &instantiations {
                            let mut got = vec![SENTINEL; m * n];
                            sweep(a, &b, &mut got, m, k, n);
                            assert_eq!(
                                bits(&got),
                                bits(&want),
                                "{product} on {isa} diverged at ({m},{k},{n})"
                            );
                        }
                    }
                }
            }
        }
    }

    /// Every instantiation of the `A·Bᵀ` register tile this CPU can run,
    /// each at its own tile shape, against the naive loop, on a pack and rows
    /// holding `NaN`, `±Inf` and `-0.0` and accumulators that do not start
    /// at zero (a later chunk of `l`).
    #[test]
    fn a_bt_tile_instantiations_match_the_naive_tile() {
        let mut lanes8_tiles: Vec<(&str, Tile<{ lanes8::MR }, { lanes8::NR }>)> =
            vec![("baseline", a_bt_tile_baseline)];
        #[allow(unused_mut)]
        let mut lanes16_tiles: Vec<(&str, Tile<{ lanes16::MR }, { lanes16::NR }>)> = Vec::new();
        #[cfg(target_arch = "x86_64")]
        {
            if has_avx2() {
                lanes8_tiles.push(("avx2", |pack, rows, acc| {
                    // SAFETY: only reached on a CPU that reports AVX2.
                    unsafe { a_bt_tile_avx2(pack, rows, acc) }
                }));
            }
            if has_avx512() {
                lanes16_tiles.push(("avx512", |pack, rows, acc| {
                    // SAFETY: only reached on a CPU that reports AVX-512F.
                    unsafe { a_bt_tile_avx512(pack, rows, acc) }
                }));
            }
        }
        assert_tiles_match_the_naive_tile(&lanes8_tiles);
        assert_tiles_match_the_naive_tile(&lanes16_tiles);
    }

    type Tile<const MR: usize, const NR: usize> = fn(&[f32], [&[f32]; NR], &mut [[f32; MR]; NR]);

    fn assert_tiles_match_the_naive_tile<const MR: usize, const NR: usize>(
        tiles: &[(&str, Tile<MR, NR>)],
    ) {
        let kc = 37;
        let pack = special_pattern(kc, MR, 3, 1);
        let b = special_pattern(NR, kc, 11, 4);
        let rows: [&[f32]; NR] = std::array::from_fn(|c| &b[c * kc..][..kc]);
        let start: [[f32; MR]; NR] =
            std::array::from_fn(|c| std::array::from_fn(|r| (c * MR + r) as f32 * 0.25 - 3.0));
        let mut want = start;
        for l in 0..kc {
            for (want_c, row) in want.iter_mut().zip(rows) {
                for (r, v) in want_c.iter_mut().enumerate() {
                    *v += pack[l * MR + r] * row[l];
                }
            }
        }
        for &(isa, tile) in tiles {
            let mut acc = start;
            tile(&pack, rows, &mut acc);
            assert_eq!(
                bits(acc.as_flattened()),
                bits(want.as_flattened()),
                "{MR}×{NR} tile on {isa}"
            );
        }
    }

    /// [`gemm_isa`] reports what the dispatch does: AVX-512 exactly when an
    /// x86-64 CPU has AVX-512F, AVX2 when it has AVX2 but not AVX-512F, the
    /// baseline otherwise. Printed, so a CI log shows which instantiation
    /// the golden digests ran on (`-- --nocapture`).
    #[test]
    fn gemm_isa_names_the_instantiation_the_cpu_selects() {
        #[cfg(target_arch = "x86_64")]
        let (avx2, avx512) = (
            std::is_x86_feature_detected!("avx2"),
            std::is_x86_feature_detected!("avx512f"),
        );
        #[cfg(not(target_arch = "x86_64"))]
        let (avx2, avx512) = (false, false);
        let want = match (avx512, avx2) {
            (true, _) => "avx512",
            (false, true) => "avx2",
            (false, false) => "baseline",
        };
        println!("gemm_isa: {}", gemm_isa());
        assert_eq!(gemm_isa(), want);
    }

    /// `pattern` with IEEE special values poked into a few rows, so most
    /// outputs stay finite and the contaminated ones are known.
    fn special_pattern(rows: usize, cols: usize, mul: i64, offset: i64) -> Vec<f32> {
        let mut v = pattern(rows * cols, mul, offset);
        let mut poke = |r: usize, c: usize, x: f32| v[(r % rows) * cols + c % cols] = x;
        poke(0, 1, -0.0);
        poke(1, cols / 3, f32::NEG_INFINITY);
        poke(2, cols / 2, f32::INFINITY);
        poke(5, cols - 1, f32::NAN);
        v
    }

    /// Bit patterns, with every NaN mapped to one value: which payload and
    /// sign a NaN carries is the one thing IEEE 754 (and Rust) leave open
    /// when two NaNs meet, so it is not part of the kernels' contract.
    /// Everything else — signed zeros, infinities, the last ulp — is.
    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter()
            .map(|x| if x.is_nan() { u32::MAX } else { x.to_bits() })
            .collect()
    }

    /// The `A·Bᵀ` panel kernel against the naive reference at every edge of
    /// either tiling — partial panels (`m` around each `MR`, and the
    /// 16-row panel's cut at `m` = 15, 16, 17), ragged column tiles (`n`
    /// around each `NR`), and a contracted axis straddling either pack
    /// chunk — on operands holding `NaN`, `±Inf`, `-0.0` and exact zeros.
    /// Through the entry point (whichever panel and tile this CPU selects)
    /// and through both panel shapes directly on the build's own tile body,
    /// so every host tests both. Pins that padding lanes never leak into an
    /// output, that no zero-skip crept in (`0·Inf` is `NaN`) and that
    /// accumulators start from `+0.0`. The fused dense-layer kernel must
    /// equal it plus bias plus ReLU.
    #[test]
    #[allow(clippy::neg_cmp_op_on_partial_ord)] // the kernel's own NaN-collapsing ReLU test
    fn a_bt_panel_kernel_bit_identical_to_reference_at_tile_and_chunk_edges() {
        let (c8, c16) = (PACK / lanes8::MR, PACK / lanes16::MR);
        let ms = [1usize, 3, 4, 7, 8, 9, 15, 16, 17, 33, 256];
        let ns = [1usize, 3, 4, 5, 7, 8, 9, 10, 17, 64];
        let ks = [
            1usize,
            2,
            c16 - 1,
            c16,
            c16 + 1,
            c8 - 1,
            c8,
            c8 + 1,
            2 * c8 + 3,
        ];
        for &m in &ms {
            for &n in &ns {
                for &k in &ks {
                    let a = special_pattern(m, k, 3, 1);
                    let b = special_pattern(n, k, 11, 4);
                    let mut got = vec![f32::NAN; m * n];
                    let mut want = vec![f32::NAN; m * n];
                    reference::matmul_a_bt_into(&a, &b, &mut want, m, k, n);
                    matmul_a_bt_into(&a, &b, &mut got, m, k, n);
                    assert_eq!(bits(&got), bits(&want), "a_bt diverged at ({m},{k},{n})");
                    got.fill(f32::NAN);
                    a_bt_panels_of(&a, &b, &mut got, k, n, a_bt_tile_body::<8, 4>, |_| {});
                    assert_eq!(bits(&got), bits(&want), "8-row panels at ({m},{k},{n})");
                    got.fill(f32::NAN);
                    a_bt_panels_of(&a, &b, &mut got, k, n, a_bt_tile_body::<16, 8>, |_| {});
                    assert_eq!(bits(&got), bits(&want), "16-row panels at ({m},{k},{n})");

                    let bias = pattern(n, 7, 3);
                    for relu in [false, true] {
                        let mut fused = Tensor::zeros(&[0]);
                        linear_forward_into(
                            &t(&a, &[m, k]),
                            &t(&b, &[n, k]),
                            &t(&bias, &[n]),
                            &mut fused,
                            relu,
                        )
                        .unwrap();
                        let separate: Vec<f32> = want
                            .chunks(n)
                            .flat_map(|row| {
                                row.iter().zip(bias.iter()).map(|(v, bias_v)| v + bias_v)
                            })
                            .map(|v| if relu && !(v > 0.0) { 0.0 } else { v })
                            .collect();
                        assert_eq!(
                            bits(fused.data()),
                            bits(&separate),
                            "linear_forward (relu {relu}) diverged at ({m},{k},{n})"
                        );
                    }
                }
            }
        }
        // The contaminated outputs are what IEEE says they are.
        let mut out = [0.0f32; 2];
        matmul_a_bt_into(
            &[0.0, 1.0],
            &[f32::INFINITY, 1.0, -0.0, 0.0],
            &mut out,
            1,
            2,
            2,
        );
        assert!(out[0].is_nan(), "0·Inf was skipped: {}", out[0]);
        assert_eq!(out[1].to_bits(), 0.0f32.to_bits(), "sum of signed zeros");
    }

    /// Empty and zero-length-contraction products are values, not panics:
    /// runs `product(m, k, n, out)` at shapes with `m`, `n` and/or `k` zero
    /// and asserts an `(m, n)` result — empty, or all `fill` when only `k`
    /// is zero.
    fn assert_degenerate_shapes_are_values(
        fill: f32,
        product: impl Fn(usize, usize, usize, &mut Tensor) -> TensorResult<()>,
    ) {
        for (m, k, n) in [
            (0, 3, 2),
            (2, 3, 0),
            (0, 3, 0),
            (2, 0, 3),
            (17, 0, 3),
            (0, 0, 0),
        ] {
            let mut out = Tensor::ones(&[5]);
            product(m, k, n, &mut out).unwrap();
            assert_eq!(out.dims(), &[m, n], "at ({m},{k},{n})");
            assert!(out.data().iter().all(|&v| v == fill), "at ({m},{k},{n})");
        }
    }

    fn ones(rows: usize, cols: usize) -> Tensor {
        Tensor::ones(&[rows, cols])
    }

    #[test]
    fn gemm_handles_degenerate_shapes() {
        assert_degenerate_shapes_are_values(0.0, |m, k, n, out| {
            gemm_into(&ones(m, k), &ones(k, n), out)
        });
    }

    #[test]
    fn gemm_at_b_handles_degenerate_shapes() {
        assert_degenerate_shapes_are_values(0.0, |m, k, n, out| {
            gemm_at_b_into(&ones(k, m), &ones(k, n), out)
        });
    }

    #[test]
    fn gemm_a_bt_handles_degenerate_shapes() {
        assert_degenerate_shapes_are_values(0.0, |m, k, n, out| {
            gemm_a_bt_into(&ones(m, k), &ones(n, k), out)
        });
    }

    #[test]
    fn linear_forward_handles_degenerate_shapes() {
        // With nothing to contract, the dense layer is its bias.
        assert_degenerate_shapes_are_values(1.5, |m, k, n, out| {
            linear_forward_into(
                &ones(m, k),
                &ones(n, k),
                &Tensor::full(&[n], 1.5),
                out,
                true,
            )
        });
    }

    proptest! {
        /// (A·B)·C == A·(B·C) within floating-point tolerance.
        #[test]
        fn prop_matmul_associative(m in 1usize..5, k in 1usize..5, n in 1usize..5, p in 1usize..5) {
            let a_data: Vec<f32> = (0..m * k).map(|x| (x % 7) as f32 - 3.0).collect();
            let b_data: Vec<f32> = (0..k * n).map(|x| (x % 5) as f32 - 2.0).collect();
            let c_data: Vec<f32> = (0..n * p).map(|x| (x % 3) as f32 - 1.0).collect();
            let a = Tensor::from_vec(a_data, &[m, k]).unwrap();
            let b = Tensor::from_vec(b_data, &[k, n]).unwrap();
            let c = Tensor::from_vec(c_data, &[n, p]).unwrap();
            let left = matmul(&matmul(&a, &b).unwrap(), &c).unwrap();
            let right = matmul(&a, &matmul(&b, &c).unwrap()).unwrap();
            for (x, y) in left.data().iter().zip(right.data().iter()) {
                prop_assert!((x - y).abs() < 1e-3);
            }
        }

        /// Multiplying by the identity leaves the matrix unchanged.
        #[test]
        fn prop_identity(m in 1usize..8, n in 1usize..8) {
            let data: Vec<f32> = (0..m * n).map(|x| x as f32 * 0.5 - 3.0).collect();
            let a = Tensor::from_vec(data, &[m, n]).unwrap();
            let c = matmul(&a, &Tensor::eye(n)).unwrap();
            prop_assert_eq!(c.data(), a.data());
        }

        /// The transposed-operand kernels agree with explicit transposition.
        #[test]
        fn prop_transposed_kernels(m in 1usize..6, k in 1usize..6, n in 1usize..6) {
            let a_data: Vec<f32> = (0..k * m).map(|x| (x as f32).sin()).collect();
            let b_data: Vec<f32> = (0..k * n).map(|x| (x as f32).cos()).collect();
            let a = Tensor::from_vec(a_data, &[k, m]).unwrap();
            let b = Tensor::from_vec(b_data, &[k, n]).unwrap();
            let expected = matmul(&a.transpose().unwrap(), &b).unwrap();
            let got = matmul_at_b(&a, &b).unwrap();
            for (x, y) in expected.data().iter().zip(got.data().iter()) {
                prop_assert!((x - y).abs() < 1e-4);
            }
        }

        /// No raw kernel ever emits `-0.0`, on operands made of `-0.0`,
        /// exact zeros, products that cancel and products that underflow to
        /// `-0.0`: an output is a running sum from `+0.0`, `+0.0 + -0.0` is
        /// `+0.0` and a cancelling sum rounds to `+0.0`. So `0.0 + x` has
        /// the bits of `x` for every output `x`, which is what lets a layer
        /// overwrite its gradient slice where it once added to a zeroed one.
        /// `m` reaches 19, so an AVX-512 CPU runs the 16-row `A·Bᵀ` panel.
        #[test]
        fn prop_kernels_never_emit_negative_zero(
            m in 1usize..20,
            k in 0usize..20,
            n in 1usize..40,
            picks in proptest::collection::vec(0usize..8, 19 * 19 + 19 * 39),
        ) {
            const PALETTE: [f32; 8] = [-0.0, 0.0, -1.0, 1.0, -1e-30, 1e-30, -2.5, 0.75];
            let operand = |from: usize, len: usize| -> Vec<f32> {
                picks[from..from + len].iter().map(|&i| PALETTE[i]).collect()
            };
            let (a, b) = (operand(0, m * k), operand(19 * 19, k * n));
            let mut out = vec![-0.0f32; m * n];
            type Kernel = fn(&[f32], &[f32], &mut [f32], usize, usize, usize);
            // (kernel, its three size arguments): the same buffers read as
            // (m,k)·(k,n), (k,m)ᵀ·(k,n) and (m,k)·(n,k)ᵀ.
            let kernels: [(Kernel, [usize; 3]); 3] = [
                (matmul_into, [m, k, n]),
                (matmul_at_b_into, [k, m, n]),
                (matmul_a_bt_into, [m, k, n]),
            ];
            for (kernel, [x, y, z]) in kernels {
                out.fill(-0.0);
                kernel(&a, &b, &mut out, x, y, z);
                for &v in &out {
                    prop_assert_eq!((0.0f32 + v).to_bits(), v.to_bits());
                }
            }
        }

        /// Blocked == reference at random shapes (exact equality).
        #[test]
        fn prop_blocked_matches_reference(m in 1usize..20, k in 1usize..20, n in 1usize..20) {
            let a: Vec<f32> = pattern(m * k, 13, 5);
            let b: Vec<f32> = pattern(k * n, 17, 9);
            let mut got = vec![0.0f32; m * n];
            let mut want = vec![0.0f32; m * n];
            matmul_into(&a, &b, &mut got, m, k, n);
            reference::matmul_into(&a, &b, &mut want, m, k, n);
            prop_assert_eq!(&got, &want);
        }
    }
}
