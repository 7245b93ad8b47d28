//! GEMV kernels (f32 and int8) — the compute core of the fully-connected
//! layers.
//!
//! An FC layer is `out[r] = act(bias[r] + Σ_k W[r][k] · x[k])`: every weight
//! is read exactly once per frame, so the layer runs at the speed the weight
//! matrix streams from memory, not at a FLOP rate.  The GEMM micro-kernels
//! ([`super::gemm`], [`super::qgemm`]) vectorise across *output columns*; an
//! `n = 1` product fills one of their [`super::gemm::NR`] lanes and throws
//! the rest away.  The kernels here vectorise across *output rows* instead,
//! [`LANES`] rows per vector of accumulators.
//!
//! **f32: the caller's rows, read in place.**  [`PackedLinearFilter`] holds
//! the row-major `[m][k]` weights it was given, in shared storage, and never
//! copies them.  The kernel takes [`LANES`] rows at a time and walks `k` in
//! blocks of [`LANES`]: it loads a `16 × 16` block (one vector per row,
//! sixteen concurrent row streams), transposes it in registers so that
//! vector `j` holds column `k0 + j` of the sixteen rows, and then does one
//! broadcast of `x[k0 + j]` and one fused multiply-add per `j`.  The
//! AVX-512 arm transposes in four stages of sixteen two-source permutes
//! (`vpermt2ps`), the AVX2 arm two `8 × 8` blocks per row half; the scalar
//! arm is the plain loop.  A `k` tail shorter than a block is loaded under
//! a lane mask and continues in ascending order; rows past `m` read as
//! zero and are never stored.
//!
//! **int8: quad panels.**  The int8 weights must be quantized anyway, so
//! they are packed at deploy into quad-major row panels
//! ([`QuantizedLinearFilter`]) of [`PANEL_ROWS`] rows; only the last panel
//! is shorter, and it holds exactly the rows left (no padding rows: the
//! kernels load a short last vector under a row mask).  Panel `p` of
//! height `h` starts at byte `p · PANEL_ROWS · kq · QK` and stores
//! [`QK`]-byte quads `k`-major.
//!
//! **Numerical contract.**  The f32 kernels keep [`super::gemm`]'s contract
//! (stated in [`super`]) bit for bit: one accumulator per output,
//! initialised from the bias, `k` ascending, each step one fused
//! multiply-add, on every dispatch arm — the transpose only moves weights
//! between registers, so an FC output is the same bits the `n = 1` GEMM
//! path produces, on any machine.  The int8 kernels accumulate the same
//! exact `i32` sums as [`super::qgemm`] and apply its one epilogue
//! expression.  Row blocks are independent, so splitting them across
//! rayon tasks changes nothing.

use super::activation::Activation;
#[cfg(target_arch = "x86_64")]
use super::dispatch::hw_fma;
use super::dispatch::{kernel_arch, qkernel_arch, KernelArch, QKernelArch};
use super::qgemm::{quant_scale, quantize_into, MAX_QUANT_K, QK};
use crate::error::TensorError;
use crate::Result;
use rayon::prelude::*;
use std::sync::Arc;

/// Rows per vector step: one 512-bit register of f32 / i32 accumulators.
/// The f32 kernel's row and `k` block, and the int8 panel granularity.
pub const LANES: usize = 16;
/// Rows per full int8 panel: four 512-bit (eight 256-bit) accumulators.
pub const PANEL_ROWS: usize = 4 * LANES;
/// K block of the int8 quantizing pack: one block of a panel (`PACK_KB`
/// columns of up to `PANEL_ROWS` rows, 4 KiB of codes) stays L1-resident
/// while its rows are scattered into it, so packing streams source and
/// destination once each.
const PACK_KB: usize = 64;

/// Height of int8 panel `p` of an `m`-row matrix: every panel is full but
/// the last, which holds exactly the rows that are left.
#[inline]
fn panel_height(m: usize, p: usize) -> usize {
    (m - p * PANEL_ROWS).min(PANEL_ROWS)
}

fn check_weights(what: &str, len: usize, m: usize, k: usize) -> Result<()> {
    if len != m * k {
        return Err(TensorError::KernelConfig(format!(
            "{what} expects {m}x{k} = {} weights, got {len}",
            m * k
        )));
    }
    Ok(())
}

fn check_io(what: &str, m: usize, k: usize, x: usize, bias: usize, out: usize) -> Result<()> {
    if x != k || bias != m || out != m {
        return Err(TensorError::KernelConfig(format!(
            "{what} over a {m}x{k} filter got {x} inputs, {bias} biases, {out} outputs"
        )));
    }
    Ok(())
}

/// Calls `visit(p, h, r, k0, row_block)` for every K block of every row of
/// `weights`, panel by panel and K block by K block, so the destination
/// block a caller scatters into stays cache-resident.
fn for_each_row_block(
    weights: &[f32],
    m: usize,
    k: usize,
    mut visit: impl FnMut(usize, usize, usize, usize, &[f32]),
) {
    for p in 0..m.div_ceil(PANEL_ROWS) {
        let h = panel_height(m, p);
        for k0 in (0..k).step_by(PACK_KB) {
            let k1 = (k0 + PACK_KB).min(k);
            for r in 0..h {
                let row = (p * PANEL_ROWS + r) * k;
                visit(p, h, r, k0, &weights[row + k0..row + k1]);
            }
        }
    }
}

/// An FC weight matrix `[m][k]`, row-major, as the f32 GEMV kernel reads
/// it: the caller's storage, shared, never repacked.
///
/// [`PackedLinearFilter::shared`] wraps an `Arc<[f32]>` the caller already
/// holds (a refcount bump, or a move), so a deploy holds each FC layer's
/// weights once.  [`crate::ops::pack_linear_filter`] copies a borrowed
/// slice once, for callers that hold no `Arc`.
#[derive(Debug, Clone, PartialEq)]
pub struct PackedLinearFilter {
    m: usize,
    k: usize,
    data: Arc<[f32]>,
}

impl PackedLinearFilter {
    /// Wraps a row-major `[m][k]` weight matrix in place: the filter shares
    /// `weights`' allocation.
    pub fn shared(weights: Arc<[f32]>, m: usize, k: usize) -> Result<Self> {
        check_weights("linear filter", weights.len(), m, k)?;
        Ok(Self {
            m,
            k,
            data: weights,
        })
    }

    /// Number of output rows (features).
    pub fn m(&self) -> usize {
        self.m
    }

    /// Input length.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Bytes of the weight matrix (shared with whoever else holds it).
    pub fn bytes(&self) -> usize {
        std::mem::size_of_val(&*self.data)
    }

    /// The row-major `[m][k]` weights — the caller's allocation.
    pub fn data(&self) -> &[f32] {
        &self.data
    }
}

/// Computes `out = act(bias + W·x)` over a row-major f32 filter.
pub(super) fn gemv_bias_act_into(
    filter: &PackedLinearFilter,
    x: &[f32],
    bias: &[f32],
    act: Activation,
    out: &mut [f32],
) -> Result<()> {
    let (m, k) = (filter.m, filter.k);
    check_io("gemv", m, k, x.len(), bias.len(), out.len())?;
    // One arm per call, passed down by value: a concurrent pin
    // can never mix arms within one output.
    let arch = kernel_arch();
    out.par_chunks_mut(LANES)
        .enumerate()
        .for_each(|(blk, chunk)| {
            let (r0, h) = (blk * LANES, chunk.len());
            let mut acc = [0.0f32; LANES];
            acc[..h].copy_from_slice(&bias[r0..r0 + h]);
            gemv_rows(arch, &filter.data[r0 * k..][..h * k], x, &mut acc, h);
            for (dst, &v) in chunk.iter_mut().zip(&acc) {
                *dst = act.apply(v);
            }
        });
    Ok(())
}

/// `acc[r] += Σ_k w[r][k] · x[k]` for the `h` rows of `w` (row-major,
/// `h × x.len()`), `k` ascending, on the given arm.  `acc[h..]` is scratch
/// the caller never reads.
fn gemv_rows(arch: KernelArch, w: &[f32], x: &[f32], acc: &mut [f32; LANES], h: usize) {
    // The SIMD arms read `w` through raw pointers on the strength of this:
    // every unmasked load is inside row `r < h`, column `< x.len()`.
    assert!(
        (1..=LANES).contains(&h) && w.len() == h * x.len(),
        "gemv row block bounds"
    );
    match arch {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `kernel_arch()` clamps to CPUID-detected capability, so
        // the target features are present; the block bounds were asserted.
        KernelArch::Avx512 if h == LANES => unsafe { gemv_rows_avx512::<true>(w, x, acc, h) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above.
        KernelArch::Avx512 => unsafe { gemv_rows_avx512::<false>(w, x, acc, h) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above.
        KernelArch::Avx2 => unsafe { gemv_rows_avx2(w, x, acc, h) },
        _ => gemv_rows_scalar(w, x, acc, h),
    }
}

/// Portable arm: runs the copy of its loop compiled with hardware FMA
/// where the CPU has it (see [`super::dispatch`]).
fn gemv_rows_scalar(w: &[f32], x: &[f32], acc: &mut [f32; LANES], h: usize) {
    #[cfg(target_arch = "x86_64")]
    if hw_fma() {
        // SAFETY: CPUID reports FMA3.
        return unsafe { gemv_rows_scalar_fma(w, x, acc, h) };
    }
    gemv_rows_scalar_loop(w, x, acc, h)
}

/// The scalar loop: `k` outermost, so the `h` rows are independent
/// accumulator chains.
#[inline(always)]
fn gemv_rows_scalar_loop(w: &[f32], x: &[f32], acc: &mut [f32; LANES], h: usize) {
    let k = x.len();
    for (kk, &xk) in x.iter().enumerate() {
        for (r, a) in acc[..h].iter_mut().enumerate() {
            *a = w[r * k + kk].mul_add(xk, *a);
        }
    }
}

/// [`gemv_rows_scalar_loop`] compiled with `vfmadd` available.
///
/// # Safety
/// The CPU must support FMA3.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "fma")]
unsafe fn gemv_rows_scalar_fma(w: &[f32], x: &[f32], acc: &mut [f32; LANES], h: usize) {
    gemv_rows_scalar_loop(w, x, acc, h)
}

/// `vpermt2ps` index pairs of the AVX-512 transpose: stage `s` swaps bit
/// `s` of the register index with bit `s` of the lane index between
/// registers `i` and `i + 2^s`.  Entry `[s][0]` builds the low register of
/// the pair (its own lanes with that bit clear, the partner's shifted in),
/// `[s][1]` the high one; an index `≥ 16` selects the partner.
#[cfg(target_arch = "x86_64")]
const TRANSPOSE16: [[[i32; LANES]; 2]; 4] = {
    let mut idx = [[[0i32; LANES]; 2]; 4];
    let mut s = 0;
    while s < 4 {
        let d = 1 << s;
        let mut l = 0;
        while l < LANES {
            let (lo, hi) = if l & d == 0 {
                (l, l + d)
            } else {
                (LANES + l - d, LANES + l)
            };
            idx[s][0][l] = lo as i32;
            idx[s][1][l] = hi as i32;
            l += 1;
        }
        s += 1;
    }
    idx
};

/// One stage of [`transpose16`]: swaps bit `log2(D)` of the register index
/// with the same bit of the lane index.
///
/// # Safety
/// The CPU must support AVX-512F; only called from the 512-bit arm, into
/// which it inlines.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn transpose16_stage<const D: usize>(
    t: &mut [std::arch::x86_64::__m512; LANES],
    idx: &[[i32; LANES]; 2],
) {
    use std::arch::x86_64::*;
    let lo = _mm512_loadu_si512(idx[0].as_ptr() as *const __m512i);
    let hi = _mm512_loadu_si512(idx[1].as_ptr() as *const __m512i);
    for i in 0..LANES {
        if i & D == 0 {
            let (a, b) = (t[i], t[i + D]);
            t[i] = _mm512_permutex2var_ps(a, lo, b);
            t[i + D] = _mm512_permutex2var_ps(a, hi, b);
        }
    }
}

/// Transposes a `16 × 16` block held one row per register: afterwards
/// `t[j]` lane `r` is what `t[r]` lane `j` was.
///
/// # Safety
/// The CPU must support AVX-512F; only called from the 512-bit arm, into
/// which it inlines.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn transpose16(t: &mut [std::arch::x86_64::__m512; LANES]) {
    transpose16_stage::<1>(t, &TRANSPOSE16[0]);
    transpose16_stage::<2>(t, &TRANSPOSE16[1]);
    transpose16_stage::<4>(t, &TRANSPOSE16[2]);
    transpose16_stage::<8>(t, &TRANSPOSE16[3]);
}

/// Offset of row `r` of a block of `h` rows of length `k`.  Rows past `h`
/// re-read the last real row: every address stays inside the block, and
/// the lanes those rows feed after the transpose hold sums no one stores.
/// `FULL` (`h` is a whole block) keeps the offsets affine in `r`, so the
/// compiler addresses all the rows from a few registers.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn row_at<const FULL: bool>(r: usize, h: usize, k: usize) -> usize {
    if FULL {
        r * k
    } else {
        r.min(h - 1) * k
    }
}

/// Loads the `16 × 16` block at column `k0` — whole, or only the lanes
/// `tail` sets, the rest zero — and transposes it: `t[j]` lane `r` is
/// `w[r][k0 + j]`.
///
/// # Safety
/// The CPU must support AVX-512F (only called from the 512-bit arm, into
/// which it inlines); columns `k0..k0 + 16` (or the `tail` lanes) of rows
/// `0..h` must be inside the block at `pw`.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn load_block16<const FULL: bool>(
    pw: *const f32,
    (h, k): (usize, usize),
    k0: usize,
    tail: Option<u16>,
) -> [std::arch::x86_64::__m512; LANES] {
    use std::arch::x86_64::*;
    let mut t = [_mm512_setzero_ps(); LANES];
    for (r, tr) in t.iter_mut().enumerate() {
        let p = pw.add(row_at::<FULL>(r, h, k) + k0);
        // Masked-off lanes are not accessed.
        *tr = match tail {
            None => _mm512_loadu_ps(p),
            Some(lanes) => _mm512_maskz_loadu_ps(lanes, p),
        };
    }
    transpose16(&mut t);
    t
}

/// 512-bit arm: per `k` block, sixteen row loads, one in-register
/// transpose, then sixteen broadcast fused multiply-adds into one `zmm`
/// of row accumulators.  `FULL` (`h == LANES`) lets the compiler address
/// the rows as an affine sequence (see [`row_at`]).
///
/// # Safety
/// The CPU must support AVX-512F, `1 ≤ h ≤ LANES` (`h == LANES` when
/// `FULL`) and `w.len() == h * x.len()`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn gemv_rows_avx512<const FULL: bool>(
    w: &[f32],
    x: &[f32],
    acc: &mut [f32; LANES],
    h: usize,
) {
    use std::arch::x86_64::*;
    let k = x.len();
    let (pw, px) = (w.as_ptr(), x.as_ptr());
    let mut c = _mm512_loadu_ps(acc.as_ptr());
    let full = k - k % LANES;
    for k0 in (0..full).step_by(LANES) {
        let t = load_block16::<FULL>(pw, (h, k), k0, None);
        for (j, tj) in t.iter().enumerate() {
            c = _mm512_fmadd_ps(*tj, _mm512_set1_ps(*px.add(k0 + j)), c);
        }
    }
    if full < k {
        let n = k - full;
        let t = load_block16::<FULL>(pw, (h, k), full, Some((1 << n) - 1));
        for (j, tj) in t.iter().enumerate().take(n) {
            c = _mm512_fmadd_ps(*tj, _mm512_set1_ps(*px.add(full + j)), c);
        }
    }
    _mm512_storeu_ps(acc.as_mut_ptr(), c);
}

/// Transposes an `8 × 8` block held one row per register (unpack,
/// shuffle, 128-bit lane swap): afterwards `t[j]` lane `r` is what `t[r]`
/// lane `j` was.
///
/// # Safety
/// The CPU must support AVX; only called from the 256-bit arm, into which
/// it inlines.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn transpose8(t: &mut [std::arch::x86_64::__m256; 8]) {
    use std::arch::x86_64::*;
    let u: [__m256; 8] = [
        _mm256_unpacklo_ps(t[0], t[1]),
        _mm256_unpackhi_ps(t[0], t[1]),
        _mm256_unpacklo_ps(t[2], t[3]),
        _mm256_unpackhi_ps(t[2], t[3]),
        _mm256_unpacklo_ps(t[4], t[5]),
        _mm256_unpackhi_ps(t[4], t[5]),
        _mm256_unpacklo_ps(t[6], t[7]),
        _mm256_unpackhi_ps(t[6], t[7]),
    ];
    let s: [__m256; 8] = [
        _mm256_shuffle_ps::<0x44>(u[0], u[2]),
        _mm256_shuffle_ps::<0xEE>(u[0], u[2]),
        _mm256_shuffle_ps::<0x44>(u[1], u[3]),
        _mm256_shuffle_ps::<0xEE>(u[1], u[3]),
        _mm256_shuffle_ps::<0x44>(u[4], u[6]),
        _mm256_shuffle_ps::<0xEE>(u[4], u[6]),
        _mm256_shuffle_ps::<0x44>(u[5], u[7]),
        _mm256_shuffle_ps::<0xEE>(u[5], u[7]),
    ];
    for j in 0..4 {
        t[j] = _mm256_permute2f128_ps::<0x20>(s[j], s[j + 4]);
        t[j + 4] = _mm256_permute2f128_ps::<0x31>(s[j], s[j + 4]);
    }
}

/// Loads the `8 × 8` block at column `k0` — whole, or only the lanes
/// `tail` sets, the rest zero — and transposes it: `t[j]` lane `r` is
/// `w[r][k0 + j]`.
///
/// # Safety
/// The CPU must support AVX2 (only called from the 256-bit arm, into
/// which it inlines); columns `k0..k0 + 8` (or the `tail` lanes) of rows
/// `0..h` must be inside the block at `pw`.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn load_block8<const FULL: bool>(
    pw: *const f32,
    (h, k): (usize, usize),
    k0: usize,
    tail: Option<std::arch::x86_64::__m256i>,
) -> [std::arch::x86_64::__m256; 8] {
    use std::arch::x86_64::*;
    let mut t = [_mm256_setzero_ps(); 8];
    for (r, tr) in t.iter_mut().enumerate() {
        let p = pw.add(row_at::<FULL>(r, h, k) + k0);
        // Masked-off lanes are not accessed.
        *tr = match tail {
            None => _mm256_loadu_ps(p),
            Some(lanes) => _mm256_maskload_ps(p, lanes),
        };
    }
    transpose8(&mut t);
    t
}

/// 256-bit arm: each half of the row block (eight rows, one `ymm` of
/// accumulators) streams its rows in `8 × 8` blocks, transposed in
/// registers — the op sequence of the 512-bit arm, eight rows at a time.
///
/// # Safety
/// The CPU must support AVX2 and FMA3, `1 ≤ h ≤ LANES` and
/// `w.len() == h * x.len()`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn gemv_rows_avx2(w: &[f32], x: &[f32], acc: &mut [f32; LANES], h: usize) {
    const HALF: usize = LANES / 2;
    let k = x.len();
    for (r0, acc) in (0..h).step_by(HALF).zip(acc.chunks_exact_mut(HALF)) {
        let rows = (h - r0).min(HALF);
        let w = &w[r0 * k..][..rows * k];
        if rows == HALF {
            gemv_block8::<true>(w, x, acc, rows)
        } else {
            gemv_block8::<false>(w, x, acc, rows)
        }
    }
}

/// [`gemv_rows_avx2`]'s loop over one half: `acc` is its eight
/// accumulators, `w` its `h ≤ 8` rows.
///
/// # Safety
/// As [`gemv_rows_avx2`], with `acc.len() == 8` and `w.len() == h *
/// x.len()`; inlines into it.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn gemv_block8<const FULL: bool>(w: &[f32], x: &[f32], acc: &mut [f32], h: usize) {
    use std::arch::x86_64::*;
    let k = x.len();
    let (pw, px) = (w.as_ptr(), x.as_ptr());
    let mut c = _mm256_loadu_ps(acc.as_ptr());
    let full = k - k % 8;
    for k0 in (0..full).step_by(8) {
        let t = load_block8::<FULL>(pw, (h, k), k0, None);
        for (j, tj) in t.iter().enumerate() {
            c = _mm256_fmadd_ps(*tj, _mm256_set1_ps(*px.add(k0 + j)), c);
        }
    }
    if full < k {
        let n = k - full;
        let iota = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
        let lanes = _mm256_cmpgt_epi32(_mm256_set1_epi32(n as i32), iota);
        let t = load_block8::<FULL>(pw, (h, k), full, Some(lanes));
        for (j, tj) in t.iter().enumerate().take(n) {
            c = _mm256_fmadd_ps(*tj, _mm256_set1_ps(*px.add(full + j)), c);
        }
    }
    _mm256_storeu_ps(acc.as_mut_ptr(), c);
}

/// An FC weight matrix `[m][k]` quantized to i8 (symmetric, per tensor) and
/// repacked into quad-major row panels for the int8 GEMV kernel: panel `p`
/// of height `h = min(m − p·PANEL_ROWS, PANEL_ROWS)` starts at byte
/// `p · PANEL_ROWS · kq · QK` and stores
/// `data[((qd · h) + r) · QK + l] = qw[p·PANEL_ROWS + r][qd·QK + l]`
/// (`kq = ceil(k/QK)`), zero past `k`.  Carries the
/// weight scale and the per-row +128 correction of [`super::qgemm`]'s
/// unsigned-offset trick.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedLinearFilter {
    m: usize,
    k: usize,
    kq: usize,
    scale: f32,
    data: Vec<i8>,
    row_corr: Vec<i32>,
}

impl QuantizedLinearFilter {
    /// Quantizes and packs a row-major `[m][k]` weight matrix.  The scale
    /// comes from the weight range, so packing the same weights twice
    /// yields identical panels.
    pub fn pack(weights: &[f32], m: usize, k: usize) -> Result<Self> {
        check_weights("quantized linear filter", weights.len(), m, k)?;
        if k > MAX_QUANT_K {
            return Err(TensorError::KernelConfig(format!(
                "quantized linear filter k {k} exceeds the i32 accumulator bound {MAX_QUANT_K}"
            )));
        }
        let scale = quant_scale(weights);
        let kq = k.div_ceil(QK);
        let mut data = vec![0i8; m * kq * QK];
        let mut row_corr = vec![0i32; m];
        let mut codes = [0i8; PACK_KB];
        // PACK_KB is a multiple of QK, so quads never straddle a block.
        for_each_row_block(weights, m, k, |p, h, r, k0, block| {
            let panel = &mut data[p * PANEL_ROWS * kq * QK..][..h * kq * QK];
            let codes = &mut codes[..block.len()];
            quantize_into(block, scale, codes);
            for (qd, quad) in codes.chunks(QK).enumerate() {
                panel[((k0 / QK + qd) * h + r) * QK..][..quad.len()].copy_from_slice(quad);
            }
            let sum: i32 = codes.iter().map(|&q| q as i32).sum();
            row_corr[p * PANEL_ROWS + r] += 128 * sum;
        });
        Ok(Self {
            m,
            k,
            kq,
            scale,
            data,
            row_corr,
        })
    }

    /// Number of output rows (features).
    pub fn m(&self) -> usize {
        self.m
    }

    /// Input length (unquantized element count).
    pub fn k(&self) -> usize {
        self.k
    }

    /// The per-tensor weight scale `s_w`.
    pub fn scale(&self) -> f32 {
        self.scale
    }

    /// Bytes held by the packed panels plus the correction terms.
    pub fn bytes(&self) -> usize {
        self.data.len() + std::mem::size_of_val(self.row_corr.as_slice())
    }

    /// The packed panels, in the layout the type docs give.
    pub fn data(&self) -> &[i8] {
        &self.data
    }

    /// Per-row correction terms `128 · Σ_k qw[r][k]`.
    pub fn row_corr(&self) -> &[i32] {
        &self.row_corr
    }
}

/// Computes `out = act(bias + dequant(Wq·xq))` over a prepacked int8
/// filter: `x` is quantized against `scale_a` (offset bytes, as in
/// [`super::qgemm`]), multiplied in `i32`, and dequantized by the same
/// epilogue expression as the int8 GEMM.
pub(super) fn qgemv_bias_act_into(
    filter: &QuantizedLinearFilter,
    x: &[f32],
    scale_a: f32,
    bias: &[f32],
    act: Activation,
    out: &mut [f32],
) -> Result<()> {
    let (m, kq) = (filter.m, filter.kq);
    check_io("qgemv", m, filter.k, x.len(), bias.len(), out.len())?;
    let arch = qkernel_arch();
    let s = scale_a * filter.scale;
    // Tail-quad bytes past `k` stay at quantized zero; the weights are zero
    // there anyway.
    let mut xq = vec![128u8; kq * QK];
    quantize_into(x, scale_a, &mut xq[..x.len()]);
    out.par_chunks_mut(PANEL_ROWS)
        .enumerate()
        .for_each(|(p, chunk)| {
            let h = panel_height(m, p);
            let r0 = p * PANEL_ROWS;
            let mut acc = [0i32; PANEL_ROWS];
            let panel = &filter.data[r0 * kq * QK..][..h * kq * QK];
            qgemv_panel(arch, panel, &xq, &mut acc, h);
            for (i, dst) in chunk.iter_mut().enumerate() {
                let r = r0 + i;
                *dst = act.apply(bias[r] + ((acc[i] - filter.row_corr[r]) as f32) * s);
            }
        });
    Ok(())
}

/// `acc[r] += Σ_k panel[k][r] · xq[k]` over one int8 panel of height `h`.
fn qgemv_panel(arch: QKernelArch, w: &[i8], xq: &[u8], acc: &mut [i32; PANEL_ROWS], h: usize) {
    match h.div_ceil(LANES) {
        1 => qgemv_panel_n::<1>(arch, w, xq, acc, h),
        2 => qgemv_panel_n::<2>(arch, w, xq, acc, h),
        3 => qgemv_panel_n::<3>(arch, w, xq, acc, h),
        _ => qgemv_panel_n::<4>(arch, w, xq, acc, h),
    }
}

#[inline]
fn qgemv_panel_n<const NV: usize>(
    arch: QKernelArch,
    w: &[i8],
    xq: &[u8],
    acc: &mut [i32; PANEL_ROWS],
    h: usize,
) {
    // The SIMD arms read `w` through raw pointers on the strength of this:
    // vector `v` covers rows `v·LANES..`, and only rows `< h` are loaded.
    assert!(
        h.div_ceil(LANES) == NV && w.len() == xq.len() * h,
        "qgemv panel size"
    );
    match arch {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `qkernel_arch()` clamps to CPUID-detected capability, so
        // the target features are present; the panel length was asserted.
        QKernelArch::Vnni => unsafe { qgemv_panel_vnni::<NV>(w, xq, acc, h) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above.
        QKernelArch::Avx2 => unsafe { qgemv_panel_avx2::<NV>(w, xq, acc, h) },
        _ => qgemv_panel_scalar(w, xq, acc, h),
    }
}

/// Portable int8 arm.
fn qgemv_panel_scalar(w: &[i8], xq: &[u8], acc: &mut [i32; PANEL_ROWS], h: usize) {
    let acc = &mut acc[..h];
    for (wq, xv) in w.chunks_exact(h * QK).zip(xq.chunks_exact(QK)) {
        for (a, wr) in acc.iter_mut().zip(wq.chunks_exact(QK)) {
            for l in 0..QK {
                *a += (xv[l] as i32) * (wr[l] as i32);
            }
        }
    }
}

/// 512-bit VNNI arm: one `vpdpbusd` per [`LANES`] rows per quad — exact
/// u8×i8 products summed into `i32` lanes without saturation.
///
/// # Safety
/// The CPU must support AVX-512F + AVX-512 VNNI,
/// `h.div_ceil(LANES) == NV` and `w.len() == xq.len() * h`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vnni")]
unsafe fn qgemv_panel_vnni<const NV: usize>(
    w: &[i8],
    xq: &[u8],
    acc: &mut [i32; PANEL_ROWS],
    h: usize,
) {
    use std::arch::x86_64::*;
    let cp = acc.as_mut_ptr();
    let mut c = [_mm512_setzero_si512(); NV];
    // One row per 32-bit lane: a short last vector loads its rows only.
    let mut rows: [__mmask16; NV] = [!0; NV];
    rows[NV - 1] = (((1u32 << (h - (NV - 1) * LANES)) - 1) & 0xffff) as __mmask16;
    for (v, cv) in c.iter_mut().enumerate() {
        *cv = _mm512_loadu_si512(cp.add(v * LANES) as *const __m512i);
    }
    let mut pw = w.as_ptr();
    for quad in xq.chunks_exact(QK) {
        let xv = _mm512_set1_epi32(i32::from_ne_bytes([quad[0], quad[1], quad[2], quad[3]]));
        for (v, cv) in c.iter_mut().enumerate() {
            // Masked-off lanes are not accessed.
            let wv = _mm512_maskz_loadu_epi32(rows[v], pw.add(v * LANES * QK) as *const i32);
            *cv = _mm512_dpbusd_epi32(*cv, xv, wv);
        }
        pw = pw.add(h * QK);
    }
    for (v, cv) in c.iter().enumerate() {
        _mm512_storeu_si512(cp.add(v * LANES) as *mut __m512i, *cv);
    }
}

/// 256-bit int8 arm.  `vpmaddubsw` would saturate, so each quad byte is
/// sign-extended into its own 32-bit lane (shift up, arithmetic shift down)
/// and multiplied exactly with `vpmulld` against the broadcast activation
/// byte — every product and sum stays in `i32`.
///
/// # Safety
/// The CPU must support AVX2, `h.div_ceil(LANES) == NV` and
/// `w.len() == xq.len() * h`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn qgemv_panel_avx2<const NV: usize>(
    w: &[i8],
    xq: &[u8],
    acc: &mut [i32; PANEL_ROWS],
    h: usize,
) {
    use std::arch::x86_64::*;
    let cp = acc.as_mut_ptr();
    // Two ymm accumulators per LANES rows; each loads its rows `< h` only
    // (a half past `h` loads nothing, from its vector's first row).
    let mut c = [[_mm256_setzero_si256(); 2]; NV];
    let iota = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    let mut rows = [[iota; 2]; NV];
    let mut whole = [[true; 2]; NV];
    let mut at = [[0usize; 2]; NV];
    for v in 0..NV {
        for half in 0..2 {
            let r0 = v * LANES + half * 8;
            let left = h.saturating_sub(r0).min(8);
            rows[v][half] = _mm256_cmpgt_epi32(_mm256_set1_epi32(left as i32), iota);
            whole[v][half] = left == 8;
            at[v][half] = if left > 0 { r0 * QK } else { v * LANES * QK };
        }
    }
    for (v, cv) in c.iter_mut().enumerate() {
        for (half, ch) in cv.iter_mut().enumerate() {
            *ch = _mm256_loadu_si256(cp.add(v * LANES + half * 8) as *const __m256i);
        }
    }
    let mut pw = w.as_ptr();
    for quad in xq.chunks_exact(QK) {
        let x0 = _mm256_set1_epi32(quad[0] as i32);
        let x1 = _mm256_set1_epi32(quad[1] as i32);
        let x2 = _mm256_set1_epi32(quad[2] as i32);
        let x3 = _mm256_set1_epi32(quad[3] as i32);
        for (v, cv) in c.iter_mut().enumerate() {
            for (half, ch) in cv.iter_mut().enumerate() {
                // Each 32-bit lane holds one row's four weight bytes; a
                // short half loads its rows only (masked-off lanes are not
                // accessed).
                let p = pw.add(at[v][half]);
                let wv = if whole[v][half] {
                    _mm256_loadu_si256(p as *const __m256i)
                } else {
                    _mm256_maskload_epi32(p as *const i32, rows[v][half])
                };
                let w0 = _mm256_srai_epi32::<24>(_mm256_slli_epi32::<24>(wv));
                let w1 = _mm256_srai_epi32::<24>(_mm256_slli_epi32::<16>(wv));
                let w2 = _mm256_srai_epi32::<24>(_mm256_slli_epi32::<8>(wv));
                let w3 = _mm256_srai_epi32::<24>(wv);
                *ch = _mm256_add_epi32(*ch, _mm256_mullo_epi32(w0, x0));
                *ch = _mm256_add_epi32(*ch, _mm256_mullo_epi32(w1, x1));
                *ch = _mm256_add_epi32(*ch, _mm256_mullo_epi32(w2, x2));
                *ch = _mm256_add_epi32(*ch, _mm256_mullo_epi32(w3, x3));
            }
        }
        pw = pw.add(h * QK);
    }
    for (v, cv) in c.iter().enumerate() {
        for (half, ch) in cv.iter().enumerate() {
            _mm256_storeu_si256(cp.add(v * LANES + half * 8) as *mut __m256i, *ch);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int8_panels_hold_exactly_their_rows() {
        assert_eq!(panel_height(10, 0), 10);
        assert_eq!(panel_height(64, 0), PANEL_ROWS);
        assert_eq!(panel_height(65, 0), PANEL_ROWS);
        assert_eq!(panel_height(65, 1), 1);
        assert_eq!(panel_height(1000, 15), 40);
        let small = QuantizedLinearFilter::pack(&[1.0; 10 * 64], 10, 64).unwrap();
        assert_eq!(small.data().len(), 10 * 64, "no padding rows");
    }

    #[test]
    fn f32_filter_is_the_callers_row_major_storage() {
        let (m, k) = (PANEL_ROWS + 3, 5);
        let w: Arc<[f32]> = (0..m * k).map(|i| i as f32).collect();
        let filter = PackedLinearFilter::shared(Arc::clone(&w), m, k).unwrap();
        assert_eq!(filter.data().as_ptr(), w.as_ptr(), "no copy");
        assert_eq!(filter.bytes(), m * k * 4, "no padding");
        assert_eq!(
            filter.data()[(PANEL_ROWS + 2) * k + 1],
            w[(PANEL_ROWS + 2) * k + 1]
        );
    }

    #[test]
    fn rejects_mismatched_buffers() {
        assert!(PackedLinearFilter::shared(Arc::from([0.0; 5]), 2, 3).is_err());
        assert!(QuantizedLinearFilter::pack(&[0.0; 5], 2, 3).is_err());
        let k = MAX_QUANT_K + 1;
        assert!(QuantizedLinearFilter::pack(&vec![0.0; k], 1, k).is_err());
        let f = PackedLinearFilter::shared(Arc::from([1.0; 6]), 2, 3).unwrap();
        let mut out = [0.0f32; 2];
        let none = Activation::None;
        assert!(gemv_bias_act_into(&f, &[0.0; 2], &[0.0; 2], none, &mut out).is_err());
        assert!(gemv_bias_act_into(&f, &[0.0; 3], &[0.0; 1], none, &mut out).is_err());
        assert!(gemv_bias_act_into(&f, &[0.0; 3], &[0.0; 2], none, &mut out[..1]).is_err());
        let q = QuantizedLinearFilter::pack(&[1.0; 6], 2, 3).unwrap();
        assert!(qgemv_bias_act_into(&q, &[0.0; 2], 1.0, &[0.0; 2], none, &mut out).is_err());
    }
}
