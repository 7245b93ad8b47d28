//! Row-vectorised GEMV kernels (f32 and int8) — the compute core of the
//! fully-connected layers.
//!
//! An FC layer is `out[r] = act(bias[r] + Σ_k W[r][k] · x[k])`: every weight
//! is read exactly once per frame, so the layer runs at the speed the weight
//! matrix streams from memory, not at a FLOP rate.  The GEMM micro-kernels
//! ([`super::gemm`], [`super::qgemm`]) vectorise across *output columns*; an
//! `n = 1` product fills one of their [`super::gemm::NR`] lanes and throws
//! the rest away.  The kernels here vectorise across *output rows* instead:
//! weights are packed at deploy into tall k-major row panels
//! ([`PackedLinearFilter`], [`QuantizedLinearFilter`]), and each step
//! broadcasts one `x[k]` and does one load + fused multiply-add per
//! [`LANES`] weights, with a whole panel's accumulators held in registers.
//!
//! **Panels.**  Rows are padded to a multiple of [`LANES`] and cut into
//! panels of [`PANEL_ROWS`]; only the last panel can be shorter, so a small
//! head (ten classes) pays for sixteen rows, not sixty-four.  Panel `p` of
//! height `h` starts at `p · PANEL_ROWS · k` and stores
//! `data[(kk · h) + r] = W[p·PANEL_ROWS + r][kk]`; the int8 layout is the same
//! with [`QK`]-byte quads in place of floats.  Padding rows are zero.
//!
//! **Numerical contract.**  The f32 kernels keep [`super::gemm`]'s contract
//! (stated in [`super`]) bit for bit: one accumulator per output,
//! initialised from the bias, `k` ascending, each step one fused
//! multiply-add, on every dispatch arm — so an FC output is the same bits
//! the `n = 1` GEMM path produces, on any machine.  The int8 kernels accumulate the same
//! exact `i32` sums as [`super::qgemm`] and apply its one epilogue
//! expression.  Row panels are independent, so splitting them across rayon
//! tasks changes nothing.

use super::activation::Activation;
#[cfg(target_arch = "x86_64")]
use super::dispatch::hw_fma;
use super::dispatch::{kernel_arch, qkernel_arch, KernelArch, QKernelArch};
use super::qgemm::{quant_scale, quantize_into, MAX_QUANT_K, QK};
use crate::error::TensorError;
use crate::Result;
use rayon::prelude::*;

/// Rows per vector step: one 512-bit register of f32 / i32 accumulators.
/// Panel heights are multiples of this.
pub const LANES: usize = 16;
/// Rows per full panel: four 512-bit (eight 256-bit) accumulators.
pub const PANEL_ROWS: usize = 4 * LANES;
/// K block of the transposing pack: one block of a panel
/// (`PACK_KB × PANEL_ROWS` floats, 16 KiB) stays L1-resident while its rows
/// are scattered into it, so packing streams source and destination once
/// each.  (Unblocked, every row of a 25088-wide panel re-walks 6 MiB of
/// destination lines; at 256 the block falls out of L1 and packing takes
/// 1.6× as long.)
const PACK_KB: usize = 64;

/// Height of panel `p` of an `m`-row matrix.
#[inline]
fn panel_height(m: usize, p: usize) -> usize {
    (m.next_multiple_of(LANES) - p * PANEL_ROWS).min(PANEL_ROWS)
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
        let rows = (m - p * PANEL_ROWS).min(PANEL_ROWS);
        for k0 in (0..k).step_by(PACK_KB) {
            let k1 = (k0 + PACK_KB).min(k);
            for r in 0..rows {
                let row = (p * PANEL_ROWS + r) * k;
                visit(p, h, r, k0, &weights[row + k0..row + k1]);
            }
        }
    }
}

/// An FC weight matrix `[m][k]` repacked into the k-major row panels the
/// f32 GEMV kernel streams (see the module docs for the layout).
///
/// Packing is pure data movement, so a product over the packed filter is
/// bit-identical to one over the source matrix in the same op order.
#[derive(Debug, Clone, PartialEq)]
pub struct PackedLinearFilter {
    m: usize,
    k: usize,
    data: Vec<f32>,
}

impl PackedLinearFilter {
    /// Packs a row-major `[m][k]` weight matrix into GEMV panels.
    pub fn pack(weights: &[f32], m: usize, k: usize) -> Result<Self> {
        check_weights("packed linear filter", weights.len(), m, k)?;
        let mut data = vec![0.0f32; m.next_multiple_of(LANES) * k];
        for_each_row_block(weights, m, k, |p, h, r, k0, block| {
            let panel = &mut data[p * PANEL_ROWS * k..][..h * k];
            for (kk, &v) in block.iter().enumerate() {
                panel[(k0 + kk) * h + r] = v;
            }
        });
        Ok(Self { m, k, data })
    }

    /// Number of output rows (features).
    pub fn m(&self) -> usize {
        self.m
    }

    /// Input length.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Bytes held by the packed panels (including row padding).
    pub fn bytes(&self) -> usize {
        std::mem::size_of_val(self.data.as_slice())
    }

    /// The packed panels, in the layout the module docs give.
    pub fn data(&self) -> &[f32] {
        &self.data
    }
}

/// Computes `out = act(bias + W·x)` over a prepacked f32 filter.
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
    out.par_chunks_mut(PANEL_ROWS)
        .enumerate()
        .for_each(|(p, chunk)| {
            let h = panel_height(m, p);
            let r0 = p * PANEL_ROWS;
            let mut acc = [0.0f32; PANEL_ROWS];
            acc[..chunk.len()].copy_from_slice(&bias[r0..r0 + chunk.len()]);
            gemv_panel(arch, &filter.data[r0 * k..][..h * k], x, &mut acc, h);
            for (dst, v) in chunk.iter_mut().zip(acc) {
                *dst = act.apply(v);
            }
        });
    Ok(())
}

/// `acc[r] += Σ_k panel[k][r] · x[k]` over one panel of height `h`, `k`
/// ascending, on the given arm.
fn gemv_panel(arch: KernelArch, w: &[f32], x: &[f32], acc: &mut [f32; PANEL_ROWS], h: usize) {
    match h / LANES {
        1 => gemv_panel_n::<1>(arch, w, x, acc),
        2 => gemv_panel_n::<2>(arch, w, x, acc),
        3 => gemv_panel_n::<3>(arch, w, x, acc),
        _ => gemv_panel_n::<4>(arch, w, x, acc),
    }
}

#[inline]
fn gemv_panel_n<const NV: usize>(
    arch: KernelArch,
    w: &[f32],
    x: &[f32],
    acc: &mut [f32; PANEL_ROWS],
) {
    // The SIMD arms read `w` through raw pointers on the strength of this.
    assert_eq!(w.len(), x.len() * NV * LANES, "gemv panel size");
    match arch {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `kernel_arch()` clamps to CPUID-detected capability, so
        // the target features are present; the panel length was asserted.
        KernelArch::Avx512 => unsafe { gemv_panel_avx512::<NV>(w, x, acc) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above.
        KernelArch::Avx2 => unsafe { gemv_panel_avx2::<NV>(w, x, acc) },
        _ => gemv_panel_scalar::<NV>(w, x, acc),
    }
}

/// Portable arm: runs the copy of its loop compiled with hardware FMA
/// where the CPU has it (see [`super::dispatch`]).
fn gemv_panel_scalar<const NV: usize>(w: &[f32], x: &[f32], acc: &mut [f32; PANEL_ROWS]) {
    #[cfg(target_arch = "x86_64")]
    if hw_fma() {
        // SAFETY: CPUID reports FMA3.
        return unsafe { gemv_panel_scalar_fma::<NV>(w, x, acc) };
    }
    gemv_panel_scalar_loop::<NV>(w, x, acc)
}

/// The scalar loop: a lane loop over independent rows, which the compiler
/// may vectorise without touching the `k` order.
#[inline(always)]
fn gemv_panel_scalar_loop<const NV: usize>(w: &[f32], x: &[f32], acc: &mut [f32; PANEL_ROWS]) {
    let acc = &mut acc[..NV * LANES];
    for (wk, &xk) in w.chunks_exact(NV * LANES).zip(x) {
        for (a, &wv) in acc.iter_mut().zip(wk) {
            *a = wv.mul_add(xk, *a);
        }
    }
}

/// [`gemv_panel_scalar_loop`] compiled with `vfmadd` available.
///
/// # Safety
/// The CPU must support FMA3.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "fma")]
unsafe fn gemv_panel_scalar_fma<const NV: usize>(
    w: &[f32],
    x: &[f32],
    acc: &mut [f32; PANEL_ROWS],
) {
    gemv_panel_scalar_loop::<NV>(w, x, acc)
}

/// 512-bit arm: `NV` `zmm` accumulators, one broadcast, `NV` loads and `NV`
/// fused multiply-adds per `k`.
///
/// # Safety
/// The CPU must support AVX-512F and `w.len() == x.len() * NV * LANES`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn gemv_panel_avx512<const NV: usize>(w: &[f32], x: &[f32], acc: &mut [f32; PANEL_ROWS]) {
    use std::arch::x86_64::*;
    let cp = acc.as_mut_ptr();
    let mut c = [_mm512_setzero_ps(); NV];
    for (v, cv) in c.iter_mut().enumerate() {
        *cv = _mm512_loadu_ps(cp.add(v * LANES));
    }
    let mut pw = w.as_ptr();
    for &xk in x {
        let xv = _mm512_set1_ps(xk);
        for (v, cv) in c.iter_mut().enumerate() {
            let wv = _mm512_loadu_ps(pw.add(v * LANES));
            *cv = _mm512_fmadd_ps(wv, xv, *cv);
        }
        pw = pw.add(NV * LANES);
    }
    for (v, cv) in c.iter().enumerate() {
        _mm512_storeu_ps(cp.add(v * LANES), *cv);
    }
}

/// 256-bit arm: `2·NV` `ymm` accumulators, same op sequence.
///
/// # Safety
/// The CPU must support AVX2 and FMA3, and
/// `w.len() == x.len() * NV * LANES`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn gemv_panel_avx2<const NV: usize>(w: &[f32], x: &[f32], acc: &mut [f32; PANEL_ROWS]) {
    use std::arch::x86_64::*;
    let cp = acc.as_mut_ptr();
    let mut lo = [_mm256_setzero_ps(); NV];
    let mut hi = [_mm256_setzero_ps(); NV];
    for v in 0..NV {
        lo[v] = _mm256_loadu_ps(cp.add(v * LANES));
        hi[v] = _mm256_loadu_ps(cp.add(v * LANES + 8));
    }
    let mut pw = w.as_ptr();
    for &xk in x {
        let xv = _mm256_set1_ps(xk);
        for v in 0..NV {
            let w0 = _mm256_loadu_ps(pw.add(v * LANES));
            let w1 = _mm256_loadu_ps(pw.add(v * LANES + 8));
            lo[v] = _mm256_fmadd_ps(w0, xv, lo[v]);
            hi[v] = _mm256_fmadd_ps(w1, xv, hi[v]);
        }
        pw = pw.add(NV * LANES);
    }
    for v in 0..NV {
        _mm256_storeu_ps(cp.add(v * LANES), lo[v]);
        _mm256_storeu_ps(cp.add(v * LANES + 8), hi[v]);
    }
}

/// An FC weight matrix `[m][k]` quantized to i8 (symmetric, per tensor) and
/// repacked into quad-major row panels for the int8 GEMV kernel: panel `p`
/// of height `h` starts at byte `p · PANEL_ROWS · kq · QK` and stores
/// `data[((qd · h) + r) · QK + l] = qw[p·PANEL_ROWS + r][qd·QK + l]`
/// (`kq = ceil(k/QK)`), zero past `k` and past the row edge.  Carries the
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
        let mut data = vec![0i8; m.next_multiple_of(LANES) * kq * QK];
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
    match h / LANES {
        1 => qgemv_panel_n::<1>(arch, w, xq, acc),
        2 => qgemv_panel_n::<2>(arch, w, xq, acc),
        3 => qgemv_panel_n::<3>(arch, w, xq, acc),
        _ => qgemv_panel_n::<4>(arch, w, xq, acc),
    }
}

#[inline]
fn qgemv_panel_n<const NV: usize>(
    arch: QKernelArch,
    w: &[i8],
    xq: &[u8],
    acc: &mut [i32; PANEL_ROWS],
) {
    // The SIMD arms read `w` through raw pointers on the strength of this.
    assert_eq!(w.len(), xq.len() * NV * LANES, "qgemv panel size");
    match arch {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `qkernel_arch()` clamps to CPUID-detected capability, so
        // the target features are present; the panel length was asserted.
        QKernelArch::Vnni => unsafe { qgemv_panel_vnni::<NV>(w, xq, acc) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above.
        QKernelArch::Avx2 => unsafe { qgemv_panel_avx2::<NV>(w, xq, acc) },
        _ => qgemv_panel_scalar::<NV>(w, xq, acc),
    }
}

/// Portable int8 arm.
fn qgemv_panel_scalar<const NV: usize>(w: &[i8], xq: &[u8], acc: &mut [i32; PANEL_ROWS]) {
    let acc = &mut acc[..NV * LANES];
    for (wq, xv) in w.chunks_exact(NV * LANES * QK).zip(xq.chunks_exact(QK)) {
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
/// The CPU must support AVX-512F + AVX-512 VNNI and
/// `w.len() == xq.len() * NV * LANES`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vnni")]
unsafe fn qgemv_panel_vnni<const NV: usize>(w: &[i8], xq: &[u8], acc: &mut [i32; PANEL_ROWS]) {
    use std::arch::x86_64::*;
    let cp = acc.as_mut_ptr();
    let mut c = [_mm512_setzero_si512(); NV];
    for (v, cv) in c.iter_mut().enumerate() {
        *cv = _mm512_loadu_si512(cp.add(v * LANES) as *const __m512i);
    }
    let mut pw = w.as_ptr();
    for quad in xq.chunks_exact(QK) {
        let xv = _mm512_set1_epi32(i32::from_ne_bytes([quad[0], quad[1], quad[2], quad[3]]));
        for (v, cv) in c.iter_mut().enumerate() {
            let wv = _mm512_loadu_si512(pw.add(v * LANES * QK) as *const __m512i);
            *cv = _mm512_dpbusd_epi32(*cv, xv, wv);
        }
        pw = pw.add(NV * LANES * QK);
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
/// The CPU must support AVX2 and `w.len() == xq.len() * NV * LANES`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn qgemv_panel_avx2<const NV: usize>(w: &[i8], xq: &[u8], acc: &mut [i32; PANEL_ROWS]) {
    use std::arch::x86_64::*;
    let cp = acc.as_mut_ptr();
    // Two ymm accumulators per LANES rows.
    let mut c = [[_mm256_setzero_si256(); 2]; NV];
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
                // Each 32-bit lane holds one row's four weight bytes.
                let wv = _mm256_loadu_si256(pw.add((v * LANES + half * 8) * QK) as *const __m256i);
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
        pw = pw.add(NV * LANES * QK);
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
    fn panel_heights_pad_to_lanes_not_to_a_full_panel() {
        assert_eq!(panel_height(10, 0), LANES);
        assert_eq!(panel_height(64, 0), PANEL_ROWS);
        assert_eq!(panel_height(65, 0), PANEL_ROWS);
        assert_eq!(panel_height(65, 1), LANES);
        assert_eq!(panel_height(1000, 15), 48);
        let small = PackedLinearFilter::pack(&[1.0; 10 * 64], 10, 64).unwrap();
        assert_eq!(small.bytes(), LANES * 64 * 4);
    }

    #[test]
    fn f32_layout_matches_the_documented_formula() {
        let (m, k) = (PANEL_ROWS + 3, 5);
        let w: Vec<f32> = (0..m * k).map(|i| i as f32).collect();
        let packed = PackedLinearFilter::pack(&w, m, k).unwrap();
        let d = packed.data();
        assert_eq!(d.len(), (PANEL_ROWS + LANES) * k);
        assert_eq!(d[0], w[0]); // row 0, k 0
        assert_eq!(d[1], w[k]); // row 1, k 0
        assert_eq!(d[PANEL_ROWS], w[1]); // row 0, k 1
        let tail = &d[PANEL_ROWS * k..];
        assert_eq!(tail[0], w[PANEL_ROWS * k]); // row 64, k 0
        assert_eq!(tail[LANES + 2], w[(PANEL_ROWS + 2) * k + 1]); // row 66, k 1
        assert_eq!(tail[3], 0.0); // padding row
    }

    #[test]
    fn rejects_mismatched_buffers() {
        assert!(PackedLinearFilter::pack(&[0.0; 5], 2, 3).is_err());
        assert!(QuantizedLinearFilter::pack(&[0.0; 5], 2, 3).is_err());
        let k = MAX_QUANT_K + 1;
        assert!(QuantizedLinearFilter::pack(&vec![0.0; k], 1, k).is_err());
        let f = PackedLinearFilter::pack(&[1.0; 6], 2, 3).unwrap();
        let mut out = [0.0f32; 2];
        let none = Activation::None;
        assert!(gemv_bias_act_into(&f, &[0.0; 2], &[0.0; 2], none, &mut out).is_err());
        assert!(gemv_bias_act_into(&f, &[0.0; 3], &[0.0; 1], none, &mut out).is_err());
        assert!(gemv_bias_act_into(&f, &[0.0; 3], &[0.0; 2], none, &mut out[..1]).is_err());
        let q = QuantizedLinearFilter::pack(&[1.0; 6], 2, 3).unwrap();
        assert!(qgemv_bias_act_into(&q, &[0.0; 2], 1.0, &[0.0; 2], none, &mut out).is_err());
    }
}
