//! Int8 quantized GEMM with fused dequantize + bias + activation — the
//! compute core of the quantized convolution path.  Quantized linear layers
//! run on the int8 GEMV kernel in [`super::gemv`], which shares this
//! module's quantization scheme and epilogue.
//!
//! The kernel computes
//! `C[r][j] = act(bias[r] + (Σ_k qa[k][j] · qw[r][k]) · s_a · s_w)`
//! over symmetric per-tensor quantizations `qw = round(w / s_w)` and
//! `qa = round(a / s_a)`, both clamped to `[-127, 127]`.  The weight side
//! is prepacked into [`QuantizedFilter`] panels at deploy time; the
//! activation side is produced on the fly by a [`QPanelFill`] — the im2col
//! lowering for convolutions.
//!
//! **One quantizer.**  Every activation on a serving path — a conv band,
//! an FC input, a q8 wire frame — is quantized exactly once, by
//! `quantize_into`, which returns what the per-element [`quantize_i8`] /
//! [`quant_byte`] return and is compiled per int8 arm so the AVX2 and VNNI
//! arms run it as vector code.  The conv's panel fill then only moves the
//! bytes; the weight packers use the same quantizer.
//!
//! **Unsigned-offset trick.**  The AVX-512 VNNI instruction (`vpdpbusd`)
//! multiplies *unsigned* bytes by signed bytes, so activations are stored
//! offset by +128 (`byte = qa + 128 ∈ [1, 255]`, quantized zero = 128) and
//! the panels are pre-filled with 128 so zero padding costs nothing.  The
//! offset is removed per output row by a pack-time correction term:
//!
//! `Σ (qa+128)·qw = Σ qa·qw + 128·Σ qw`, so `Σ qa·qw = acc − row_corr[r]`
//! with `row_corr[r] = 128·Σ_k qw[r][k]`.
//!
//! **Exactness.**  Every arm accumulates the same products in `i32` —
//! integer addition is associative, so arms are bit-exact against each
//! other *by construction* (the f32 GEMM had to pin its op order to get
//! this).  The worst-case magnitude `255·127·k` stays below `i32::MAX` for
//! `k ≤ 66 000`, enforced at pack time; `vpdpbusd` accumulates into 32-bit
//! lanes without saturation, and the AVX2 arm widens each byte product to
//! 32 bits before adding, so no arm can saturate or wrap.  The f32
//! epilogue `act(bias + (acc − corr) · s_a·s_w)` is one identical
//! expression in every path, so banded outputs stitch bit-exactly — the
//! property the distributed runtime relies on.
//!
//! The blocking, the parallel tiles, the buffers and the K-slice loop are
//! the one driver of [`super::gemm`], which runs this format as it runs
//! f32: B bytes pre-filled with `128`, `i32` accumulators started at `0`,
//! the register tile `qmicrokernel`, and the epilogue above per output
//! row.  K runs in quads of [`QK`] bytes (the dot-product granularity), and
//! [`super::gemm::KC`] is a multiple of 4 so quads never straddle a K
//! slice.

use super::activation::Activation;
use super::dispatch::{qkernel_arch, QKernelArch};
use super::gemm::{drive_into, drive_new, AccTile, BTile, Format, Operand, MR, NR};
use crate::error::TensorError;
use crate::Result;
use std::mem::MaybeUninit;
use std::ops::Range;

/// Bytes per dot-product quad — the K granularity of every int8 arm.
pub const QK: usize = 4;

/// Largest shared-dimension length the int8 path accepts: beyond this the
/// worst-case accumulator `255·127·k` could exceed `i32::MAX`.
pub const MAX_QUANT_K: usize = 66_000;

/// The symmetric quantization scale for a tensor: `max|x| / 127`, or `1.0`
/// for an all-zero tensor (any scale reproduces zeros).
pub fn quant_scale(data: &[f32]) -> f32 {
    let max_abs = data.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
    if max_abs == 0.0 {
        1.0
    } else {
        max_abs / 127.0
    }
}

/// Quantizes one value: `round(x / scale)` clamped to `[-127, 127]`.
#[inline]
pub fn quantize_i8(x: f32, scale: f32) -> i8 {
    (x / scale).round().clamp(-127.0, 127.0) as i8
}

/// The unsigned panel byte for one activation value: `quantize + 128`.
/// Quantized zero is byte `128` — what panel buffers are pre-filled with.
#[inline]
pub fn quant_byte(x: f32, scale: f32) -> u8 {
    (quantize_i8(x, scale) as i32 + 128) as u8
}

/// [`quantize_i8`] in the form that vectorises, as the bits of an f32
/// whose low byte is the i8 code.  The rounded, clamped value is an integer
/// in `[-127, 127]`, or NaN, which codes as `0` as the saturating `as i8`
/// cast does; adding `1.5·2²³` puts that integer exactly into the low
/// mantissa bits (the f32 ulp there is 1), so the conversion is a bit
/// reinterpretation instead of a saturating cast, which compilers leave
/// scalar.
#[inline(always)]
fn code_bits(x: f32, scale: f32) -> u32 {
    let q = (x / scale).round().clamp(-127.0, 127.0);
    (if q.is_nan() { 0.0 } else { q } + 12_582_912.0).to_bits()
}

/// A quantized code [`quantize_into`] can write: an i8 code
/// ([`quantize_i8`]) or an offset panel byte ([`quant_byte`]).
pub(crate) trait QuantCode: Copy {
    /// The code of one value — what the per-element function returns.
    fn quantize(x: f32, scale: f32) -> Self;
}

impl QuantCode for i8 {
    #[inline(always)]
    fn quantize(x: f32, scale: f32) -> Self {
        code_bits(x, scale) as i8
    }
}

impl QuantCode for u8 {
    /// The code's byte with its sign bit flipped: `q + 128`.
    #[inline(always)]
    fn quantize(x: f32, scale: f32) -> Self {
        code_bits(x, scale) as u8 ^ 0x80
    }
}

/// Quantizes `src` into `dst` against `scale`, element for element what
/// [`quantize_i8`] / [`quant_byte`] return — the one activation quantizer
/// of the int8 path.  The loop is compiled once per int8 arm: under the
/// AVX2 / VNNI arms' target features `round` is inlined (SSE4.1 truncation)
/// and the whole loop vectorises, where the baseline target calls `roundf`
/// per element.  Division stays a division, so every arm returns the same
/// bytes.
///
/// # Panics
/// If the slices differ in length.
pub(crate) fn quantize_into<T: QuantCode>(src: &[f32], scale: f32, dst: &mut [T]) {
    assert_eq!(src.len(), dst.len(), "quantizer slice lengths");
    match qkernel_arch() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `qkernel_arch()` offers the VNNI arm only where CPUID
        // reports AVX-512F.
        QKernelArch::Vnni => unsafe { quantize_avx512(src, scale, dst) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `qkernel_arch()` offers the AVX2 arm only where CPUID
        // reports AVX2.
        QKernelArch::Avx2 => unsafe { quantize_avx2(src, scale, dst) },
        _ => quantize_plain(src, scale, dst),
    }
}

#[inline(always)]
fn quantize_plain<T: QuantCode>(src: &[f32], scale: f32, dst: &mut [T]) {
    for (d, &x) in dst.iter_mut().zip(src) {
        *d = T::quantize(x, scale);
    }
}

/// [`quantize_plain`] compiled for the AVX2 arm.
///
/// # Safety
/// Caller must ensure the CPU supports AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn quantize_avx2<T: QuantCode>(src: &[f32], scale: f32, dst: &mut [T]) {
    quantize_plain(src, scale, dst)
}

/// [`quantize_plain`] compiled for the VNNI arm.
///
/// # Safety
/// Caller must ensure the CPU supports AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn quantize_avx512<T: QuantCode>(src: &[f32], scale: f32, dst: &mut [T]) {
    quantize_plain(src, scale, dst)
}

/// Quantizes a slice against a given scale.
pub fn quantize_slice(src: &[f32], scale: f32) -> Vec<i8> {
    let mut out = vec![0i8; src.len()];
    quantize_into(src, scale, &mut out);
    out
}

/// A weight matrix `[m][k]` quantized to i8 and repacked into `MR`-row,
/// quad-major panels for the int8 micro-kernel: panel `p` holds rows
/// `p*MR ..`, with `data[((p*kq + qd)*MR + r)*QK + l] = qw[p*MR+r][qd*QK+l]`
/// (`kq = ceil(k/QK)`), zero-padded past `k` and past the row edge so the
/// kernel never branches.  Carries the per-tensor weight scale and the
/// per-row +128 correction term alongside.
///
/// ~4× smaller than the f32 [`super::gemm::PackedFilter`] over the same
/// weights — the resident-memory half of the quantization win.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedFilter {
    m: usize,
    k: usize,
    kq: usize,
    scale: f32,
    data: Vec<i8>,
    row_corr: Vec<i32>,
}

impl QuantizedFilter {
    /// Quantizes and packs a row-major `[m][k]` weight matrix.  The scale
    /// is computed here, from the weight range — packing the same weights
    /// twice yields identical panels.
    pub fn pack(weights: &[f32], m: usize, k: usize) -> Result<Self> {
        if weights.len() != m * k {
            return Err(TensorError::KernelConfig(format!(
                "quantized filter expects {m}x{k} = {} weights, got {}",
                m * k,
                weights.len()
            )));
        }
        if k > MAX_QUANT_K {
            return Err(TensorError::KernelConfig(format!(
                "quantized filter k {k} exceeds the i32 accumulator bound {MAX_QUANT_K}"
            )));
        }
        let scale = quant_scale(weights);
        let panels = m.div_ceil(MR);
        let kq = k.div_ceil(QK);
        let mut data = vec![0i8; panels * kq * MR * QK];
        let mut row_corr = vec![0i32; m];
        let mut codes = vec![0i8; k];
        for p in 0..panels {
            let rows = (m - p * MR).min(MR);
            let base = p * kq * MR * QK;
            for r in 0..rows {
                quantize_into(&weights[(p * MR + r) * k..][..k], scale, &mut codes);
                for (qd, quad) in codes.chunks(QK).enumerate() {
                    data[base + (qd * MR + r) * QK..][..quad.len()].copy_from_slice(quad);
                }
                row_corr[p * MR + r] = 128 * codes.iter().map(|&q| q as i32).sum::<i32>();
            }
        }
        Ok(Self {
            m,
            k,
            kq,
            scale,
            data,
            row_corr,
        })
    }

    /// Number of output rows (channels / features).
    pub fn m(&self) -> usize {
        self.m
    }

    /// Shared dimension length (unquantized element count).
    pub fn k(&self) -> usize {
        self.k
    }

    /// The per-tensor weight scale `s_w`.
    pub fn scale(&self) -> f32 {
        self.scale
    }

    /// Bytes held by the packed panels plus the correction terms.
    pub fn bytes(&self) -> usize {
        self.data.len() + self.row_corr.len() * std::mem::size_of::<i32>()
    }

    /// The packed panel of rows `p*MR ..`, restricted to quads
    /// `[qd0, qd1)`: a contiguous `(qd1-qd0) × MR × QK` byte block.
    #[inline]
    fn panel(&self, p: usize, qd0: usize, qd1: usize) -> &[i8] {
        let base = p * self.kq * MR * QK;
        &self.data[base + qd0 * MR * QK..base + qd1 * MR * QK]
    }
}

/// A quantized B-panel filler: `fill(k0, k1, j0, j1, buf)` writes offset
/// activation bytes ([`quant_byte`]) for k rows `[k0, k1)` and output columns
/// `[j0, j1)` into `buf`, laid out in `NR`-column, quad-major panels:
/// `buf[((q*kcq + qd)*NR + jj)*QK + l]` holds `B[k0 + qd*QK + l][j0 + q*NR + jj]`
/// with `kcq = ceil((k1-k0)/QK)`.  `k0` is always a multiple of `QK`.
/// `buf` arrives pre-filled with byte `128` (quantized zero), so fillers
/// only write positions they have data for — zero padding is free, and
/// tail-quad bytes past `k1` are harmless because the weight panel is
/// zero there.
pub trait QPanelFill: Sync {
    /// Writes one k-slice of quantized B panels (see trait docs).
    fn fill(&self, k0: usize, k1: usize, j0: usize, j1: usize, buf: &mut [u8]);
}

impl<F> QPanelFill for F
where
    F: Fn(usize, usize, usize, usize, &mut [u8]) + Sync,
{
    fn fill(&self, k0: usize, k1: usize, j0: usize, j1: usize, buf: &mut [u8]) {
        self(k0, k1, j0, j1, buf)
    }
}

/// The int8 format: `act(bias + (acc − corr)·s)` over exact `i32` sums.
struct Int8Gemm<'a> {
    a: &'a QuantizedFilter,
    bias: &'a [f32],
    act: Activation,
    /// `s_a · s_w`.
    s: f32,
}

impl Format for Int8Gemm<'_> {
    type B = u8;
    type Acc = i32;
    type Arch = QKernelArch;
    const PAD: u8 = 128;
    const KG: usize = QK;

    fn m(&self) -> usize {
        self.a.m
    }

    fn k(&self) -> usize {
        self.a.k
    }

    fn arch() -> QKernelArch {
        qkernel_arch()
    }

    fn panels_per_call(_: QKernelArch) -> usize {
        1
    }

    #[inline]
    fn block(
        &self,
        arch: QKernelArch,
        p: usize,
        g: Range<usize>,
        b: &BTile<'_, u8>,
        acc: &mut AccTile<i32>,
    ) {
        let a = self.a.panel(p, g.start, g.end);
        qmicrokernel(arch, a, b.panel(0, NR * QK), &mut acc[0]);
    }

    #[inline]
    fn finish(&self, r: usize, acc: &[i32], out: &mut [MaybeUninit<f32>]) {
        let (bias, corr) = (self.bias[r], self.a.row_corr[r]);
        for (dst, &v) in out.iter_mut().zip(acc) {
            dst.write(self.act.apply(bias + ((v - corr) as f32) * self.s));
        }
    }
}

/// Computes `out = act(bias + dequant(Aq·Bq))` into a row-major `[m][n]`
/// f32 buffer, with the weight side prepacked in `a` and the activation
/// side produced by `fill` against the caller-supplied activation scale
/// `scale_a` (see [`QPanelFill`]).
///
/// The integer accumulation is order-independent and the f32 epilogue is
/// one fixed expression, so output bands and column subsets are bit-exact
/// against a full-output call on any dispatch arm.
pub fn qgemm_bias_act_into<F: QPanelFill>(
    a: &QuantizedFilter,
    bias: &[f32],
    act: Activation,
    scale_a: f32,
    n: usize,
    fill: &F,
    out: &mut [f32],
) -> Result<()> {
    let fmt = Int8Gemm {
        a,
        bias,
        act,
        s: scale_a * a.scale,
    };
    let fill = |k0, k1, j0, j1, buf: &mut [u8]| fill.fill(k0, k1, j0, j1, buf);
    drive_into(&fmt, bias, n, &Operand::Staged(&fill), out)
}

/// [`qgemm_bias_act_into`] into a fresh `[m][n]` buffer, never zero-filled
/// first.
pub(super) fn qgemm_bias_act<F: QPanelFill>(
    a: &QuantizedFilter,
    bias: &[f32],
    act: Activation,
    scale_a: f32,
    n: usize,
    fill: &F,
) -> Result<Vec<f32>> {
    let fmt = Int8Gemm {
        a,
        bias,
        act,
        s: scale_a * a.scale,
    };
    let fill = |k0, k1, j0, j1, buf: &mut [u8]| fill.fill(k0, k1, j0, j1, buf);
    drive_new(&fmt, bias, n, &Operand::Staged(&fill))
}

/// The int8 register tile: streams one weight panel (`kcq` quads × `MR`
/// rows × `QK` bytes) against one activation panel (`kcq` quads × `NR`
/// columns × `QK` bytes), accumulating `MR × NR` i32 partial sums.  Every
/// arm computes the identical integer sum, so the arms are
/// bit-interchangeable by construction.
#[inline]
fn qmicrokernel(arch: QKernelArch, a: &[i8], b: &[u8], acc: &mut [[i32; NR]; MR]) {
    // The SIMD arms walk `a.len() / (MR * QK)` quads of `a` and `b` through
    // raw pointers on the strength of this.
    assert_eq!(a.len() * NR, b.len() * MR, "int8 micro-kernel panel sizes");
    match arch {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `qkernel_arch()` clamps to CPUID-detected capability, so
        // the required target features are present when these arms are
        // selected; the panel lengths were asserted above.
        QKernelArch::Vnni => unsafe { qmicrokernel_vnni(a, b, acc) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as for the VNNI arm — AVX2 is CPUID-detected when this
        // arm is selected, and the panel lengths were asserted above.
        QKernelArch::Avx2 => unsafe { qmicrokernel_avx2(a, b, acc) },
        _ => qmicrokernel_scalar(a, b, acc),
    }
}

/// Portable int8 micro-kernel — the always-available dispatch floor.
#[inline]
fn qmicrokernel_scalar(a: &[i8], b: &[u8], acc: &mut [[i32; NR]; MR]) {
    for (av, bv) in a.chunks_exact(MR * QK).zip(b.chunks_exact(NR * QK)) {
        for r in 0..MR {
            let aw = &av[r * QK..(r + 1) * QK];
            let row = &mut acc[r];
            for (j, bq) in bv.chunks_exact(QK).enumerate() {
                let mut s = 0i32;
                for l in 0..QK {
                    s += (bq[l] as i32) * (aw[l] as i32);
                }
                row[j] += s;
            }
        }
    }
}

/// 256-bit int8 micro-kernel.  `vpmaddubsw` would saturate
/// (`2·255·127 > i16::MAX`), so each of the four quad bytes is extracted
/// into its own 32-bit lane (shift + mask, zero-extending the unsigned
/// activation byte) and multiplied exactly with `vpmulld` against the
/// sign-extended weight byte — every product and sum stays in i32.
///
/// # Safety
/// Caller must ensure the CPU supports AVX2, `a.len() == kcq*MR*QK` and
/// `b.len() == kcq*NR*QK` for the same `kcq`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn qmicrokernel_avx2(a: &[i8], b: &[u8], acc: &mut [[i32; NR]; MR]) {
    use std::arch::x86_64::*;
    debug_assert_eq!(a.len() / (MR * QK), b.len() / (NR * QK));
    let kcq = a.len() / (MR * QK);
    let cp = acc.as_mut_ptr() as *mut i32;
    let mask = _mm256_set1_epi32(0xFF);
    let mut c0 = [_mm256_setzero_si256(); MR];
    let mut c1 = [_mm256_setzero_si256(); MR];
    for r in 0..MR {
        c0[r] = _mm256_loadu_si256(cp.add(r * NR) as *const __m256i);
        c1[r] = _mm256_loadu_si256(cp.add(r * NR + 8) as *const __m256i);
    }
    let mut pa = a.as_ptr();
    let mut pb = b.as_ptr();
    for _ in 0..kcq {
        // Each 32-bit lane of v0/v1 holds one column's 4 activation bytes.
        let v0 = _mm256_loadu_si256(pb as *const __m256i);
        let v1 = _mm256_loadu_si256(pb.add(32) as *const __m256i);
        for l in 0..QK {
            let sh = _mm256_set1_epi32((8 * l) as i32);
            let b0 = _mm256_and_si256(_mm256_srlv_epi32(v0, sh), mask);
            let b1 = _mm256_and_si256(_mm256_srlv_epi32(v1, sh), mask);
            for r in 0..MR {
                let w = _mm256_set1_epi32(*pa.add(r * QK + l) as i32);
                c0[r] = _mm256_add_epi32(c0[r], _mm256_mullo_epi32(w, b0));
                c1[r] = _mm256_add_epi32(c1[r], _mm256_mullo_epi32(w, b1));
            }
        }
        pa = pa.add(MR * QK);
        pb = pb.add(NR * QK);
    }
    for r in 0..MR {
        _mm256_storeu_si256(cp.add(r * NR) as *mut __m256i, c0[r]);
        _mm256_storeu_si256(cp.add(r * NR + 8) as *mut __m256i, c1[r]);
    }
}

/// 512-bit AVX-512 VNNI micro-kernel: one `vpdpbusd` per row per quad —
/// 64 unsigned×signed byte MACs accumulated into 16 i32 lanes, no
/// intermediate rounding or saturation, so the sum is the exact integer
/// sum every other arm computes.
///
/// # Safety
/// Caller must ensure the CPU supports AVX-512F + AVX-512 VNNI,
/// `a.len() == kcq*MR*QK` and `b.len() == kcq*NR*QK` for the same `kcq`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vnni")]
unsafe fn qmicrokernel_vnni(a: &[i8], b: &[u8], acc: &mut [[i32; NR]; MR]) {
    use std::arch::x86_64::*;
    debug_assert_eq!(a.len() / (MR * QK), b.len() / (NR * QK));
    let kcq = a.len() / (MR * QK);
    let cp = acc.as_mut_ptr() as *mut i32;
    let mut c = [_mm512_setzero_si512(); MR];
    for (r, cr) in c.iter_mut().enumerate() {
        *cr = _mm512_loadu_si512(cp.add(r * NR) as *const __m512i);
    }
    let mut pa = a.as_ptr();
    let mut pb = b.as_ptr();
    for _ in 0..kcq {
        // One zmm holds the whole NR-column quad block (16 cols × 4 bytes).
        let bv = _mm512_loadu_si512(pb as *const __m512i);
        for (r, cr) in c.iter_mut().enumerate() {
            let wquad = (pa.add(r * QK) as *const i32).read_unaligned();
            *cr = _mm512_dpbusd_epi32(*cr, bv, _mm512_set1_epi32(wquad));
        }
        pa = pa.add(MR * QK);
        pb = pb.add(NR * QK);
    }
    for (r, cr) in c.iter().enumerate() {
        _mm512_storeu_si512(cp.add(r * NR) as *mut __m512i, *cr);
    }
}

#[cfg(test)]
mod tests {
    use super::super::dispatch::{pin_kernels, KernelArch};
    use super::super::gemm::KC;
    use super::*;

    fn dense_qfill(bmat: &[f32], n_total: usize, scale: f32) -> impl QPanelFill + '_ {
        move |k0: usize, k1: usize, j0: usize, j1: usize, buf: &mut [u8]| {
            let kcq = (k1 - k0).div_ceil(QK);
            for k_abs in k0..k1 {
                let kk = k_abs - k0;
                let (qd, l) = (kk / QK, kk % QK);
                for j in j0..j1 {
                    let jj = j - j0;
                    let (q, lane) = (jj / NR, jj % NR);
                    buf[((q * kcq + qd) * NR + lane) * QK + l] =
                        quant_byte(bmat[k_abs * n_total + j], scale);
                }
            }
        }
    }

    /// Integer reference: quantize both sides with the same scales, do the
    /// dot product in i64 (headroom), apply the identical f32 epilogue.
    #[allow(clippy::too_many_arguments)]
    fn reference(
        a: &[f32],
        b: &[f32],
        bias: &[f32],
        m: usize,
        k: usize,
        n: usize,
        scale_a: f32,
        act: Activation,
    ) -> Vec<f32> {
        let scale_w = quant_scale(a);
        let s = scale_a * scale_w;
        let mut out = vec![0.0f32; m * n];
        for r in 0..m {
            for j in 0..n {
                let mut acc = 0i64;
                for kk in 0..k {
                    let qw = quantize_i8(a[r * k + kk], scale_w) as i64;
                    let qa = quantize_i8(b[kk * n + j], scale_a) as i64;
                    acc += qw * qa;
                }
                out[r * n + j] = act.apply(bias[r] + (acc as f32) * s);
            }
        }
        out
    }

    fn det(len: usize, seed: u64) -> Vec<f32> {
        (0..len)
            .map(|i| {
                let v = (i as u64).wrapping_mul(2654435761).wrapping_add(seed);
                ((v % 512) as f32 / 256.0) - 1.0
            })
            .collect()
    }

    #[test]
    fn scale_and_quantize_round_trip() {
        let data = [-1.0f32, 0.5, 0.25, 1.27];
        let s = quant_scale(&data);
        assert!((s - 1.27 / 127.0).abs() < 1e-9);
        // Re-quantizing a dequantized value with the same scale is lossless.
        for &v in &data {
            let q = quantize_i8(v, s);
            assert_eq!(quantize_i8(q as f32 * s, s), q);
        }
        assert_eq!(quant_scale(&[0.0; 4]), 1.0);
        assert_eq!(quant_byte(0.0, s), 128);
    }

    /// The slice quantizer returns, on every arm and at every vector-tail
    /// length, what the per-element functions return: special values, ties
    /// at `(k + 0.5)·scale`, values past the `±127.5·scale` clamp and
    /// random values, over power-of-two, ordinary, tiny and subnormal
    /// scales.
    #[test]
    fn quantizer_matches_the_per_element_functions_on_every_arm() {
        let tiny = f32::from_bits(1);
        let mut rng = 0x2545_f491_4f6c_dd1du64;
        let mut random = |span: f32| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            ((rng >> 40) as f32 / (1u64 << 24) as f32 * 2.0 - 1.0) * span
        };
        for scale in [1.0 / 32.0, 0.05, 3.7 / 127.0, 1e-30, 1e-40] {
            let mut xs = vec![
                f32::NAN,
                -f32::NAN,
                f32::INFINITY,
                f32::NEG_INFINITY,
                0.0,
                -0.0,
                tiny,
                -tiny,
                f32::MIN_POSITIVE / 3.0,
                -f32::MIN_POSITIVE / 3.0,
                f32::MIN_POSITIVE,
                f32::MAX,
                f32::MIN,
            ];
            for k in -130..130 {
                let tie = (k as f32 + 0.5) * scale;
                xs.extend([tie, f32::from_bits(tie.to_bits() + 1), -tie]);
            }
            for m in [127.5f32, 128.0, 200.0, 1e6] {
                xs.extend([m * scale, -m * scale]);
            }
            xs.extend((0..500).map(|_| random(140.0 * scale)));
            let want_i8: Vec<i8> = xs.iter().map(|&x| quantize_i8(x, scale)).collect();
            let want_u8: Vec<u8> = xs.iter().map(|&x| quant_byte(x, scale)).collect();
            for level in [KernelArch::Scalar, KernelArch::Avx2, KernelArch::Avx512] {
                let _pin = pin_kernels(level);
                let arm = qkernel_arch().label();
                // Every start offset and tail length around the vector widths.
                for (lo, hi) in [(0, xs.len()), (1, 2), (3, 20), (5, 38), (7, 70)] {
                    let mut i8s = vec![0i8; hi - lo];
                    quantize_into(&xs[lo..hi], scale, &mut i8s);
                    assert_eq!(i8s, want_i8[lo..hi], "i8 codes, scale {scale}, {arm}");
                    let mut u8s = vec![0u8; hi - lo];
                    quantize_into(&xs[lo..hi], scale, &mut u8s);
                    assert_eq!(u8s, want_u8[lo..hi], "offset bytes, scale {scale}, {arm}");
                }
            }
        }
        assert_eq!(quantize_slice(&[1.0, -1.0, f32::NAN], 0.5), [2, -2, 0]);
    }

    #[test]
    #[should_panic(expected = "quantizer slice lengths")]
    fn quantizer_refuses_mismatched_slices() {
        quantize_into(&[1.0, 2.0], 1.0, &mut [0u8; 1]);
    }

    #[test]
    fn pack_layout_round_trips() {
        let (m, k) = (MR + 1, 6);
        let w: Vec<f32> = (0..m * k).map(|i| (i as f32) - 8.0).collect();
        let packed = QuantizedFilter::pack(&w, m, k).unwrap();
        assert_eq!(packed.m(), m);
        assert_eq!(packed.k(), k);
        let s = packed.scale();
        // Row 0, k 0 lives at panel 0, quad 0, lane 0.
        let p0 = packed.panel(0, 0, packed.kq);
        assert_eq!(p0[0], quantize_i8(w[0], s));
        assert_eq!(p0[1], quantize_i8(w[1], s)); // row 0, k 1
        assert_eq!(p0[QK], quantize_i8(w[k], s)); // row 1, k 0
                                                  // k 4 starts the second quad.
        assert_eq!(p0[MR * QK], quantize_i8(w[4], s));
        // Panel 1 holds row MR plus zero padding.
        let p1 = packed.panel(1, 0, packed.kq);
        assert_eq!(p1[0], quantize_i8(w[MR * k], s));
        assert_eq!(p1[QK], 0); // padding row
        let corr: i32 = (0..k).map(|kk| quantize_i8(w[kk], s) as i32).sum::<i32>() * 128;
        assert_eq!(packed.row_corr[0], corr);
    }

    #[test]
    fn pack_rejects_bad_length_and_giant_k() {
        assert!(QuantizedFilter::pack(&[0.0; 5], 2, 3).is_err());
        let m = 1;
        let k = MAX_QUANT_K + 1;
        assert!(QuantizedFilter::pack(&vec![0.0; m * k], m, k).is_err());
    }

    #[test]
    fn matches_integer_reference_across_shapes() {
        // Exercise both parallel strategies, panel/quad edges and K
        // blocking.  The qgemm output must equal the integer reference
        // *bitwise*: the integer sums are exact and the f32 epilogue is
        // the same expression.
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (5, 7, 3),      // narrow path, row-panel + quad edges
            (4, 300, 9),    // narrow path, K blocking
            (6, 30, 100),   // tiled path, column edges
            (33, 520, 130), // tiled path + K blocking + both edges
            (MR, KC, NR),   // exact tile boundaries
            (MR * 2, KC * 2, NR * 5),
            (2 * MR + 1, KC + 1, 2 * NR + 1), // narrow path, 3 B panels, 2 K slices
            (2 * MR + 1, 2 * KC + 3, 3 * NR - 1), // narrow path, 3 K slices
        ] {
            let a = det(m * k, 1);
            let b = det(k * n, 2);
            let bias = det(m, 3);
            let scale_a = quant_scale(&b);
            let packed = QuantizedFilter::pack(&a, m, k).unwrap();
            let mut out = vec![0.0f32; m * n];
            qgemm_bias_act_into(
                &packed,
                &bias,
                Activation::Relu,
                scale_a,
                n,
                &dense_qfill(&b, n, scale_a),
                &mut out,
            )
            .unwrap();
            let want = reference(&a, &b, &bias, m, k, n, scale_a, Activation::Relu);
            assert_eq!(out, want, "({m},{k},{n})");
        }
    }

    #[test]
    fn arms_are_bit_exact_and_subsets_match_full() {
        // A wide and a narrow output (more than one B panel, more than one
        // K slice): the driver's two paths.
        for (m, k, n) in [(13, 515, 96), (13, 515, 2 * NR + 3)] {
            let a = det(m * k, 7);
            let b = det(k * n, 8);
            let bias = det(m, 9);
            let scale_a = quant_scale(&b);
            let packed = QuantizedFilter::pack(&a, m, k).unwrap();
            let run = |n_run: usize, j_off: usize| {
                let fill = |k0: usize, k1: usize, j0: usize, j1: usize, buf: &mut [u8]| {
                    dense_qfill(&b, n, scale_a).fill(k0, k1, j0 + j_off, j1 + j_off, buf);
                };
                let mut out = vec![0.0f32; m * n_run];
                qgemm_bias_act_into(
                    &packed,
                    &bias,
                    Activation::Tanh,
                    scale_a,
                    n_run,
                    &fill,
                    &mut out,
                )
                .unwrap();
                out
            };
            let scalar = {
                let _pin = pin_kernels(KernelArch::Scalar);
                assert_eq!(qkernel_arch(), QKernelArch::Scalar);
                run(n, 0)
            };
            for level in [KernelArch::Avx2, KernelArch::Avx512] {
                let _pin = pin_kernels(level);
                let arm = qkernel_arch();
                assert_eq!(
                    run(n, 0),
                    scalar,
                    "({m},{k},{n}): {} != scalar",
                    arm.label()
                );
            }
            // Column-subset determinism, on the auto-selected arm.
            let full = run(n, 0);
            let (j0, j1) = (17, 63.min(n - 5));
            let part = run(j1 - j0, j0);
            for r in 0..m {
                assert_eq!(
                    &part[r * (j1 - j0)..(r + 1) * (j1 - j0)],
                    &full[r * n + j0..r * n + j1],
                    "({m},{k},{n}): row {r} differs between subset and full computation"
                );
            }
        }
    }

    #[test]
    fn rejects_mismatched_buffers() {
        let packed = QuantizedFilter::pack(&[1.0; 6], 2, 3).unwrap();
        let fill = dense_qfill(&[0.0; 3], 1, 1.0);
        let mut out = vec![0.0f32; 2];
        assert!(qgemm_bias_act_into(
            &packed,
            &[0.0; 1],
            Activation::None,
            1.0,
            1,
            &fill,
            &mut out
        )
        .is_err());
        let mut wrong = vec![0.0f32; 3];
        assert!(qgemm_bias_act_into(
            &packed,
            &[0.0; 2],
            Activation::None,
            1.0,
            1,
            &fill,
            &mut wrong
        )
        .is_err());
    }

    /// A B panel one quad short of its A panel must stop the micro-kernel
    /// on every arm: the SIMD arms would read past its end, the scalar arm
    /// would silently drop the last quad.
    #[test]
    #[should_panic(expected = "int8 micro-kernel panel sizes")]
    fn short_b_panel_is_refused() {
        let a = [1i8; 2 * MR * QK];
        let b = [1u8; NR * QK];
        let mut acc = [[0i32; NR]; MR];
        qmicrokernel(qkernel_arch(), &a, &b, &mut acc);
    }
}
