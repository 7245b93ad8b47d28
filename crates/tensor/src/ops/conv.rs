//! 2-D convolution: one packer, one runner, three kernel routes.
//!
//! [`pack_conv_filter`] turns raw `[c_out][c_in][f][f]` weights into a
//! [`PackedConvFilter`] holding **exactly one** panel form, and
//! [`conv2d_rows_packed`] runs whatever was packed.  There is no other
//! fast-path entry and no per-call packing, so the route is decided once
//! per layer — never per band, per device or per frame — and no panel is
//! ever resident that no call reads.  The routes ([`ConvRoute`]):
//!
//! * **im2col + GEMM** — the general production kernel.  The input band is
//!   lowered on the fly into cache-sized column panels (the im2col B
//!   matrix, built k-slice by k-slice so it never materialises whole) and
//!   multiplied by the [`PackedFilter`] weight panels through the blocked
//!   GEMM in [`super::gemm`], with bias and activation fused into the last
//!   K block.
//! * **Winograd F(2×2,3×3)** ([`super::winograd`]) — the shortcut for
//!   stride-1 3×3 convolutions, which routes ~2.25× fewer multiplies
//!   through the very same GEMM micro-kernel.
//! * **int8** — the band quantized once to bytes, then the same im2col
//!   walk copying bytes, multiplied in i32 by the [`QuantizedFilter`]
//!   panels ([`super::qgemm`]).
//!
//! With no pin the packer applies the routing policy, a pure function of
//! `(c_in, c_out, f, stride)`: Winograd when the geometry is
//! [`winograd_eligible`] *and* its channel counts are
//! [`winograd_preferred`], im2col GEMM otherwise.  A deploy that
//! quantizes a layer pins [`ConvRoute::Quant`] with the calibrated scale;
//! equivalence tests and `benches/kernels.rs` pin an f32 route to measure
//! it on shapes the policy would send elsewhere.
//!
//! The **direct path** ([`conv2d_direct`] / [`conv2d_rows_direct`]) is the
//! clarity-first 6-deep loop nest over raw weights, kept as the test
//! oracle the routes are validated against (within `1e-4` for GEMM, a
//! relative `1e-3` for Winograd, whose summation order differs by
//! construction, the analytic quantization bound for int8).
//!
//! All paths implement the same *row band* contract: the input tensor may
//! carry only a band of the original input rows (plus halo), zero padding
//! is applied relative to the original layer geometry, and a band of output
//! rows is produced — so stitched bands reproduce the full convolution
//! exactly.  Per-element accumulation order is independent of banding and
//! tiling on every path (see the `gemm` and `winograd` module docs), which
//! is what keeps distributed execution bit-exact against single-device
//! runs.

use super::activation::Activation;
use super::gemm::{gemm_bias_act_into, PackedFilter, NR};
use super::qgemm::{qgemm_bias_act_into, quantize_into, QuantizedFilter, QK};
use super::winograd::{winograd_eligible, winograd_preferred, winograd_rows, WinogradFilter};
use crate::error::TensorError;
use crate::shape::{conv_out_dim, input_rows_for_output, Shape};
use crate::{Result, Tensor};
use rayon::prelude::*;
use std::ops::Range;

/// Length of a weight buffer for a convolution, in `[c_out][c_in][f][f]`
/// layout.
pub const fn im2col_weight_len(c_in: usize, c_out: usize, f: usize) -> usize {
    c_out * c_in * f * f
}

/// The kernel a [`PackedConvFilter`] runs on, fixed at pack time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ConvRoute {
    /// f32 im2col + blocked GEMM — any geometry.
    Gemm,
    /// Winograd F(2×2,3×3) — [`winograd_eligible`] geometries only.
    Winograd,
    /// int8 im2col GEMM against the calibrated input-activation scale.
    Quant {
        /// Symmetric quantization scale of the layer's input activations;
        /// the same on every device that runs a band of the layer.
        scale_in: f32,
    },
}

/// The one panel form a [`PackedConvFilter`] holds.
#[derive(Debug, Clone, PartialEq)]
enum ConvPanels {
    Gemm(PackedFilter),
    Winograd(WinogradFilter),
    /// The int8 panels plus the calibrated input-activation scale they
    /// were packed against.
    Quant(QuantizedFilter, f32),
}

/// A convolution filter prepacked for one kernel route, and for that route
/// only: the Winograd-transformed panels when the layer is stride-1 3×3
/// with enough channels to amortise the transforms (see
/// [`winograd_eligible`] / [`winograd_preferred`]), the f32 im2col GEMM
/// panels for every other f32 layer, **or** the int8 quantized panels when
/// the deploy opted the layer into the quantized path (~4× fewer resident
/// weight bytes).
///
/// Built once at deploy time by [`pack_conv_filter`]; consumed per frame by
/// [`conv2d_rows_packed`], which routes on what was packed — so every band
/// of a layer, on any device, takes the same path.
#[derive(Debug, Clone, PartialEq)]
pub struct PackedConvFilter {
    c_in: usize,
    c_out: usize,
    panels: ConvPanels,
    f: usize,
    stride: usize,
}

impl PackedConvFilter {
    /// Number of output channels.
    pub fn c_out(&self) -> usize {
        self.c_out
    }

    /// The f32 im2col GEMM panels, if this layer routes to the GEMM path.
    pub fn gemm(&self) -> Option<&PackedFilter> {
        match &self.panels {
            ConvPanels::Gemm(p) => Some(p),
            _ => None,
        }
    }

    /// The Winograd-transformed panels, if this layer routes to Winograd.
    pub fn winograd(&self) -> Option<&WinogradFilter> {
        match &self.panels {
            ConvPanels::Winograd(p) => Some(p),
            _ => None,
        }
    }

    /// The int8 quantized panels, if this layer was packed quantized.
    pub fn quant(&self) -> Option<&QuantizedFilter> {
        match &self.panels {
            ConvPanels::Quant(p, _) => Some(p),
            _ => None,
        }
    }

    /// The calibrated input-activation scale the quantized panels expect
    /// (`1.0` on f32 packs).
    pub fn scale_in(&self) -> f32 {
        match self.panels {
            ConvPanels::Quant(_, scale_in) => scale_in,
            _ => 1.0,
        }
    }

    /// Bytes of the resident panel form.
    pub fn bytes(&self) -> usize {
        match &self.panels {
            ConvPanels::Gemm(p) => p.bytes(),
            ConvPanels::Winograd(p) => p.bytes(),
            ConvPanels::Quant(p, _) => p.bytes(),
        }
    }
}

/// Packs `[c_out][c_in][f][f]` convolution weights into the one panel form
/// [`conv2d_rows_packed`] will run: the `pin`ned route, or with `None` the
/// policy's — Winograd panels iff the layer is [`winograd_eligible`] and
/// [`winograd_preferred`], the im2col GEMM panels otherwise.
///
/// This is the deploy-time half of the conv path: the result drops into
/// [`conv2d_rows_packed`] for every subsequent frame.  Pinning
/// [`ConvRoute::Winograd`] on a geometry the transform is not defined for
/// is an error.
pub fn pack_conv_filter(
    weights: &[f32],
    c_in: usize,
    c_out: usize,
    f: usize,
    stride: usize,
    pin: Option<ConvRoute>,
) -> Result<PackedConvFilter> {
    if weights.len() != im2col_weight_len(c_in, c_out, f) {
        return Err(TensorError::KernelConfig(format!(
            "conv weights length {} != c_out*c_in*f*f = {}",
            weights.len(),
            im2col_weight_len(c_in, c_out, f)
        )));
    }
    let policy = if winograd_eligible(f, stride) && winograd_preferred(c_in, c_out) {
        ConvRoute::Winograd
    } else {
        ConvRoute::Gemm
    };
    let panels = match pin.unwrap_or(policy) {
        ConvRoute::Gemm => ConvPanels::Gemm(PackedFilter::pack(weights, c_out, c_in * f * f)?),
        ConvRoute::Winograd if winograd_eligible(f, stride) => {
            ConvPanels::Winograd(WinogradFilter::pack(weights, c_in, c_out)?)
        }
        ConvRoute::Winograd => {
            return Err(TensorError::KernelConfig(format!(
                "the Winograd route needs a stride-1 3x3 filter, not f={f}, stride={stride}"
            )))
        }
        ConvRoute::Quant { scale_in } => ConvPanels::Quant(
            QuantizedFilter::pack(weights, c_out, c_in * f * f)?,
            scale_in,
        ),
    };
    Ok(PackedConvFilter {
        c_in,
        c_out,
        panels,
        f,
        stride,
    })
}

/// Geometry of one banded convolution call: checked once by
/// [`ConvBand::new`], then read by whichever kernel runs the call.
#[derive(Debug, Clone, Copy)]
pub(super) struct ConvBand {
    /// Channels, rows and width of the input band.
    pub(super) c_in: usize,
    pub(super) band_h: usize,
    pub(super) w_in: usize,
    /// The band holds original input rows
    /// `[in_row_offset, in_row_offset + band_h)`.
    pub(super) in_row_offset: usize,
    /// Height of the *full* layer input; zero padding is applied at rows
    /// `< 0` and `>= orig_h_in` only.
    pub(super) orig_h_in: usize,
    /// Output rows `[out_start, out_end)` in full-layer coordinates.
    pub(super) out_start: usize,
    pub(super) out_end: usize,
    pub(super) out_w: usize,
    pub(super) f: usize,
    pub(super) stride: usize,
    pub(super) padding: usize,
}

impl ConvBand {
    /// Validates the output row range and the halo coverage of the input
    /// band — every real input row the requested output rows need must lie
    /// inside it.
    pub(super) fn new(
        input: &Tensor,
        in_row_offset: usize,
        orig_h_in: usize,
        out_rows: Range<usize>,
        f: usize,
        stride: usize,
        padding: usize,
    ) -> Result<Self> {
        let [c_in, band_h, w_in] = input.shape();
        let (out_start, out_end) = (out_rows.start, out_rows.end);
        let out_h_full = conv_out_dim(orig_h_in, f, stride, padding)
            .ok_or_else(|| TensorError::KernelConfig("convolution does not fit input".into()))?;
        let out_w = conv_out_dim(w_in, f, stride, padding).ok_or_else(|| {
            TensorError::KernelConfig("convolution does not fit input width".into())
        })?;
        if out_end > out_h_full || out_start >= out_end {
            return Err(TensorError::InvalidRowRange {
                start: out_start,
                end: out_end,
                rows: out_h_full,
            });
        }
        let (need_lo, need_hi) =
            input_rows_for_output(out_start, out_end, f, stride, padding, orig_h_in);
        if need_lo < in_row_offset || need_hi > in_row_offset + band_h {
            return Err(TensorError::KernelConfig(format!(
                "input band rows {}..{} do not cover required rows {}..{}",
                in_row_offset,
                in_row_offset + band_h,
                need_lo,
                need_hi
            )));
        }
        Ok(Self {
            c_in,
            band_h,
            w_in,
            in_row_offset,
            orig_h_in,
            out_start,
            out_end,
            out_w,
            f,
            stride,
            padding,
        })
    }

    /// Output rows the call produces.
    pub(super) fn out_rows(&self) -> usize {
        self.out_end - self.out_start
    }

    /// Wraps a kernel's `[c_out][out_rows][out_w]` buffer.
    pub(super) fn output(&self, c_out: usize, data: Vec<f32>) -> Result<Tensor> {
        Tensor::from_vec(Shape::new(c_out, self.out_rows(), self.out_w), data)
    }

    /// The im2col geometry walk both GEMM routes fill their B panels from,
    /// over the f32 band or its quantized byte plane (same CHW layout).
    /// Covers the slice of the im2col matrix with filter taps `k` (its
    /// rows) and output pixels `j` (its columns, row-major over the band's
    /// output rows), calling `write(kk, jj, src)` once per run of real
    /// input: tap `k.start + kk` reads `src[0]`, `src[stride]`,
    /// `src[2·stride]`, … to the end of `src` under output pixels
    /// `j.start + jj`, `+ 1`, `+ 2`, ….  A run never leaves one output row.
    ///
    /// For each (output row, filter tap) pair the valid column interval is
    /// computed once and only it is handed out, so writers need no
    /// per-element bounds checks; whatever no run covers is zero padding,
    /// which both panel layouts arrive pre-filled with.
    #[inline(always)]
    fn im2col_runs<'a, T>(
        &self,
        in_data: &'a [T],
        k: Range<usize>,
        j: Range<usize>,
        mut write: impl FnMut(usize, usize, &'a [T]),
    ) {
        let &Self {
            band_h,
            w_in,
            in_row_offset,
            orig_h_in,
            out_start,
            out_w,
            f,
            stride,
            padding,
            ..
        } = self;
        let ff = f * f;
        let (j0, j1) = (j.start, j.end);
        let oy_first = j0 / out_w;
        let oy_last = (j1 - 1) / out_w;
        for k_abs in k.clone() {
            let kk = k_abs - k.start;
            let ic = k_abs / ff;
            let ky = (k_abs % ff) / f;
            let kx = k_abs % f;
            // Valid output-column interval for this kx: 0 <= ox*s + kx - p < w_in.
            let ox_lo = padding.saturating_sub(kx).div_ceil(stride);
            let ox_hi = if w_in + padding > kx {
                ((w_in - 1 + padding - kx) / stride + 1).min(out_w)
            } else {
                0
            };
            let in_plane = ic * band_h * w_in;
            for oy_local in oy_first..=oy_last {
                let iy = ((out_start + oy_local) * stride + ky) as isize - padding as isize;
                if iy < 0 || iy >= orig_h_in as isize {
                    continue; // zero-padding row: the buffer is pre-filled
                }
                let band_y = iy as usize - in_row_offset;
                debug_assert!(band_y < band_h, "halo check guarantees coverage");
                let in_row = in_plane + band_y * w_in;
                // Columns of this output row that fall inside the tile.
                let seg0 = j0.max(oy_local * out_w);
                let seg1 = j1.min((oy_local + 1) * out_w);
                let ox_a = (seg0 - oy_local * out_w).max(ox_lo);
                let ox_b = (seg1 - oy_local * out_w).min(ox_hi);
                if ox_a >= ox_b {
                    continue;
                }
                let first = in_row + ox_a * stride + kx - padding;
                let last = first + (ox_b - ox_a - 1) * stride;
                write(kk, oy_local * out_w + ox_a - j0, &in_data[first..=last]);
            }
        }
    }
}

/// Convolution of a row band over a prepacked filter — the one fast-path
/// convolution, and the per-frame hot path.
///
/// * `input` holds original input rows `[in_row_offset, in_row_offset + input.height())`.
/// * `orig_h_in` is the height of the *full* layer input; zero padding is
///   applied at rows `< 0` and `>= orig_h_in` only.
/// * Output rows `[out_start, out_end)` (in full-layer coordinates) are
///   produced.
///
/// Runs the route `filter` was packed for (see [`pack_conv_filter`]):
/// int8 panels take the quantized GEMM path, Winograd panels the
/// F(2×2,3×3) path, GEMM panels the f32 im2col path.  Because the route
/// depends only on the pack — never on the band shape — every band of a
/// layer takes the same path on every device, and banded outputs stitch
/// bit-exactly against a full-input call.
///
/// Returns an error if `f`/`stride`, the input's channel count or the bias
/// length do not match what `filter` was packed for, or if the input band
/// does not cover every real input row the requested output rows need.
#[allow(clippy::too_many_arguments)]
pub fn conv2d_rows_packed(
    input: &Tensor,
    in_row_offset: usize,
    orig_h_in: usize,
    out_start: usize,
    out_end: usize,
    filter: &PackedConvFilter,
    bias: &[f32],
    f: usize,
    stride: usize,
    padding: usize,
    act: Activation,
) -> Result<Tensor> {
    if f != filter.f || stride != filter.stride {
        return Err(TensorError::KernelConfig(format!(
            "conv call geometry (f={f}, stride={stride}) != packed filter geometry (f={}, stride={})",
            filter.f, filter.stride
        )));
    }
    if input.channels() != filter.c_in {
        return Err(TensorError::KernelConfig(format!(
            "input has {} channels, the filter was packed for {}",
            input.channels(),
            filter.c_in
        )));
    }
    if bias.len() != filter.c_out {
        return Err(TensorError::KernelConfig(format!(
            "conv bias length {} != c_out {}",
            bias.len(),
            filter.c_out
        )));
    }
    let band = ConvBand::new(
        input,
        in_row_offset,
        orig_h_in,
        out_start..out_end,
        f,
        stride,
        padding,
    )?;
    match &filter.panels {
        ConvPanels::Quant(quant, scale_in) => {
            conv2d_rows_q8(input, &band, quant, *scale_in, bias, act)
        }
        ConvPanels::Winograd(wino) => winograd_rows(input, &band, wino, bias, act, None),
        ConvPanels::Gemm(gemm) => conv2d_rows_gemm(input, &band, gemm, bias, act),
    }
}

/// The f32 im2col GEMM route: no packing, no im2col materialisation beyond
/// one cache-sized panel slice per tile.
fn conv2d_rows_gemm(
    input: &Tensor,
    band: &ConvBand,
    filter: &PackedFilter,
    bias: &[f32],
    act: Activation,
) -> Result<Tensor> {
    let c_out = filter.m();
    let n = band.out_rows() * band.out_w;
    let in_data = input.data();
    let stride = band.stride;

    // The im2col panel filler: writes B[k][j] = input value under filter
    // tap k at output pixel j, for one k-slice and one column tile; what it
    // does not write stays at the zero the driver pre-cleared.
    let fill = move |k0: usize, k1: usize, j0: usize, j1: usize, buf: &mut [f32]| {
        let kc = k1 - k0;
        band.im2col_runs(in_data, k0..k1, j0..j1, |kk, mut jj, mut src| {
            if stride == 1 {
                // Stride-1 fast path: both the source pixels (consecutive
                // `ix`) and the destination lanes within one NR panel are
                // contiguous, so the row copies in `memcpy`-sized runs —
                // this is what lifts small-K layers (the stem's K=27)
                // where the per-element scatter's div/mod dominated.
                while !src.is_empty() {
                    let (q, lane) = (jj / NR, jj % NR);
                    let (run, rest) = src.split_at((NR - lane).min(src.len()));
                    let dst = (q * kc + kk) * NR + lane;
                    buf[dst..dst + run.len()].copy_from_slice(run);
                    jj += run.len();
                    src = rest;
                }
            } else {
                for (jj, &v) in (jj..).zip(src.iter().step_by(stride)) {
                    buf[((jj / NR) * kc + kk) * NR + (jj % NR)] = v;
                }
            }
        });
    };

    let mut data = vec![0.0f32; c_out * n];
    gemm_bias_act_into(filter, bias, act, n, &fill, &mut data)?;
    band.output(c_out, data)
}

/// The **int8 quantized** im2col GEMM route: the band's activations are
/// quantized against the calibrated `scale_in` once, into a byte plane of
/// the band's shape (a quarter of its f32 bytes), by the vectorised
/// [`quantize_into`]; the panel fill then copies bytes, and the product
/// runs in i32 and is dequantized in the fused epilogue with bias and
/// activation.  Every im2col element is the byte
/// [`quant_byte`](super::qgemm::quant_byte) gives its
/// input value — a 3×3 layer reads each value nine times, but quantizes it
/// once.
///
/// `scale_in` is the *same* for every band of a layer (it is fixed at
/// deploy-time calibration and travels with the pack); together with
/// order-independent integer accumulation and the fixed f32 epilogue this
/// keeps banded outputs bit-exact against a full-input call — on any int8
/// dispatch arm.  Accuracy against the f32 path is bounded by the
/// quantization step (relative ~1/127 per tensor), validated end-to-end in
/// `prop_conv_gemm.rs`.
fn conv2d_rows_q8(
    input: &Tensor,
    band: &ConvBand,
    filter: &QuantizedFilter,
    scale_in: f32,
    bias: &[f32],
    act: Activation,
) -> Result<Tensor> {
    let c_out = filter.m();
    let n = band.out_rows() * band.out_w;
    let stride = band.stride;
    let mut bytes = vec![0u8; input.len()];
    quantize_into(input.data(), scale_in, &mut bytes);
    let bytes = &bytes[..];

    // The im2col filler over the byte plane, in two passes.  First the f32
    // filler's walk and copies, with the k stride rounded up to whole
    // quads: that lays each `NR × QK` block of the panel out tap-major
    // (`l·NR + lane`), so a run of up to NR lanes is one contiguous copy.
    // Then each block is interleaved in place into the quad-major order
    // the kernels read (`lane·QK + l`).  Padding positions hold the 128
    // the driver pre-filled — exactly the quantization of zero under any
    // scale — wherever the interleave moves them.
    let fill = move |k0: usize, k1: usize, j0: usize, j1: usize, buf: &mut [u8]| {
        let kc = (k1 - k0).next_multiple_of(QK);
        band.im2col_runs(bytes, k0..k1, j0..j1, |kk, mut jj, mut src| {
            while !src.is_empty() {
                let (q, lane) = (jj / NR, jj % NR);
                let run = (NR - lane).min(src.len().div_ceil(stride));
                let dst = &mut buf[(q * kc + kk) * NR + lane..][..run];
                if stride == 1 {
                    dst.copy_from_slice(&src[..run]);
                } else {
                    for (d, &v) in dst.iter_mut().zip(src.iter().step_by(stride)) {
                        *d = v;
                    }
                }
                jj += run;
                src = &src[(run * stride).min(src.len())..];
            }
        });
        for block in buf.chunks_exact_mut(NR * QK) {
            interleave_quads(block.try_into().expect("one NR x QK block"));
        }
    };

    let mut data = vec![0.0f32; c_out * n];
    qgemm_bias_act_into(filter, bias, act, scale_in, n, &fill, &mut data)?;
    band.output(c_out, data)
}

/// Reorders one `NR × QK` block of an int8 B panel from tap-major
/// (`block[l·NR + lane]`, as the conv fill's byte runs land) to the
/// quad-major order the int8 kernels read (`block[lane·QK + l]`): a 4 × 16
/// byte transpose, two rounds of SSE2 unpacks on x86-64.
#[inline(always)]
fn interleave_quads(block: &mut [u8; NR * QK]) {
    const _: () = assert!(NR == 16 && QK == 4, "the unpacks transpose 4 x 16 bytes");
    #[cfg(target_arch = "x86_64")]
    // SAFETY: SSE2 is part of the x86-64 baseline, and the four unaligned
    // 16-byte loads and stores stay inside the 64-byte block.
    unsafe {
        use std::arch::x86_64::*;
        let p = block.as_mut_ptr() as *mut __m128i;
        let [r0, r1, r2, r3] = [0, 1, 2, 3].map(|i| _mm_loadu_si128(p.add(i)));
        let (t0, t1) = (_mm_unpacklo_epi8(r0, r1), _mm_unpackhi_epi8(r0, r1));
        let (t2, t3) = (_mm_unpacklo_epi8(r2, r3), _mm_unpackhi_epi8(r2, r3));
        _mm_storeu_si128(p, _mm_unpacklo_epi16(t0, t2));
        _mm_storeu_si128(p.add(1), _mm_unpackhi_epi16(t0, t2));
        _mm_storeu_si128(p.add(2), _mm_unpacklo_epi16(t1, t3));
        _mm_storeu_si128(p.add(3), _mm_unpackhi_epi16(t1, t3));
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let rows = *block;
        for (lane, quad) in block.chunks_exact_mut(QK).enumerate() {
            for (l, b) in quad.iter_mut().enumerate() {
                *b = rows[l * NR + lane];
            }
        }
    }
}

/// Full 2-D convolution on the direct (loop-nest) path — the test oracle.
///
/// `weights` is laid out `[c_out][c_in][f][f]`, `bias` has one entry per
/// output channel.
#[allow(clippy::too_many_arguments)]
pub fn conv2d_direct(
    input: &Tensor,
    weights: &[f32],
    bias: &[f32],
    c_out: usize,
    f: usize,
    stride: usize,
    padding: usize,
    act: Activation,
) -> Tensor {
    let h_in = input.height();
    let out_h = conv_out_dim(h_in, f, stride, padding).expect("invalid conv geometry");
    conv2d_rows_direct(
        input, 0, h_in, 0, out_h, weights, bias, c_out, f, stride, padding, act,
    )
    .expect("full conv2d over valid geometry cannot fail")
}

/// Direct (loop-nest) convolution of a row band over raw weights — the test
/// oracle the packed routes are validated against.  Same band semantics as
/// [`conv2d_rows_packed`].
///
/// Parallelised over output channels, each rayon task writing its channel
/// plane directly into one pre-sized output buffer.
#[allow(clippy::too_many_arguments)]
pub fn conv2d_rows_direct(
    input: &Tensor,
    in_row_offset: usize,
    orig_h_in: usize,
    out_start: usize,
    out_end: usize,
    weights: &[f32],
    bias: &[f32],
    c_out: usize,
    f: usize,
    stride: usize,
    padding: usize,
    act: Activation,
) -> Result<Tensor> {
    if bias.len() != c_out {
        return Err(TensorError::KernelConfig(format!(
            "conv bias length {} != c_out {c_out}",
            bias.len()
        )));
    }
    let band = ConvBand::new(
        input,
        in_row_offset,
        orig_h_in,
        out_start..out_end,
        f,
        stride,
        padding,
    )?;
    let (c_in, w_in, out_w) = (band.c_in, band.w_in, band.out_w);
    if weights.len() != im2col_weight_len(c_in, c_out, f) {
        return Err(TensorError::KernelConfig(format!(
            "conv weights length {} != c_out*c_in*f*f = {}",
            weights.len(),
            im2col_weight_len(c_in, c_out, f)
        )));
    }

    let out_rows = band.out_rows();
    let plane_in = band.band_h * w_in;
    let in_data = input.data();
    let pad = padding as isize;

    // One output channel plane per rayon task, written in place.
    let mut data = vec![0.0f32; c_out * out_rows * out_w];
    data.par_chunks_mut(out_rows * out_w)
        .enumerate()
        .for_each(|(oc, plane)| {
            let w_base = oc * c_in * f * f;
            for (oy_local, oy) in (out_start..out_end).enumerate() {
                let iy0 = oy as isize * stride as isize - pad;
                for ox in 0..out_w {
                    let ix0 = ox as isize * stride as isize - pad;
                    let mut acc = bias[oc];
                    for ic in 0..c_in {
                        let w_ch = w_base + ic * f * f;
                        let in_ch = ic * plane_in;
                        for ky in 0..f {
                            let iy = iy0 + ky as isize;
                            if iy < 0 || iy >= orig_h_in as isize {
                                continue;
                            }
                            let band_y = iy as usize - in_row_offset;
                            let row_base = in_ch + band_y * w_in;
                            let w_row = w_ch + ky * f;
                            for kx in 0..f {
                                let ix = ix0 + kx as isize;
                                if ix < 0 || ix >= w_in as isize {
                                    continue;
                                }
                                acc += in_data[row_base + ix as usize] * weights[w_row + kx];
                            }
                        }
                    }
                    plane[oy_local * out_w + ox] = act.apply(acc);
                }
            }
        });
    band.output(c_out, data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shape::input_rows_for_output;
    use crate::slice::{concat_rows, slice_rows};

    fn det_weights(c_in: usize, c_out: usize, f: usize) -> Vec<f32> {
        (0..im2col_weight_len(c_in, c_out, f))
            .map(|i| ((i % 7) as f32 - 3.0) * 0.25)
            .collect()
    }

    fn det_input(c: usize, h: usize, w: usize) -> Tensor {
        Tensor::from_fn([c, h, w], |c, y, x| {
            ((c * 31 + y * 7 + x * 3) % 11) as f32 * 0.5 - 2.0
        })
    }

    /// Packs `weights` (`[c_out][c_in][f][f]`, `pin`ned or on the policy
    /// route) and convolves the whole input.
    fn conv_full(
        input: &Tensor,
        weights: &[f32],
        bias: &[f32],
        (f, stride, padding): (usize, usize, usize),
        act: Activation,
        pin: Option<ConvRoute>,
    ) -> Result<Tensor> {
        let filter = pack_conv_filter(weights, input.channels(), bias.len(), f, stride, pin)?;
        let h = input.height();
        let out_h = conv_out_dim(h, f, stride, padding).expect("invalid conv geometry");
        conv2d_rows_packed(
            input, 0, h, 0, out_h, &filter, bias, f, stride, padding, act,
        )
    }

    /// Output rows `rows` from the minimal halo slice of `input` — what one
    /// device of a split computes.
    fn conv_band(
        input: &Tensor,
        rows: Range<usize>,
        filter: &PackedConvFilter,
        bias: &[f32],
        (f, stride, padding): (usize, usize, usize),
    ) -> Tensor {
        let h = input.height();
        let (lo, hi) = input_rows_for_output(rows.start, rows.end, f, stride, padding, h);
        let band_in = slice_rows(input, lo, hi).unwrap();
        conv2d_rows_packed(
            &band_in,
            lo,
            h,
            rows.start,
            rows.end,
            filter,
            bias,
            f,
            stride,
            padding,
            Activation::Relu,
        )
        .unwrap()
    }

    #[test]
    fn identity_kernel_preserves_input() {
        // 1x1 conv with identity weights and zero bias copies the input.
        let input = det_input(2, 5, 5);
        let weights = vec![1.0, 0.0, 0.0, 1.0]; // [c_out=2][c_in=2][1][1]
        let bias = vec![0.0, 0.0];
        let out = conv_full(&input, &weights, &bias, (1, 1, 0), Activation::None, None).unwrap();
        assert!(out.approx_eq(&input, 1e-6));
    }

    #[test]
    fn bias_only_kernel() {
        let input = Tensor::zeros([1, 4, 4]);
        let weights = vec![0.0; 9];
        let bias = vec![2.5];
        let out = conv_full(&input, &weights, &bias, (3, 1, 1), Activation::None, None).unwrap();
        assert!(out.data().iter().all(|&v| (v - 2.5).abs() < 1e-6));
    }

    #[test]
    fn output_shape_stride_two() {
        let input = det_input(3, 11, 11);
        let weights = det_weights(3, 4, 3);
        let bias = vec![0.1; 4];
        let out = conv_full(&input, &weights, &bias, (3, 2, 1), Activation::Relu, None).unwrap();
        assert_eq!(out.shape(), [4, 6, 6]);
    }

    #[test]
    fn known_small_convolution() {
        // Single channel 3x3 input, 2x2 filter of ones, stride 1, no padding:
        // output[y][x] = sum of the 2x2 window.
        let input = Tensor::from_vec([1, 3, 3], (1..=9).map(|v| v as f32).collect()).unwrap();
        let weights = vec![1.0; 4];
        let bias = vec![0.0];
        let out = conv_full(&input, &weights, &bias, (2, 1, 0), Activation::None, None).unwrap();
        assert_eq!(out.shape(), [1, 2, 2]);
        assert_eq!(out.data(), &[12.0, 16.0, 24.0, 28.0]);
    }

    /// Per-element relative closeness: `|a-b| <= rel * (1 + max(|a|,|b|))` —
    /// the tolerance shape the Winograd path is validated under (its
    /// summation order differs from the direct oracle by construction).
    fn assert_close_rel(fast: &Tensor, oracle: &Tensor, rel: f32, ctx: &str) {
        assert_eq!(fast.shape(), oracle.shape(), "{ctx}");
        for (i, (&a, &b)) in fast.data().iter().zip(oracle.data()).enumerate() {
            let tol = rel * (1.0 + a.abs().max(b.abs()));
            assert!((a - b).abs() <= tol, "{ctx}: [{i}] {a} vs {b}");
        }
    }

    #[test]
    fn fast_paths_match_direct_oracle() {
        // Representative geometries: odd channel counts (panel edges),
        // stride 2, 1x1 and 7x7 filters, asymmetric padding effects.  These
        // channel counts all route to the GEMM path (Winograd needs
        // `winograd_preferred` channel counts and is pinned by its own
        // tests); held to 1e-4 against the oracle.
        for &(c_in, c_out, h, w, f, s, p) in &[
            (2usize, 4usize, 20usize, 16usize, 3usize, 1usize, 1usize),
            (3, 5, 17, 13, 3, 2, 1),
            (4, 7, 12, 12, 1, 1, 0),
            (3, 6, 23, 23, 7, 2, 3),
            (1, 1, 8, 8, 5, 1, 2),
            (5, 33, 9, 7, 3, 1, 1),
            (2, 3, 10, 9, 3, 1, 0),
        ] {
            let input = det_input(c_in, h, w);
            let weights = det_weights(c_in, c_out, f);
            let bias: Vec<f32> = (0..c_out).map(|i| (i as f32) * 0.01 - 0.05).collect();
            let fast =
                conv_full(&input, &weights, &bias, (f, s, p), Activation::Relu, None).unwrap();
            let oracle = conv2d_direct(&input, &weights, &bias, c_out, f, s, p, Activation::Relu);
            let ctx = format!("({c_in},{c_out},{h},{w},f{f},s{s},p{p})");
            assert!(
                !(winograd_eligible(f, s) && winograd_preferred(c_in, c_out)),
                "{ctx}: shape list is meant to pin the GEMM route"
            );
            assert_eq!(fast.shape(), oracle.shape());
            assert!(
                fast.approx_eq(&oracle, 1e-4),
                "{ctx}: max diff {}",
                fast.max_abs_diff(&oracle).unwrap()
            );
        }
    }

    #[test]
    fn preferred_channels_route_to_winograd() {
        // A stride-1 3×3 layer with `winograd_preferred` channel counts
        // must take the Winograd route under the policy and still match
        // the direct oracle within the relative tolerance.
        let (c_in, c_out, h, w) = (128usize, 128usize, 10usize, 9usize);
        assert!(winograd_preferred(c_in, c_out));
        let input = det_input(c_in, h, w);
        let weights = det_weights(c_in, c_out, 3);
        let bias: Vec<f32> = (0..c_out).map(|i| (i as f32) * 0.01 - 0.05).collect();
        let filter = pack_conv_filter(&weights, c_in, c_out, 3, 1, None).unwrap();
        assert!(filter.winograd().is_some() && filter.gemm().is_none());
        let routed = conv_band(&input, 0..h, &filter, &bias, (3, 1, 1));
        // The routed output is the pinned Winograd path's output, bitwise.
        let pin = Some(ConvRoute::Winograd);
        let wino = conv_full(&input, &weights, &bias, (3, 1, 1), Activation::Relu, pin).unwrap();
        assert_eq!(routed, wino, "preferred channels must route to Winograd");
        let oracle = conv2d_direct(&input, &weights, &bias, c_out, 3, 1, 1, Activation::Relu);
        assert_close_rel(&routed, &oracle, 1e-3, "routed winograd c128");
    }

    #[test]
    fn a_pinned_pack_runs_the_pinned_kernel() {
        // c64 is Winograd-eligible but below `winograd_preferred`: the
        // policy sends it to GEMM, a pin sends it to either f32 route, and
        // the pack reports the form it holds.
        let (c, h, w, geom) = (64usize, 11usize, 10usize, (3, 1, 1));
        assert!(winograd_eligible(3, 1) && !winograd_preferred(c, c));
        let input = det_input(c, h, w);
        let weights = det_weights(c, c, 3);
        let bias: Vec<f32> = (0..c).map(|i| (i as f32) * 0.01 - 0.05).collect();
        let pack = |pin| pack_conv_filter(&weights, c, c, 3, 1, pin).unwrap();
        let (policy, gemm, wino) = (
            pack(None),
            pack(Some(ConvRoute::Gemm)),
            pack(Some(ConvRoute::Winograd)),
        );
        assert!(policy.gemm().is_some(), "the policy keeps c64 on GEMM");
        assert_eq!(policy, gemm);
        assert!(gemm.gemm().is_some() && gemm.winograd().is_none());
        assert!(wino.winograd().is_some() && wino.gemm().is_none());

        // Full height and as three bands (an odd cut splits a 2×2 tile),
        // the two routes agree under the Winograd tolerance — and they are
        // different kernels: somewhere the bits differ.
        let via_gemm = conv_band(&input, 0..h, &gemm, &bias, geom);
        let via_wino = conv_band(&input, 0..h, &wino, &bias, geom);
        assert_close_rel(&via_wino, &via_gemm, 1e-3, "pinned c64, full height");
        assert_ne!(via_wino, via_gemm, "the pin must select a different kernel");
        for rows in [0..3, 3..8, 8..h] {
            let ctx = format!("pinned c64, rows {rows:?}");
            let band_gemm = conv_band(&input, rows.clone(), &gemm, &bias, geom);
            let band_wino = conv_band(&input, rows.clone(), &wino, &bias, geom);
            assert_close_rel(&band_wino, &band_gemm, 1e-3, &ctx);
            // Each band is its own route's full-height rows, bitwise.
            assert_eq!(
                band_gemm,
                slice_rows(&via_gemm, rows.start, rows.end).unwrap()
            );
            assert_eq!(
                band_wino,
                slice_rows(&via_wino, rows.start, rows.end).unwrap()
            );
        }
        // A pin the geometry cannot honour is refused, not rerouted.
        let w5 = det_weights(2, 2, 5);
        let r = pack_conv_filter(&w5, 2, 2, 5, 1, Some(ConvRoute::Winograd));
        assert!(matches!(r, Err(TensorError::KernelConfig(_))));
    }

    #[test]
    fn quantized_pack_routes_tracks_oracle_and_stitches() {
        use super::super::qgemm::quant_scale;
        let (c_in, c_out, h, w, f, s, p) = (8usize, 10usize, 12usize, 11usize, 3, 1, 1);
        let input = det_input(c_in, h, w);
        let weights = det_weights(c_in, c_out, f);
        let bias: Vec<f32> = (0..c_out).map(|i| (i as f32) * 0.01 - 0.05).collect();
        let scale_in = quant_scale(input.data());
        let pin = Some(ConvRoute::Quant { scale_in });
        let filter = pack_conv_filter(&weights, c_in, c_out, f, s, pin).unwrap();
        assert!(filter.quant().is_some() && filter.gemm().is_none());
        let routed = conv_band(&input, 0..h, &filter, &bias, (f, s, p));

        // Analytic quantization error bound per output element:
        // |Δout| ≤ s_w/2·Σ|a| + s_a/2·Σ|w| + K·s_a·s_w/4 (ReLU is
        // 1-Lipschitz), where Σ|a| is the receptive-field L1 of the input.
        let oracle = conv2d_direct(&input, &weights, &bias, c_out, f, s, p, Activation::Relu);
        let scale_w = filter.quant().unwrap().scale();
        let abs_in = Tensor::from_fn(input.shape(), |c, y, x| input.get(c, y, x).abs());
        let ones = vec![1.0; im2col_weight_len(c_in, 1, f)];
        let a_l1 = conv2d_direct(&abs_in, &ones, &[0.0], 1, f, s, p, Activation::None);
        let k = c_in * f * f;
        for oc in 0..c_out {
            let w_l1: f32 = weights[oc * k..(oc + 1) * k].iter().map(|v| v.abs()).sum();
            for oy in 0..routed.height() {
                for ox in 0..routed.width() {
                    let bound = 0.5 * scale_w * a_l1.get(0, oy, ox)
                        + 0.5 * scale_in * w_l1
                        + 0.25 * (k as f32) * scale_in * scale_w
                        + 1e-3 * (1.0 + oracle.get(oc, oy, ox).abs());
                    let diff = (routed.get(oc, oy, ox) - oracle.get(oc, oy, ox)).abs();
                    assert!(
                        diff <= bound,
                        "[{oc},{oy},{ox}] diff {diff} > bound {bound}"
                    );
                }
            }
        }

        // Bands computed with the same deploy-time scale stitch bit-exactly.
        let bands: Vec<Tensor> = [0..4, 4..9, 9..12]
            .map(|rows| conv_band(&input, rows, &filter, &bias, (f, s, p)))
            .into();
        let stitched = concat_rows(&bands).unwrap();
        assert_eq!(stitched, routed, "quantized bands must stitch bit-exactly");
    }

    #[test]
    fn interleave_quads_turns_tap_major_blocks_quad_major() {
        let mut block: [u8; NR * QK] = std::array::from_fn(|i| i as u8);
        interleave_quads(&mut block);
        for lane in 0..NR {
            for l in 0..QK {
                assert_eq!(
                    block[lane * QK + l],
                    (l * NR + lane) as u8,
                    "lane {lane}, tap {l}"
                );
            }
        }
    }

    #[test]
    fn packed_path_is_bit_identical_to_per_call_packing() {
        // Packing is pure data movement: a filter packed afresh for a call
        // equals the one packed up front, panels and output bits alike.
        let input = det_input(3, 14, 10);
        let weights = det_weights(3, 5, 3);
        let bias = vec![0.05; 5];
        let pack = || pack_conv_filter(&weights, 3, 5, 3, 1, None).unwrap();
        let prepacked = pack();
        for rows in [2..12, 0..14] {
            let per_call = pack();
            assert_eq!(per_call, prepacked);
            assert_eq!(
                conv_band(&input, rows.clone(), &per_call, &bias, (3, 1, 1)),
                conv_band(&input, rows, &prepacked, &bias, (3, 1, 1))
            );
        }
    }

    #[test]
    fn rows_band_matches_full_conv() {
        let input = det_input(3, 16, 9);
        let weights = det_weights(3, 5, 3);
        let bias = vec![0.05; 5];
        let geom = (3, 1, 1);
        let full = conv_full(&input, &weights, &bias, geom, Activation::Relu, None).unwrap();

        // Split output rows into 0..6, 6..11, 11..16 and compute each band from
        // the minimal halo slice of the input.  Bands must be *bit-exact*
        // against the full output on the GEMM path — the property the
        // distributed runtime relies on.
        let filter = pack_conv_filter(&weights, 3, 5, 3, 1, None).unwrap();
        let bands: Vec<Tensor> = [0..6, 6..11, 11..16]
            .map(|rows| conv_band(&input, rows, &filter, &bias, geom))
            .into();
        let stitched = concat_rows(&bands).unwrap();
        assert_eq!(stitched, full, "stitched bands must be bit-exact");
    }

    #[test]
    fn direct_rows_band_matches_direct_full() {
        let input = det_input(2, 12, 8);
        let weights = det_weights(2, 3, 3);
        let bias = vec![0.1; 3];
        let full = conv2d_direct(&input, &weights, &bias, 3, 3, 1, 1, Activation::Relu);
        let (lo, hi) = input_rows_for_output(4, 9, 3, 1, 1, 12);
        let band_in = slice_rows(&input, lo, hi).unwrap();
        let band = conv2d_rows_direct(
            &band_in,
            lo,
            12,
            4,
            9,
            &weights,
            &bias,
            3,
            3,
            1,
            1,
            Activation::Relu,
        )
        .unwrap();
        let full_band = slice_rows(&full, 4, 9).unwrap();
        assert_eq!(band, full_band);
    }

    #[test]
    fn rows_band_rejects_missing_halo() {
        let input = det_input(1, 10, 5);
        let weights = det_weights(1, 1, 3);
        let bias = vec![0.0];
        // Band carries rows 4..6 only but output rows 4..6 need input 3..7.
        let band = slice_rows(&input, 4, 6).unwrap();
        let filter = pack_conv_filter(&weights, 1, 1, 3, 1, None).unwrap();
        let r = conv2d_rows_packed(
            &band,
            4,
            10,
            4,
            6,
            &filter,
            &bias,
            3,
            1,
            1,
            Activation::None,
        );
        assert!(r.is_err());
        let rd = conv2d_rows_direct(
            &band,
            4,
            10,
            4,
            6,
            &weights,
            &bias,
            1,
            3,
            1,
            1,
            Activation::None,
        );
        assert!(rd.is_err());
    }

    #[test]
    fn rejects_bad_weight_length() {
        let r = pack_conv_filter(&[0.0; 10], 2, 1, 3, 1, None);
        assert!(matches!(r, Err(TensorError::KernelConfig(_))));
    }

    #[test]
    fn rejects_mismatched_packed_filter() {
        // Filter packed for c_in=2 used on a 3-channel input, on both im2col
        // routes (Winograd's case sits with its tests).
        let weights = det_weights(2, 4, 3);
        let input = det_input(3, 6, 6);
        for pin in [ConvRoute::Gemm, ConvRoute::Quant { scale_in: 0.05 }] {
            let filter = pack_conv_filter(&weights, 2, 4, 3, 1, Some(pin)).unwrap();
            let r = conv2d_rows_packed(
                &input,
                0,
                6,
                0,
                6,
                &filter,
                &[0.0; 4],
                3,
                1,
                1,
                Activation::None,
            );
            assert!(matches!(r, Err(TensorError::KernelConfig(_))), "{pin:?}");
        }
    }

    #[test]
    fn rejects_bad_bias_length() {
        let input = det_input(2, 5, 5);
        let weights = det_weights(2, 3, 3);
        let filter = pack_conv_filter(&weights, 2, 3, 3, 1, None).unwrap();
        let r = conv2d_rows_packed(
            &input,
            0,
            5,
            0,
            5,
            &filter,
            &[0.0; 2],
            3,
            1,
            1,
            Activation::None,
        );
        assert!(matches!(r, Err(TensorError::KernelConfig(_))));
    }

    #[test]
    fn rejects_out_of_range_output_rows() {
        let input = det_input(1, 8, 8);
        let weights = det_weights(1, 1, 3);
        let filter = pack_conv_filter(&weights, 1, 1, 3, 1, None).unwrap();
        let r = conv2d_rows_packed(
            &input,
            0,
            8,
            0,
            9,
            &filter,
            &[0.0],
            3,
            1,
            1,
            Activation::None,
        );
        assert!(r.is_err());
    }
}
