//! Winograd F(2×2,3×3) convolution — the fast path for stride-1 3×3 layers.
//!
//! Each 2×2 block of output pixels is produced from a 4×4 input tile in the
//! transform domain: `Y = Aᵀ [ (G g Gᵀ) ⊙ (Bᵀ d B) ] A`, which spends 16
//! multiplies per 2×2×(3×3) block where the direct form spends 36 — 2.25×
//! fewer.  The element-wise products across channels are batched into 16
//! GEMMs (one per tile position, `c_out × c_in × n_tiles`) that run through
//! the same packed micro-kernel as the GEMM route, so Winograd inherits
//! the register tiling, K-blocking and runtime SIMD dispatch for free.
//!
//! The transform matrices (entries are 0, ±1, ±½ — every multiply exact in
//! binary floating point):
//!
//! ```text
//! Bᵀ = [1  0 -1  0]   G = [ 1    0    0 ]   Aᵀ = [1 1  1  0]
//!      [0  1  1  0]       [ ½    ½    ½ ]        [0 1 -1 -1]
//!      [0 -1  1  0]       [ ½   -½    ½ ]
//!      [0  1  0 -1]       [ 0    0    1 ]
//! ```
//!
//! # Banding and bit-exactness
//!
//! The row-band contract of [`super::conv`] holds *bitwise*: a band of
//! output rows computed here is identical to the same rows of a full-input
//! call.  This rests on a dataflow property of Bᵀ/Aᵀ visible above: output
//! row 0 of a tile is built exclusively from input tile rows 0–2 (`Aᵀ`
//! row 0 ignores `m₃`, and Bᵀ rows 0–2 ignore `d₃`), and output row 1
//! exclusively from input tile rows 1–3 (`Aᵀ` row 1 ignores `m₀`, Bᵀ rows
//! 1–3 ignore `d₀`).  An input row the band does not carry can therefore
//! only feed *discarded* output rows of an edge tile, so loading it as
//! zero — exactly what the loader does for any row outside the band —
//! cannot perturb a kept row.  Tiles are anchored on the full-layer output
//! grid (never the band), every per-element summation has a fixed order
//! (GEMM contract over `c_in`; fixed left-to-right adds in the
//! transforms), and chunking only groups whole tiles, so banding, tiling
//! and threading are all invisible in the output bits.
//!
//! Winograd is *not* bit-identical to the GEMM route (the summation
//! order differs by construction), which is why the route is fixed when
//! [`super::conv::pack_conv_filter`] packs the layer and depends only on
//! layer geometry: every band of a layer takes the same path on every
//! device.

use super::activation::Activation;
use super::conv::ConvBand;
use super::gemm::{gemm_bias_act_into, PackedFilter, NR};
use crate::error::TensorError;
use crate::{Result, Tensor};
use rayon::prelude::*;

/// Whether a conv layer geometry *can* take the Winograd path (the
/// transform is defined for stride-1 3×3 only).
pub const fn winograd_eligible(f: usize, stride: usize) -> bool {
    f == 3 && stride == 1
}

/// Whether the Winograd path is *profitable* for an eligible layer.
///
/// The 2.25× multiply saving has to amortise the input/inverse transforms,
/// whose cost is linear in `c_in + c_out` while the GEMM stage scales with
/// `c_in · c_out` — so thin layers (the RGB stem above all, where the
/// GEMMs are K=3 slivers) run *slower* than the GEMM route.  Channel counts
/// are layer geometry, never band shape, so routing on them preserves the
/// band-stitch bit-exactness contract: every band of a layer takes the
/// same path on every device — one static rule, never a per-device or
/// deploy-time choice.  The threshold comes from the kernel bench
/// (`benches/kernels.rs`, both routes pinned at pack time, one CPU,
/// AVX-512 arm), re-measured after the kernels went to
/// fused multiply-adds, which speed the im2col GEMM more than the
/// transform-bound thin Winograd layers (effective GFLOP/s, the committed
/// `BENCH_kernels.json` run, then the range over six runs of a noisy host):
///
/// ```text
/// 3×3 shape           im2col SIMD      Winograd        before (unfused)
/// 64→64   @ 56×56     49.0  (39–54)    57.2  (38–58)   40.9 vs 36.0
/// 128→128 @ 28×28     68.4  (59–78)    89.4  (75–90)   57.9 vs 57.7 (a tie)
/// 512→512 @ 14×14     83.7  (52–84)   138.2  (96–138)  61.3 vs 91.3
/// ```
///
/// Winograd won at c128 in all six runs, by 16–36 % — what was a tie is a
/// clear win — and the crossover has moved down to about c64, where it led
/// five runs by 5–17 % and trailed one by 3 %.  That is not yet a reason to
/// route c64 here: the margin is inside this host's noise, Winograd panels
/// are 16/9 the bytes, and the c64 layers that matter (64→128 at 112×112)
/// are more transform-bound than the 56×56 bench shape.  The threshold
/// stays at 128 until the end-to-end benchmark says otherwise.
pub const fn winograd_preferred(c_in: usize, c_out: usize) -> bool {
    c_in >= 128 && c_out >= 128
}

/// Per-chunk scratch budget in floats (the V and M buffers together, 2 MiB
/// — one L2) — bounds how many tiles are in flight at once.
///
/// A chunk of `n` tiles holds `16·(c_in + c_out)·n` floats of V and M, and
/// each of its sixteen GEMMs streams one `U[t]` (256 KiB at c256, 1 MiB at
/// c512: 4 and 16 MiB per chunk).  So it is V and M the budget keeps near
/// the cache between the transform, GEMM and inverse stages, never U — the
/// larger stream, re-read from L3 once per chunk, and cheap at that:
/// `32·c_in·c_out·n` flops per `64·c_in·c_out` bytes is `n/2` flops per
/// byte, under 3 GB/s of sequential reads from `n = 28` up.  The budget
/// gives VGG's layers chunks of 84 (c128→256), 56 (c256→256), 42 (c256→512)
/// and 28 tiles (c512→512), most of them under the GEMM's `4·NR`-column
/// wide path.  That was suspected of holding these layers back; it does
/// not, now that the AVX-512 arm runs panel pairs on the narrow path too.
/// One-CPU sweep of tile rows per chunk on the VGG-11 shapes (full plane,
/// min of 15 interleaved calls, ms; `n` tiles and MiB of V + M per chunk):
///
/// ```text
/// c256→256 @56×56          c512→512 @28×28          c128→256 @56×56
///   n   V+M    ms            n   V+M    ms            n   V+M    ms
///   28  0.9   34.4           14  0.9   40.1           28  0.7   16.6
///   56  1.8   32.8           28  1.8   32.5           84  2.0   18.3
///  112  3.5   31.5           42  2.6   31.6          140  3.3   17.5
///  196  6.1   32.4           70  4.4   36.1          280  6.6   16.5
///  392 12.2   32.6          140  8.8   35.7          392  9.2   17.5
///  784 24.5   34.5          196 12.2   33.2          784 18.4   19.6
/// ```
///
/// Under 28 tiles a GEMM is mostly lane padding; from there the curve is
/// flat to within the host's noise (±5 %) up to ~8 MiB, c512 if anything
/// preferring the resident end — so chunking to `n ≥ 4·NR` from the layer
/// geometry (tried: 4 and 8 MiB budgets, a `4·NR` floor, even chunks, with
/// and without sliver-free column tiles in the GEMM driver) bought 6–11 %
/// on c256→256 alone, lost as much on the c512 layers, and was left out.
const SCRATCH_FLOATS: usize = 512 * 1024;

/// A 3×3 filter bank transformed into the Winograd domain and packed for
/// the GEMM micro-kernel: `u[t]` holds the `c_out × c_in` matrix of
/// `U = G g Gᵀ` values at tile position `t = 4·r + c`.
///
/// Built once at deploy time (inside
/// [`super::conv::pack_conv_filter`], for the layers the route sends
/// here — it then is the layer's only resident form); ~16/9 the bytes of
/// the GEMM panels the same layer would otherwise hold.
#[derive(Debug, Clone, PartialEq)]
pub struct WinogradFilter {
    c_in: usize,
    u: Vec<PackedFilter>,
}

impl WinogradFilter {
    /// Transforms `[c_out][c_in][3][3]` weights into 16 packed
    /// `c_out × c_in` tile-position matrices.
    pub(super) fn pack(weights: &[f32], c_in: usize, c_out: usize) -> Result<Self> {
        if weights.len() != c_out * c_in * 9 {
            return Err(TensorError::KernelConfig(format!(
                "winograd weights length {} != c_out*c_in*9 = {}",
                weights.len(),
                c_out * c_in * 9
            )));
        }
        // Each transformed value goes straight to its panel slot: no
        // unpacked copy of the sixteen matrices (16/9 of the layer) is held.
        let mut u: Vec<PackedFilter> = (0..16).map(|_| PackedFilter::zeroed(c_out, c_in)).collect();
        for oc in 0..c_out {
            for ic in 0..c_in {
                let g = &weights[(oc * c_in + ic) * 9..][..9];
                // t = G·g (4×3): rows g₀ ; ½(g₀+g₁+g₂) ; ½(g₀−g₁+g₂) ; g₂.
                let mut t = [[0.0f32; 3]; 4];
                for j in 0..3 {
                    let (g0, g1, g2) = (g[j], g[3 + j], g[6 + j]);
                    t[0][j] = g0;
                    t[1][j] = 0.5 * (g0 + g1 + g2);
                    t[2][j] = 0.5 * (g0 - g1 + g2);
                    t[3][j] = g2;
                }
                // U = t·Gᵀ (4×4): the same pattern across each row's columns.
                for r in 0..4 {
                    let (t0, t1, t2) = (t[r][0], t[r][1], t[r][2]);
                    let row = [t0, 0.5 * (t0 + t1 + t2), 0.5 * (t0 - t1 + t2), t2];
                    for (c, &v) in row.iter().enumerate() {
                        u[r * 4 + c].set(oc, ic, v);
                    }
                }
            }
        }
        Ok(Self { c_in, u })
    }

    /// Number of output channels.
    pub fn c_out(&self) -> usize {
        self.u[0].m()
    }

    /// Number of input channels.
    pub fn c_in(&self) -> usize {
        self.c_in
    }

    /// Bytes held by the 16 packed tile-position matrices.
    pub fn bytes(&self) -> usize {
        self.u.iter().map(PackedFilter::bytes).sum()
    }
}

/// Winograd convolution of the row band `band` describes — what
/// [`super::conv::conv2d_rows_packed`] runs for a filter packed on the
/// Winograd route, which is where the band, the bias length and the input's
/// channel count were checked against the pack.
///
/// `chunk_ty` is the tile rows per chunk (`None`: as many as
/// [`SCRATCH_FLOATS`] holds).  Chunking only groups whole tiles, and no
/// element's `k` order depends on how many columns its GEMM call carries,
/// so every value yields the same output bits — the parameter exists for
/// the test that says so.
pub(super) fn winograd_rows(
    input: &Tensor,
    band: &ConvBand,
    filter: &WinogradFilter,
    bias: &[f32],
    act: Activation,
    chunk_ty: Option<usize>,
) -> Result<Tensor> {
    debug_assert!(winograd_eligible(band.f, band.stride) && filter.c_in == band.c_in);
    let c_out = filter.c_out();
    let &ConvBand {
        c_in,
        band_h,
        w_in,
        in_row_offset,
        out_start,
        out_end,
        out_w,
        padding,
        ..
    } = band;
    let out_rows = band.out_rows();
    let in_data = input.data();
    let pad = padding as isize;

    // Tile grid in *full-layer* coordinates: tile (ty, tx) produces output
    // rows 2ty..2ty+2 and columns 2tx..2tx+2.  The band covers tile rows
    // [ty0, ty1); edge tiles may stick out of the band (rows discarded).
    let tiles_x = out_w.div_ceil(2);
    let ty0 = out_start / 2;
    let ty1 = (out_end - 1) / 2 + 1;

    // Whole tile rows per chunk, sized to the scratch budget.
    let chunk_ty = chunk_ty.unwrap_or_else(|| {
        let nt_cap = (SCRATCH_FLOATS / (16 * (c_in + c_out))).max(tiles_x);
        nt_cap / tiles_x
    });
    let nt_max = chunk_ty.min(ty1 - ty0) * tiles_x;

    // Interior tile-column range: every load `ix = 2·tx − pad + c`,
    // `c ∈ 0..4`, lands inside `[0, w_in)` — no bounds checks needed.
    let tx_int_lo = padding.div_ceil(2).min(tiles_x);
    let tx_int_hi = if w_in + padding >= 4 {
        (((w_in + padding - 4) / 2) + 1).clamp(tx_int_lo, tiles_x)
    } else {
        tx_int_lo
    };

    let zero_bias = vec![0.0f32; c_out];
    let mut data = vec![0.0f32; c_out * out_rows * out_w];
    // V / M scratch reused across chunks (the budget keeps both ~1 MiB).
    let mut v = vec![0.0f32; c_in * 16 * nt_max];
    let mut m = vec![0.0f32; 16 * c_out * nt_max];

    let mut cy0 = ty0;
    while cy0 < ty1 {
        let cy1 = (cy0 + chunk_ty).min(ty1);
        let nt = (cy1 - cy0) * tiles_x;

        // Stage 1 — input transform, parallel over input-channel planes:
        // V[ic][t][j] = (Bᵀ d B) at tile position t for tile j.
        v[..c_in * 16 * nt]
            .par_chunks_mut(16 * nt)
            .enumerate()
            .for_each(|(ic, vplane)| {
                let plane = &in_data[ic * band_h * w_in..(ic + 1) * band_h * w_in];
                // Generic tile: anything outside the band (zero padding *or*
                // halo rows this band does not carry — see the module docs)
                // reads as zero.
                let edge_tile = |vplane: &mut [f32], ti: usize, tyi: usize, tx: usize| {
                    let mut d = [[0.0f32; 4]; 4];
                    let iy_base = 2 * tyi as isize - pad;
                    let ix_base = 2 * tx as isize - pad;
                    for (r, dr) in d.iter_mut().enumerate() {
                        let iy = iy_base + r as isize;
                        if iy < in_row_offset as isize || iy >= (in_row_offset + band_h) as isize {
                            continue;
                        }
                        let row = &plane[(iy as usize - in_row_offset) * w_in..];
                        for (c, dv) in dr.iter_mut().enumerate() {
                            let ix = ix_base + c as isize;
                            if ix >= 0 && ix < w_in as isize {
                                *dv = row[ix as usize];
                            }
                        }
                    }
                    // Bᵀ·d (rows), then ·B (columns) — fixed add order.
                    let mut t = [[0.0f32; 4]; 4];
                    for j in 0..4 {
                        t[0][j] = d[0][j] - d[2][j];
                        t[1][j] = d[1][j] + d[2][j];
                        t[2][j] = d[2][j] - d[1][j];
                        t[3][j] = d[1][j] - d[3][j];
                    }
                    for (r, tr) in t.iter().enumerate() {
                        let vr = [tr[0] - tr[2], tr[1] + tr[2], tr[2] - tr[1], tr[1] - tr[3]];
                        for (c, &vv) in vr.iter().enumerate() {
                            vplane[(r * 4 + c) * nt + ti] = vv;
                        }
                    }
                };
                for tyi in cy0..cy1 {
                    let row0 = (tyi - cy0) * tiles_x;
                    let iy_base = 2 * tyi as isize - pad;
                    let interior_rows = iy_base >= in_row_offset as isize
                        && iy_base + 3 < (in_row_offset + band_h) as isize;
                    if !interior_rows {
                        for tx in 0..tiles_x {
                            edge_tile(vplane, row0 + tx, tyi, tx);
                        }
                        continue;
                    }
                    for tx in 0..tx_int_lo {
                        edge_tile(vplane, row0 + tx, tyi, tx);
                    }
                    // Interior fast path: four in-bounds row slices, no
                    // per-element checks.  Same expression tree as
                    // `edge_tile` — bitwise identical results.
                    let base = (iy_base as usize - in_row_offset) * w_in;
                    let rows: [&[f32]; 4] =
                        std::array::from_fn(|r| &plane[base + r * w_in..base + r * w_in + w_in]);
                    for tx in tx_int_lo..tx_int_hi {
                        let ti = row0 + tx;
                        let ix = 2 * tx - padding;
                        let mut t = [[0.0f32; 4]; 4];
                        for (c, j) in (ix..ix + 4).enumerate() {
                            let (d0, d1, d2, d3) = (rows[0][j], rows[1][j], rows[2][j], rows[3][j]);
                            t[0][c] = d0 - d2;
                            t[1][c] = d1 + d2;
                            t[2][c] = d2 - d1;
                            t[3][c] = d1 - d3;
                        }
                        for (r, tr) in t.iter().enumerate() {
                            let o = (r * 4) * nt + ti;
                            vplane[o] = tr[0] - tr[2];
                            vplane[o + nt] = tr[1] + tr[2];
                            vplane[o + 2 * nt] = tr[2] - tr[1];
                            vplane[o + 3 * nt] = tr[1] - tr[3];
                        }
                    }
                    for tx in tx_int_hi..tiles_x {
                        edge_tile(vplane, row0 + tx, tyi, tx);
                    }
                }
            });

        // Stage 2 — 16 batched GEMMs through the packed micro-kernel:
        // M[t] = U[t] · V[t], each `c_out × c_in × nt`.
        for (t, mt) in m[..16 * c_out * nt].chunks_mut(c_out * nt).enumerate() {
            let vt = &v;
            let fill = move |k0: usize, k1: usize, j0: usize, j1: usize, buf: &mut [f32]| {
                let kc = k1 - k0;
                for kk in 0..kc {
                    let src = &vt[((k0 + kk) * 16 + t) * nt + j0..][..j1 - j0];
                    let mut jj = 0usize;
                    while jj < src.len() {
                        let take = NR.min(src.len() - jj);
                        let dst = ((jj / NR) * kc + kk) * NR;
                        buf[dst..dst + take].copy_from_slice(&src[jj..jj + take]);
                        jj += take;
                    }
                }
            };
            gemm_bias_act_into(&filter.u[t], &zero_bias, Activation::None, nt, &fill, mt)?;
        }

        // Stage 3 — inverse transform + bias + activation, parallel over
        // output-channel planes, scattering 2×2 blocks into place.
        let oy_lo = out_start.max(2 * cy0);
        let oy_hi = out_end.min(2 * cy1);
        // Tile columns whose 2×2 block is entirely inside the output width.
        let tx_full = out_w / 2;
        let mslice = &m[..16 * c_out * nt];
        data.par_chunks_mut(out_rows * out_w)
            .enumerate()
            .for_each(|(oc, oplane)| {
                let b = bias[oc];
                // The 16 tile-position planes of this output channel.
                let mp: [&[f32]; 16] =
                    std::array::from_fn(|t| &mslice[(t * c_out + oc) * nt..][..nt]);
                // Generic tile: per-row/per-column clipping against the band
                // and the output width.
                let edge_tile = |oplane: &mut [f32], ti: usize, tyi: usize, tx: usize| {
                    let mut m4 = [[0.0f32; 4]; 4];
                    for (r, mr) in m4.iter_mut().enumerate() {
                        for (c, mv) in mr.iter_mut().enumerate() {
                            *mv = mp[r * 4 + c][ti];
                        }
                    }
                    // s = Aᵀ·m, then y = s·A — fixed add order again.
                    let mut s = [[0.0f32; 4]; 2];
                    for j in 0..4 {
                        s[0][j] = m4[0][j] + m4[1][j] + m4[2][j];
                        s[1][j] = (m4[1][j] - m4[2][j]) - m4[3][j];
                    }
                    for (r, sr) in s.iter().enumerate() {
                        let oy = 2 * tyi + r;
                        if oy < oy_lo || oy >= oy_hi {
                            continue;
                        }
                        let y = [sr[0] + sr[1] + sr[2], (sr[1] - sr[2]) - sr[3]];
                        let orow = (oy - out_start) * out_w;
                        for (dx, &yv) in y.iter().enumerate() {
                            let ox = 2 * tx + dx;
                            if ox < out_w {
                                oplane[orow + ox] = act.apply(b + yv);
                            }
                        }
                    }
                };
                for tyi in cy0..cy1 {
                    let row0 = (tyi - cy0) * tiles_x;
                    let oy = 2 * tyi;
                    if oy < oy_lo || oy + 1 >= oy_hi {
                        for tx in 0..tiles_x {
                            edge_tile(oplane, row0 + tx, tyi, tx);
                        }
                        continue;
                    }
                    // Interior fast path: both output rows and both columns
                    // land in the band — no clipping.  Same expression tree
                    // as `edge_tile` — bitwise identical results.
                    let orow = (oy - out_start) * out_w;
                    for tx in 0..tx_full {
                        let ti = row0 + tx;
                        let mut s = [[0.0f32; 4]; 2];
                        for j in 0..4 {
                            let (m0, m1, m2, m3) =
                                (mp[j][ti], mp[4 + j][ti], mp[8 + j][ti], mp[12 + j][ti]);
                            s[0][j] = m0 + m1 + m2;
                            s[1][j] = (m1 - m2) - m3;
                        }
                        let o = orow + 2 * tx;
                        oplane[o] = act.apply(b + (s[0][0] + s[0][1] + s[0][2]));
                        oplane[o + 1] = act.apply(b + ((s[0][1] - s[0][2]) - s[0][3]));
                        oplane[o + out_w] = act.apply(b + (s[1][0] + s[1][1] + s[1][2]));
                        oplane[o + out_w + 1] = act.apply(b + ((s[1][1] - s[1][2]) - s[1][3]));
                    }
                    for tx in tx_full..tiles_x {
                        edge_tile(oplane, row0 + tx, tyi, tx);
                    }
                }
            });

        cy0 = cy1;
    }
    band.output(c_out, data)
}

#[cfg(test)]
mod tests {
    use super::super::conv::{
        conv2d_direct, conv2d_rows_packed, im2col_weight_len, pack_conv_filter, ConvRoute,
        PackedConvFilter,
    };
    use super::*;
    use crate::shape::input_rows_for_output;
    use crate::slice::{concat_rows, slice_rows};

    fn det_weights(c_in: usize, c_out: usize) -> Vec<f32> {
        (0..im2col_weight_len(c_in, c_out, 3))
            .map(|i| ((i % 7) as f32 - 3.0) * 0.25)
            .collect()
    }

    fn det_input(c: usize, h: usize, w: usize) -> Tensor {
        Tensor::from_fn([c, h, w], |c, y, x| {
            ((c * 31 + y * 7 + x * 3) % 11) as f32 * 0.5 - 2.0
        })
    }

    /// A filter pinned to this module's route, whatever the channel counts.
    fn pack_pinned(weights: &[f32], c_in: usize, c_out: usize) -> PackedConvFilter {
        let filter = pack_conv_filter(weights, c_in, c_out, 3, 1, Some(ConvRoute::Winograd));
        let filter = filter.unwrap();
        assert!(filter.winograd().is_some());
        filter
    }

    #[test]
    fn eligibility_is_stride1_3x3_only() {
        assert!(winograd_eligible(3, 1));
        assert!(!winograd_eligible(3, 2));
        assert!(!winograd_eligible(1, 1));
        assert!(!winograd_eligible(5, 1));
    }

    #[test]
    fn filter_transform_of_ones_matches_hand_computation() {
        // g = all ones: G·g·Gᵀ has rows (1, 3/2, 1/2, 1) scaled by the same
        // column pattern — U[0][0]=1, U[1][1]=9/4, U[3][3]=1, U[0][1]=3/2.
        let f = WinogradFilter::pack(&[1.0; 9], 1, 1).unwrap();
        // A 1×1-channel matrix packs its single value at panel slot 0.
        let at = |t: usize| f.u[t].panel(0, 0, 1)[0];
        assert_eq!(at(0), 1.0);
        assert_eq!(at(1), 1.5);
        assert_eq!(at(5), 2.25);
        assert_eq!(at(15), 1.0);
    }

    #[test]
    fn matches_direct_oracle_within_relative_tolerance() {
        for &(c_in, c_out, h, w, p) in &[
            (1usize, 1usize, 6usize, 6usize, 1usize),
            (3, 5, 13, 11, 1),
            (2, 4, 9, 16, 0),
            (4, 3, 7, 7, 1),
        ] {
            let input = det_input(c_in, h, w);
            let weights = det_weights(c_in, c_out);
            let bias: Vec<f32> = (0..c_out).map(|i| (i as f32) * 0.1 - 0.2).collect();
            let filter = pack_pinned(&weights, c_in, c_out);
            let got = conv2d_rows_packed(
                &input,
                0,
                h,
                0,
                h + 2 * p - 2,
                &filter,
                &bias,
                3,
                1,
                p,
                Activation::Relu,
            )
            .unwrap();
            let want = conv2d_direct(&input, &weights, &bias, c_out, 3, 1, p, Activation::Relu);
            assert_eq!(got.shape(), want.shape());
            for (i, (&a, &b)) in got.data().iter().zip(want.data()).enumerate() {
                let tol = 1e-3 * (1.0 + a.abs().max(b.abs()));
                assert!(
                    (a - b).abs() <= tol,
                    "({c_in},{c_out},{h},{w},p{p})[{i}]: {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn bands_stitch_bit_exactly_including_odd_cuts() {
        // Odd band boundaries split 2×2 output tiles across bands — the
        // hardest case for the zero-fill halo argument in the module docs.
        let (c_in, c_out, h, w, p) = (3, 4, 17, 13, 1);
        let input = det_input(c_in, h, w);
        let weights = det_weights(c_in, c_out);
        let bias = vec![0.05; c_out];
        let filter = pack_pinned(&weights, c_in, c_out);
        let full = conv2d_rows_packed(
            &input,
            0,
            h,
            0,
            h,
            &filter,
            &bias,
            3,
            1,
            p,
            Activation::Relu,
        )
        .unwrap();

        let cuts = [5usize, 8, 13, 17];
        let mut start = 0usize;
        let mut bands = Vec::new();
        for &end in &cuts {
            let (lo, hi) = input_rows_for_output(start, end, 3, 1, p, h);
            let band_in = slice_rows(&input, lo, hi).unwrap();
            let band = conv2d_rows_packed(
                &band_in,
                lo,
                h,
                start,
                end,
                &filter,
                &bias,
                3,
                1,
                p,
                Activation::Relu,
            )
            .unwrap();
            bands.push(band);
            start = end;
        }
        assert_eq!(concat_rows(&bands).unwrap(), full);
    }

    #[test]
    fn chunking_never_changes_an_output_bit() {
        // Inexact operands (no sum here is exactly representable), a band
        // with odd cuts, and enough tile rows that 1, 2 and all of them per
        // chunk are three different groupings — plus whatever the sizing
        // rule picks.  Every grouping must produce the same bits.
        let (c_in, c_out, h, w, p) = (5usize, 7usize, 21usize, 13usize, 1usize);
        let input = Tensor::from_fn([c_in, h, w], |c, y, x| {
            ((c * 31 + y * 7 + x * 3) % 97) as f32 * 0.013 - 0.6
        });
        let weights: Vec<f32> = (0..im2col_weight_len(c_in, c_out, 3))
            .map(|i| ((i * 37) % 101) as f32 * 0.0071 - 0.35)
            .collect();
        let bias: Vec<f32> = (0..c_out).map(|i| i as f32 * 0.03 - 0.1).collect();
        let filter = WinogradFilter::pack(&weights, c_in, c_out).unwrap();
        let (start, end) = (3usize, 18usize);
        let (lo, hi) = input_rows_for_output(start, end, 3, 1, p, h);
        let band_in = slice_rows(&input, lo, hi).unwrap();
        let band = ConvBand::new(&band_in, lo, h, start..end, 3, 1, p).unwrap();
        let run = |chunk_ty: Option<usize>| {
            winograd_rows(&band_in, &band, &filter, &bias, Activation::Relu, chunk_ty).unwrap()
        };
        let auto = run(None);
        let tile_rows = (end - 1) / 2 + 1 - start / 2;
        assert!(tile_rows > 4);
        for chunk_ty in [1, 2, tile_rows] {
            assert_eq!(run(Some(chunk_ty)), auto, "{chunk_ty} tile rows per chunk");
        }
    }

    #[test]
    fn rejects_channel_mismatch() {
        let filter = pack_pinned(&det_weights(2, 3), 2, 3);
        let input = det_input(3, 6, 6);
        let r = conv2d_rows_packed(
            &input,
            0,
            6,
            0,
            6,
            &filter,
            &[0.0; 3],
            3,
            1,
            1,
            Activation::None,
        );
        assert!(matches!(r, Err(TensorError::KernelConfig(_))));
    }

    #[test]
    fn rejects_bad_weight_length() {
        assert!(WinogradFilter::pack(&[0.0; 10], 1, 1).is_err());
    }
}
