//! Cache-blocked, register-tiled GEMM with a fused epilogue — the compute
//! core of the packed convolution paths (f32 im2col and Winograd here, int8
//! im2col in [`super::qgemm`]).  Linear layers are matrix-vector products
//! and run on the row-vectorised kernels in [`super::gemv`] instead, under
//! the same numerical contracts.
//!
//! The f32 kernel computes `C[r][j] = act(bias[r] + Σ_k A[r][k] · B[k][j])`
//! where `A` is a weight matrix prepacked into [`PackedFilter`] row panels
//! (ideally once, at deploy time) and `B` is produced on the fly in column
//! panels by a caller-supplied filler — the im2col lowering for
//! convolutions.
//!
//! **One driver for both number formats.**  The blocked driver below runs
//! the f32 and the int8 GEMM alike; a `Format` supplies only what differs
//! between them — the B element and the padding value panels are pre-filled
//! with, the accumulator, how many K elements a panel groups together, each
//! row's start value, the register-tile block and the per-row epilogue.
//! The driver owns the rest, once: three levels of blocking,
//!
//! * **register tile** — the micro-kernel holds an `MR × NR` accumulator
//!   block in registers and streams one A panel against one B panel (the
//!   f32 AVX-512 arm: against two adjacent B panels, an `MR × 2·NR` block);
//! * **K blocking** — the shared dimension is processed in slices of at
//!   most [`KC`], so one B slice (≤ `KC × tile` elements) stays cache-hot
//!   while every A panel streams over it;
//! * **parallel tiles** — wide outputs are split into *column tiles* (for
//!   convolutions these are row bands of the output image) processed by
//!   rayon tasks; narrow outputs (fewer than `4·NR` columns) share one B
//!   across row-panel groups instead (see `MIN_COLS_FOR_TILING`),
//!
//! and the buffers: B panels are staged in a buffer pre-filled with
//! padding, accumulators start at their row's start value in the first K
//! slice and wait in a C tile between slices, and the last slice hands
//! them to the epilogue, which writes `out` (a column tile's private
//! output tile on the wide path, scattered into `out` at the end).
//!
//! Numerical contract (stated in full in [`super`]): for a given f32 output
//! element the steps happen in exactly the order `bias, k=0, 1, …, K-1` —
//! a single accumulator, never split across `k`, each step one fused
//! multiply-add `acc = fma(a, b, acc)` — then `act` once, regardless of
//! tile sizes, thread counts, whether the columns were computed in one call
//! or many, or which micro-kernel arm ([`super::dispatch`]) executed it.
//! This is what makes the packed path deterministic: a band computed on a
//! provider is bit-identical to the same rows of a full-output call even
//! across machines with different SIMD capability, so the runtime's
//! bit-exactness guarantees survive the fast path.

use super::activation::Activation;
#[cfg(target_arch = "x86_64")]
use super::dispatch::hw_fma;
use super::dispatch::{kernel_arch, KernelArch};
use crate::error::TensorError;
use crate::Result;
use rayon::prelude::*;
use std::ops::Range;

/// Rows per register tile (output channels / features per micro-kernel).
/// Six rows × sixteen columns is twelve `ymm` accumulators on the AVX2 arm
/// (plus two B-panel vectors and one broadcast: fifteen of its sixteen
/// registers) but only six `zmm` on the AVX-512 arm — too few independent
/// chains to cover a 4-cycle FMA on two ports (that takes eight), which is
/// why that arm runs two adjacent `NR` panels per call: twelve `zmm`
/// accumulators, two B vectors and a broadcast of its thirty-two registers.
pub const MR: usize = 6;
/// Columns per register tile (output pixels per micro-kernel).
pub const NR: usize = 16;
/// K-dimension block: one B slice is at most `KC × tile` elements.
pub const KC: usize = 256;

/// A weight matrix `[m][k]` repacked into `MR`-row panels for the
/// micro-kernel: panel `p` holds rows `p*MR ..`, stored k-major
/// (`data[(p*k + kk)*MR + r] = w[p*MR + r][kk]`), zero-padded to a full
/// panel so the kernel never branches on the row edge.
///
/// Packing is pure data movement — no arithmetic — so a GEMM over a
/// prepacked filter is bit-identical to one that packs on the fly.
#[derive(Debug, Clone, PartialEq)]
pub struct PackedFilter {
    m: usize,
    k: usize,
    data: Vec<f32>,
}

impl PackedFilter {
    /// Packs a row-major `[m][k]` weight matrix into micro-kernel panels.
    pub fn pack(weights: &[f32], m: usize, k: usize) -> Result<Self> {
        if weights.len() != m * k {
            return Err(TensorError::KernelConfig(format!(
                "packed filter expects {m}x{k} = {} weights, got {}",
                m * k,
                weights.len()
            )));
        }
        let panels = m.div_ceil(MR);
        let mut data = vec![0.0f32; panels * k * MR];
        for p in 0..panels {
            let rows = (m - p * MR).min(MR);
            let base = p * k * MR;
            // Row-outer order: each source row is read contiguously and the
            // panel written at stride MR.
            for r in 0..rows {
                let row = &weights[(p * MR + r) * k..(p * MR + r + 1) * k];
                for (kk, &v) in row.iter().enumerate() {
                    data[base + kk * MR + r] = v;
                }
            }
        }
        Ok(Self { m, k, data })
    }

    /// Number of output rows (channels / features).
    pub fn m(&self) -> usize {
        self.m
    }

    /// Shared dimension length.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Bytes held by the packed panels (including row padding).
    pub fn bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<f32>()
    }

    /// The packed panel of rows `p*MR ..`, restricted to k slice
    /// `[k0, k1)`: a contiguous `(k1-k0) × MR` block.
    #[inline]
    pub(super) fn panel(&self, p: usize, k0: usize, k1: usize) -> &[f32] {
        let base = p * self.k * MR;
        &self.data[base + k0 * MR..base + k1 * MR]
    }
}

/// A B-panel filler: `fill(k0, k1, j0, j1, buf)` writes B values for k rows
/// `[k0, k1)` and output columns `[j0, j1)` into `buf`, which is laid out in
/// `NR`-column panels (`buf[(q*(k1-k0) + kk)*NR + jj] = B[k0+kk][j0 + q*NR
/// + jj]`).  `buf` arrives zeroed; the filler only writes non-zero entries.
/// Any `[k0, k1)` may be asked for: the driver fills per [`KC`] slice on
/// wide outputs and all of `k` at once on narrow ones.
pub trait PanelFill: Sync {
    /// Writes one k-slice of B panels (see trait docs for the layout).
    fn fill(&self, k0: usize, k1: usize, j0: usize, j1: usize, buf: &mut [f32]);
}

impl<F> PanelFill for F
where
    F: Fn(usize, usize, usize, usize, &mut [f32]) + Sync,
{
    fn fill(&self, k0: usize, k1: usize, j0: usize, j1: usize, buf: &mut [f32]) {
        self(k0, k1, j0, j1, buf)
    }
}

/// Outputs narrower than this take the narrow path: one whole-`k` B shared
/// by row-panel groups, instead of column tiles that each lower their own
/// B slice.  With several workers that is what keeps them all busy on a
/// handful of columns; on one worker the two paths do the same arithmetic
/// through the same micro-kernels and differ only in how B is staged (the
/// row groups still pay there: a group's C rows and A slice stay cache-hot
/// across the K blocks).  Callers that land here: conv bands of fewer than
/// `4·NR` output pixels, and most of Winograd's per-position GEMMs — its
/// chunks hold 21–84 tiles on VGG's c256/c512 layers, which measures as
/// fast as any wider chunk once the AVX-512 arm runs panel pairs here too
/// (see `SCRATCH_FLOATS` in [`super::winograd`]).
const MIN_COLS_FOR_TILING: usize = 4 * NR;
/// Parallel grain target: aim for this many tasks per available thread.
const TASKS_PER_THREAD: usize = 3;
/// Upper bound on a column tile.  Every A row panel re-streams the tile's
/// B slice once per K block, so the slice (`KC × MAX_TILE_COLS` floats,
/// 256 KiB) must stay L2-resident; letting it grow toward L3 costs ~35% on
/// wide layers (56×56 images on few cores reach multi-thousand-column
/// tiles without this cap).
const MAX_TILE_COLS: usize = 256;

/// The accumulators of one register-tile call: up to two adjacent `NR`
/// panels of `MR` rows.
pub(super) type AccTile<T> = [[[T; NR]; MR]; 2];

/// What a number format brings to the blocked [`drive`]r — and nothing
/// else: the driver never asks which format it runs.
pub(super) trait Format: Sync {
    /// One B-panel element.
    type B: Copy + Send + Sync;
    /// One accumulator.
    type Acc: Copy + Default + Send + Sync;
    /// The format's micro-kernel arm family.
    type Arch: Copy + Send + Sync;
    /// The B value that stands for zero; panel buffers are pre-filled with
    /// it, so padding costs fillers nothing.
    const PAD: Self::B;
    /// K elements per panel group: a B panel holds `NR × KG` elements per
    /// group, groups ascending in `k`.  Divides [`KC`].
    const KG: usize;
    /// Output rows.
    fn m(&self) -> usize;
    /// Shared dimension, in elements.
    fn k(&self) -> usize;
    /// The arm this call runs on — read once per call and passed down, so
    /// every worker inside one call runs the same arm.
    fn arch() -> Self::Arch;
    /// B panels one register-tile call takes on `arch`: 1 or 2.
    fn panels_per_call(arch: Self::Arch) -> usize;
    /// The start value of row `r`'s accumulators.
    fn start(&self, r: usize) -> Self::Acc;
    /// The register-tile block: `acc[h] += A[row panel p, groups g] · b[h]`
    /// for each of the (one or two) B panels in `b`.
    fn block(
        &self,
        arch: Self::Arch,
        p: usize,
        g: Range<usize>,
        b: &[&[Self::B]],
        acc: &mut AccTile<Self::Acc>,
    );
    /// The epilogue: row `r`'s finished accumulators to output values.
    fn finish(&self, r: usize, acc: &[Self::Acc], out: &mut [f32]);
}

/// Checks the output geometry and runs `fmt` over `n` output columns into
/// the row-major `[m][n]` buffer `out`, B produced by `fill` (laid out as
/// [`PanelFill`] says, per K group of `F::KG` elements).
pub(super) fn drive<F: Format>(
    fmt: &F,
    bias: &[f32],
    n: usize,
    fill: &(impl Fn(usize, usize, usize, usize, &mut [F::B]) + Sync),
    out: &mut [f32],
) -> Result<()> {
    let (m, k) = (fmt.m(), fmt.k());
    if bias.len() != m {
        return Err(TensorError::KernelConfig(format!(
            "gemm bias length {} != m {m}",
            bias.len()
        )));
    }
    if out.len() != m * n {
        return Err(TensorError::KernelConfig(format!(
            "gemm output length {} != m*n = {}",
            out.len(),
            m * n
        )));
    }
    if n == 0 || m == 0 {
        return Ok(());
    }
    let arch = F::arch();
    let group = NR * F::KG;
    // The K slices: the element range and the panel-group range of each.
    let slices = || {
        (0..k).step_by(KC).map(|k0| {
            let k1 = (k0 + KC).min(k);
            (k0..k1, k0 / F::KG..k1.div_ceil(F::KG))
        })
    };
    // Partial sums between K slices; a single-slice product never needs them.
    let partials = |len: usize| vec![F::Acc::default(); if k > KC { len } else { 0 }];
    let tasks = TASKS_PER_THREAD * rayon::current_num_threads();

    if n >= MIN_COLS_FOR_TILING {
        // Wide output: parallelise over column tiles (output row bands for
        // the convolution callers).  Each task stages its own B slice per
        // K block into a private tile; the tiles are scattered into `out`
        // afterwards.
        let tile = n
            .div_ceil(tasks)
            .next_multiple_of(NR)
            .clamp(NR, MAX_TILE_COLS);
        let tiles: Vec<(Range<usize>, Vec<f32>)> = (0..n.div_ceil(tile))
            .into_par_iter()
            .map(|t| {
                let cols = t * tile..((t + 1) * tile).min(n);
                let tn = cols.len();
                let panels = tn.div_ceil(NR);
                let (mut c, mut done) = (partials(m * tn), vec![0.0f32; m * tn]);
                let mut b = vec![F::PAD; panels * KC.min(k).div_ceil(F::KG) * group];
                for (ks, g) in slices() {
                    let slice = &mut b[..panels * g.len() * group];
                    slice.fill(F::PAD);
                    fill(ks.start, ks.end, cols.start, cols.end, slice);
                    let stage = Panels {
                        data: slice,
                        groups: g.len(),
                        g0: g.start,
                        n: tn,
                    };
                    tile_block(fmt, arch, 0..m, g, &stage, &mut c, &mut done);
                }
                (cols, done)
            })
            .collect();
        for (cols, done) in tiles {
            for (r, row) in done.chunks_exact(cols.len()).enumerate() {
                out[r * n + cols.start..r * n + cols.end].copy_from_slice(row);
            }
        }
    } else {
        // Narrow output (see `MIN_COLS_FOR_TILING`): one B over all of `k`,
        // filled once and shared by row-panel groups that each write their
        // own chunk of `out`.
        let panels = n.div_ceil(NR);
        let kg = k.div_ceil(F::KG);
        let mut b = vec![F::PAD; panels * kg * group];
        fill(0, k, 0, n, &mut b);
        let whole = Panels {
            data: &b,
            groups: kg,
            g0: 0,
            n,
        };
        let group_rows = m
            .div_ceil(tasks)
            .next_multiple_of(MR)
            .min(m.next_multiple_of(MR));
        out.par_chunks_mut(group_rows * n)
            .enumerate()
            .for_each(|(i, chunk)| {
                let rows = i * group_rows..((i + 1) * group_rows).min(m);
                let mut c = partials(chunk.len());
                for (_, g) in slices() {
                    tile_block(fmt, arch, rows.clone(), g, &whole, &mut c, chunk);
                }
            });
    }
    Ok(())
}

/// Staged B: `ceil(n/NR)` column panels of `groups` K groups each, holding
/// groups `g0 ..` (a per-slice stage starts at its slice, the whole-`k`
/// stage at 0).
struct Panels<'a, T> {
    data: &'a [T],
    groups: usize,
    g0: usize,
    n: usize,
}

/// One K-slice update over rows `rows` (with `rows.start % MR == 0`):
/// `C += A[rows, groups g] · B[groups g]`, one format block per row panel
/// and B panel run.  The first slice starts each accumulator at its row's
/// start value, the last hands the finished sums to the epilogue, which
/// writes `out`; between slices they wait in `c`.  `c` and `out` hold rows
/// `rows` at row stride `b.n`.
///
/// Always inlined: on small-K products the per-tile set-up is a large share
/// of the work, and an out-of-line copy measured 5–20 % slower there.
#[inline(always)]
fn tile_block<F: Format>(
    fmt: &F,
    arch: F::Arch,
    rows: Range<usize>,
    g: Range<usize>,
    b: &Panels<'_, F::B>,
    c: &mut [F::Acc],
    out: &mut [f32],
) {
    debug_assert_eq!(rows.start % MR, 0);
    let n = b.n;
    let group = NR * F::KG;
    let (first, last) = (g.start == 0, g.end == fmt.k().div_ceil(F::KG));
    let panel = |q: usize| {
        let start = (q * b.groups + g.start - b.g0) * group;
        &b.data[start..start + g.len() * group]
    };
    let (panels, per_call) = (n.div_ceil(NR), F::panels_per_call(arch));
    let mut q = 0;
    while q < panels {
        let width = per_call.min(panels - q);
        let bs = [panel(q), panel(q + width - 1)];
        for p in rows.start / MR..rows.end.div_ceil(MR) {
            let live = (rows.end - p * MR).min(MR);
            let at = |r: usize, h: usize| (p * MR + r - rows.start) * n + (q + h) * NR;
            let mut acc = [[[F::Acc::default(); NR]; MR]; 2];
            for (h, acc) in acc.iter_mut().enumerate().take(width) {
                let jn = (n - (q + h) * NR).min(NR);
                for (r, row) in acc.iter_mut().enumerate().take(live) {
                    if first {
                        *row = [fmt.start(p * MR + r); NR];
                    } else {
                        row[..jn].copy_from_slice(&c[at(r, h)..][..jn]);
                    }
                }
            }
            fmt.block(arch, p, g.clone(), &bs[..width], &mut acc);
            for (h, acc) in acc.iter().enumerate().take(width) {
                let jn = (n - (q + h) * NR).min(NR);
                for (r, row) in acc.iter().enumerate().take(live) {
                    if last {
                        fmt.finish(p * MR + r, &row[..jn], &mut out[at(r, h)..][..jn]);
                    } else {
                        c[at(r, h)..][..jn].copy_from_slice(&row[..jn]);
                    }
                }
            }
        }
        q += width;
    }
}

/// The f32 format: `act(bias + A·B)`.
struct F32Gemm<'a> {
    a: &'a PackedFilter,
    bias: &'a [f32],
    act: Activation,
}

impl Format for F32Gemm<'_> {
    type B = f32;
    type Acc = f32;
    type Arch = KernelArch;
    const PAD: f32 = 0.0;
    const KG: usize = 1;

    fn m(&self) -> usize {
        self.a.m
    }

    fn k(&self) -> usize {
        self.a.k
    }

    fn arch() -> KernelArch {
        kernel_arch()
    }

    /// Only the AVX-512 arm has a two-panel kernel; an odd last panel (and
    /// every panel on the other arms) runs the single-panel one.  Which
    /// kernel computes a column never changes its bits.
    fn panels_per_call(arch: KernelArch) -> usize {
        if arch == KernelArch::Avx512 {
            2
        } else {
            1
        }
    }

    #[inline]
    fn start(&self, r: usize) -> f32 {
        self.bias[r]
    }

    #[inline]
    fn block(
        &self,
        arch: KernelArch,
        p: usize,
        g: Range<usize>,
        b: &[&[f32]],
        acc: &mut AccTile<f32>,
    ) {
        let a = self.a.panel(p, g.start, g.end);
        match *b {
            [b0, b1] => microkernel_pair(a, b0, b1, acc),
            [b0] => microkernel(arch, a, b0, &mut acc[0]),
            _ => unreachable!("one or two B panels per call"),
        }
    }

    #[inline]
    fn finish(&self, _r: usize, acc: &[f32], out: &mut [f32]) {
        for (dst, &v) in out.iter_mut().zip(acc) {
            *dst = self.act.apply(v);
        }
    }
}

/// Computes `out = act(bias + A·B)` into a row-major `[m][n]` buffer, with
/// `A` prepacked and `B` produced by `fill` (see [`PanelFill`]).
pub fn gemm_bias_act_into<F: PanelFill>(
    a: &PackedFilter,
    bias: &[f32],
    act: Activation,
    n: usize,
    fill: &F,
    out: &mut [f32],
) -> Result<()> {
    let fmt = F32Gemm { a, bias, act };
    drive(
        &fmt,
        bias,
        n,
        &|k0, k1, j0, j1, buf: &mut [f32]| fill.fill(k0, k1, j0, j1, buf),
        out,
    )
}

/// The register tile: streams one A panel (`kc × MR`) against one B panel
/// (`kc × NR`), accumulating `MR × NR` partial sums through the dispatched
/// micro-kernel arm.  Every arm performs the identical per-element op
/// sequence (`acc = fma(a, b, acc)`, `k` ascending), so the arms are
/// bit-interchangeable — the order every caller relies on.
#[inline]
fn microkernel(arch: KernelArch, a: &[f32], b: &[f32], acc: &mut [[f32; NR]; MR]) {
    // The SIMD arms walk `a.len() / MR` steps of `a` and `b` through raw
    // pointers on the strength of this.
    assert_eq!(a.len() * NR, b.len() * MR, "micro-kernel panel sizes");
    match arch {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `kernel_arch()` clamps to CPUID-detected capability, so
        // the required target features are present when these arms are
        // selected; the panel lengths were asserted above.
        KernelArch::Avx512 => unsafe { microkernel_avx512(a, b, acc) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above.
        KernelArch::Avx2 => unsafe { microkernel_avx2(a, b, acc) },
        _ => microkernel_scalar(a, b, acc),
    }
}

/// The AVX-512 arm's wide register tile: one A panel against two B panels
/// of the same `kc`, `acc[0]` and `acc[1]` their `MR × NR` blocks.  Each
/// column sees the op sequence of [`microkernel`]; the second panel only
/// adds independent accumulator chains.
#[inline]
fn microkernel_pair(a: &[f32], b0: &[f32], b1: &[f32], acc: &mut [[[f32; NR]; MR]; 2]) {
    assert!(
        a.len() * NR == b0.len() * MR && b1.len() == b0.len(),
        "micro-kernel panel sizes"
    );
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `F32Gemm::block` takes this kernel only when `kernel_arch()`
    // returned `Avx512`, which is clamped to CPUID-detected capability; the
    // panel lengths were asserted above.
    unsafe {
        microkernel_avx512_pair(a, b0, b1, acc)
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = acc;
        unreachable!("the two-panel kernel exists on the AVX-512 arm only");
    }
}

/// Portable micro-kernel — the always-available dispatch floor.  Runs the
/// copy of its loop compiled with hardware FMA where the CPU has it.
#[inline]
fn microkernel_scalar(a: &[f32], b: &[f32], acc: &mut [[f32; NR]; MR]) {
    #[cfg(target_arch = "x86_64")]
    if hw_fma() {
        // SAFETY: CPUID reports FMA3.
        return unsafe { microkernel_scalar_fma(a, b, acc) };
    }
    microkernel_scalar_loop(a, b, acc)
}

/// The scalar loop.  `f32::mul_add` is a correctly rounded fused
/// multiply-add whether it compiles to an instruction or a libm call.  The
/// `j` loop is over independent output elements, so the compiler may
/// vectorise it without reordering the `k` accumulation.
#[inline(always)]
fn microkernel_scalar_loop(a: &[f32], b: &[f32], acc: &mut [[f32; NR]; MR]) {
    for (av, bv) in a.chunks_exact(MR).zip(b.chunks_exact(NR)) {
        for r in 0..MR {
            let ar = av[r];
            for (c, &bj) in acc[r].iter_mut().zip(bv) {
                *c = ar.mul_add(bj, *c);
            }
        }
    }
}

/// [`microkernel_scalar_loop`] compiled with `vfmadd` available.
///
/// # Safety
/// Caller must ensure the CPU supports FMA3.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "fma")]
unsafe fn microkernel_scalar_fma(a: &[f32], b: &[f32], acc: &mut [[f32; NR]; MR]) {
    microkernel_scalar_loop(a, b, acc)
}

/// 256-bit explicit micro-kernel: the whole `MR × NR` accumulator tile
/// lives in twelve `ymm` registers (two per row), with one broadcast and
/// two B vectors in flight — twelve independent FMA chains.
///
/// # Safety
/// Caller must ensure the CPU supports AVX2 and FMA3, `a.len() == kc*MR`
/// and `b.len() == kc*NR` for the same `kc`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn microkernel_avx2(a: &[f32], b: &[f32], acc: &mut [[f32; NR]; MR]) {
    use std::arch::x86_64::*;
    let kc = a.len() / MR;
    let cp = acc.as_mut_ptr() as *mut f32;
    // Load the accumulator tile: rows r at lanes [0,8) and [8,16).
    let mut c0 = [_mm256_setzero_ps(); MR];
    let mut c1 = [_mm256_setzero_ps(); MR];
    for r in 0..MR {
        c0[r] = _mm256_loadu_ps(cp.add(r * NR));
        c1[r] = _mm256_loadu_ps(cp.add(r * NR + 8));
    }
    let mut pa = a.as_ptr();
    let mut pb = b.as_ptr();
    for _ in 0..kc {
        let b0 = _mm256_loadu_ps(pb);
        let b1 = _mm256_loadu_ps(pb.add(8));
        for r in 0..MR {
            let ar = _mm256_set1_ps(*pa.add(r));
            c0[r] = _mm256_fmadd_ps(ar, b0, c0[r]);
            c1[r] = _mm256_fmadd_ps(ar, b1, c1[r]);
        }
        pa = pa.add(MR);
        pb = pb.add(NR);
    }
    for r in 0..MR {
        _mm256_storeu_ps(cp.add(r * NR), c0[r]);
        _mm256_storeu_ps(cp.add(r * NR + 8), c1[r]);
    }
}

/// 512-bit explicit micro-kernel over one B panel: one `zmm` register holds
/// a whole `NR`-column accumulator row, six in flight.  Runs the odd last
/// panel of a block; pairs go through [`microkernel_avx512_pair`].
///
/// # Safety
/// Caller must ensure the CPU supports AVX-512F, `a.len() == kc*MR` and
/// `b.len() == kc*NR` for the same `kc`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn microkernel_avx512(a: &[f32], b: &[f32], acc: &mut [[f32; NR]; MR]) {
    use std::arch::x86_64::*;
    let kc = a.len() / MR;
    let cp = acc.as_mut_ptr() as *mut f32;
    let mut c = [_mm512_setzero_ps(); MR];
    for (r, cr) in c.iter_mut().enumerate() {
        *cr = _mm512_loadu_ps(cp.add(r * NR));
    }
    let mut pa = a.as_ptr();
    let mut pb = b.as_ptr();
    for _ in 0..kc {
        let bv = _mm512_loadu_ps(pb);
        for (r, cr) in c.iter_mut().enumerate() {
            let ar = _mm512_set1_ps(*pa.add(r));
            *cr = _mm512_fmadd_ps(ar, bv, *cr);
        }
        pa = pa.add(MR);
        pb = pb.add(NR);
    }
    for (r, cr) in c.iter().enumerate() {
        _mm512_storeu_ps(cp.add(r * NR), *cr);
    }
}

/// 512-bit explicit micro-kernel over two B panels: an `MR × 2·NR` tile in
/// twelve `zmm` accumulators — two B loads and six broadcasts per twelve
/// FMAs, and enough independent chains to keep both FMA ports busy.
///
/// # Safety
/// Caller must ensure the CPU supports AVX-512F, `a.len() == kc*MR` and
/// `b0.len() == b1.len() == kc*NR` for the same `kc`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn microkernel_avx512_pair(
    a: &[f32],
    b0: &[f32],
    b1: &[f32],
    acc: &mut [[[f32; NR]; MR]; 2],
) {
    use std::arch::x86_64::*;
    let kc = a.len() / MR;
    let cp = acc.as_mut_ptr() as *mut f32;
    let mut c0 = [_mm512_setzero_ps(); MR];
    let mut c1 = [_mm512_setzero_ps(); MR];
    for r in 0..MR {
        c0[r] = _mm512_loadu_ps(cp.add(r * NR));
        c1[r] = _mm512_loadu_ps(cp.add((MR + r) * NR));
    }
    let mut pa = a.as_ptr();
    let (mut pb0, mut pb1) = (b0.as_ptr(), b1.as_ptr());
    for _ in 0..kc {
        let v0 = _mm512_loadu_ps(pb0);
        let v1 = _mm512_loadu_ps(pb1);
        for r in 0..MR {
            let ar = _mm512_set1_ps(*pa.add(r));
            c0[r] = _mm512_fmadd_ps(ar, v0, c0[r]);
            c1[r] = _mm512_fmadd_ps(ar, v1, c1[r]);
        }
        pa = pa.add(MR);
        pb0 = pb0.add(NR);
        pb1 = pb1.add(NR);
    }
    for r in 0..MR {
        _mm512_storeu_ps(cp.add(r * NR), c0[r]);
        _mm512_storeu_ps(cp.add((MR + r) * NR), c1[r]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dense_fill(bmat: &[f32], n_total: usize) -> impl PanelFill + '_ {
        move |k0: usize, k1: usize, j0: usize, j1: usize, buf: &mut [f32]| {
            let kc = k1 - k0;
            for kk in 0..kc {
                for j in j0..j1 {
                    let jj = j - j0;
                    let (q, lane) = (jj / NR, jj % NR);
                    buf[(q * kc + kk) * NR + lane] = bmat[(k0 + kk) * n_total + j];
                }
            }
        }
    }

    fn reference(
        a: &[f32],
        b: &[f32],
        bias: &[f32],
        m: usize,
        k: usize,
        n: usize,
        act: Activation,
    ) -> Vec<f32> {
        let mut out = vec![0.0f32; m * n];
        for r in 0..m {
            for j in 0..n {
                let mut acc = bias[r];
                for kk in 0..k {
                    acc += a[r * k + kk] * b[kk * n + j];
                }
                out[r * n + j] = act.apply(acc);
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
    fn pack_layout_round_trips() {
        let (m, k) = (MR + 1, 3);
        let w: Vec<f32> = (0..m * k).map(|i| i as f32).collect();
        let packed = PackedFilter::pack(&w, m, k).unwrap();
        assert_eq!(packed.m(), m);
        assert_eq!(packed.k(), k);
        // Panel 0 rows 0..MR, panel 1 holds row MR plus zero padding.
        let p0 = packed.panel(0, 0, k);
        assert_eq!(p0[0], w[0]); // row 0, k 0
        assert_eq!(p0[1], w[k]); // row 1, k 0
        assert_eq!(p0[MR], w[1]); // row 0, k 1
        let p1 = packed.panel(1, 0, k);
        assert_eq!(p1[0], w[MR * k]); // row MR, k 0
        assert_eq!(p1[1], 0.0); // padding row
    }

    #[test]
    fn scalar_loop_gives_the_same_bits_with_and_without_hardware_fma() {
        // The plain copy of the loop is what a CPU without FMA3 runs
        // (`f32::mul_add` through libm there); the dispatched scalar arm
        // runs the `fma`-compiled copy wherever this host allows.
        let kc = 37;
        // Inexact operands, so every step really rounds.
        let inexact = |v: Vec<f32>| -> Vec<f32> { v.iter().map(|x| x * 0.37 + 0.011).collect() };
        let (a, b) = (inexact(det(kc * MR, 11)), inexact(det(kc * NR, 12)));
        let mut plain = [[0.25f32; NR]; MR];
        let mut dispatched = plain;
        microkernel_scalar_loop(&a, &b, &mut plain);
        microkernel_scalar(&a, &b, &mut dispatched);
        assert_eq!(plain, dispatched);
    }

    #[test]
    fn pack_rejects_bad_length() {
        assert!(PackedFilter::pack(&[0.0; 5], 2, 3).is_err());
    }

    #[test]
    fn matches_reference_across_shapes() {
        // Exercise both parallel strategies, panel edges and K blocking.
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (5, 7, 3),      // narrow path, row-panel edge
            (4, 300, 9),    // narrow path, K blocking
            (6, 30, 100),   // tiled path, column edges
            (33, 520, 130), // tiled path + K blocking + both edges
            (MR, KC, NR),   // exact tile boundaries
            (MR * 2, KC * 2, NR * 5),
        ] {
            let a = det(m * k, 1);
            let b = det(k * n, 2);
            let bias = det(m, 3);
            let packed = PackedFilter::pack(&a, m, k).unwrap();
            let mut out = vec![0.0f32; m * n];
            gemm_bias_act_into(
                &packed,
                &bias,
                Activation::Relu,
                n,
                &dense_fill(&b, n),
                &mut out,
            )
            .unwrap();
            let want = reference(&a, &b, &bias, m, k, n, Activation::Relu);
            for (got, want) in out.iter().zip(&want) {
                assert!((got - want).abs() <= 1e-4, "({m},{k},{n}): {got} vs {want}");
            }
        }
    }

    #[test]
    fn column_subsets_are_bit_identical_to_full_output() {
        // The determinism contract: computing a subset of columns in its own
        // call yields bit-identical values to the same columns of a full
        // call — the property band execution depends on.
        let (m, k, n) = (10, 513, 96);
        let a = det(m * k, 7);
        let b = det(k * n, 8);
        let bias = det(m, 9);
        let packed = PackedFilter::pack(&a, m, k).unwrap();
        let mut full = vec![0.0f32; m * n];
        gemm_bias_act_into(
            &packed,
            &bias,
            Activation::Tanh,
            n,
            &dense_fill(&b, n),
            &mut full,
        )
        .unwrap();

        let (j0, j1) = (17, 63);
        let nn = j1 - j0;
        let shifted_fill = |k0: usize, k1: usize, a0: usize, a1: usize, buf: &mut [f32]| {
            dense_fill(&b, n).fill(k0, k1, a0 + j0, a1 + j0, buf);
        };
        let mut part = vec![0.0f32; m * nn];
        gemm_bias_act_into(
            &packed,
            &bias,
            Activation::Tanh,
            nn,
            &shifted_fill,
            &mut part,
        )
        .unwrap();
        for r in 0..m {
            assert_eq!(
                &part[r * nn..(r + 1) * nn],
                &full[r * n + j0..r * n + j1],
                "row {r} differs between subset and full computation"
            );
        }
    }

    #[test]
    fn rejects_mismatched_buffers() {
        let packed = PackedFilter::pack(&[1.0; 6], 2, 3).unwrap();
        let fill = dense_fill(&[0.0; 3], 1);
        let mut out = vec![0.0f32; 2];
        assert!(
            gemm_bias_act_into(&packed, &[0.0; 1], Activation::None, 1, &fill, &mut out).is_err()
        );
        let mut wrong = vec![0.0f32; 3];
        assert!(
            gemm_bias_act_into(&packed, &[0.0; 2], Activation::None, 1, &fill, &mut wrong).is_err()
        );
    }
}
