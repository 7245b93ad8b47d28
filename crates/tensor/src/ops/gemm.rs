//! Cache-blocked, register-tiled GEMM with a fused epilogue — the compute
//! core of the packed convolution paths (f32 implicit GEMM and Winograd
//! here, int8 im2col in [`super::qgemm`]).  Linear layers are
//! matrix-vector products and run on the row-vectorised kernels in
//! [`super::gemv`] instead, under the same numerical contracts.
//!
//! The f32 kernel computes `C[r][j] = act(bias[r] + Σ_k A[r][k] · B[k][j])`
//! where `A` is a weight matrix prepacked into [`PackedFilter`] row panels
//! (ideally once, at deploy time) and `B` is either read in place from a
//! `Plane` — the zero-padded input band of the implicit-GEMM convolution
//! — or staged on the fly into column panels by a caller-supplied filler
//! ([`PanelFill`]: Winograd's transformed tiles; the int8 im2col bytes go
//! through [`super::qgemm`]'s own).
//!
//! **One driver for both number formats and both B operands.**  The
//! blocked driver below runs the f32 and the int8 GEMM alike; a `Format`
//! supplies only what differs between them — the B element and the
//! padding value staged panels are pre-filled with, the accumulator, how
//! many K elements a panel groups together, the register-tile block (which
//! starts each row at its start value) and the per-row epilogue.  An
//! `Operand` says where B comes from.  The driver owns the rest, once:
//! three levels of blocking,
//!
//! * **register tile** — the micro-kernel holds an `MR × NR` accumulator
//!   block in registers and streams one A panel against one `NR`-column B
//!   vector per K step (the f32 AVX-512 arm: against two, an `MR × 2·NR`
//!   block).  The f32 kernels load K step `i`'s vector from
//!   `b[koff[i] + col]`: a staged panel steps `koff` by `NR`, a plane by
//!   the filter taps' offsets, so one kernel per arm reads both;
//! * **K blocking** — the shared dimension is processed in slices of at
//!   most [`KC`], so the B a task reads per slice (≤ `KC × tile` elements)
//!   stays cache-hot while every A panel streams over it;
//! * **parallel tasks** — wide outputs are split into *column tiles* (for
//!   convolutions these are row bands of the output image); narrow
//!   outputs (fewer than `4·NR` columns) into row-panel groups that share
//!   one B instead (see `MIN_COLS_FOR_TILING`),
//!
//! and the buffers: a plane is read where it lies; staged B is written
//! into a buffer pre-filled with padding, per K slice and column tile (all
//! of `k` at once, shared, on narrow outputs).  Accumulators start at their
//! row's start value in the first K slice and wait in a task-private C
//! tile between slices, and the last slice hands them to the epilogue,
//! which writes each task's own columns of `out` in place.
//!
//! Numerical contract (stated in full in [`super`]): for a given f32 output
//! element the steps happen in exactly the order `bias, k=0, 1, …, K-1` —
//! a single accumulator, never split across `k`, each step one fused
//! multiply-add `acc = fma(a, b, acc)` — then `act` once, regardless of
//! tile sizes, thread counts, whether the columns were computed in one call
//! or many, where B was read from, or which micro-kernel arm
//! ([`super::dispatch`]) executed it.  This is what makes the packed path
//! deterministic: a band computed on a provider is bit-identical to the
//! same rows of a full-output call even across machines with different
//! SIMD capability, so the runtime's bit-exactness guarantees survive the
//! fast path.

use super::activation::Activation;
#[cfg(target_arch = "x86_64")]
use super::dispatch::hw_fma;
use super::dispatch::{kernel_arch, KernelArch};
use crate::error::TensorError;
use crate::Result;
use rayon::prelude::*;
use std::mem::MaybeUninit;
use std::ops::Range;

/// Rows per register tile (output channels / features per micro-kernel).
/// Six rows × sixteen columns is twelve `ymm` accumulators on the AVX2 arm
/// (plus two B vectors and one broadcast: fifteen of its sixteen
/// registers) but only six `zmm` on the AVX-512 arm — too few independent
/// chains to cover a 4-cycle FMA on two ports (that takes eight), which is
/// why that arm runs two adjacent `NR`-column vectors per call: twelve
/// `zmm` accumulators, two B vectors and a broadcast of its thirty-two
/// registers.
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

    /// An all-zero `[m][k]` filter, to be written element by element with
    /// [`PackedFilter::set`] by a packer that produces its rows out of
    /// order.
    pub(super) fn zeroed(m: usize, k: usize) -> Self {
        Self {
            m,
            k,
            data: vec![0.0f32; m.div_ceil(MR) * k * MR],
        }
    }

    /// Writes element `[row][kk]` at its panel position.
    #[inline]
    pub(super) fn set(&mut self, row: usize, kk: usize, v: f32) {
        self.data[(row / MR) * self.k * MR + kk * MR + row % MR] = v;
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

/// A B operand read in place, never staged: K element `k` at column `j` is
/// `data[koff[k] + j]`.  The columns run in rows of `pitch`, of which the
/// first `width` are outputs: column `j` is output column
/// `(j / pitch)·width + j % pitch` when `j % pitch < width`, and the others
/// are computed and never stored.  This is the implicit-GEMM convolution's
/// zero-padded band (`conv2d_rows_gemm` in [`super::conv`]): with the
/// padded row as the pitch, every `NR`-column vector is one contiguous load
/// whatever the output width.
pub(super) struct Plane<'a, B> {
    data: &'a [B],
    koff: &'a [usize],
    /// The largest `koff` entry: with a column, it bounds every read.
    reach: usize,
    pitch: usize,
    width: usize,
}

impl<'a, B> Plane<'a, B> {
    /// A plane over `data` with per-K offsets `koff`, in rows of `pitch`
    /// columns whose first `width` are outputs.
    pub(super) fn new(data: &'a [B], koff: &'a [usize], pitch: usize, width: usize) -> Self {
        assert!(0 < width && width <= pitch, "a plane row holds its outputs");
        let reach = koff.iter().copied().max().unwrap_or(0);
        Self {
            data,
            koff,
            reach,
            pitch,
            width,
        }
    }
}

/// A staged operand's filler: the [`PanelFill`] signature over the
/// format's B element.
pub(super) type Fill<'a, B> = dyn Fn(usize, usize, usize, usize, &mut [B]) + Sync + 'a;

/// Where [`drive`] reads B from.
pub(super) enum Operand<'a, B> {
    /// Staged by a filler (the [`PanelFill`] layout, per K group of the
    /// format's `KG` elements): per [`KC`] slice into each column tile's
    /// private buffer on wide outputs, all of `k` at once into one shared
    /// buffer on narrow ones.
    Staged(&'a Fill<'a, B>),
    /// Read in place (one K element per offset: `KG == 1` formats only).
    Plane(Plane<'a, B>),
}

/// Outputs narrower than this take the narrow path: one B shared by
/// row-panel groups, instead of column tiles that each read (and, when B is
/// staged, stage) their own B slice.  With several workers that is what
/// keeps them all busy on a handful of columns; on one worker the two
/// paths do the same arithmetic through the same micro-kernels and differ
/// only in how staged B is laid out (the row groups still pay there: a
/// group's C rows and A slice stay cache-hot across the K blocks).  Callers
/// that land here: conv bands of fewer than `4·NR` plane columns, and most
/// of Winograd's per-position GEMMs — its chunks hold 21–84 tiles on VGG's
/// c256/c512 layers, which measures as fast as any wider chunk once the
/// AVX-512 arm runs vector pairs here too (see `SCRATCH_FLOATS` in
/// [`super::winograd`]).
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
/// column vectors of `MR` rows.
pub(super) type AccTile<T> = [[[T; NR]; MR]; 2];

/// The B of one register-tile call: its vector `h` reads K group `i` of the
/// call at `data[koff[i] + cols[h] ..][..NR·KG]`.  Built by the driver
/// only, which keeps every `koff` entry at most `reach` — so `reach + col +
/// NR·KG ≤ data.len()`, checked once per call, bounds every read.
pub(super) struct BTile<'a, B> {
    data: &'a [B],
    koff: &'a [usize],
    reach: usize,
    cols: &'a [usize],
}

impl<B> BTile<'_, B> {
    /// Vector `h` as one contiguous staged panel of `group` elements per K
    /// group — what the int8 kernels walk; their B is always staged.
    pub(super) fn panel(&self, h: usize, group: usize) -> &[B] {
        debug_assert_eq!(self.reach, (self.koff.len() - 1) * group, "staged B");
        &self.data[self.cols[h]..][..self.koff.len() * group]
    }
}

/// What a number format brings to the blocked [`drive`]r — and nothing
/// else: the driver never asks which format it runs.
pub(super) trait Format: Sync {
    /// One B element.
    type B: Copy + Send + Sync;
    /// One accumulator.
    type Acc: Copy + Default + Send + Sync;
    /// The format's micro-kernel arm family.
    type Arch: Copy + Send + Sync;
    /// The B value that stands for zero; staged buffers are pre-filled with
    /// it, so padding costs fillers nothing.
    const PAD: Self::B;
    /// K elements per panel group: a staged panel holds `NR × KG` elements
    /// per group, groups ascending in `k`.  Divides [`KC`].
    const KG: usize;
    /// Output rows.
    fn m(&self) -> usize;
    /// Shared dimension, in elements.
    fn k(&self) -> usize;
    /// The arm this call runs on — read once per call and passed down, so
    /// every worker inside one call runs the same arm.
    fn arch() -> Self::Arch;
    /// B vectors one register-tile call takes on `arch`: 1 or 2.
    fn panels_per_call(arch: Self::Arch) -> usize;
    /// The register-tile block: `acc[h] += A[row panel p, groups g] · B`
    /// for each of the (one or two) B vectors of `b`.  On the first K
    /// slice (`g.start == 0`) `acc` arrives zeroed and the block starts each
    /// row at the format's start value itself — in registers, where the
    /// kernel's wide loads never wait on the driver's narrow stores; later
    /// slices find the partial sums in `acc`.
    fn block(
        &self,
        arch: Self::Arch,
        p: usize,
        g: Range<usize>,
        b: &BTile<'_, Self::B>,
        acc: &mut AccTile<Self::Acc>,
    );
    /// The epilogue: row `r`'s finished accumulators to output values.
    fn finish(&self, r: usize, acc: &[Self::Acc], out: &mut [MaybeUninit<f32>]);
}

/// The driver's columns against the output's: rows of `pitch` columns of
/// which the first `width` are stored (see [`Plane`]).  Staged B has
/// `pitch == width == n`: every column is its own output column.
#[derive(Clone, Copy)]
struct Pitch {
    pitch: usize,
    width: usize,
}

impl Pitch {
    /// The first output column at or after column `j`.
    fn out_col(self, j: usize) -> usize {
        (j / self.pitch) * self.width + (j % self.pitch).min(self.width)
    }

    /// The runs of stored columns among `j .. j + len`, as `(lane, output
    /// column, length)` in `runs[..count]` (lane `0` is column `j`).
    fn runs(self, j: usize, len: usize) -> ([(usize, usize, usize); NR], usize) {
        let (mut runs, mut count) = ([(0, 0, 0); NR], 0);
        if self.pitch == self.width {
            runs[0] = (0, j, len);
            return (runs, 1);
        }
        let (mut y, mut x, mut lane) = (j / self.pitch, j % self.pitch, 0);
        while lane < len {
            let run = (len - lane).min(self.pitch - x);
            if x < self.width {
                runs[count] = (lane, y * self.width + x, run.min(self.width - x));
                count += 1;
            }
            (y, x, lane) = (y + 1, 0, lane + run);
        }
        (runs, count)
    }
}

/// One parallel task: rows `rows` (with `rows.start % MR == 0`) by driver
/// columns `cols`, which own output columns `out0 ..` of each of those rows
/// — `out` holds the task's segment of each row, written in place.
struct Task<'s, 'o> {
    rows: Range<usize>,
    cols: Range<usize>,
    out0: usize,
    out: &'s mut [&'o mut [MaybeUninit<f32>]],
}

/// The B of one K slice as [`tile_block`] reads it: the task's column
/// vector `q` reads K group `i` of the slice at `data[koff[i] + col0 +
/// q·step ..]`, every `koff` entry at most `reach`.
struct Stage<'a, B> {
    data: &'a [B],
    koff: &'a [usize],
    reach: usize,
    col0: usize,
    step: usize,
}

/// [`drive`] into an initialised `[m][n]` buffer.
pub(super) fn drive_into<F: Format>(
    fmt: &F,
    bias: &[f32],
    n: usize,
    b: &Operand<'_, F::B>,
    out: &mut [f32],
) -> Result<()> {
    // SAFETY: `MaybeUninit<f32>` has the layout of `f32`, and `drive` only
    // ever writes initialised values through it, so `out` stays initialised.
    let out = unsafe { &mut *(out as *mut [f32] as *mut [MaybeUninit<f32>]) };
    drive(fmt, bias, n, b, out)
}

/// [`drive`] into a fresh `[m][n]` buffer, never zero-filled first: every
/// element is written once, by its tile's epilogue.
pub(super) fn drive_new<F: Format>(
    fmt: &F,
    bias: &[f32],
    n: usize,
    b: &Operand<'_, F::B>,
) -> Result<Vec<f32>> {
    let len = fmt.m() * n;
    let mut out = Vec::with_capacity(len);
    drive(fmt, bias, n, b, &mut out.spare_capacity_mut()[..len])?;
    // SAFETY: `drive` returned `Ok` over these `len` elements, so it wrote
    // every one of them (see its docs).
    unsafe { out.set_len(len) };
    Ok(out)
}

/// Checks the output geometry and runs `fmt` over `n` output columns into
/// the row-major `[m][n]` buffer `out`, B read from `b`.  When it returns
/// `Ok` it has written every element of `out` — [`drive_new`] rests on
/// this: each row belongs to one task, a task's segments partition the
/// output columns of its driver columns, and its last K slice stores every
/// run [`Pitch::runs`] finds among them.
fn drive<F: Format>(
    fmt: &F,
    bias: &[f32],
    n: usize,
    b: &Operand<'_, F::B>,
    out: &mut [MaybeUninit<f32>],
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
    if k == 0 {
        return Err(TensorError::KernelConfig(
            "gemm needs a non-empty shared dimension".into(),
        ));
    }
    let pitch = match b {
        Operand::Staged(_) => Pitch { pitch: n, width: n },
        Operand::Plane(plane) => {
            assert_eq!(F::KG, 1, "a plane holds one K element per offset");
            if !n.is_multiple_of(plane.width) || plane.koff.len() != k {
                return Err(TensorError::KernelConfig(format!(
                    "a plane of {} offsets and width {} cannot feed {k} x {n}",
                    plane.koff.len(),
                    plane.width
                )));
            }
            Pitch {
                pitch: plane.pitch,
                width: plane.width,
            }
        }
    };
    let ncols = (n / pitch.width - 1) * pitch.pitch + pitch.width;
    let arch = F::arch();
    let group = NR * F::KG;
    let kg = k.div_ceil(F::KG);
    // The K slices: the element range and the panel-group range of each.
    let slices = || {
        (0..k).step_by(KC).map(|k0| {
            let k1 = (k0 + KC).min(k);
            (k0..k1, k0 / F::KG..k1.div_ceil(F::KG))
        })
    };
    let workers = TASKS_PER_THREAD * rayon::current_num_threads();

    // Wide outputs split into column tiles (output row bands for the
    // convolution callers), narrow ones (see `MIN_COLS_FOR_TILING`) into
    // row-panel groups.
    let (tile, group_rows) = if ncols >= MIN_COLS_FOR_TILING {
        let tile = ncols
            .div_ceil(workers)
            .next_multiple_of(NR)
            .clamp(NR, MAX_TILE_COLS);
        (tile, m)
    } else {
        let rows = m
            .div_ceil(workers)
            .next_multiple_of(MR)
            .min(m.next_multiple_of(MR));
        (ncols, rows)
    };
    let tiles = ncols.div_ceil(tile);
    let groups = m.div_ceil(group_rows);
    // Every task's row segments, task-major: row group, column tile, row.
    let mut segs: Vec<&mut [MaybeUninit<f32>]> = Vec::with_capacity(groups * tiles * group_rows);
    let mut spans = Vec::with_capacity(groups * tiles);
    let mut tails = Vec::with_capacity(group_rows);
    for (i, chunk) in out.chunks_mut(group_rows * n).enumerate() {
        let rows = i * group_rows..i * group_rows + chunk.len() / n;
        tails.clear();
        tails.extend(chunk.chunks_exact_mut(n));
        for t in 0..tiles {
            let cols = t * tile..((t + 1) * tile).min(ncols);
            let len = pitch.out_col(cols.end) - pitch.out_col(cols.start);
            for tail in tails.iter_mut() {
                let (mine, rest) = std::mem::take(tail).split_at_mut(len);
                segs.push(mine);
                *tail = rest;
            }
            spans.push((rows.clone(), cols));
        }
    }
    let mut rest = &mut segs[..];
    let mut tasks = Vec::with_capacity(spans.len());
    for (rows, cols) in spans {
        let (out, tail) = std::mem::take(&mut rest).split_at_mut(rows.len());
        rest = tail;
        tasks.push(Task {
            out0: pitch.out_col(cols.start),
            rows,
            cols,
            out,
        });
    }

    // Staged B on narrow outputs: filled once over all of `k`, shared.
    let shared = match b {
        Operand::Staged(fill) if tile == ncols => {
            let mut whole = vec![F::PAD; n.div_ceil(NR) * kg * group];
            fill(0, k, 0, n, &mut whole);
            whole
        }
        _ => Vec::new(),
    };
    // Staged panels are contiguous: K group `i` sits `i` groups in.
    let steps: Vec<usize> = match b {
        Operand::Staged(_) => (0..KC / F::KG).map(|i| i * group).collect(),
        Operand::Plane(_) => Vec::new(),
    };
    tasks.par_chunks_mut(1).for_each(|task| {
        let task = &mut task[0];
        let tn = task.cols.len();
        // Partial sums between K slices; a single-slice product never needs them.
        let mut c = vec![F::Acc::default(); if k > KC { task.rows.len() * tn } else { 0 }];
        let mut private = match b {
            Operand::Staged(_) if shared.is_empty() => {
                vec![F::PAD; tn.div_ceil(NR) * KC.min(k).div_ceil(F::KG) * group]
            }
            _ => Vec::new(),
        };
        for (ks, g) in slices() {
            let stage = match b {
                Operand::Plane(plane) => Stage {
                    data: plane.data,
                    koff: &plane.koff[ks],
                    reach: plane.reach,
                    col0: task.cols.start,
                    step: NR,
                },
                Operand::Staged(fill) => {
                    // Narrow outputs read the shared whole-`k` panels;
                    // column tiles stage this slice of their own.
                    let (data, col0, step) = if shared.is_empty() {
                        let slice = &mut private[..tn.div_ceil(NR) * g.len() * group];
                        slice.fill(F::PAD);
                        fill(ks.start, ks.end, task.cols.start, task.cols.end, slice);
                        (&*slice, 0, g.len() * group)
                    } else {
                        (&shared[..], g.start * group, kg * group)
                    };
                    Stage {
                        data,
                        koff: &steps[..g.len()],
                        reach: (g.len() - 1) * group,
                        col0,
                        step,
                    }
                }
            };
            tile_block(fmt, arch, g, &stage, pitch, task, &mut c);
        }
    });
    Ok(())
}

/// One K-slice update of `task`: `C += A[rows, groups g] · B[groups g]`,
/// one format block per row panel and B vector run.  The first slice's
/// blocks start each accumulator at its row's start value, the last hands
/// the finished sums to the epilogue, which writes the task's stored
/// columns of `out`; between slices they wait in `c` (the task's rows by
/// its columns).
///
/// Always inlined: on small-K products the per-tile set-up is a large share
/// of the work, and an out-of-line copy measured 5–20 % slower there.
#[inline(always)]
fn tile_block<F: Format>(
    fmt: &F,
    arch: F::Arch,
    g: Range<usize>,
    b: &Stage<'_, F::B>,
    pitch: Pitch,
    task: &mut Task<'_, '_>,
    c: &mut [F::Acc],
) {
    let rows = task.rows.clone();
    debug_assert_eq!(rows.start % MR, 0);
    let tn = task.cols.len();
    let (first, last) = (g.start == 0, g.end == fmt.k().div_ceil(F::KG));
    let (panels, per_call) = (tn.div_ceil(NR), F::panels_per_call(arch));
    let mut q = 0;
    while q < panels {
        let width = per_call.min(panels - q);
        let cols = [b.col0 + q * b.step, b.col0 + (q + width - 1) * b.step];
        let tile = BTile {
            data: b.data,
            koff: b.koff,
            reach: b.reach,
            cols: &cols[..width],
        };
        let mut runs = [([(0, 0, 0); NR], 0); 2];
        if last {
            for (h, runs) in runs.iter_mut().enumerate().take(width) {
                let j = (q + h) * NR;
                *runs = pitch.runs(task.cols.start + j, (tn - j).min(NR));
            }
        }
        for p in rows.start / MR..rows.end.div_ceil(MR) {
            let live = (rows.end - p * MR).min(MR);
            let at = |r: usize, h: usize| (p * MR + r - rows.start) * tn + (q + h) * NR;
            let mut acc = [[[F::Acc::default(); NR]; MR]; 2];
            if !first {
                for (h, acc) in acc.iter_mut().enumerate().take(width) {
                    let jn = (tn - (q + h) * NR).min(NR);
                    for (r, row) in acc.iter_mut().enumerate().take(live) {
                        row[..jn].copy_from_slice(&c[at(r, h)..][..jn]);
                    }
                }
            }
            fmt.block(arch, p, g.clone(), &tile, &mut acc);
            for (h, acc) in acc.iter().enumerate().take(width) {
                if last {
                    let out = &mut task.out[p * MR - rows.start..];
                    let (runs, count) = &runs[h];
                    for &(lane, col, run) in &runs[..*count] {
                        let col = col - task.out0;
                        for (r, row) in acc.iter().enumerate().take(live) {
                            let dst = &mut out[r][col..col + run];
                            fmt.finish(p * MR + r, &row[lane..lane + run], dst);
                        }
                    }
                } else {
                    let jn = (tn - (q + h) * NR).min(NR);
                    for (r, row) in acc.iter().enumerate().take(live) {
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

    /// Only the AVX-512 arm has a two-vector kernel; an odd last vector
    /// (and every vector on the other arms) runs the single one.  Which
    /// kernel computes a column never changes its bits.
    fn panels_per_call(arch: KernelArch) -> usize {
        if arch == KernelArch::Avx512 {
            2
        } else {
            1
        }
    }

    #[inline]
    fn block(
        &self,
        arch: KernelArch,
        p: usize,
        g: Range<usize>,
        b: &BTile<'_, f32>,
        acc: &mut AccTile<f32>,
    ) {
        let a = self.a.panel(p, g.start, g.end);
        // Rows past `m` (a short last panel) start anywhere: never stored.
        let start = (g.start == 0)
            .then(|| std::array::from_fn(|r| self.bias.get(p * MR + r).copied().unwrap_or(0.0)));
        if b.cols.len() == 2 {
            microkernel_pair(a, b, start, acc)
        } else {
            microkernel(arch, a, b, start, &mut acc[0])
        }
    }

    #[inline]
    fn finish(&self, _r: usize, acc: &[f32], out: &mut [MaybeUninit<f32>]) {
        for (dst, &v) in out.iter_mut().zip(acc) {
            dst.write(self.act.apply(v));
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
    let fill = |k0, k1, j0, j1, buf: &mut [f32]| fill.fill(k0, k1, j0, j1, buf);
    drive_into(&fmt, bias, n, &Operand::Staged(&fill), out)
}

/// Computes `act(bias + A·B)` as a fresh row-major `[m][n]` buffer, with
/// `A` prepacked and `B` read in place from `plane` — the implicit-GEMM
/// convolution's product.
pub(super) fn gemm_plane(
    a: &PackedFilter,
    bias: &[f32],
    act: Activation,
    n: usize,
    plane: Plane<'_, f32>,
) -> Result<Vec<f32>> {
    let fmt = F32Gemm { a, bias, act };
    drive_new(&fmt, bias, n, &Operand::Plane(plane))
}

/// The register tile: streams one A panel (`kc × MR`) against one B vector
/// per K step (`kc` steps of `NR` columns), accumulating `MR × NR` partial
/// sums through the dispatched micro-kernel arm — started at `start[r]`
/// per row when given, else at `acc`.  Every arm performs the identical
/// per-element op sequence (`acc = fma(a, b, acc)`, `k` ascending), so the
/// arms are bit-interchangeable — the order every caller relies on.
#[inline]
fn microkernel(
    arch: KernelArch,
    a: &[f32],
    b: &BTile<'_, f32>,
    start: Option<[f32; MR]>,
    acc: &mut [[f32; NR]; MR],
) {
    let col = b.cols[0];
    // The SIMD arms read `b.data[koff[i] + col ..][..NR]` for every `i`
    // through raw pointers on the strength of this (`koff[i] <= reach`).
    assert!(
        a.len() == b.koff.len() * MR && b.reach + col + NR <= b.data.len(),
        "micro-kernel operand bounds"
    );
    match arch {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `kernel_arch()` clamps to CPUID-detected capability, so
        // the required target features are present when these arms are
        // selected; the operand bounds were asserted above.
        KernelArch::Avx512 => unsafe { microkernel_avx512(a, b.data, b.koff, col, start, acc) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above.
        KernelArch::Avx2 => unsafe { microkernel_avx2(a, b.data, b.koff, col, start, acc) },
        _ => microkernel_scalar(a, b.data, b.koff, col, start, acc),
    }
}

/// The AVX-512 arm's wide register tile: one A panel against two B vectors
/// per K step, `acc[0]` and `acc[1]` their `MR × NR` blocks.  Each column
/// sees the op sequence of [`microkernel`]; the second vector only adds
/// independent accumulator chains.
#[inline]
fn microkernel_pair(
    a: &[f32],
    b: &BTile<'_, f32>,
    start: Option<[f32; MR]>,
    acc: &mut [[[f32; NR]; MR]; 2],
) {
    let [c0, c1] = [b.cols[0], b.cols[1]];
    assert!(
        a.len() == b.koff.len() * MR && b.reach + c0.max(c1) + NR <= b.data.len(),
        "micro-kernel operand bounds"
    );
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `F32Gemm::block` takes this kernel only when `kernel_arch()`
    // returned `Avx512`, which is clamped to CPUID-detected capability; the
    // operand bounds were asserted above.
    unsafe {
        microkernel_avx512_pair(a, b.data, b.koff, [c0, c1], start, acc)
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (start, acc);
        unreachable!("the two-vector kernel exists on the AVX-512 arm only");
    }
}

/// Portable micro-kernel — the always-available dispatch floor.  Runs the
/// copy of its loop compiled with hardware FMA where the CPU has it.
#[inline]
fn microkernel_scalar(
    a: &[f32],
    b: &[f32],
    koff: &[usize],
    col: usize,
    start: Option<[f32; MR]>,
    acc: &mut [[f32; NR]; MR],
) {
    if let Some(start) = start {
        *acc = start.map(|v| [v; NR]);
    }
    #[cfg(target_arch = "x86_64")]
    if hw_fma() {
        // SAFETY: CPUID reports FMA3.
        return unsafe { microkernel_scalar_fma(a, b, koff, col, acc) };
    }
    microkernel_scalar_loop(a, b, koff, col, acc)
}

/// The scalar loop.  `f32::mul_add` is a correctly rounded fused
/// multiply-add whether it compiles to an instruction or a libm call.  The
/// `j` loop is over independent output elements, so the compiler may
/// vectorise it without reordering the `k` accumulation.
#[inline(always)]
fn microkernel_scalar_loop(
    a: &[f32],
    b: &[f32],
    koff: &[usize],
    col: usize,
    acc: &mut [[f32; NR]; MR],
) {
    for (av, &o) in a.chunks_exact(MR).zip(koff) {
        let bv = &b[o + col..][..NR];
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
unsafe fn microkernel_scalar_fma(
    a: &[f32],
    b: &[f32],
    koff: &[usize],
    col: usize,
    acc: &mut [[f32; NR]; MR],
) {
    microkernel_scalar_loop(a, b, koff, col, acc)
}

/// 256-bit explicit micro-kernel: the whole `MR × NR` accumulator tile
/// lives in twelve `ymm` registers (two per row), with one broadcast and
/// two B vectors in flight — twelve independent FMA chains.
///
/// # Safety
/// Caller must ensure the CPU supports AVX2 and FMA3, `a.len() ==
/// koff.len()*MR`, and `koff[i] + col + NR <= b.len()` for every `i`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn microkernel_avx2(
    a: &[f32],
    b: &[f32],
    koff: &[usize],
    col: usize,
    start: Option<[f32; MR]>,
    acc: &mut [[f32; NR]; MR],
) {
    use std::arch::x86_64::*;
    let cp = acc.as_mut_ptr() as *mut f32;
    // The accumulator tile: rows r at lanes [0,8) and [8,16).
    let mut c0 = [_mm256_setzero_ps(); MR];
    let mut c1 = [_mm256_setzero_ps(); MR];
    for r in 0..MR {
        (c0[r], c1[r]) = match start {
            Some(s) => (_mm256_set1_ps(s[r]), _mm256_set1_ps(s[r])),
            None => (
                _mm256_loadu_ps(cp.add(r * NR)),
                _mm256_loadu_ps(cp.add(r * NR + 8)),
            ),
        };
    }
    let pb = b.as_ptr().add(col);
    let mut pa = a.as_ptr();
    for &o in koff {
        let b0 = _mm256_loadu_ps(pb.add(o));
        let b1 = _mm256_loadu_ps(pb.add(o + 8));
        for r in 0..MR {
            let ar = _mm256_set1_ps(*pa.add(r));
            c0[r] = _mm256_fmadd_ps(ar, b0, c0[r]);
            c1[r] = _mm256_fmadd_ps(ar, b1, c1[r]);
        }
        pa = pa.add(MR);
    }
    for r in 0..MR {
        _mm256_storeu_ps(cp.add(r * NR), c0[r]);
        _mm256_storeu_ps(cp.add(r * NR + 8), c1[r]);
    }
}

/// 512-bit explicit micro-kernel over one B vector per K step: one `zmm`
/// register holds a whole `NR`-column accumulator row, six in flight.
/// Runs the odd last vector of a block; pairs go through
/// [`microkernel_avx512_pair`].
///
/// # Safety
/// Caller must ensure the CPU supports AVX-512F, `a.len() ==
/// koff.len()*MR`, and `koff[i] + col + NR <= b.len()` for every `i`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn microkernel_avx512(
    a: &[f32],
    b: &[f32],
    koff: &[usize],
    col: usize,
    start: Option<[f32; MR]>,
    acc: &mut [[f32; NR]; MR],
) {
    use std::arch::x86_64::*;
    let cp = acc.as_mut_ptr() as *mut f32;
    let mut c = [_mm512_setzero_ps(); MR];
    for (r, cr) in c.iter_mut().enumerate() {
        *cr = match start {
            Some(s) => _mm512_set1_ps(s[r]),
            None => _mm512_loadu_ps(cp.add(r * NR)),
        };
    }
    let pb = b.as_ptr().add(col);
    let mut pa = a.as_ptr();
    for &o in koff {
        let bv = _mm512_loadu_ps(pb.add(o));
        for (r, cr) in c.iter_mut().enumerate() {
            let ar = _mm512_set1_ps(*pa.add(r));
            *cr = _mm512_fmadd_ps(ar, bv, *cr);
        }
        pa = pa.add(MR);
    }
    for (r, cr) in c.iter().enumerate() {
        _mm512_storeu_ps(cp.add(r * NR), *cr);
    }
}

/// 512-bit explicit micro-kernel over two B vectors per K step: an `MR ×
/// 2·NR` tile in twelve `zmm` accumulators — two B loads and six
/// broadcasts per twelve FMAs, and enough independent chains to keep both
/// FMA ports busy.
///
/// # Safety
/// Caller must ensure the CPU supports AVX-512F, `a.len() ==
/// koff.len()*MR`, and `koff[i] + col + NR <= b.len()` for every `i` and
/// both `col` of `cols`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn microkernel_avx512_pair(
    a: &[f32],
    b: &[f32],
    koff: &[usize],
    cols: [usize; 2],
    start: Option<[f32; MR]>,
    acc: &mut [[[f32; NR]; MR]; 2],
) {
    use std::arch::x86_64::*;
    let cp = acc.as_mut_ptr() as *mut f32;
    let mut c0 = [_mm512_setzero_ps(); MR];
    let mut c1 = [_mm512_setzero_ps(); MR];
    for r in 0..MR {
        (c0[r], c1[r]) = match start {
            Some(s) => (_mm512_set1_ps(s[r]), _mm512_set1_ps(s[r])),
            None => (
                _mm512_loadu_ps(cp.add(r * NR)),
                _mm512_loadu_ps(cp.add((MR + r) * NR)),
            ),
        };
    }
    let (pb0, pb1) = (b.as_ptr().add(cols[0]), b.as_ptr().add(cols[1]));
    let mut pa = a.as_ptr();
    for &o in koff {
        let v0 = _mm512_loadu_ps(pb0.add(o));
        let v1 = _mm512_loadu_ps(pb1.add(o));
        for r in 0..MR {
            let ar = _mm512_set1_ps(*pa.add(r));
            c0[r] = _mm512_fmadd_ps(ar, v0, c0[r]);
            c1[r] = _mm512_fmadd_ps(ar, v1, c1[r]);
        }
        pa = pa.add(MR);
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
        let koff: Vec<usize> = (0..kc).map(|i| i * NR).collect();
        microkernel_scalar_loop(&a, &b, &koff, 0, &mut plain);
        microkernel_scalar(&a, &b, &koff, 0, None, &mut dispatched);
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
        // An empty shared dimension has no K slice to write the output in.
        let empty = PackedFilter::pack(&[], 2, 0).unwrap();
        assert!(
            gemm_bias_act_into(&empty, &[0.0; 2], Activation::None, 1, &fill, &mut out).is_err()
        );
    }
}
