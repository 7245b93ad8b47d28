//! The crate's vector loops, compiled once per instruction-set arm: the one
//! dense product every batched pass is made of, and Adam's per-parameter
//! step.
//!
//! [`mac`] computes `c[r][j] = init + Σ_k a[r][k] · x[k][j]` with the sum
//! taken in ascending `k`, one fused multiply-add per step (one rounding
//! per step) — the crate's numerical contract (see the crate docs).  A
//! forward pass, an input gradient and a weight gradient are all this
//! product over differently strided operands, so there is one body.  Its
//! vector lanes are the `j` (and `r`) of *different* outputs; no sum is ever
//! split across lanes, and `f32::mul_add` is correctly rounded wherever it
//! runs (an FMA instruction on the vector arms, libm's `fmaf` on a baseline
//! without one), which is why every arm, every tile shape and the
//! per-sample loops the tests keep as an oracle agree bit for bit.
//!
//! [`adam`] is elementwise: plain multiplies, adds, one square root and one
//! division per parameter, each correctly rounded on every arm, and the
//! moment flush ([`MOMENT_FLOOR`]) is a compare-and-select in code — never
//! the MXCSR flush-to-zero mode, which is thread-global and would reach
//! libm too.

use std::sync::OnceLock;

/// An instruction-set arm [`mac`] is compiled for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Arm {
    /// The target's baseline features (SSE2 on x86-64).
    Baseline,
    /// 256-bit vectors and FMA.
    #[cfg(target_arch = "x86_64")]
    Avx2,
    /// 512-bit vectors and FMA.
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

impl Arm {
    /// The widest arm this CPU runs, read from CPUID once per process.
    pub(crate) fn detected() -> Arm {
        static DETECTED: OnceLock<Arm> = OnceLock::new();
        *DETECTED.get_or_init(|| *Arm::available().last().expect("the baseline always runs"))
    }

    /// Every arm this CPU runs, narrowest first.  A vector arm needs FMA
    /// as well as its vector width: without it, `mul_add` would be a libm
    /// call per lane.
    pub(crate) fn available() -> Vec<Arm> {
        let mut arms = vec![Arm::Baseline];
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            arms.push(Arm::Avx2);
            if std::arch::is_x86_feature_detected!("avx512f") {
                arms.push(Arm::Avx512);
            }
        }
        arms
    }
}

/// What each output of [`mac`] starts from.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Init<'a> {
    /// `0.0`.
    Zero,
    /// One value per row (a layer's bias).
    Rows(&'a [f32]),
    /// What `c` already holds.
    Accumulate,
}

/// The `rows × depth` coefficients of a product, read in place from a
/// larger matrix: element `(r, k)` is `a[r * row_stride + k * k_stride]`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Coef<'a> {
    pub a: &'a [f32],
    pub row_stride: usize,
    pub k_stride: usize,
    pub rows: usize,
    pub depth: usize,
}

/// `c[r * l + j] = init + Σ_k↑ coef(r, k) · x[k * l + j]` for every row `r`
/// and lane `j < l`: `x` is `depth × l` and `c` is `rows × l`, both
/// row-major.
pub(crate) fn mac(arm: Arm, init: Init<'_>, coef: Coef<'_>, x: &[f32], l: usize, c: &mut [f32]) {
    match arm {
        Arm::Baseline => mac_body::<2, 8>(init, coef, x, l, c),
        // SAFETY: `Arm::available` lists an arm only when CPUID reports its
        // features, and every `Arm` the crate runs comes from that list.
        #[cfg(target_arch = "x86_64")]
        Arm::Avx2 => unsafe { mac_avx2(init, coef, x, l, c) },
        // SAFETY: as above.
        #[cfg(target_arch = "x86_64")]
        Arm::Avx512 => unsafe { mac_avx512(init, coef, x, l, c) },
    }
}

/// [`mac_body`] compiled with 256-bit vectors and FMA: a 4 × 16 tile is
/// eight independent `ymm` FMA chains, and one load of `x` serves all four
/// rows.
///
/// # Safety
/// The CPU must support AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn mac_avx2(init: Init<'_>, coef: Coef<'_>, x: &[f32], l: usize, c: &mut [f32]) {
    mac_body::<4, 16>(init, coef, x, l, c)
}

/// [`mac_body`] compiled with 512-bit vectors and FMA: an 8 × 32 tile is
/// sixteen `zmm` accumulators.
///
/// # Safety
/// The CPU must support AVX-512F and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,fma")]
unsafe fn mac_avx512(init: Init<'_>, coef: Coef<'_>, x: &[f32], l: usize, c: &mut [f32]) {
    mac_body::<8, 32>(init, coef, x, l, c)
}

/// The per-step scalars of one Adam step (Kingma & Ba's efficient form; see
/// [`crate::adam::Adam::step`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct AdamStep {
    pub beta1: f32,
    pub beta2: f32,
    /// `α_t = lr·√(1−β₂ᵗ)/(1−β₁ᵗ)`.
    pub alpha: f32,
    /// `ε̂ = ε·√(1−β₂ᵗ)`.
    pub eps: f32,
}

/// One Adam step over every parameter, in place: each moment (`m`, `v`,
/// laid out like `params` and `grads`) takes its textbook update and is
/// [`flushed`], then `p -= α_t·m / (√v + ε̂)`, and the gradient is cleared.
pub(crate) fn adam(
    arm: Arm,
    step: AdamStep,
    params: &mut [f32],
    grads: &mut [f32],
    m: &mut [f32],
    v: &mut [f32],
) {
    match arm {
        Arm::Baseline => adam_body(step, params, grads, m, v),
        // SAFETY: as in `mac`.
        #[cfg(target_arch = "x86_64")]
        Arm::Avx2 => unsafe { adam_avx2(step, params, grads, m, v) },
        // SAFETY: as in `mac`.
        #[cfg(target_arch = "x86_64")]
        Arm::Avx512 => unsafe { adam_avx512(step, params, grads, m, v) },
    }
}

/// [`adam_body`] with 256-bit vectors.
///
/// # Safety
/// The CPU must support AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn adam_avx2(step: AdamStep, p: &mut [f32], g: &mut [f32], m: &mut [f32], v: &mut [f32]) {
    adam_body(step, p, g, m, v)
}

/// [`adam_body`] with 512-bit vectors: sixteen square roots and divisions
/// per instruction.
///
/// # Safety
/// The CPU must support AVX-512F and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,fma")]
unsafe fn adam_avx512(step: AdamStep, p: &mut [f32], g: &mut [f32], m: &mut [f32], v: &mut [f32]) {
    adam_body(step, p, g, m, v)
}

/// The magnitude below which an Adam moment is stored as `+0.0`: `2⁻¹⁰⁰`.
///
/// A moment of a parameter whose gradient stays zero (a dead ReLU unit)
/// decays ×β₁ per step, and every vector instruction that reads or yields
/// a subnormal takes a microcode assist.  Flushing only below
/// `f32::MIN_POSITIVE` keeps the moments normal but not the step: `α_t·m`
/// turns subnormal once `|m| < f32::MIN_POSITIVE / α_t` (about 1e-34 at
/// `α_t = 1e-4`), tens of steps earlier, and an Adam step over moments in
/// that band measured 14× slower.  At `2⁻¹⁰⁰` the step's intermediates
/// stay normal while `α_t / (√v + ε̂) ≥ 2⁻²⁶`, and the step it drops,
/// at most `α_t·2⁻¹⁰⁰ / ε̂` (under 1e-23 for learning rates up to 1e-2),
/// is below half an ulp of any parameter larger than about 1e-15.
pub(crate) const MOMENT_FLOOR: f32 = 1.0 / (1u128 << 100) as f32;

/// `x`, or `+0.0` where its magnitude is below [`MOMENT_FLOOR`].
#[inline(always)]
pub(crate) fn flushed(x: f32) -> f32 {
    if x.abs() < MOMENT_FLOOR {
        0.0
    } else {
        x
    }
}

#[inline(always)]
fn adam_body(step: AdamStep, p: &mut [f32], g: &mut [f32], m: &mut [f32], v: &mut [f32]) {
    let AdamStep {
        beta1,
        beta2,
        alpha,
        eps,
    } = step;
    assert!(
        g.len() == p.len() && m.len() == p.len() && v.len() == p.len(),
        "parameters, gradients and moments differ in length"
    );
    for (((p, g), m), v) in p.iter_mut().zip(g).zip(m).zip(v) {
        *m = flushed(beta1 * *m + (1.0 - beta1) * *g);
        *v = flushed(beta2 * *v + (1.0 - beta2) * *g * *g);
        *p -= alpha * *m / (v.sqrt() + eps);
        *g = 0.0;
    }
}

/// The product, tiled `R` rows by `T` lanes.  The tile shape decides only
/// how many independent outputs are in flight (enough to cover the FMA
/// latency on the arm it is compiled for), never the order of a sum.
#[inline(always)]
fn mac_body<const R: usize, const T: usize>(
    init: Init<'_>,
    coef: Coef<'_>,
    x: &[f32],
    l: usize,
    c: &mut [f32],
) {
    if coef.rows == 0 || l == 0 {
        return;
    }
    // These three checks are what every unchecked read in `tile` rests on.
    assert!(x.len() >= coef.depth * l, "x is shorter than depth × l");
    assert!(c.len() >= coef.rows * l, "c is shorter than rows × l");
    assert!(
        coef.depth == 0
            || (coef.rows - 1) * coef.row_stride + (coef.depth - 1) * coef.k_stride < coef.a.len(),
        "coefficients reach past their matrix"
    );
    if let Init::Rows(b) = init {
        assert!(b.len() >= coef.rows, "fewer initial values than rows");
    }
    let mut r = 0;
    while r + R <= coef.rows {
        // SAFETY: the checks above, and `r + R <= rows`.
        unsafe { lanes::<R, T>(init, coef, x, l, r, c) };
        r += R;
    }
    while r < coef.rows {
        // SAFETY: the checks above, and `r + 1 <= rows`.
        unsafe { lanes::<1, T>(init, coef, x, l, r, c) };
        r += 1;
    }
}

/// All `l` lanes of rows `r0 .. r0 + R`: `T`-wide tiles, then 8-wide, then
/// single lanes.
///
/// # Safety
/// As [`tile`], for every `j0 + width <= l`.
#[inline(always)]
unsafe fn lanes<const R: usize, const T: usize>(
    init: Init<'_>,
    coef: Coef<'_>,
    x: &[f32],
    l: usize,
    r0: usize,
    c: &mut [f32],
) {
    let mut j = 0;
    while j + T <= l {
        tile::<R, T>(init, coef, x, l, r0, j, c);
        j += T;
    }
    while j + 8 <= l {
        tile::<R, 8>(init, coef, x, l, r0, j, c);
        j += 8;
    }
    while j < l {
        tile::<R, 1>(init, coef, x, l, r0, j, c);
        j += 1;
    }
}

/// One register tile: rows `r0 .. r0 + R`, lanes `j0 .. j0 + T`, the whole
/// depth.  `acc` is `R × T` independent sums; the compiler keeps it in
/// vector registers and the `t` loop becomes the vector lanes.
///
/// # Safety
/// `r0 + R <= coef.rows`, `j0 + T <= l`, `x.len() >= coef.depth * l`,
/// `c.len() >= coef.rows * l`, every `coef(r, k)` lies inside `coef.a`,
/// and an `Init::Rows` slice has `coef.rows` values.
#[inline(always)]
unsafe fn tile<const R: usize, const T: usize>(
    init: Init<'_>,
    coef: Coef<'_>,
    x: &[f32],
    l: usize,
    r0: usize,
    j0: usize,
    c: &mut [f32],
) {
    // This tile's share of row `r0 + r` of `c`; it ends at or before
    // `rows * l <= c.len()`.
    let in_c = |r: usize| (r0 + r) * l + j0..(r0 + r) * l + j0 + T;
    let mut acc = [[0.0f32; T]; R];
    for (r, acc) in acc.iter_mut().enumerate() {
        match init {
            Init::Zero => {}
            // SAFETY: `r0 + r < rows <= b.len()`.
            Init::Rows(b) => *acc = [*b.get_unchecked(r0 + r); T],
            // SAFETY: `in_c` stays inside `c`.
            Init::Accumulate => acc.copy_from_slice(c.get_unchecked(in_c(r))),
        }
    }
    for k in 0..coef.depth {
        // SAFETY: `k * l + j0 + T <= depth * l <= x.len()`.
        let xk = x.get_unchecked(k * l + j0..k * l + j0 + T);
        for (r, acc) in acc.iter_mut().enumerate() {
            // SAFETY: `(r0 + r, k)` is a coefficient, checked against
            // `coef.a` by the caller.
            let a = *coef
                .a
                .get_unchecked((r0 + r) * coef.row_stride + k * coef.k_stride);
            for (acc, &x) in acc.iter_mut().zip(xk) {
                *acc = a.mul_add(x, *acc);
            }
        }
    }
    for (r, acc) in acc.iter().enumerate() {
        // SAFETY: `in_c` stays inside `c`.
        c.get_unchecked_mut(in_c(r)).copy_from_slice(acc);
    }
}

/// `dst` (`cols × rows`, row-major) becomes the transpose of `src`
/// (`rows × cols`, row-major).
pub(crate) fn transpose(src: &[f32], rows: usize, cols: usize, dst: &mut [f32]) {
    debug_assert_eq!(src.len(), rows * cols);
    for (r, row) in src.chunks_exact(cols).enumerate() {
        for (col, &v) in row.iter().enumerate() {
            dst[col * rows + r] = v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mlp::{ActKind, Mlp};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The contract, written as plainly as it can be.
    fn mac_plain(init: Init<'_>, coef: Coef<'_>, x: &[f32], l: usize, c: &mut [f32]) {
        for r in 0..coef.rows {
            for j in 0..l {
                let mut acc = match init {
                    Init::Zero => 0.0,
                    Init::Rows(b) => b[r],
                    Init::Accumulate => c[r * l + j],
                };
                for k in 0..coef.depth {
                    acc =
                        coef.a[r * coef.row_stride + k * coef.k_stride].mul_add(x[k * l + j], acc);
                }
                c[r * l + j] = acc;
            }
        }
    }

    #[test]
    fn every_arm_and_tile_edge_matches_the_plain_loop() {
        let mut rng = StdRng::seed_from_u64(17);
        let mut draw =
            |n: usize| -> Vec<f32> { (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect() };
        // Rows and lanes on both sides of every tile width in use
        // (R ∈ {1, 2, 4, 8}, T ∈ {1, 8, 16, 32}); coefficients row-major and
        // column-major, the latter from an offset inside a wider matrix.
        for &rows in &[1usize, 2, 3, 4, 5, 7, 8, 9, 15, 17] {
            for &l in &[1usize, 7, 8, 9, 15, 16, 17, 31, 32, 33, 41, 64, 71] {
                for &depth in &[0usize, 1, 5, 13] {
                    let wide = depth + 3;
                    let a = draw(rows.max(depth) * (rows + wide) + 1);
                    let x = draw(depth * l);
                    let bias = draw(rows);
                    let held = draw(rows * l);
                    let row_major = Coef {
                        a: &a,
                        row_stride: wide,
                        k_stride: 1,
                        rows,
                        depth,
                    };
                    let col_major = Coef {
                        a: &a[1..],
                        row_stride: 1,
                        k_stride: rows + 2,
                        rows,
                        depth,
                    };
                    for coef in [row_major, col_major] {
                        for init in [Init::Zero, Init::Rows(&bias), Init::Accumulate] {
                            let mut want = held.clone();
                            mac_plain(init, coef, &x, l, &mut want);
                            for arm in Arm::available() {
                                let mut got = held.clone();
                                mac(arm, init, coef, &x, l, &mut got);
                                assert!(
                                    got.iter()
                                        .zip(&want)
                                        .all(|(g, w)| g.to_bits() == w.to_bits()),
                                    "{arm:?} {init:?} rows {rows} l {l} depth {depth}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    /// Operands on which a fused and an unfused step differ: the exact
    /// product `(1 + 2⁻¹²)² = 1 + 2⁻¹¹ + 2⁻²⁴` is a tie between two `f32`s
    /// and rounds to the even `1 + 2⁻¹¹`, so multiply-then-add against
    /// `−(1 + 2⁻¹¹)` gives `0` while one fused step keeps the `2⁻²⁴`.
    const WITNESS_OPERAND: f32 = 1.0 + 1.0 / (1u32 << 12) as f32;
    const WITNESS_INIT: f32 = -(1.0 + 1.0 / (1u32 << 11) as f32);
    const WITNESS_FUSED: f32 = 1.0 / (1u32 << 24) as f32;

    #[test]
    fn fused_witness_survives_every_arm_and_the_forward_pass() {
        assert_eq!(WITNESS_OPERAND * WITNESS_OPERAND + WITNESS_INIT, 0.0);
        assert_eq!(
            WITNESS_OPERAND.mul_add(WITNESS_OPERAND, WITNESS_INIT),
            WITNESS_FUSED
        );
        // Rows and lanes that reach every tile width in use:
        // R ∈ {1, 2, 4, 8}, T ∈ {1, 8, 16, 32}.
        let (rows, l) = (9, 57);
        let a = vec![WITNESS_OPERAND; rows];
        let x = vec![WITNESS_OPERAND; l];
        let init = vec![WITNESS_INIT; rows];
        let coef = Coef {
            a: &a,
            row_stride: 1,
            k_stride: 1,
            rows,
            depth: 1,
        };
        for arm in Arm::available() {
            let mut bias = vec![0.0; rows * l];
            mac(arm, Init::Rows(&init), coef, &x, l, &mut bias);
            let mut held = vec![WITNESS_INIT; rows * l];
            mac(arm, Init::Accumulate, coef, &x, l, &mut held);
            for (what, got) in [("bias", bias), ("accumulated", held)] {
                assert!(
                    got.iter().all(|v| v.to_bits() == WITNESS_FUSED.to_bits()),
                    "{arm:?} lost the fused bit from a {what} start: {:?}",
                    &got[..4]
                );
            }
        }
        let mut net = Mlp::new(&[1, 1], ActKind::Identity, 0);
        net.set_params_flat(&[WITNESS_OPERAND, WITNESS_INIT]);
        assert_eq!(
            net.forward(&[WITNESS_OPERAND])[0].to_bits(),
            WITNESS_FUSED.to_bits()
        );
    }

    #[test]
    #[should_panic(expected = "shorter than depth")]
    fn a_short_operand_is_refused_before_any_unchecked_read() {
        let a = [1.0; 4];
        let coef = Coef {
            a: &a,
            row_stride: 2,
            k_stride: 1,
            rows: 2,
            depth: 2,
        };
        let mut c = [0.0; 16];
        mac(Arm::Baseline, Init::Zero, coef, &[0.0; 15], 8, &mut c);
    }

    #[test]
    fn transpose_roundtrip() {
        let src: Vec<f32> = (0..12u16).map(f32::from).collect();
        let mut t = vec![0.0; 12];
        transpose(&src, 3, 4, &mut t);
        assert_eq!(t[..3], [0.0, 4.0, 8.0]);
        let mut back = vec![0.0; 12];
        transpose(&t, 4, 3, &mut back);
        assert_eq!(back, src);
    }
}
