//! Property-based bit-exactness across micro-kernel dispatch arms.
//!
//! Every arm (scalar / AVX2 / AVX-512) implements the identical per-element
//! op sequence — one fused multiply-add per step, ascending `k`, the
//! contract stated in `tensor::ops` — so forcing the scalar fallback must
//! reproduce the auto-dispatched output *bitwise*, on the GEMM conv path,
//! the Winograd path and the FC GEMV path alike — and the GEMV kernels must
//! reproduce, bit for bit, the `n = 1` GEMM product they replaced (f32 over
//! `PackedFilter`, int8 over `QuantizedFilter`, both kept as the oracle).
//! A fused multiply-add is one correctly rounded operation on every
//! implementation, which is the property that lets a heterogeneous device
//! fleet (or a CI box without AVX) interoperate with bit-exact distributed
//! execution, and it is what the `DISTREDGE_KERNEL=scalar` CI job leans on.
//! Two plain tests pin the contract itself: a *fused witness* whose fused
//! and unfused results differ, and the AVX-512 arm's paired-panel edges
//! against a scalar `mul_add` loop.
//!
//! The pin is process-global; each pin holds its lock, so tests running in
//! parallel take turns and every pinned body runs the arm it names.

use proptest::prelude::*;
use tensor::ops::gemm::{gemm_bias_act_into, KC, MR, NR};
use tensor::ops::qgemm::{qgemm_bias_act_into, QK};
use tensor::ops::{
    conv2d_rows_packed, im2col_weight_len, kernel_arch, linear_packed, linear_q8, pack_conv_filter,
    pack_linear_filter, pin_kernels, qkernel_arch, quant_byte, quant_scale, winograd_eligible,
    Activation, ConvRoute, KernelArch, PackedFilter, QKernelArch, QuantizedFilter,
    QuantizedLinearFilter,
};
use tensor::shape::conv_out_dim;
use tensor::Tensor;

/// Runs `body` once per arm of the family `arch` reads that the hardware
/// can execute (always at least scalar), each under a pin of that level,
/// returning the per-arm outputs for comparison.
fn each_arm<A: Copy + PartialEq, T>(arch: fn() -> A, mut body: impl FnMut(A) -> T) -> Vec<(A, T)> {
    let mut out: Vec<(A, T)> = Vec::new();
    for level in [KernelArch::Scalar, KernelArch::Avx2, KernelArch::Avx512] {
        let _pin = pin_kernels(level);
        let arm = arch();
        if out.last().is_some_and(|(prev, _)| *prev == arm) {
            break; // the hardware tops out below this level
        }
        out.push((arm, body(arm)));
    }
    out
}

/// [`each_arm`] over the f32 family.
fn with_each_arm<T>(body: impl FnMut(KernelArch) -> T) -> Vec<(KernelArch, T)> {
    each_arm(kernel_arch, body)
}

/// [`each_arm`] over the int8 family.
fn with_each_qarm<T>(body: impl FnMut(QKernelArch) -> T) -> Vec<(QKernelArch, T)> {
    each_arm(qkernel_arch, body)
}

/// A panel filler over a dense row-major `[k][n]` matrix.
fn dense_fill(b: &[f32], n: usize) -> impl Fn(usize, usize, usize, usize, &mut [f32]) + Sync + '_ {
    move |k0, k1, j0, j1, buf| {
        let kc = k1 - k0;
        for kk in 0..kc {
            for j in j0..j1 {
                let jj = j - j0;
                buf[((jj / NR) * kc + kk) * NR + jj % NR] = b[(k0 + kk) * n + j];
            }
        }
    }
}

/// `act(bias + A·B)` through the packed GEMM on the current arm.
fn gemm(a: &[f32], b: &[f32], bias: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    let packed = PackedFilter::pack(a, m, k).unwrap();
    let mut out = vec![0.0f32; m * n];
    gemm_bias_act_into(
        &packed,
        bias,
        Activation::None,
        n,
        &dense_fill(b, n),
        &mut out,
    )
    .unwrap();
    out
}

/// The contract written out: one accumulator from the bias, `k` ascending,
/// one `f32::mul_add` per step.
fn mul_add_reference(a: &[f32], b: &[f32], bias: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; m * n];
    for r in 0..m {
        for j in 0..n {
            let mut acc = bias[r];
            for kk in 0..k {
                acc = a[r * k + kk].mul_add(b[kk * n + j], acc);
            }
            out[r * n + j] = acc;
        }
    }
    out
}

/// Operands on which a fused and an unfused step differ: the exact product
/// `(1 + 2⁻¹²)² = 1 + 2⁻¹¹ + 2⁻²⁴` is a tie that rounds to even,
/// `1 + 2⁻¹¹`, so multiply-then-add against `−(1 + 2⁻¹¹)` gives `0` while
/// one fused step keeps the `2⁻²⁴`.
const WITNESS_OPERAND: f32 = 1.0 + 1.0 / 4096.0;
const WITNESS_BIAS: f32 = -(1.0 + 1.0 / 2048.0);
const WITNESS_FUSED: f32 = 1.0 / 16_777_216.0;

#[test]
fn fused_witness_survives_every_kernel_on_every_arm() {
    assert_eq!(WITNESS_OPERAND * WITNESS_OPERAND + WITNESS_BIAS, 0.0);
    assert_eq!(
        WITNESS_OPERAND.mul_add(WITNESS_OPERAND, WITNESS_BIAS),
        WITNESS_FUSED
    );
    let fused_bits = WITNESS_FUSED.to_bits();

    // GEMM: a row-panel edge, a panel pair and an odd panel, K = 1.
    let (m, n) = (MR + 1, 2 * NR + 1);
    let (a, b, bias) = (
        vec![WITNESS_OPERAND; m],
        vec![WITNESS_OPERAND; n],
        vec![WITNESS_BIAS; m],
    );
    let gemm_want = mul_add_reference(&a, &b, &bias, m, 1, n);
    // GEMV: one full row panel and a short one, one input.
    let rows = 70;
    let fc = pack_linear_filter(&vec![WITNESS_OPERAND; rows], 1, rows).unwrap();
    let x = Tensor::from_vec([1, 1, 1], vec![WITNESS_OPERAND]).unwrap();
    // Routed conv: a 1×1 filter over one channel is the same single step
    // per pixel, through the implicit GEMM.
    let image = Tensor::filled([1, 5, 7], WITNESS_OPERAND);
    let conv = pack_conv_filter(&[WITNESS_OPERAND; 3], 1, 3, 1, 1, None).unwrap();

    let all_fused = |what: &str, arm: KernelArch, out: &[f32]| {
        assert!(
            out.iter().all(|v| v.to_bits() == fused_bits),
            "{what} on the {} arm lost the fused bit: {:?}",
            arm.label(),
            &out[..out.len().min(4)]
        );
    };
    with_each_arm(|arm| {
        let got = gemm(&a, &b, &bias, m, 1, n);
        all_fused("gemm", arm, &got);
        assert_eq!(got, gemm_want);

        let out = linear_packed(&x, &fc, &vec![WITNESS_BIAS; rows], Activation::None).unwrap();
        all_fused("gemv", arm, out.data());

        let out = conv2d_rows_packed(
            &image,
            0,
            5,
            0,
            5,
            &conv,
            &[WITNESS_BIAS; 3],
            1,
            1,
            0,
            Activation::None,
        )
        .unwrap();
        all_fused("routed conv", arm, out.data());
    });
}

#[test]
fn paired_panel_edges_match_a_scalar_mul_add_loop_on_every_arm() {
    // The AVX-512 arm runs B panels two at a time and an odd last panel
    // alone.  Cover both sides of that seam on the narrow path (under 4·NR
    // columns) and the wide one, with `K` crossing `KC` so the pair kernel
    // runs the first block (from the bias) and the last (into `out`).
    let columns = [
        NR + 1,
        2 * NR,
        2 * NR + 1,
        3 * NR - 1, // narrow, three panels
        4 * NR,
        4 * NR + 1, // wide, five panels
        7 * NR - 3,
    ];
    for &n in &columns {
        for &k in &[1, KC - 1, KC + 1, 2 * KC + 3] {
            let m = 2 * MR + 1;
            let a = pseudo_weights(m * k, (n * 31 + k) as u64);
            let b = pseudo_weights(k * n, (n * 17 + k) as u64 ^ 0xb0b);
            let bias = pseudo_weights(m, k as u64 ^ 0xb1a5);
            let want = mul_add_reference(&a, &b, &bias, m, k, n);
            for (arm, got) in with_each_arm(|_| gemm(&a, &b, &bias, m, k, n)) {
                assert!(
                    got == want,
                    "{} arm diverged from the mul_add loop at m={m} k={k} n={n}",
                    arm.label()
                );
            }
        }
    }
}

/// The FC product as it ran before the GEMV kernels: an `n = 1` GEMM over
/// `MR`-row panels, `x` in lane 0 of the one B panel.
fn linear_via_gemm(x: &[f32], filter: &PackedFilter, bias: &[f32], act: Activation) -> Vec<f32> {
    let fill = |k0: usize, k1: usize, _j0: usize, _j1: usize, buf: &mut [f32]| {
        for (kk, &v) in x[k0..k1].iter().enumerate() {
            buf[kk * NR] = v;
        }
    };
    let mut out = vec![0.0f32; filter.m()];
    gemm_bias_act_into(filter, bias, act, 1, &fill, &mut out).unwrap();
    out
}

/// The int8 FC product as it ran before the GEMV kernels.
fn linear_via_qgemm(
    x: &[f32],
    filter: &QuantizedFilter,
    scale_in: f32,
    bias: &[f32],
    act: Activation,
) -> Vec<f32> {
    let fill = |k0: usize, k1: usize, _j0: usize, _j1: usize, buf: &mut [u8]| {
        for (kk, &v) in x[k0..k1].iter().enumerate() {
            buf[(kk / QK) * NR * QK + (kk % QK)] = quant_byte(v, scale_in);
        }
    };
    let mut out = vec![0.0f32; filter.m()];
    qgemm_bias_act_into(filter, bias, act, scale_in, 1, &fill, &mut out).unwrap();
    out
}

/// Maps a free `(m, k)` draw onto an FC shape; half the cases pin an edge
/// random draws rarely hit: fewer rows than a vector, `k = 1`, whole panels
/// only, `k` off the vector and quad edges.
fn fc_shape(case: usize, m: usize, k: usize) -> (usize, usize) {
    match case {
        0 => (m % 15 + 1, k),
        1 => (m, 1),
        2 => (64 * (m % 2 + 1), k),
        3 => (m, k | 1),
        _ => (m, k),
    }
}

fn pseudo_tensor(c: usize, h: usize, w: usize, seed: u64) -> Tensor {
    Tensor::from_fn([c, h, w], |ci, y, x| {
        let v = (ci as u64)
            .wrapping_mul(2654435761)
            .wrapping_add((y as u64).wrapping_mul(40503))
            .wrapping_add((x as u64).wrapping_mul(9973))
            .wrapping_add(seed);
        ((v % 2048) as f32 / 1024.0) - 1.0
    })
}

fn pseudo_weights(len: usize, seed: u64) -> Vec<f32> {
    (0..len)
        .map(|i| {
            let v = (i as u64)
                .wrapping_mul(6364136223846793005)
                .wrapping_add(seed);
            ((v % 1000) as f32 / 500.0) - 1.0
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Conv outputs are bit-identical across every dispatch arm, on both
    /// the policy's route and — for stride-1 3×3 draws — the Winograd
    /// route pinned at pack time (its 16 batched GEMMs run the same
    /// micro-kernel, and the policy only takes it at `winograd_preferred`
    /// channel counts these small draws never reach).
    #[test]
    fn conv_is_bit_exact_across_dispatch_arms(
        c_in in 1usize..6,
        c_out in 1usize..12,
        h in 6usize..22,
        w in 4usize..14,
        f in 1usize..4,
        stride in 1usize..3,
        seed in any::<u64>(),
    ) {
        let padding = f / 2;
        prop_assume!(conv_out_dim(h, f, stride, padding).is_some());
        prop_assume!(conv_out_dim(w, f, stride, padding).is_some());
        let input = pseudo_tensor(c_in, h, w, seed);
        let weights = pseudo_weights(im2col_weight_len(c_in, c_out, f), seed ^ 0x51ac);
        let bias = pseudo_weights(c_out, seed ^ 0xd15b);
        let filter = pack_conv_filter(&weights, c_in, c_out, f, stride, None).unwrap();
        // A pack holds one form only; the Winograd form is a second pack,
        // pinned to that route.
        let pinned_wino = winograd_eligible(f, stride).then(|| {
            pack_conv_filter(&weights, c_in, c_out, f, stride, Some(ConvRoute::Winograd)).unwrap()
        });
        let out_h = conv_out_dim(h, f, stride, padding).unwrap();

        let runs = with_each_arm(|_| {
            let routed = conv2d_rows_packed(
                &input, 0, h, 0, out_h, &filter, &bias, f, stride, padding, Activation::Relu,
            ).unwrap();
            let wino = pinned_wino.as_ref().map(|w| {
                conv2d_rows_packed(
                    &input, 0, h, 0, out_h, w, &bias, f, stride, padding, Activation::Relu,
                ).unwrap()
            });
            (routed, wino)
        });
        let (base_arm, baseline) = &runs[0];
        prop_assert_eq!(*base_arm, KernelArch::Scalar);
        for (arm, out) in &runs[1..] {
            prop_assert!(
                out.0 == baseline.0,
                "{} arm diverged from scalar on the routed path (f={}, stride={})",
                arm.label(), f, stride
            );
            prop_assert!(
                out.1 == baseline.1,
                "{} arm diverged from scalar on the winograd path (f={}, stride={})",
                arm.label(), f, stride
            );
        }
    }

    /// The FC GEMV kernel is bit-identical across every dispatch arm, and on
    /// every arm to the `n = 1` GEMM product over the old `PackedFilter`.
    #[test]
    fn linear_is_bit_exact_across_dispatch_arms(
        case in 0usize..8,
        m in 1usize..200,
        k in 1usize..600,
        seed in any::<u64>(),
    ) {
        let (out_features, in_features) = fc_shape(case, m, k);
        let input = Tensor::from_vec(
            [in_features, 1, 1],
            pseudo_weights(in_features, seed),
        ).unwrap();
        let weights = pseudo_weights(in_features * out_features, seed ^ 0x777);
        let bias = pseudo_weights(out_features, seed ^ 0x888);
        let filter = pack_linear_filter(&weights, in_features, out_features).unwrap();
        let oracle_filter = PackedFilter::pack(&weights, out_features, in_features).unwrap();

        let runs = with_each_arm(|_| {
            let gemv = linear_packed(&input, &filter, &bias, Activation::Tanh).unwrap();
            let gemm = linear_via_gemm(input.data(), &oracle_filter, &bias, Activation::Tanh);
            (gemv, gemm)
        });
        let (_, (baseline, _)) = &runs[0];
        for (arm, (gemv, gemm)) in &runs {
            prop_assert!(gemv == baseline, "{} arm diverged from scalar", arm.label());
            prop_assert!(
                gemv.data() == gemm.as_slice(),
                "{} arm: GEMV diverged from the n = 1 GEMM path ({}x{})",
                arm.label(), out_features, in_features
            );
        }
    }

    /// The int8 FC GEMV kernel is bit-identical across every int8 arm, and
    /// on every arm to `qgemm_bias_act_into` at `n = 1`.
    #[test]
    fn linear_q8_is_bit_exact_across_dispatch_arms(
        case in 0usize..8,
        m in 1usize..200,
        k in 1usize..600,
        seed in any::<u64>(),
    ) {
        let (out_features, in_features) = fc_shape(case, m, k);
        let input = Tensor::from_vec(
            [in_features, 1, 1],
            pseudo_weights(in_features, seed),
        ).unwrap();
        let weights = pseudo_weights(in_features * out_features, seed ^ 0x777);
        let bias = pseudo_weights(out_features, seed ^ 0x888);
        let scale_in = quant_scale(input.data());
        let filter = QuantizedLinearFilter::pack(&weights, out_features, in_features).unwrap();
        let oracle_filter = QuantizedFilter::pack(&weights, out_features, in_features).unwrap();
        prop_assert_eq!(filter.scale(), oracle_filter.scale());

        let runs = with_each_qarm(|_| {
            let gemv =
                linear_q8(&input, &filter, scale_in, &bias, Activation::LeakyRelu).unwrap();
            let gemm = linear_via_qgemm(
                input.data(), &oracle_filter, scale_in, &bias, Activation::LeakyRelu,
            );
            (gemv, gemm)
        });
        let (_, (baseline, _)) = &runs[0];
        for (arm, (gemv, gemm)) in &runs {
            prop_assert!(gemv == baseline, "{} arm diverged from scalar", arm.label());
            prop_assert!(
                gemv.data() == gemm.as_slice(),
                "{} arm: int8 GEMV diverged from the n = 1 qgemm path ({}x{})",
                arm.label(), out_features, in_features
            );
        }
    }
}
