//! Property-based equivalence of the packed convolution paths against the
//! direct loop-nest oracle.
//!
//! Invariants across random geometries (channels, filter, stride, padding,
//! band splits):
//!
//! * **oracle agreement (GEMM)** — the implicit GEMM path matches the direct
//!   kernel within `1e-4` (the paths sum in different orders only over the
//!   zero-padding taps the direct kernel skips);
//! * **oracle agreement (Winograd)** — the Winograd F(2×2,3×3) path matches
//!   the direct kernel within a *relative* `1e-3` (its summation order
//!   differs by construction), over full outputs and halo-overlapped row
//!   bands alike;
//! * **exact order (GEMM)** — the GEMM path equals, bit for bit, the
//!   numerical contract's scalar fused multiply-add loop over the taps in
//!   ascending `k`, on every f32 arm;
//! * **band determinism** — on the routed packed path (GEMM or Winograd
//!   per layer geometry), computing a band split and stitching is
//!   *bit-exact* against the full-output call, for any cut points.  This
//!   is the stronger property the distributed runtime's bit-exactness
//!   tests rely on;
//! * **one routed form** — a pack carries exactly one of the GEMM /
//!   Winograd / int8 panel forms — under the policy the one the route
//!   function names — and its output is bit-identical to a pack pinned to
//!   that route;
//! * **integer reference (int8)** — the int8 conv equals, bit for bit, an
//!   integer im2col reference built from the per-element quantizers, on
//!   every int8 arm;
//! * **exact order (GEMV)** — the f32 FC kernel, which reads the row-major
//!   weights in place and transposes them in registers, equals the scalar
//!   fused multiply-add loop bit for bit on every f32 arm, across row and
//!   `k` tails;
//! * **FC packing** — the k-blocked quantizing pack of the int8 GEMV
//!   filter lays out exactly what the naive element-by-element pack of the
//!   documented layout does, and the f32 filter is the row-major weights
//!   themselves.

use proptest::prelude::*;
use tensor::ops::gemv::PANEL_ROWS;
use tensor::ops::qgemm::QK;
use tensor::ops::{
    conv2d_direct, conv2d_rows_packed, im2col_weight_len, kernel_arch, linear_direct,
    linear_packed, pack_conv_filter, pack_linear_filter, pin_kernels, qkernel_arch, quant_byte,
    quant_scale, quantize_i8, winograd_eligible, winograd_preferred, Activation, ConvRoute,
    KernelArch, QKernelArch, QuantizedLinearFilter,
};
use tensor::shape::{conv_out_dim, input_rows_for_output};
use tensor::slice::{concat_rows, slice_rows};
use tensor::Tensor;

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
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// GEMM path ≡ direct oracle within 1e-4 for random conv geometries.
    #[test]
    fn gemm_conv_matches_direct_oracle(
        c_in in 1usize..6,
        c_out in 1usize..10,
        h in 6usize..24,
        w in 4usize..14,
        f in 1usize..5,
        stride in 1usize..3,
        pad_excess in 0usize..2,
        seed in any::<u64>(),
    ) {
        let padding = f / 2 + pad_excess;
        let input = pseudo_tensor(c_in, h, w, seed);
        let weights = pseudo_weights(im2col_weight_len(c_in, c_out, f), seed ^ 0xabc);
        let bias = pseudo_weights(c_out, seed ^ 0x123);
        prop_assume!(conv_out_dim(h, f, stride, padding).is_some());
        prop_assume!(conv_out_dim(w, f, stride, padding).is_some());

        let oracle = conv2d_direct(&input, &weights, &bias, c_out, f, stride, padding, Activation::Relu);
        // Pin the GEMM route (an unpinned pack holds whichever single form
        // the policy routes the layer to; Winograd has its own tolerance
        // and property below).
        let filter =
            pack_conv_filter(&weights, c_in, c_out, f, stride, Some(ConvRoute::Gemm)).unwrap();
        prop_assert!(filter.gemm().is_some());
        let fast = conv2d_rows_packed(
            &input, 0, h, 0, oracle.height(), &filter, &bias, f, stride, padding,
            Activation::Relu,
        ).unwrap();
        prop_assert_eq!(fast.shape(), oracle.shape());
        let diff = fast.max_abs_diff(&oracle).unwrap();
        prop_assert!(diff <= 1e-4, "GEMM vs direct diff {diff}");
    }

    /// The f32 GEMM route is *bit-equal* to the numerical contract's
    /// scalar form built from public pieces: per output, `acc = bias`, then
    /// `acc = w.mul_add(x, acc)` over the taps in ascending `k = (ic, ky,
    /// kx)` — a padding tap multiplies a zero — then the activation.  Over
    /// `f ∈ {1, 3, 5}`, stride 1–2, padding `0..f`, output widths below,
    /// at and above `NR` (most not a multiple of it), K past one `KC`
    /// slice, and halo-cut row bands, on every f32 arm.
    #[test]
    fn gemm_conv_equals_the_fused_reference_on_every_arm(
        c_in in 1usize..13,
        c_out in 1usize..14,
        h in 3usize..18,
        w in 1usize..40,
        fi in 0usize..3,
        stride in 1usize..3,
        padding in 0usize..5,
        cut_a in 0.0f64..1.0,
        cut_b in 0.0f64..1.0,
        seed in any::<u64>(),
    ) {
        let f = [1, 3, 5][fi];
        prop_assume!(padding < f);
        let Some(out_h) = conv_out_dim(h, f, stride, padding) else { return Ok(()) };
        let Some(out_w) = conv_out_dim(w, f, stride, padding) else { return Ok(()) };
        let input = pseudo_tensor(c_in, h, w, seed);
        let weights = pseudo_weights(im2col_weight_len(c_in, c_out, f), seed ^ 0x5a5);
        let bias = pseudo_weights(c_out, seed ^ 0xa5a);
        let act = Activation::LeakyRelu;
        let reference = |rows: std::ops::Range<usize>| {
            Tensor::from_fn([c_out, rows.len(), out_w], |oc, oy, ox| {
                let mut acc = bias[oc];
                for ic in 0..c_in {
                    for ky in 0..f {
                        for kx in 0..f {
                            let iy = ((rows.start + oy) * stride + ky) as isize - padding as isize;
                            let ix = (ox * stride + kx) as isize - padding as isize;
                            let inside =
                                (0..h as isize).contains(&iy) && (0..w as isize).contains(&ix);
                            let x = if inside { input.get(ic, iy as usize, ix as usize) } else { 0.0 };
                            acc = weights[((oc * c_in + ic) * f + ky) * f + kx].mul_add(x, acc);
                        }
                    }
                }
                act.apply(acc)
            })
        };
        let filter =
            pack_conv_filter(&weights, c_in, c_out, f, stride, Some(ConvRoute::Gemm)).unwrap();
        let mut cuts = [cut_a, cut_b].map(|c| ((out_h as f64 * c) as usize).min(out_h - 1));
        cuts.sort_unstable();
        let (lo_out, hi_out) = (cuts[0], (cuts[1] + 1).min(out_h));
        let (lo, hi) = input_rows_for_output(lo_out, hi_out, f, stride, padding, h);
        let band_in = slice_rows(&input, lo, hi).unwrap();
        let (want_full, want_band) = (reference(0..out_h), reference(lo_out..hi_out));
        for level in [KernelArch::Scalar, KernelArch::Avx2, KernelArch::Avx512] {
            let _pin = pin_kernels(level);
            let full = conv2d_rows_packed(
                &input, 0, h, 0, out_h, &filter, &bias, f, stride, padding, act,
            ).unwrap();
            prop_assert!(full == want_full, "full output ({})", kernel_arch().label());
            let band = conv2d_rows_packed(
                &band_in, lo, h, lo_out, hi_out, &filter, &bias, f, stride, padding, act,
            ).unwrap();
            prop_assert!(
                band == want_band,
                "band {}..{} ({})", lo_out, hi_out, kernel_arch().label()
            );
        }
    }

    /// On the packed path, banded execution with minimal halos stitches
    /// bit-exactly into the full output, for random geometries and cuts.
    #[test]
    fn packed_band_stitch_is_bit_exact(
        c_in in 1usize..5,
        c_out in 1usize..8,
        h in 8usize..24,
        w in 4usize..12,
        f in 1usize..4,
        stride in 1usize..3,
        seed in any::<u64>(),
        cut_a in 0.1f64..0.9,
        cut_b in 0.1f64..0.9,
    ) {
        let padding = f / 2;
        let input = pseudo_tensor(c_in, h, w, seed);
        let weights = pseudo_weights(im2col_weight_len(c_in, c_out, f), seed ^ 0xdef);
        let bias = pseudo_weights(c_out, seed ^ 0x456);
        let filter = pack_conv_filter(&weights, c_in, c_out, f, stride, None).unwrap();
        let out_h = conv_out_dim(h, f, stride, padding).unwrap();
        prop_assume!(out_h >= 3);

        let full = conv2d_rows_packed(
            &input, 0, h, 0, out_h, &filter, &bias, f, stride, padding, Activation::LeakyRelu,
        ).unwrap();

        let mut cuts = [
            ((out_h as f64 * cut_a) as usize).clamp(1, out_h - 1),
            ((out_h as f64 * cut_b) as usize).clamp(1, out_h - 1),
        ];
        cuts.sort_unstable();
        let bounds = [0, cuts[0], cuts[1], out_h];
        let mut bands = Vec::new();
        for pair in bounds.windows(2) {
            let (lo_out, hi_out) = (pair[0], pair[1]);
            if lo_out == hi_out {
                continue;
            }
            let (lo, hi) = input_rows_for_output(lo_out, hi_out, f, stride, padding, h);
            let band_in = slice_rows(&input, lo, hi).unwrap();
            let band = conv2d_rows_packed(
                &band_in, lo, h, lo_out, hi_out, &filter, &bias, f, stride, padding,
                Activation::LeakyRelu,
            ).unwrap();
            bands.push(band);
        }
        let stitched = concat_rows(&bands).unwrap();
        prop_assert_eq!(stitched, full);
    }

    /// The Winograd path (pinned at pack time — the policy only takes it at
    /// `winograd_preferred` channel counts) ≡ direct oracle within relative
    /// 1e-3 — over the full output and over halo-overlapped row bands —
    /// and banded Winograd outputs stitch bit-exactly into the full
    /// Winograd output.
    #[test]
    fn winograd_matches_direct_oracle_and_stitches_bitwise(
        c_in in 1usize..6,
        c_out in 1usize..10,
        h in 6usize..26,
        w in 4usize..16,
        padding in 0usize..3,
        seed in any::<u64>(),
        cut_a in 0.1f64..0.9,
        cut_b in 0.1f64..0.9,
    ) {
        let (f, stride) = (3usize, 1usize);
        prop_assume!(conv_out_dim(h, f, stride, padding).is_some());
        prop_assume!(conv_out_dim(w, f, stride, padding).is_some());
        let input = pseudo_tensor(c_in, h, w, seed);
        let weights = pseudo_weights(im2col_weight_len(c_in, c_out, f), seed ^ 0xbeef);
        let bias = pseudo_weights(c_out, seed ^ 0xfeed);
        let wino =
            &pack_conv_filter(&weights, c_in, c_out, f, stride, Some(ConvRoute::Winograd)).unwrap();
        prop_assert!(wino.winograd().is_some());
        let out_h = conv_out_dim(h, f, stride, padding).unwrap();
        prop_assume!(out_h >= 3);

        let oracle = conv2d_direct(&input, &weights, &bias, c_out, f, stride, padding, Activation::Relu);
        let full = conv2d_rows_packed(
            &input, 0, h, 0, out_h, wino, &bias, f, stride, padding, Activation::Relu,
        ).unwrap();
        prop_assert_eq!(full.shape(), oracle.shape());
        for (i, (&a, &b)) in full.data().iter().zip(oracle.data()).enumerate() {
            let tol = 1e-3 * (1.0 + a.abs().max(b.abs()));
            prop_assert!((a - b).abs() <= tol, "winograd vs direct at [{i}]: {a} vs {b}");
        }

        // Random (possibly odd — tile-splitting) cuts: each band computed
        // from its minimal halo slice must equal the full output's rows
        // bitwise, and the stitch must reassemble the full output.
        let mut cuts = [
            ((out_h as f64 * cut_a) as usize).clamp(1, out_h - 1),
            ((out_h as f64 * cut_b) as usize).clamp(1, out_h - 1),
        ];
        cuts.sort_unstable();
        let bounds = [0, cuts[0], cuts[1], out_h];
        let mut bands = Vec::new();
        for pair in bounds.windows(2) {
            let (lo_out, hi_out) = (pair[0], pair[1]);
            if lo_out == hi_out {
                continue;
            }
            let (lo, hi) = input_rows_for_output(lo_out, hi_out, f, stride, padding, h);
            let band_in = slice_rows(&input, lo, hi).unwrap();
            let band = conv2d_rows_packed(
                &band_in, lo, h, lo_out, hi_out, wino, &bias, f, stride, padding, Activation::Relu,
            ).unwrap();
            prop_assert_eq!(&band, &slice_rows(&full, lo_out, hi_out).unwrap());
            bands.push(band);
        }
        prop_assert_eq!(concat_rows(&bands).unwrap(), full);
    }

    /// Int8 quantized path ≡ direct f32 oracle within the *analytic*
    /// quantization error bound, over random geometries — the
    /// ROADMAP-prescribed analogue of the Winograd rel-1e-3 oracle, with
    /// the tolerance derived instead of guessed:
    /// `|Δ| ≤ s_w/2·Σ|a| + s_a/2·Σ|w| + K·s_a·s_w/4` per output element
    /// (half-ulp rounding on each side plus the cross term; ReLU is
    /// 1-Lipschitz so the bound survives the activation).
    #[test]
    fn quantized_conv_matches_direct_within_bound(
        c_in in 1usize..6,
        c_out in 1usize..10,
        h in 6usize..24,
        w in 4usize..14,
        f in 1usize..5,
        stride in 1usize..3,
        pad_excess in 0usize..2,
        seed in any::<u64>(),
    ) {
        let padding = f / 2 + pad_excess;
        prop_assume!(conv_out_dim(h, f, stride, padding).is_some());
        prop_assume!(conv_out_dim(w, f, stride, padding).is_some());
        let input = pseudo_tensor(c_in, h, w, seed);
        let weights = pseudo_weights(im2col_weight_len(c_in, c_out, f), seed ^ 0x9a7);
        let bias = pseudo_weights(c_out, seed ^ 0x5c3);
        let scale_in = quant_scale(input.data());
        let pin = Some(ConvRoute::Quant { scale_in });
        let filter = pack_conv_filter(&weights, c_in, c_out, f, stride, pin).unwrap();
        prop_assert!(filter.quant().is_some() && filter.gemm().is_none());
        let out_h = conv_out_dim(h, f, stride, padding).unwrap();

        let q = conv2d_rows_packed(
            &input, 0, h, 0, out_h, &filter, &bias, f, stride, padding, Activation::Relu,
        ).unwrap();
        let oracle = conv2d_direct(&input, &weights, &bias, c_out, f, stride, padding, Activation::Relu);
        prop_assert_eq!(q.shape(), oracle.shape());

        let scale_w = filter.quant().unwrap().scale();
        let abs_in = Tensor::from_fn(input.shape(), |c, y, x| input.get(c, y, x).abs());
        let ones = vec![1.0; im2col_weight_len(c_in, 1, f)];
        let a_l1 = conv2d_direct(&abs_in, &ones, &[0.0], 1, f, stride, padding, Activation::None);
        let k = c_in * f * f;
        for oc in 0..c_out {
            let w_l1: f32 = weights[oc * k..(oc + 1) * k].iter().map(|v| v.abs()).sum();
            for oy in 0..q.height() {
                for ox in 0..q.width() {
                    let bound = 0.5 * scale_w * a_l1.get(0, oy, ox)
                        + 0.5 * scale_in * w_l1
                        + 0.25 * (k as f32) * scale_in * scale_w
                        + 1e-3 * (1.0 + oracle.get(oc, oy, ox).abs());
                    let diff = (q.get(oc, oy, ox) - oracle.get(oc, oy, ox)).abs();
                    prop_assert!(diff <= bound, "[{},{},{}] diff {} > bound {}", oc, oy, ox, diff, bound);
                }
            }
        }
    }

    /// On the int8 path, banded execution with minimal halos stitches
    /// *bit-exactly* into the full output (the deploy-time activation
    /// scale is shared by every band), and every available int8 dispatch
    /// arm produces bit-identical outputs.
    #[test]
    fn quantized_band_stitch_is_bit_exact_across_arms(
        c_in in 1usize..5,
        c_out in 1usize..8,
        h in 8usize..24,
        w in 4usize..12,
        f in 1usize..4,
        stride in 1usize..3,
        seed in any::<u64>(),
        cut_a in 0.1f64..0.9,
        cut_b in 0.1f64..0.9,
    ) {
        let padding = f / 2;
        let input = pseudo_tensor(c_in, h, w, seed);
        let weights = pseudo_weights(im2col_weight_len(c_in, c_out, f), seed ^ 0x111);
        let bias = pseudo_weights(c_out, seed ^ 0x222);
        let scale_in = quant_scale(input.data());
        let pin = Some(ConvRoute::Quant { scale_in });
        let filter = pack_conv_filter(&weights, c_in, c_out, f, stride, pin).unwrap();
        let out_h = conv_out_dim(h, f, stride, padding).unwrap();
        prop_assume!(out_h >= 3);

        let mut cuts = [
            ((out_h as f64 * cut_a) as usize).clamp(1, out_h - 1),
            ((out_h as f64 * cut_b) as usize).clamp(1, out_h - 1),
        ];
        cuts.sort_unstable();
        let bounds = [0, cuts[0], cuts[1], out_h];

        let mut per_arm: Vec<(QKernelArch, Tensor)> = Vec::new();
        for level in [KernelArch::Scalar, KernelArch::Avx2, KernelArch::Avx512] {
            let _pin = pin_kernels(level);
            let arm = qkernel_arch();
            if per_arm.last().is_some_and(|(prev, _)| *prev == arm) {
                break; // hardware tops out below this level
            }
            let full = conv2d_rows_packed(
                &input, 0, h, 0, out_h, &filter, &bias, f, stride, padding, Activation::LeakyRelu,
            ).unwrap();
            let mut bands = Vec::new();
            for pair in bounds.windows(2) {
                let (lo_out, hi_out) = (pair[0], pair[1]);
                if lo_out == hi_out {
                    continue;
                }
                let (lo, hi) = input_rows_for_output(lo_out, hi_out, f, stride, padding, h);
                let band_in = slice_rows(&input, lo, hi).unwrap();
                let band = conv2d_rows_packed(
                    &band_in, lo, h, lo_out, hi_out, &filter, &bias, f, stride, padding,
                    Activation::LeakyRelu,
                ).unwrap();
                bands.push(band);
            }
            let stitched = concat_rows(&bands).unwrap();
            prop_assert!(stitched == full, "int8 bands must stitch bit-exactly ({})",
                arm.label());
            per_arm.push((arm, full));
        }
        for pair in per_arm.windows(2) {
            prop_assert!(pair[0].1 == pair[1].1, "int8 dispatch arms must be bit-exact");
        }
    }

    /// The int8 conv is *bit-equal* to an integer reference assembled from
    /// the public per-element pieces: every im2col element quantized with
    /// `quant_byte` (padding is the value 0), `Σ qa·qw` in `i32`, then
    /// `act(bias + Σ·s_a·s_w)` — over random geometries with stride 2,
    /// padding past `f/2`, an activation scale that clamps, and halo-cut
    /// row bands, on every int8 arm.
    #[test]
    fn quantized_conv_equals_the_integer_im2col_reference(
        c_in in 1usize..6,
        c_out in 1usize..14,
        h in 3usize..18,
        w in 3usize..40,
        f in 1usize..5,
        stride in 1usize..3,
        padding in 0usize..3,
        shrink in 0.3f32..1.0,
        cut in 0.0f64..1.0,
        seed in any::<u64>(),
    ) {
        prop_assume!(padding < f);
        let Some(out_h) = conv_out_dim(h, f, stride, padding) else { return Ok(()) };
        prop_assume!(conv_out_dim(w, f, stride, padding).is_some());
        let input = pseudo_tensor(c_in, h, w, seed);
        let weights = pseudo_weights(im2col_weight_len(c_in, c_out, f), seed ^ 0x3b1);
        let bias = pseudo_weights(c_out, seed ^ 0x4c2);
        // Below the max-abs scale, so the largest activations clamp.
        let scale_in = quant_scale(input.data()) * shrink;
        let pin = Some(ConvRoute::Quant { scale_in });
        let filter = pack_conv_filter(&weights, c_in, c_out, f, stride, pin).unwrap();
        let s = scale_in * filter.quant().unwrap().scale();
        let reference = |lo_out: usize, hi_out: usize| {
            let out_w = conv_out_dim(w, f, stride, padding).unwrap();
            let scale_w = quant_scale(&weights);
            Tensor::from_fn([c_out, hi_out - lo_out, out_w], |oc, oy, ox| {
                let mut sum = 0i32;
                for ic in 0..c_in {
                    for ky in 0..f {
                        for kx in 0..f {
                            let iy = ((lo_out + oy) * stride + ky) as isize - padding as isize;
                            let ix = (ox * stride + kx) as isize - padding as isize;
                            let inside = (0..h as isize).contains(&iy) && (0..w as isize).contains(&ix);
                            let a = if inside { input.get(ic, iy as usize, ix as usize) } else { 0.0 };
                            let qa = quant_byte(a, scale_in) as i32 - 128;
                            let wi = ((oc * c_in + ic) * f + ky) * f + kx;
                            sum += qa * quantize_i8(weights[wi], scale_w) as i32;
                        }
                    }
                }
                Activation::Relu.apply(bias[oc] + (sum as f32) * s)
            })
        };
        let lo_out = ((out_h as f64 * cut) as usize).min(out_h - 1);
        let (lo, hi) = input_rows_for_output(lo_out, out_h, f, stride, padding, h);
        let band_in = slice_rows(&input, lo, hi).unwrap();
        let (want_full, want_band) = (reference(0, out_h), reference(lo_out, out_h));
        for level in [KernelArch::Scalar, KernelArch::Avx2, KernelArch::Avx512] {
            let _pin = pin_kernels(level);
            let full = conv2d_rows_packed(
                &input, 0, h, 0, out_h, &filter, &bias, f, stride, padding, Activation::Relu,
            ).unwrap();
            prop_assert!(full == want_full, "full output ({})", qkernel_arch().label());
            let band = conv2d_rows_packed(
                &band_in, lo, h, lo_out, out_h, &filter, &bias, f, stride, padding,
                Activation::Relu,
            ).unwrap();
            prop_assert!(band == want_band, "band {}.. ({})", lo_out, qkernel_arch().label());
        }
    }

    /// GEMV-routed linear ≡ serial oracle within 1e-4.
    #[test]
    fn gemm_linear_matches_direct_oracle(
        in_features in 1usize..600,
        out_features in 1usize..40,
        seed in any::<u64>(),
    ) {
        let input = Tensor::from_vec(
            [in_features, 1, 1],
            pseudo_weights(in_features, seed),
        ).unwrap();
        let weights = pseudo_weights(in_features * out_features, seed ^ 0x777);
        let bias = pseudo_weights(out_features, seed ^ 0x888);
        let oracle = linear_direct(&input, &weights, &bias, out_features, Activation::Relu).unwrap();
        let filter = pack_linear_filter(&weights, in_features, out_features).unwrap();
        let fast = linear_packed(&input, &filter, &bias, Activation::Relu).unwrap();
        let diff = fast.max_abs_diff(&oracle).unwrap();
        prop_assert!(diff <= 1e-4, "linear GEMV vs direct diff {diff}");
    }

    /// The blocked int8 FC pack equals the naive pack of the documented
    /// layout: full `PANEL_ROWS` panels, a last panel of exactly the rows
    /// left, quad-major, zero past `k`.  `k` reaches past the pack's K block so
    /// blocks and quads meet every edge.  The f32 filter has no layout of
    /// its own: it is the row-major weights.
    #[test]
    fn blocked_fc_pack_equals_naive_pack(
        m in 1usize..150,
        k in 1usize..300,
        seed in any::<u64>(),
    ) {
        let weights = pseudo_weights(m * k, seed);
        let panel_of = |r: usize| {
            let p = r / PANEL_ROWS;
            let h = (m - p * PANEL_ROWS).min(PANEL_ROWS);
            (p, h, r % PANEL_ROWS)
        };

        let filter = pack_linear_filter(&weights, k, m).unwrap();
        prop_assert!(filter.data() == weights.as_slice(), "f32 filter differs ({m}x{k})");

        let qpacked = QuantizedLinearFilter::pack(&weights, m, k).unwrap();
        let scale = quant_scale(&weights);
        let kq = k.div_ceil(QK);
        let mut qnaive = vec![0i8; m * kq * QK];
        let mut corr = vec![0i32; m];
        for r in 0..m {
            let (p, h, rr) = panel_of(r);
            for kk in 0..k {
                let q = quantize_i8(weights[r * k + kk], scale);
                qnaive[p * PANEL_ROWS * kq * QK + ((kk / QK) * h + rr) * QK + kk % QK] = q;
                corr[r] += 128 * q as i32;
            }
        }
        prop_assert_eq!(qpacked.scale(), scale);
        prop_assert!(qpacked.data() == qnaive.as_slice(), "int8 pack differs ({m}x{k})");
        prop_assert!(qpacked.row_corr() == corr.as_slice(), "row corrections differ");
    }
}

/// The f32 FC kernel is *bit-equal* to the numerical contract's scalar
/// form built from public pieces: per output, `acc = bias`, then
/// `acc = w.mul_add(x, acc)` over `k` ascending, then the activation.  Row
/// counts below, at and past one 16-row block (and VGG's 1000 classes),
/// `k` below, at and past one 16-wide block (and a long odd tail), on
/// every f32 arm.
#[test]
fn gemv_equals_the_fused_reference_on_every_arm() {
    let act = Activation::LeakyRelu;
    for m in [1usize, 10, 15, 16, 17, 1000] {
        for k in [1usize, 7, 15, 16, 17, 100, 4099] {
            let seed = (m * 7919 + k) as u64;
            let input = Tensor::from_vec([k, 1, 1], pseudo_weights(k, seed)).unwrap();
            let weights = pseudo_weights(m * k, seed ^ 0x5a5);
            let bias = pseudo_weights(m, seed ^ 0xa5a);
            let want: Vec<f32> = (0..m)
                .map(|r| {
                    let row = &weights[r * k..(r + 1) * k];
                    let acc = row
                        .iter()
                        .zip(input.data())
                        .fold(bias[r], |acc, (w, x)| w.mul_add(*x, acc));
                    act.apply(acc)
                })
                .collect();
            let filter = pack_linear_filter(&weights, k, m).unwrap();
            for level in [KernelArch::Scalar, KernelArch::Avx2, KernelArch::Avx512] {
                let _pin = pin_kernels(level);
                let got = linear_packed(&input, &filter, &bias, act).unwrap();
                assert!(
                    got.data() == want.as_slice(),
                    "{m}x{k} on the {} arm differs from the fused reference",
                    kernel_arch().label()
                );
            }
        }
    }
}

/// Channel counts on both sides of the `winograd_preferred` threshold.
const ROUTE_CHANNELS: [usize; 3] = [3, 128, 130];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A pack holds **exactly one** panel form — int8 when the deploy pins
    /// it, else by the policy Winograd iff eligible and preferred, GEMM
    /// otherwise — and its output is the output of a pack pinned to the
    /// route the policy names, bitwise.
    #[test]
    fn routed_pack_holds_one_form_and_equals_the_pinned_form(
        ci in 0usize..3,
        co in 0usize..3,
        h in 6usize..12,
        w in 4usize..9,
        shape in 0usize..3,
        f in 1usize..4,
        stride in 1usize..3,
        quantized in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let (c_in, c_out) = (ROUTE_CHANNELS[ci], ROUTE_CHANNELS[co]);
        // Two draws in three take the Winograd-eligible stride-1 3×3 shape,
        // so all three routes are met within the case budget.
        let (f, stride) = if shape == 0 { (f, stride) } else { (3, 1) };
        let padding = f / 2;
        prop_assume!(conv_out_dim(h, f, stride, padding).is_some());
        prop_assume!(conv_out_dim(w, f, stride, padding).is_some());
        let out_h = conv_out_dim(h, f, stride, padding).unwrap();
        let input = pseudo_tensor(c_in, h, w, seed);
        let weights = pseudo_weights(im2col_weight_len(c_in, c_out, f), seed ^ 0x70e);
        let bias = pseudo_weights(c_out, seed ^ 0xb1a5);
        let quant = quantized.then(|| ConvRoute::Quant { scale_in: quant_scale(input.data()) });
        let filter = pack_conv_filter(&weights, c_in, c_out, f, stride, quant).unwrap();

        let forms = [filter.gemm().is_some(), filter.winograd().is_some(), filter.quant().is_some()];
        prop_assert_eq!(forms.iter().filter(|&&x| x).count(), 1);
        let to_winograd = winograd_eligible(f, stride) && winograd_preferred(c_in, c_out);
        prop_assert_eq!(forms, [!quantized && !to_winograd, !quantized && to_winograd, quantized]);

        let routed = conv2d_rows_packed(
            &input, 0, h, 0, out_h, &filter, &bias, f, stride, padding, Activation::Relu,
        ).unwrap();
        let route = quant.unwrap_or(if to_winograd { ConvRoute::Winograd } else { ConvRoute::Gemm });
        let pinned_filter = pack_conv_filter(&weights, c_in, c_out, f, stride, Some(route)).unwrap();
        prop_assert!(pinned_filter == filter, "the policy's pack differs from the pinned pack");
        let pinned = conv2d_rows_packed(
            &input, 0, h, 0, out_h, &pinned_filter, &bias, f, stride, padding, Activation::Relu,
        ).unwrap();
        prop_assert!(routed == pinned, "routed output differs from the pinned form's");
    }
}
