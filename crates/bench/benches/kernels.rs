//! Kernel benchmarks: every conv variant (direct oracle, packed GEMM on the
//! scalar and SIMD micro-kernel arms, Winograd F(2×2,3×3), int8), the FC
//! head's GEMV kernels against the `n = 1` GEMM path they replaced,
//! max-pooling, and the planner's DDPG update (`neuro`'s `f32` kernels).
//!
//! Emits `BENCH_kernels.json` at the workspace root with per-shape,
//! per-variant timings (filters prepacked outside the timed region —
//! packing is deploy-time work; the FC rows time it on its own, as
//! `*pack_ns`).  Convolutions are compute-bound and report
//! GFLOP/s; FC layers and pooling are bandwidth-bound and report GB/s — of
//! weight bytes streamed for FC, of input plus output bytes for pooling.
//! End-to-end numbers live in the `e2e/` benchmark (`vgg11_inproc`), not
//! here.
//! All `*_gflops` figures are *effective* rates against the direct-conv flop
//! count (`2·f²·c_in·c_out` per output pixel), so Winograd's multiply savings show up as
//! a higher rate through the same lens — which also means a Winograd rate
//! must not be read against the core's FMA roof: `winograd_real_gflops` is
//! the rate of the multiply-adds its sixteen GEMMs actually execute
//! (`2·16·c_in·c_out` per 2×2 tile, 2.25× fewer), the number that can.  The
//! acceptance bar tracked across commits: the VGG 3×3 `c64` shape's
//! packed-SIMD rate ≥ 2× the scalar baseline this ladder started from
//! (18 GFLOP/s).

use neuro::{DdpgAgent, DdpgConfig, Transition};
use serde::Serialize;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;
use tensor::ops::gemm::{gemm_bias_act_into, NR};
use tensor::ops::qgemm::{qgemm_bias_act_into, QK};
use tensor::ops::{
    conv2d_rows_direct, conv2d_rows_packed, im2col_weight_len, kernel_arch, linear_packed,
    linear_q8, maxpool2d, pack_conv_filter, pin_kernels, qkernel_arch, quant_byte, quant_scale,
    winograd_eligible, winograd_preferred, Activation, ConvRoute, KernelArch, PackedConvFilter,
    PackedFilter, PackedLinearFilter, QuantizedFilter, QuantizedLinearFilter,
};
use tensor::shape::input_rows_for_output;
use tensor::slice::slice_rows;
use tensor::Tensor;

/// One convolution shape measured across every kernel variant: the whole
/// layer, or the band of output rows `rows` one device of a split computes
/// (from its halo slice of the input, as a provider does).
#[derive(Serialize, Clone)]
struct ConvShape {
    label: String,
    c_in: usize,
    c_out: usize,
    h: usize,
    w: usize,
    f: usize,
    /// Output rows computed, `[start, end)` of `h`.
    rows: [usize; 2],
    direct_ns: f64,
    direct_gflops: f64,
    packed_scalar_ns: f64,
    packed_scalar_gflops: f64,
    packed_simd_ns: f64,
    packed_simd_gflops: f64,
    /// Winograd F(2×2,3×3); zero when the shape is not eligible.
    winograd_ns: f64,
    winograd_gflops: f64,
    /// The multiply-add rate Winograd's sixteen GEMMs really run at (the
    /// transforms' time included, their adds not counted) — the figure to
    /// hold against the FMA roof; `winograd_gflops` counts the direct
    /// form's flops.
    winograd_real_gflops: f64,
    /// Whether the packed router would actually take the Winograd path for
    /// this shape (`winograd_preferred` channel counts).  Rows timed below
    /// the preference threshold are pinned measurements of a path the
    /// router does not serve — this flag keeps them from being read as the
    /// production route.
    winograd_routed: bool,
    /// Int8 quantized GEMM, scalar arm (the bit-exactness reference).
    int8_scalar_ns: f64,
    int8_scalar_gops: f64,
    /// Int8 quantized GEMM on the auto-dispatched arm (VNNI here).
    int8_simd_ns: f64,
    int8_simd_gops: f64,
    /// Effective int8 rate over the f32 SIMD GEMM rate on the same shape.
    int8_vs_f32_simd: f64,
}

/// One FC layer: the `n = 1` GEMM path (one lane of sixteen) against the
/// row-vectorised GEMV kernel, f32 and int8.  Rates are GB/s of weight
/// bytes streamed (`in·out·4` for f32, `in·out` for int8) — an FC layer
/// reads every weight once per frame and does two flops with it.  The f32
/// GEMV reads the caller's row-major weights in place; the `*pack_ns`
/// columns are the deploy-time side: a refcount bump for f32, the
/// quantizing quad pack for int8.
#[derive(Serialize)]
struct FcShape {
    label: String,
    in_features: usize,
    out_features: usize,
    gemm_n1_ns: f64,
    gemm_n1_gbps: f64,
    pack_ns: f64,
    gemv_ns: f64,
    gemv_gbps: f64,
    int8_gemm_n1_ns: f64,
    int8_gemm_n1_gbps: f64,
    int8_pack_ns: f64,
    int8_gemv_ns: f64,
    int8_gemv_gbps: f64,
}

/// One max-pool shape; the rate is GB/s of input plus output bytes.
#[derive(Serialize)]
struct PoolShape {
    label: String,
    c: usize,
    h: usize,
    w: usize,
    f: usize,
    stride: usize,
    ns: f64,
    gbps: f64,
}

/// One DDPG update (`DdpgAgent::update`) at a planner's network sizes.
/// The rate counts the update's dense products (two flops per
/// multiply-add) over the whole update's time, Adam, activations and soft
/// updates included.
#[derive(Serialize)]
struct DdpgShape {
    label: String,
    state_dim: usize,
    action_dim: usize,
    actor_hidden: [usize; 3],
    critic_hidden: [usize; 4],
    batch: usize,
    /// Non-terminal transitions of the batch: the target networks run over
    /// these only.
    live: usize,
    update_us: f64,
    gflops: f64,
}

#[derive(Serialize)]
struct KernelBench {
    /// The micro-kernel arm auto-dispatch selected on this machine.
    simd_arch: String,
    /// The int8 micro-kernel arm auto-dispatch selected on this machine.
    qkernel_arch: String,
    /// Per-shape, per-variant timings.
    conv: Vec<ConvShape>,
    /// VGG's FC head, layer by layer (bandwidth-bound).
    fc: Vec<FcShape>,
    /// VGG-11's first (largest) pool (bandwidth-bound).
    pool: PoolShape,
    /// The planner's DDPG update: the 4- and 16-device agents of
    /// `OsdsConfig::fast` and the paper's networks.
    ddpg: Vec<DdpgShape>,
    /// The acceptance shape's direct→packed-SIMD speedup.
    vgg_3x3_c64_speedup: f64,
    /// Int8 acceptance: effective int8 GOP/s over f32 SIMD GFLOP/s on the
    /// deep 3×3 c512 shape (the bar was ≥ 1.5× over the unfused f32 kernel;
    /// fusing raised the denominator by a quarter, int8 itself is unchanged).
    deep_3x3_c512_int8_vs_f32: f64,
}

fn conv_input(c_in: usize, h: usize, w: usize) -> Tensor {
    Tensor::from_fn([c_in, h, w], |c, y, x| {
        ((c * 31 + y * 7 + x) % 13) as f32 * 0.1
    })
}

fn conv_weights(c_in: usize, c_out: usize, f: usize) -> (Vec<f32>, Vec<f32>) {
    let weights: Vec<f32> = (0..im2col_weight_len(c_in, c_out, f))
        .map(|i| ((i % 11) as f32 - 5.0) * 0.05)
        .collect();
    let bias = vec![0.01; c_out];
    (weights, bias)
}

/// Times `f` over `samples` runs (after one warm-up) and returns mean ns.
fn time_ns<O>(samples: usize, mut f: impl FnMut() -> O) -> f64 {
    black_box(f());
    let t0 = Instant::now();
    for _ in 0..samples {
        black_box(f());
    }
    t0.elapsed().as_secs_f64() * 1e9 / samples as f64
}

fn bench_conv_paths() -> Vec<ConvShape> {
    // VGG-style shapes: the acceptance shape first (3×3, c_in=c_out=64 at
    // 56×56 — a conv3-block layer), then the stem, a mid and a deep layer.
    // Then the bands the serving workloads run per device: the middle
    // device's rows of tiny-vgg's five convolutions under `e2e`'s equal
    // three-way split (`tinyvgg_tcp`), and a third of the rows of VGG-11's
    // stem and second convolution (`vgg11_inproc`) — small bands, where
    // fixed per-call costs weigh most.
    // (label, c_in, c_out, h = w, f, output rows)
    type Shape = (&'static str, usize, usize, usize, usize, [usize; 2]);
    let shapes: &[Shape] = &[
        ("vgg_3x3_c64_56", 64, 64, 56, 3, [0, 56]),
        ("stem_3x3_c3_to_64_224", 3, 64, 224, 3, [0, 224]),
        ("mid_3x3_c128_28", 128, 128, 28, 3, [0, 28]),
        ("deep_3x3_c512_14", 512, 512, 14, 3, [0, 14]),
        ("tinyvgg_l0_c3_to_16_32_band", 3, 16, 32, 3, [9, 21]),
        ("tinyvgg_l1_c16_32_band", 16, 16, 32, 3, [10, 20]),
        ("tinyvgg_l2_c16_to_32_16_band", 16, 32, 16, 3, [3, 11]),
        ("tinyvgg_l3_c32_16_band", 32, 32, 16, 3, [4, 10]),
        ("tinyvgg_l4_c32_to_64_8_band", 32, 64, 8, 3, [2, 5]),
        ("vgg11_l0_c3_to_64_224_band", 3, 64, 224, 3, [75, 150]),
        ("vgg11_l1_c64_to_128_112_band", 64, 128, 112, 3, [37, 75]),
    ];
    let mut out = Vec::new();
    for &(label, c_in, c_out, hw, f, rows) in shapes {
        let full = conv_input(c_in, hw, hw);
        let (lo, hi) = input_rows_for_output(rows[0], rows[1], f, 1, 1, hw);
        let input = slice_rows(&full, lo, hi).unwrap();
        let (weights, bias) = conv_weights(c_in, c_out, f);
        // One pack per route, each pinned: an unpinned `pack_conv_filter`
        // holds only the form the policy routes the layer to.
        let pack = |route| pack_conv_filter(&weights, c_in, c_out, f, 1, Some(route)).unwrap();
        let run_packed = |filter: &PackedConvFilter| {
            conv2d_rows_packed(
                &input,
                lo,
                hw,
                rows[0],
                rows[1],
                filter,
                &bias,
                f,
                1,
                1,
                Activation::Relu,
            )
            .unwrap()
        };
        let run_direct = || {
            conv2d_rows_direct(
                &input,
                lo,
                hw,
                rows[0],
                rows[1],
                &weights,
                &bias,
                c_out,
                f,
                1,
                1,
                Activation::Relu,
            )
            .unwrap()
        };
        let gemm_filter = pack(ConvRoute::Gemm);
        let run_gemm = || run_packed(&gemm_filter);
        // The Winograd route — the policy only takes it at
        // `winograd_preferred` channel counts, but the bench reports every
        // eligible shape so the crossover stays visible.
        let wino_filter = winograd_eligible(f, 1).then(|| pack(ConvRoute::Winograd));
        let run_winograd = || run_packed(wino_filter.as_ref().unwrap());
        // The int8 quantized route: weights packed into i8 panels, the
        // activation scale calibrated from this input.
        let scale_in = quant_scale(input.data());
        let qfilter = pack(ConvRoute::Quant { scale_in });
        let run_q8 = || run_packed(&qfilter);
        let out_px = (rows[1] - rows[0]) * hw;
        let flops = 2.0 * (f * f * c_in * c_out * out_px) as f64;
        // The direct oracle gets fewer samples on the big shapes: it is the
        // slow side being measured.
        let direct_samples = if flops > 1e9 { 2 } else { 5 };
        let direct_ns = time_ns(direct_samples, run_direct);
        let (packed_scalar_ns, int8_scalar_ns) = {
            let _pin = pin_kernels(KernelArch::Scalar);
            (time_ns(10, run_gemm), time_ns(10, run_q8))
        };
        let packed_simd_ns = time_ns(10, run_gemm);
        let winograd_ns = if wino_filter.is_some() {
            time_ns(10, run_winograd)
        } else {
            0.0
        };
        let int8_simd_ns = time_ns(10, run_q8);
        let rate = |flops: f64, ns: f64| if ns > 0.0 { flops / ns } else { 0.0 };
        let gflops = |ns: f64| rate(flops, ns);
        let tiles = (rows[1].div_ceil(2) - rows[0] / 2) * hw.div_ceil(2);
        let winograd_flops = 2.0 * (16 * c_in * c_out * tiles) as f64;
        out.push(ConvShape {
            label: label.to_string(),
            c_in,
            c_out,
            h: hw,
            w: hw,
            f,
            rows,
            direct_ns,
            direct_gflops: gflops(direct_ns),
            packed_scalar_ns,
            packed_scalar_gflops: gflops(packed_scalar_ns),
            packed_simd_ns,
            packed_simd_gflops: gflops(packed_simd_ns),
            winograd_ns,
            winograd_gflops: gflops(winograd_ns),
            winograd_real_gflops: rate(winograd_flops, winograd_ns),
            winograd_routed: wino_filter.is_some() && winograd_preferred(c_in, c_out),
            int8_scalar_ns,
            int8_scalar_gops: gflops(int8_scalar_ns),
            int8_simd_ns,
            int8_simd_gops: gflops(int8_simd_ns),
            int8_vs_f32_simd: if packed_simd_ns > 0.0 {
                packed_simd_ns / int8_simd_ns
            } else {
                0.0
            },
        });
    }
    out
}

/// The FC product as it ran before the GEMV kernels: an `n = 1` GEMM over
/// `MR`-row panels with `x` in lane 0 of the one B panel.
fn linear_via_gemm(x: &[f32], filter: &PackedFilter, bias: &[f32]) -> Vec<f32> {
    let fill = |k0: usize, k1: usize, _j0: usize, _j1: usize, buf: &mut [f32]| {
        for (kk, &v) in x[k0..k1].iter().enumerate() {
            buf[kk * NR] = v;
        }
    };
    let mut out = vec![0.0f32; filter.m()];
    gemm_bias_act_into(filter, bias, Activation::Relu, 1, &fill, &mut out).unwrap();
    out
}

/// The int8 FC product as it ran before the GEMV kernels.
fn linear_via_qgemm(x: &[f32], filter: &QuantizedFilter, scale_in: f32, bias: &[f32]) -> Vec<f32> {
    let fill = |k0: usize, k1: usize, _j0: usize, _j1: usize, buf: &mut [u8]| {
        for (kk, &v) in x[k0..k1].iter().enumerate() {
            buf[(kk / QK) * NR * QK + (kk % QK)] = quant_byte(v, scale_in);
        }
    };
    let mut out = vec![0.0f32; filter.m()];
    qgemm_bias_act_into(filter, bias, Activation::Relu, scale_in, 1, &fill, &mut out).unwrap();
    out
}

fn bench_fc_paths() -> Vec<FcShape> {
    // VGG's head: the three matrices every image streams once.
    let shapes: &[(&str, usize, usize)] = &[
        ("vgg_fc1_25088_to_4096", 25088, 4096),
        ("vgg_fc2_4096_to_4096", 4096, 4096),
        ("vgg_fc3_4096_to_1000", 4096, 1000),
    ];
    let mut out = Vec::new();
    for &(label, in_features, out_features) in shapes {
        let input = Tensor::from_fn([in_features, 1, 1], |c, _, _| (c % 13) as f32 * 0.1 - 0.6);
        let weights: Arc<[f32]> = (0..in_features * out_features)
            .map(|i| ((i % 1013) as f32 - 506.0) * 1e-4)
            .collect();
        let bias = vec![0.01; out_features];
        let scale_in = quant_scale(input.data());
        let x = input.data();
        // One layout resident at a time: FC1 is 411 MB in f32.
        let gemm_n1_ns = {
            let filter = PackedFilter::pack(&weights, out_features, in_features).unwrap();
            time_ns(5, || linear_via_gemm(x, &filter, &bias))
        };
        let share =
            || PackedLinearFilter::shared(Arc::clone(&weights), out_features, in_features).unwrap();
        let pack_ns = time_ns(5, share);
        let gemv_ns = {
            let filter = share();
            time_ns(5, || {
                linear_packed(&input, &filter, &bias, Activation::Relu).unwrap()
            })
        };
        let int8_gemm_n1_ns = {
            let filter = QuantizedFilter::pack(&weights, out_features, in_features).unwrap();
            time_ns(5, || linear_via_qgemm(x, &filter, scale_in, &bias))
        };
        let int8_pack =
            || QuantizedLinearFilter::pack(&weights, out_features, in_features).unwrap();
        let int8_pack_ns = time_ns(2, int8_pack);
        let int8_gemv_ns = {
            let filter = int8_pack();
            time_ns(5, || {
                linear_q8(&input, &filter, scale_in, &bias, Activation::Relu).unwrap()
            })
        };
        let weight_count = (in_features * out_features) as f64;
        out.push(FcShape {
            label: label.to_string(),
            in_features,
            out_features,
            gemm_n1_ns,
            gemm_n1_gbps: 4.0 * weight_count / gemm_n1_ns,
            pack_ns,
            gemv_ns,
            gemv_gbps: 4.0 * weight_count / gemv_ns,
            int8_gemm_n1_ns,
            int8_gemm_n1_gbps: weight_count / int8_gemm_n1_ns,
            int8_pack_ns,
            int8_gemv_ns,
            int8_gemv_gbps: weight_count / int8_gemv_ns,
        });
    }
    out
}

fn bench_pool() -> PoolShape {
    let (ch, hw, f, stride) = (64, 224, 2, 2);
    let input = Tensor::from_fn([ch, hw, hw], |c, y, x| ((c + y + x) % 7) as f32);
    let ns = time_ns(10, || maxpool2d(black_box(&input), f, stride));
    let bytes = 4.0 * (ch * hw * hw + ch * (hw / stride) * (hw / stride)) as f64;
    PoolShape {
        label: "vgg_pool1_c64_224".to_string(),
        c: ch,
        h: hw,
        w: hw,
        f,
        stride,
        ns,
        gbps: bytes / ns,
    }
}

/// Multiply-adds of one update's dense products over `batch` transitions,
/// `live` of them non-terminal.
fn ddpg_update_macs(actor: &[usize], critic: &[usize], batch: usize, live: usize) -> usize {
    let forward = |dims: &[usize]| dims.windows(2).map(|io| io[0] * io[1]).sum::<usize>();
    // The input gradient skips the first layer, but for the critic's
    // action rows when the actor's gradient is formed through it.
    let below_first = |dims: &[usize]| forward(dims) - dims[0] * dims[1];
    let action_rows = actor[actor.len() - 1] * critic[1];
    live * (forward(actor) + forward(critic))
        + batch * 3 * forward(critic)
        + batch * (2 * below_first(critic) + action_rows)
        + batch * (2 * forward(actor) + below_first(actor))
}

fn bench_ddpg() -> Vec<DdpgShape> {
    let fast = DdpgConfig {
        actor_hidden: [64, 48, 32],
        critic_hidden: [64, 48, 32, 32],
        ..DdpgConfig::default()
    };
    let cases = [
        ("fast_4_devices", 8, 3, fast, 32, 300),
        ("fast_16_devices", 20, 15, fast, 32, 300),
        ("paper_4_devices", 8, 3, DdpgConfig::default(), 64, 20),
    ];
    cases
        .into_iter()
        .map(|(label, state_dim, action_dim, config, batch, samples)| {
            let mut agent = DdpgAgent::new(state_dim, action_dim, config);
            // About a third of the transitions end an episode, as in a
            // 4-device plan's replay.
            let transitions: Vec<Transition> = (0..batch)
                .map(|s| Transition {
                    state: (0..state_dim)
                        .map(|f| ((s * 7 + f) % 11) as f64 / 11.0)
                        .collect(),
                    action: (0..action_dim)
                        .map(|f| ((s + f) % 5) as f64 / 2.5 - 1.0)
                        .collect(),
                    reward: (s % 7) as f64 / 7.0,
                    next_state: (0..state_dim)
                        .map(|f| ((s * 5 + f) % 13) as f64 / 13.0)
                        .collect(),
                    done: s % 3 == 0,
                })
                .collect();
            let live = transitions.iter().filter(|t| !t.done).count();
            let ns = time_ns(samples, || agent.update(black_box(&transitions)));
            let (a, c) = (config.actor_hidden, config.critic_hidden);
            let actor = [state_dim, a[0], a[1], a[2], action_dim];
            let critic = [state_dim + action_dim, c[0], c[1], c[2], c[3], 1];
            let flops = 2 * ddpg_update_macs(&actor, &critic, batch, live);
            DdpgShape {
                label: label.to_string(),
                state_dim,
                action_dim,
                actor_hidden: a,
                critic_hidden: c,
                batch,
                live,
                update_us: ns / 1e3,
                gflops: flops as f64 / ns,
            }
        })
        .collect()
}

fn main() {
    let conv = bench_conv_paths();
    let fc = bench_fc_paths();
    let pool = bench_pool();
    let ddpg = bench_ddpg();

    let vgg_3x3_c64_speedup = conv
        .iter()
        .find(|s| s.label == "vgg_3x3_c64_56")
        .map(|s| s.direct_ns / s.packed_simd_ns)
        .unwrap_or(0.0);
    let deep_3x3_c512_int8_vs_f32 = conv
        .iter()
        .find(|s| s.label == "deep_3x3_c512_14")
        .map(|s| s.int8_vs_f32_simd)
        .unwrap_or(0.0);
    let out = KernelBench {
        simd_arch: kernel_arch().label().to_string(),
        qkernel_arch: qkernel_arch().label().to_string(),
        conv,
        fc,
        pool,
        ddpg,
        vgg_3x3_c64_speedup,
        deep_3x3_c512_int8_vs_f32,
    };
    println!(
        "micro-kernel arm: {} (int8: {})",
        out.simd_arch, out.qkernel_arch
    );
    for s in &out.conv {
        println!(
            "conv {:<24} direct {:>7.1}  scalar {:>7.1}  simd {:>7.1}  winograd {:>7.1} ({:.1} real){}  int8 {:>7.1} ({:.2}x f32 simd)  GFLOP/s",
            s.label,
            s.direct_gflops,
            s.packed_scalar_gflops,
            s.packed_simd_gflops,
            s.winograd_gflops,
            s.winograd_real_gflops,
            if s.winograd_routed { "" } else { " (not routed)" },
            s.int8_simd_gops,
            s.int8_vs_f32_simd,
        );
    }
    for s in &out.fc {
        println!(
            "fc   {:<24} f32 gemm n=1 {:>5.1} -> gemv {:>5.1}   int8 gemm n=1 {:>5.1} -> gemv {:>5.1}  GB/s of weights ({:.2} / {:.2} ms; pack {:.3} / {:.1} ms)",
            s.label,
            s.gemm_n1_gbps,
            s.gemv_gbps,
            s.int8_gemm_n1_gbps,
            s.int8_gemv_gbps,
            s.gemv_ns / 1e6,
            s.int8_gemv_ns / 1e6,
            s.pack_ns / 1e6,
            s.int8_pack_ns / 1e6,
        );
    }
    println!(
        "pool {:<24} {:.2} ms, {:.1} GB/s in+out",
        out.pool.label,
        out.pool.ns / 1e6,
        out.pool.gbps
    );
    for s in &out.ddpg {
        println!(
            "ddpg {:<24} {:>8.1} us per update (batch {}, {} live)  {:.1} GFLOP/s of dense products",
            s.label, s.update_us, s.batch, s.live, s.gflops,
        );
    }
    let json = serde_json::to_string(&out).unwrap();
    // Anchor at the workspace root so the artifact lands in one place no
    // matter what cwd cargo runs the bench with.
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_kernels.json");
    std::fs::write(&path, &json).unwrap();
    println!("BENCH_kernels.json: {json}");
}
