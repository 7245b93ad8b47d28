//! The traced pass of a serving workload: the same deployment served with
//! the program's telemetry on, then each layer's public functions called in
//! isolation, and a ledger that sets the two beside the end-to-end latency.

use crate::metrics::{median, percentile, supported, Outcome, CONV_SLOTS, FC_SLOTS, STAGES};
use crate::serving::{err, set_up, Fixture, Load, ServingSpec, Stop, DEVICES};
use crate::spans::SpanLog;
use crate::RunOpts;
use cnn_model::exec::{
    run_full_packed, run_head_packed, run_part_on_band_packed, PackedLayerWeights,
    PackedModelWeights, QuantSpec,
};
use cnn_model::{LayerOp, VolumeSplit};
use edge_runtime::report::predicted_report;
use edge_runtime::{
    ChannelTransport, DeviceMetrics, Frame, FrameKind, RuntimeReport, TcpTransport, Transport,
};
use edge_telemetry::{Collector, Stage, Telemetry, TraceReport, NO_IMAGE};
use edgesim::Endpoint;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use tensor::ops::{
    conv2d_rows_packed, linear_packed, linear_q8, maxpool2d, winograd_preferred, Activation,
    PackedConvFilter,
};
use tensor::slice::slice_rows;
use tensor::Tensor;

/// Shares of `--seconds` the traced pass gives its serving phases; the
/// isolated calls split what is left.
const UNTRACED_SHARE: f64 = 0.2;
const TRACED_SHARE: f64 = 0.2;
const PIPELINED_SHARE: f64 = 0.15;
const ISOLATED_SHARE: f64 = 0.35;
/// Events each telemetry ring keeps; stage means use the newest images.
const RING_CAPACITY: usize = 1 << 16;
/// Newest traced images the stage means are taken over.
const STAGE_IMAGES: usize = 200;
/// A→B→A plan swaps timed on the tiny workloads.
const SWAP_ROUNDS: usize = 5;

/// The route `conv2d_rows_packed` takes for a pack, by the router's own rule.
fn conv_route(filter: &PackedConvFilter) -> &'static str {
    if filter.quant().is_some() {
        "int8-gemm"
    } else if filter
        .winograd()
        .is_some_and(|w| winograd_preferred(w.c_in(), w.c_out()))
    {
        "winograd"
    } else {
        "im2col-gemm"
    }
}

/// Repeats `f` (each call inside a span named `name`) until `budget` is
/// spent, at least three times; returns the median duration in ms.
fn repeat_ms<T>(
    log: &mut SpanLog,
    name: &str,
    budget: Duration,
    mut f: impl FnMut(&mut SpanLog) -> Result<T, String>,
) -> Result<f64, String> {
    let deadline = Instant::now() + budget;
    let mut ms = Vec::new();
    while ms.len() < 3 || (ms.len() < 2000 && Instant::now() < deadline) {
        let t0 = Instant::now();
        let out = log.scope(name, None, &mut f);
        ms.push(t0.elapsed().as_secs_f64() * 1e3);
        std::hint::black_box(out?);
    }
    Ok(median(&ms))
}

/// One pass over the model layer by layer: every layer called at full
/// height through the `tensor` entry point the executor uses for it.
fn layer_pass(
    fx: &Fixture,
    packed: &PackedModelWeights,
    log: &mut SpanLog,
) -> Result<Tensor, String> {
    let mut current = fx.inputs[0].clone();
    let (mut conv, mut fc) = (0, 0);
    for layer in fx.model.layers() {
        let input = &current;
        let out = match (&layer.op, &packed.layers()[layer.index]) {
            (
                LayerOp::Conv {
                    f,
                    stride,
                    padding,
                    act,
                    ..
                },
                PackedLayerWeights::Conv { filter, bias },
            ) => {
                conv += 1;
                log.scope(
                    &format!("tensor.conv2d_rows_packed.L{}", conv - 1),
                    None,
                    |_| {
                        let (h_in, h_out) = (layer.input.h, layer.output.h);
                        conv2d_rows_packed(
                            input, 0, h_in, 0, h_out, filter, bias, *f, *stride, *padding, *act,
                        )
                    },
                )
            }
            (LayerOp::MaxPool { f, stride }, PackedLayerWeights::Pool) => {
                log.scope("tensor.maxpool2d", None, |_| {
                    Ok(maxpool2d(input, *f, *stride))
                })
            }
            (LayerOp::Fc { .. }, PackedLayerWeights::Fc { filter, bias }) => {
                fc += 1;
                log.scope(&format!("tensor.linear.L{}", fc - 1), None, |_| {
                    linear_packed(input, filter, bias, Activation::Relu)
                })
            }
            (
                LayerOp::Fc { .. },
                PackedLayerWeights::QFc {
                    filter,
                    scale_in,
                    bias,
                },
            ) => {
                fc += 1;
                log.scope(&format!("tensor.linear.L{}", fc - 1), None, |_| {
                    linear_q8(input, filter, *scale_in, bias, Activation::Relu)
                })
            }
            _ => return Err(format!("layer {} is not packed for its op", layer.index)),
        };
        current = out.map_err(err)?;
    }
    Ok(current)
}

/// What the isolated calls hand to the ledger table.
struct Isolated {
    /// Per volume: the slowest band's `run_part_on_band_packed` time (ms).
    band_critical_ms: Vec<f64>,
    routes: Vec<&'static str>,
}

/// `tensor.*` and `cnn-model.*`: the kernels and the executor in isolation,
/// on the arithmetic (f32 or int8) the workload deploys.
fn isolated(
    spec: &ServingSpec,
    fx: &Fixture,
    budget: Duration,
    log: &mut SpanLog,
    outcome: &mut Outcome,
) -> Result<Isolated, String> {
    let slice = budget / 5;
    let model = &fx.model;
    let quant = spec
        .quantized
        .then(|| QuantSpec::calibrate(model, &fx.weights))
        .transpose()
        .map_err(err)?;
    let pack = |_: &mut SpanLog| {
        PackedModelWeights::pack_with(model, &fx.weights, quant.as_ref()).map_err(err)
    };
    let pack_ms = repeat_ms(log, "cnn-model.pack", slice, pack)?;
    outcome.set("cnn-model.pack_ms", pack_ms);
    let packed = pack(log)?;
    outcome.set(
        "cnn-model.resident_mb",
        packed.resident_bytes() as f64 / 1e6,
    );

    // Kernels, layer by layer; per-layer times are the medians of the spans.
    repeat_ms(log, "e2e.layer_pass", slice, |log| {
        layer_pass(fx, &packed, log)
    })?;
    let span_median = |log: &SpanLog, name: &str| median(&log.durations_ms(name));
    let mut kernel_sum = 0.0;
    let mut routes = Vec::new();
    let convs = model
        .layers()
        .iter()
        .filter(|l| matches!(l.op, LayerOp::Conv { .. }));
    for (i, layer) in convs.enumerate() {
        let ms = span_median(log, &format!("tensor.conv2d_rows_packed.L{i}"));
        kernel_sum += ms;
        if let PackedLayerWeights::Conv { filter, .. } = &packed.layers()[layer.index] {
            routes.push(conv_route(filter));
        }
        if i < CONV_SLOTS {
            outcome.set(&format!("tensor.conv_ms.L{i}"), ms);
            outcome.set(&format!("tensor.conv_gflops.L{i}"), layer.ops() / ms / 1e6);
        }
    }
    for i in 0..model.head_layers().len() {
        let ms = span_median(log, &format!("tensor.linear.L{i}"));
        kernel_sum += ms;
        if i < FC_SLOTS {
            outcome.set(&format!("tensor.fc_ms.L{i}"), ms);
        }
    }
    // Pools differ in size, so they are summed per pass, not per layer.
    let passes = log.durations_ms("e2e.layer_pass").len() as f64;
    let pool_sum = log.durations_ms("tensor.maxpool2d").iter().sum::<f64>() / passes;
    kernel_sum += pool_sum;
    outcome.set("tensor.pool_ms_sum", pool_sum);
    outcome.set("tensor.kernel_sum_ms", kernel_sum);

    // The executor over the same pack.
    let full_ms = repeat_ms(log, "cnn-model.run_full_packed", slice, |_| {
        run_full_packed(model, &packed, &fx.inputs[0]).map_err(err)
    })?;
    outcome.set("cnn-model.run_full_packed_ms", full_ms);
    outcome.set("cnn-model.exec_self_ms", full_ms - kernel_sum);

    // Every band of the deployed plan, and the head.
    let mut band_sum = 0.0;
    let mut band_critical_ms = Vec::new();
    let mut band_ops = 0.0;
    let parts = fx.plan.volumes.iter().map(|v| v.parts.len()).sum::<usize>() as u32;
    for (v, assignment) in fx.plan.volumes.iter().enumerate() {
        let mut critical = 0.0f64;
        for (d, part) in assignment.parts.iter().enumerate() {
            if part.is_empty() {
                continue;
            }
            let volume_input = match part.volume.start {
                0 => &fx.inputs[0],
                start => &fx.layer_outputs[start - 1],
            };
            let (lo, hi) = part.input_rows;
            let band = slice_rows(volume_input, lo, hi).map_err(err)?;
            let name = format!("cnn-model.run_part_on_band_packed.V{v}.D{d}");
            let ms = repeat_ms(log, &name, slice / parts, |_| {
                run_part_on_band_packed(model, &packed, part, band.clone()).map_err(err)
            })?;
            band_sum += ms;
            critical = critical.max(ms);
            band_ops += part.ops(model);
        }
        band_critical_ms.push(critical);
    }
    outcome.set("cnn-model.band_sum_ms", band_sum);
    outcome.set("cnn-model.band_critical_ms", band_critical_ms.iter().sum());
    outcome.set(
        "cnn-model.halo_recompute_ratio",
        band_ops / (model.total_ops() - model.head_ops()),
    );
    let stitched = &fx.layer_outputs[model.distributable_len() - 1];
    let head_ms = repeat_ms(log, "cnn-model.run_head_packed", slice, |_| {
        run_head_packed(model, &packed, stitched).map_err(err)
    })?;
    outcome.set("cnn-model.head_ms", head_ms);
    Ok(Isolated {
        band_critical_ms,
        routes,
    })
}

/// One frame from `Transport::open` to `inbox`, median µs.
fn transport_frame_us(transport: &mut dyn Transport, frame: &Frame) -> Result<f64, String> {
    let (from, to) = (Endpoint::Requester, Endpoint::Device(0));
    let mut tx = transport.open(from, to).map_err(err)?;
    let rx = transport.inbox(to).map_err(err)?;
    let mut us = Vec::with_capacity(1000);
    for _ in 0..1000 {
        let t0 = Instant::now();
        tx.send(frame).map_err(err)?;
        rx.recv_timeout(Duration::from_secs(10)).map_err(err)?;
        us.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    Ok(median(&us))
}

/// `edge-runtime.wire.*` and `.transport.*` at a `Rows` frame of
/// `frame_bytes` encoded bytes (the workload's median).
fn wire_and_transport(
    frame_bytes: f64,
    log: &mut SpanLog,
    outcome: &mut Outcome,
) -> Result<(), String> {
    let band = |elements: f64| {
        let n = (elements as usize).max(1);
        Tensor::from_fn([1, 1, n], |_, _, x| ((x % 251) as f32 - 125.0) / 125.0)
    };
    // An f32 slab spends four bytes per element, a q8 slab one.
    let f32_band = band(frame_bytes / 4.0);
    let f32_frame = Frame::data(FrameKind::Rows, 0, 0, 0, 0, f32_band);
    let f32_bytes = f32_frame.encode();
    let q8_band = band(frame_bytes);
    let q8_bytes = Frame::rows_q8(0, 0, 0, 0, &q8_band).encode();
    let reps = 2000;
    outcome.set(
        "edge-runtime.wire.encode_us.f32",
        log.micro_us("edge-runtime.frame_encode.f32", reps, || f32_frame.encode()),
    );
    outcome.set(
        "edge-runtime.wire.decode_us.f32",
        log.micro_us("edge-runtime.frame_decode.f32", reps, || {
            Frame::decode(&f32_bytes)
        }),
    );
    // Quantisation happens when the frame is built, so it is timed with it.
    outcome.set(
        "edge-runtime.wire.encode_us.q8",
        log.micro_us("edge-runtime.frame_encode.q8", reps, || {
            Frame::rows_q8(0, 0, 0, 0, &q8_band).encode()
        }),
    );
    outcome.set(
        "edge-runtime.wire.decode_us.q8",
        log.micro_us("edge-runtime.frame_decode.q8", reps, || {
            Frame::decode(&q8_bytes)
        }),
    );
    outcome.set(
        "edge-runtime.transport.frame_us.chan",
        transport_frame_us(&mut ChannelTransport::new(1), &f32_frame)?,
    );
    outcome.set(
        "edge-runtime.transport.frame_us.tcp",
        transport_frame_us(&mut TcpTransport::new(1).map_err(err)?, &f32_frame)?,
    );
    Ok(())
}

/// What the program's telemetry says about the newest traced images.
struct StageMeans {
    /// Mean ms per image of each critical-path stage.
    stage_ms: BTreeMap<&'static str, f64>,
    spans_per_image: f64,
    /// Median encoded size of the frames put on the wire.
    median_frame_bytes: f64,
    /// Per volume: mean over images of the slowest device's compute span.
    slowest_compute_ms: Vec<f64>,
}

fn stage_means(report: &TraceReport, volumes: usize) -> StageMeans {
    let images = report.images();
    let newest = &images[images.len().saturating_sub(STAGE_IMAGES)..];
    let mut stage_ms: BTreeMap<&'static str, f64> = BTreeMap::new();
    for &image in newest {
        if let Some(path) = report.critical_path(image) {
            for cost in path.stages {
                *stage_ms.entry(cost.stage).or_default() += cost.total_ms;
            }
        }
    }
    let n = newest.len().max(1) as f64;
    stage_ms.values_mut().for_each(|ms| *ms /= n);
    // Image ids are handed out in sequence, so the newest form a range.
    let first = newest.first().copied().unwrap_or(0);
    let events = || {
        report
            .tracks
            .iter()
            .flat_map(|t| &t.events)
            .filter(move |e| e.trace.image >= first && e.trace.image != NO_IMAGE)
    };
    let frame_bytes: Vec<f64> = events()
        .filter(|e| e.stage.name() == "tx" || e.stage.name() == "scatter")
        .map(|e| e.bytes as f64)
        .collect();
    let mut slowest: BTreeMap<(u32, u16), f64> = BTreeMap::new();
    for e in events() {
        if let Stage::Compute(v) = e.stage {
            let ms = slowest.entry((e.trace.image, v)).or_default();
            *ms = ms.max(e.duration_ms());
        }
    }
    let mut slowest_compute_ms = vec![0.0; volumes];
    for ((_, v), ms) in slowest {
        slowest_compute_ms[v as usize] += ms / n;
    }
    StageMeans {
        stage_ms,
        spans_per_image: events().count() as f64 / n,
        median_frame_bytes: median(&frame_bytes),
        slowest_compute_ms,
    }
}

/// Per-device deltas of a counter between two metric snapshots.
fn device_delta(
    before: &RuntimeReport,
    after: &RuntimeReport,
    f: impl Fn(&DeviceMetrics) -> f64,
) -> Vec<f64> {
    before
        .devices
        .iter()
        .zip(&after.devices)
        .map(|(b, a)| f(a) - f(b))
        .collect()
}

/// What serving under trace hands to the ledger table.
struct Served {
    samples: usize,
    /// Closed-loop median latency with telemetry on, and off just before.
    p50: f64,
    untraced_p50: f64,
    /// Per volume: the slowest device's mean kernel time by its own counters.
    in_situ_ms: Vec<f64>,
    in_situ_head_ms: f64,
    means: StageMeans,
}

/// `edge-runtime.*`, `edge-telemetry.*`, `edgesim.*`: the workload's own
/// deployment served untraced, then traced (closed loop, full window, and
/// on the tiny models a few plan swaps).
fn serve_traced(
    spec: &ServingSpec,
    fx: &mut Fixture,
    opts: &RunOpts,
    log: &mut SpanLog,
    outcome: &mut Outcome,
) -> Result<Served, String> {
    let phase = |share: f64| Instant::now() + Duration::from_secs_f64(opts.seconds * share);

    // The reference: the same closed loop with telemetry off.
    let mut silent = SpanLog::new(false);
    let (deployed, _, _) = set_up(spec, fx, opts, &Telemetry::disabled(), &mut silent)?;
    let untraced = Load::new(&deployed.session, &fx.inputs, &mut fx.checker)
        .closed_loop(Stop::At(phase(UNTRACED_SHARE)), &mut silent)?;
    deployed.session.shutdown().map_err(err)?;
    let (untraced_p50, _) = percentile(&untraced, 50.0);

    let telemetry = Telemetry::with_capacity(RING_CAPACITY);
    let mut collector = Collector::new(&telemetry);
    let (deployed, _, deploy_s) = set_up(spec, fx, opts, &telemetry, log)?;
    outcome.set("edge-runtime.deploy_s", deploy_s);
    let session = &deployed.session;
    let mut load = Load::new(session, &fx.inputs, &mut fx.checker);

    // Closed loop.
    let before = session.metrics();
    let latencies = load.closed_loop(Stop::At(phase(TRACED_SHARE)), log)?;
    let closed = session.metrics();
    let closed_trace = collector.collect();
    let images = latencies.len() as f64;
    let per_image = |f: fn(&DeviceMetrics) -> f64| {
        device_delta(&before, &closed, f).iter().sum::<f64>() / images
    };
    let (p50, _) = percentile(&latencies, 50.0);
    outcome.set(
        "edge-runtime.submit_us_p50",
        median(&log.durations_ms("edge-runtime.submit")) * 1e3,
    );
    // The tail is reported only where ten samples lie beyond it.
    for pct in [90.0, 99.0] {
        if supported(latencies.len(), pct) {
            let name = format!("edge-runtime.latency_ms_p{pct}");
            outcome.set(&name, percentile(&latencies, pct).0);
        }
    }
    outcome.set(
        "edge-runtime.frames_per_image",
        per_image(|d| d.frames_in as f64),
    );
    outcome.set(
        "edge-runtime.wire_bytes_per_image",
        per_image(|d| d.bytes_in as f64),
    );
    outcome.set("edge-telemetry.overhead_frac", p50 / untraced_p50 - 1.0);
    let volumes = fx.plan.num_volumes();
    let means = stage_means(&closed_trace, volumes);
    for stage in STAGES {
        let ms = means.stage_ms.get(stage).copied().unwrap_or(0.0);
        outcome.set(&format!("edge-runtime.stage.{stage}_ms"), ms);
    }
    outcome.set("edge-telemetry.spans_per_image", means.spans_per_image);
    let mean_latency = latencies.iter().sum::<f64>() / images;
    let predicted = predicted_report(&fx.model, &fx.plan, &closed, latencies.len());
    outcome.set(
        "edgesim.pred_over_meas_ips",
        predicted.ips / (1e3 / mean_latency),
    );
    let in_situ_ms = (0..volumes)
        .map(|v| {
            let ms = device_delta(&before, &closed, |d| d.per_volume_ms[v]);
            let n = device_delta(&before, &closed, |d| d.per_volume_images[v] as f64);
            ms.iter()
                .zip(&n)
                .map(|(ms, n)| if *n > 0.0 { ms / n } else { 0.0 })
                .fold(0.0, f64::max)
        })
        .collect();
    let in_situ_head_ms = per_image(|d| d.head_ms);

    // Full window: how much the kernels slow down when devices overlap.
    let full = load.pipelined(phase(PIPELINED_SHARE))?;
    let compute = device_delta(&closed, &session.metrics(), |d| d.compute_ms);
    let compute_sum = compute.iter().sum::<f64>();
    outcome.set(
        "edge-runtime.compute_ms_per_image",
        compute_sum / full.images as f64,
    );
    outcome.set(
        "edge-runtime.band_imbalance",
        compute.iter().copied().fold(0.0, f64::max) / (compute_sum / DEVICES as f64),
    );

    // Plan swaps (tiny models only: a diagnostic, not a serving number).
    if spec.tcp {
        let plan_b = spec.plan(&fx.model, |h| {
            VolumeSplit::proportional(&[2.0, 1.0, 1.0], h)
        })?;
        for _ in 0..SWAP_ROUNDS {
            for plan in [&plan_b, &fx.plan] {
                load.checker.plan_changed();
                log.scope("edge-runtime.apply_plan", None, |_| {
                    session.apply_plan(plan)
                })
                .map_err(err)?;
                load.closed_loop(Stop::Images(fx.inputs.len()), log)?;
            }
        }
        outcome.set(
            "edge-runtime.apply_plan_ms",
            median(&log.durations_ms("edge-runtime.apply_plan")),
        );
    }
    deployed.session.shutdown().map_err(err)?;
    log.import(&telemetry, &closed_trace);
    log.import(&telemetry, &collector.collect());
    Ok(Served {
        samples: latencies.len(),
        p50,
        untraced_p50,
        in_situ_ms,
        in_situ_head_ms,
        means,
    })
}

/// The traced pass of one serving workload.
pub fn run_traced(
    spec: &ServingSpec,
    opts: &RunOpts,
    log: &mut SpanLog,
) -> Result<Outcome, String> {
    let mut fx = Fixture::new(spec, opts)?;
    let mut outcome = Outcome::default();
    let served = serve_traced(spec, &mut fx, opts, log, &mut outcome)?;
    outcome.set("edge-runtime.output_err_frac", fx.checker.max_err_frac);
    outcome.attempted = fx.checker.attempted;
    outcome.failed = fx.checker.failed;

    let budget = Duration::from_secs_f64(opts.seconds * ISOLATED_SHARE);
    let iso = isolated(spec, &fx, budget, log, &mut outcome)?;
    wire_and_transport(served.means.median_frame_bytes, log, &mut outcome)?;

    // The ledger: what the isolated calls account for, and what they do not.
    let p50 = served.p50;
    let submit_ms = outcome.get("edge-runtime.submit_us_p50") / 1e3;
    let head_ms = outcome.get("cnn-model.head_ms");
    let accounted = submit_ms + outcome.get("cnn-model.band_critical_ms") + head_ms;
    outcome.set(
        "edge-runtime.compute_inflation",
        outcome.get("edge-runtime.compute_ms_per_image") / outcome.get("cnn-model.band_sum_ms"),
    );
    outcome.set("ledger.residual_ms", p50 - accounted);
    outcome.set("ledger.residual_frac", (p50 - accounted) / p50);
    outcome.set(
        "ledger.dist_over_single",
        p50 / outcome.get("cnn-model.run_full_packed_ms"),
    );

    println!(
        "{}: ledger over {} traced closed-loop images (kernel arch {}, int8 arch {}; conv routes {:?})",
        spec.name,
        served.samples,
        tensor::ops::kernel_arch().label(),
        tensor::ops::qkernel_arch().label(),
        iso.routes,
    );
    // Isolated: the call alone on the box.  In situ: the providers' own
    // kernel-time counters while serving.  End to end: the telemetry spans
    // of the same images, and the latency they add up towards.
    let row = |line: &str, cells: [Option<f64>; 3]| {
        let cells = cells.map(|c| c.map_or("-".to_string(), |ms| format!("{ms:.3}")));
        println!(
            "  {line:<24} {:>12} {:>12} {:>12}",
            cells[0], cells[1], cells[2]
        );
    };
    println!(
        "  {:<24} {:>12} {:>12} {:>12}",
        "line", "isolated ms", "in-situ ms", "e2e ms"
    );
    row("submit", [None, None, Some(submit_ms)]);
    let e2e_head = served.means.stage_ms.get("head").copied().unwrap_or(0.0);
    for (v, iso_ms) in iso.band_critical_ms.iter().enumerate() {
        let (situ_ms, e2e_ms) = (served.in_situ_ms[v], served.means.slowest_compute_ms[v]);
        row(
            &format!("volume {v} (slowest band)"),
            [Some(*iso_ms), Some(situ_ms), Some(e2e_ms)],
        );
    }
    row(
        "head",
        [Some(head_ms), Some(served.in_situ_head_ms), Some(e2e_head)],
    );
    row(
        "sum",
        [
            Some(accounted),
            Some(submit_ms + served.in_situ_ms.iter().sum::<f64>() + served.in_situ_head_ms),
            Some(submit_ms + served.means.slowest_compute_ms.iter().sum::<f64>() + e2e_head),
        ],
    );
    row("latency p50 (traced)", [None, None, Some(p50)]);
    println!(
        "  residual {:.3} ms = {:.1} % of the traced p50; untraced p50 {:.3} ms \
         (tracing overhead {:+.1} %)",
        p50 - accounted,
        (p50 - accounted) / p50 * 100.0,
        served.untraced_p50,
        (p50 / served.untraced_p50 - 1.0) * 100.0,
    );
    Ok(outcome)
}
