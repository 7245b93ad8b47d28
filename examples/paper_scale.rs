//! Paper-scale end-to-end proof of the packed kernel path: serve **VGG-11
//! at 224×224** (~15 GFLOPs of convolution, ~133 M parameters — the
//! smallest member of the paper's VGG16-class workloads) through the
//! distributed runtime.
//!
//! Under the old direct kernels this model was impractical to execute at
//! all — minutes per image — which capped every runtime benchmark at toy
//! scale.  On the packed im2col + GEMM path the whole demo (deploy with
//! deploy-time weight packing, stream a batch across three in-process
//! providers, verify bit-exactness against the single-device reference)
//! runs in seconds:
//!
//! ```text
//! cargo run --release --example paper_scale
//! ```
//!
//! It also prints the deploy-memory account — the caller's raw weights,
//! each device's share of them (`Session::resident_weight_bytes`, held as
//! shards of one set of kernel panels) and the process's peak RSS
//! (`VmHWM`) — so "one copy of every weight" is visible outside the
//! benchmark, and a per-layer table of the conv kernels' rates on the
//! packed path (route, ms, effective GFLOP/s against the direct flop count,
//! and for Winograd layers the rate of the multiply-adds really executed),
//! which is the README's kernel table for this model without the bench
//! harness.  Pin the process to one CPU (`taskset -c 1`) to reproduce the
//! committed one-CPU numbers.

use cnn_model::exec::{self, deterministic_input, ModelWeights};
use cnn_model::{zoo, LayerOp, Model, PartitionScheme, VolumeSplit};
use edge_runtime::session::Deploy;
use edge_runtime::RuntimeOptions;
use edgesim::ExecutionPlan;
use std::time::Instant;
use tensor::ops::{conv2d_rows_packed, kernel_arch, pack_conv_filter};
use tensor::Tensor;

fn mib(bytes: usize) -> f64 {
    bytes as f64 / (1 << 20) as f64
}

/// `VmHWM` of this process in MiB (Linux only).
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kb: f64 = kb.trim().trim_end_matches("kB").trim().parse().ok()?;
    Some(kb / 1024.0)
}

/// Times every conv layer at full height through the packed entry point
/// the executor uses (filter packed outside the timed region, best of five
/// calls), on the layer inputs of a single-device pass.
fn print_conv_rates(model: &Model, weights: &ModelWeights, image: &Tensor, outputs: &[Tensor]) {
    println!(
        "conv kernels, full plane, {} arm (effective GFLOP/s count the direct form's flops):",
        kernel_arch().label()
    );
    let mut total_ms = 0.0;
    for layer in model.layers() {
        let LayerOp::Conv {
            c_out,
            f,
            stride,
            padding,
            act,
        } = layer.op
        else {
            continue;
        };
        let input = match layer.index {
            0 => image,
            i => &outputs[i - 1],
        };
        let (w, bias) = &weights.layers[layer.index];
        let filter = pack_conv_filter(w, layer.input.c, c_out, f, stride, None).unwrap();
        let ms = (0..5)
            .map(|_| {
                let t0 = Instant::now();
                let out = conv2d_rows_packed(
                    input,
                    0,
                    layer.input.h,
                    0,
                    layer.output.h,
                    &filter,
                    bias,
                    f,
                    stride,
                    padding,
                    act,
                )
                .unwrap();
                std::hint::black_box(out);
                t0.elapsed().as_secs_f64() * 1e3
            })
            .fold(f64::INFINITY, f64::min);
        total_ms += ms;
        let route = if filter.winograd().is_some() {
            // The sixteen GEMMs' own multiply-adds: 16 per 2×2 output tile.
            let tiles = layer.output.h.div_ceil(2) * layer.output.w.div_ceil(2);
            let real = 2.0 * (16 * layer.input.c * c_out * tiles) as f64;
            format!("winograd ({:.1} real)", real / ms / 1e6)
        } else {
            "im2col-gemm".to_string()
        };
        println!(
            "  layer {:>2}  {:>3}→{:<3} @{:<3}  {:>6.2} ms  {:>6.1} GFLOP/s  {route}",
            layer.index,
            layer.input.c,
            c_out,
            layer.output.h,
            ms,
            layer.ops() / ms / 1e6,
        );
    }
    println!("  conv sum {total_ms:.1} ms");
}

fn main() {
    let model = zoo::vgg11();
    println!(
        "model: {} ({} layers, {:.1} GFLOPs, {:.0} M params)",
        model.name(),
        model.len(),
        model.total_ops() / 1e9,
        model.parameter_count() as f64 / 1e6
    );

    let t0 = Instant::now();
    let weights = ModelWeights::deterministic(&model, 7);
    println!("weights generated in {:.2?}", t0.elapsed());

    // Split every volume across three providers (uneven shares so halos
    // cross device boundaries), head on one of them.
    let devices = 3;
    let scheme = PartitionScheme::single_volume(&model);
    let splits: Vec<VolumeSplit> = scheme
        .volumes()
        .iter()
        .map(|v| {
            let h = v.last_output_height(&model);
            VolumeSplit::new(vec![h / 2, 3 * h / 4], h)
        })
        .collect();
    let plan = ExecutionPlan::from_splits(&model, &scheme, &splits, devices).unwrap();

    // Deploy: every layer some device runs is packed into kernel panels
    // once, before the first frame, and each device holds its shard of
    // that one pack (handles on shared panels, no copy).
    let t0 = Instant::now();
    let session = Deploy::new(&model, &plan, &weights)
        .options(RuntimeOptions::default().with_max_in_flight(2))
        .start()
        .unwrap();
    println!("deployed (sharded + packed) in {:.2?}", t0.elapsed());
    let resident = session.resident_weight_bytes();
    println!(
        "memory: caller holds {:.0} MiB of raw weights; devices run {:?} MiB of them \
         (packed once, panels shared); peak RSS (VmHWM) {} MiB",
        mib(weights.resident_bytes()),
        resident.iter().map(|&b| mib(b).round()).collect::<Vec<_>>(),
        peak_rss_mib().map_or("n/a".to_string(), |m| format!("{m:.0}")),
    );

    // Stream a small batch through the resident cluster.
    let images: Vec<Tensor> = (0..3)
        .map(|i| deterministic_input(&model, 100 + i))
        .collect();
    let t0 = Instant::now();
    let tickets: Vec<_> = images
        .iter()
        .map(|img| session.submit(img).unwrap())
        .collect();
    let outputs: Vec<Tensor> = tickets
        .into_iter()
        .map(|t| session.wait(t).unwrap())
        .collect();
    let elapsed = t0.elapsed();

    let report = session.shutdown().unwrap();
    println!(
        "streamed {} images in {:.2?} — {:.2} IPS (pipelined), {:.0} ms/image closed-loop mean",
        images.len(),
        elapsed,
        report.measured_ips,
        report.sim.mean_latency_ms
    );
    for (d, dev) in report.devices.iter().enumerate() {
        println!(
            "  device {d}: compute {:.0} ms, {} layers packed at deploy, {:.1} MB in / {:.1} MB out",
            dev.compute_ms,
            dev.layers_packed,
            dev.bytes_in as f64 / 1e6,
            dev.bytes_out as f64 / 1e6
        );
    }

    // The distributed packed path must agree bit-for-bit with the
    // single-device reference (same GEMM kernels, same summation order).
    let t0 = Instant::now();
    let reference = exec::run_full(&model, &weights, &images[0]).unwrap();
    assert_eq!(
        &outputs[0],
        reference.last().unwrap(),
        "distributed VGG-11 output must be bit-exact vs single-device"
    );
    println!(
        "verified bit-exact against single-device reference ({:.2?})",
        t0.elapsed()
    );

    print_conv_rates(&model, &weights, &images[0], &reference);
}
