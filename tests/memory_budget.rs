//! Integration test of the memory-footprint accounting (paper §VI-4): the
//! whole model zoo fits the paper's "< 1.5 GB" envelope, and distributing a
//! model never places more activation memory on a device than running it
//! whole would, while per-device weight memory never exceeds the whole
//! model's weights.

use cnn_model::memory::{whole_model_footprint, within_budget};
use distredge::evaluate::plan_method;
use distredge::{DistrEdgeConfig, Method, Scenario};

#[test]
fn zoo_models_fit_the_papers_memory_envelope() {
    for model in cnn_model::zoo::all_models() {
        let fp = whole_model_footprint(&model);
        assert!(
            fp.total_bytes() < 1.5e9,
            "{} needs {:.2} GB, above the paper's envelope",
            model.name(),
            fp.total_bytes() / 1e9
        );
    }
}

#[test]
fn distribution_never_inflates_per_device_memory_beyond_the_whole_model() {
    let model = cnn_model::zoo::vgg16();
    let cluster = Scenario::group_db(100.0).build_constant();
    let cfg = DistrEdgeConfig::fast(cluster.len())
        .with_episodes(1)
        .with_seed(1);
    let whole = whole_model_footprint(&model);

    for method in [
        Method::DeepThings,
        Method::Aofl,
        Method::CoEdge,
        Method::Offload,
    ] {
        let strategy = plan_method(method, &model, &cluster, &cfg).unwrap();
        let footprints = strategy.memory_footprints(&model).unwrap();
        assert_eq!(footprints.len(), cluster.len());
        for fp in &footprints {
            assert!(
                fp.peak_activation_bytes <= whole.peak_activation_bytes + 1.0,
                "{}: activation {} exceeds whole-model peak {}",
                method.name(),
                fp.peak_activation_bytes,
                whole.peak_activation_bytes
            );
            assert!(
                fp.weights_bytes <= whole.weights_bytes + 1.0,
                "{}: weights {} exceed whole-model weights {}",
                method.name(),
                fp.weights_bytes,
                whole.weights_bytes
            );
        }
        // Every device stays far below a 4 GB Jetson Nano budget.
        assert!(
            within_budget(&footprints, 4e9),
            "{} breaks a 4 GB budget",
            method.name()
        );
    }
}

/// A deep-channel model where every conv and the FC head clear the int8
/// routing thresholds (`c_in·f² ≥ 72`, FC inputs ≥ 256).
fn quantizable_model() -> cnn_model::Model {
    use cnn_model::{LayerOp, Model};
    Model::new(
        "budget-q8",
        tensor::Shape::new(16, 32, 32),
        &[
            LayerOp::conv(32, 3, 1, 1),
            LayerOp::conv(32, 3, 1, 1),
            LayerOp::pool(2, 2),
            LayerOp::conv(64, 3, 1, 1),
            LayerOp::fc(10),
        ],
    )
    .unwrap()
}

#[test]
fn quantized_pack_shrinks_resident_weights_about_4x() {
    use cnn_model::exec::{ModelWeights, PackedModelWeights, QuantSpec};
    let model = quantizable_model();
    let weights = ModelWeights::deterministic(&model, 41);
    let spec = QuantSpec::calibrate(&model, &weights).unwrap();
    assert_eq!(spec.quantized_layer_count(), 4, "all weighted layers route");

    let f32_pack = PackedModelWeights::pack(&model, &weights).unwrap();
    let q8_pack = PackedModelWeights::pack_with(&model, &weights, Some(&spec)).unwrap();
    let f32_bytes = f32_pack.resident_bytes();
    let q8_bytes = q8_pack.resident_bytes();
    // Quantized layers keep int8-only panels: one byte per weight instead
    // of the four of the layer's one f32 form (GEMM panels here — Winograd
    // panels, 16/9 as large, on layers wide enough to route there), so the
    // resident set shrinks well past 3x and approaches 4x.
    assert!(
        f32_bytes as f64 >= 3.0 * q8_bytes as f64,
        "quantized pack must shrink residency >= 3x: f32 {f32_bytes} vs int8 {q8_bytes}"
    );
}

/// Resident bytes of an f32 pack of the layers of `model` that `keep`
/// selects over the raw bytes of the same layers: what the panel forms'
/// padding (and, for Winograd layers, the transformed form) cost.
fn pack_inflation(model: &cnn_model::Model, keep: impl Fn(&cnn_model::LayerOp) -> bool) -> f64 {
    use cnn_model::exec::{LayerWeights, ModelWeights, PackedModelWeights};
    use cnn_model::LayerOp;
    let layers = model
        .layers()
        .iter()
        .map(|layer| {
            let (w_len, b_len) = match layer.op {
                _ if !keep(&layer.op) => (0, 0),
                LayerOp::Conv { c_out, f, .. } => (c_out * layer.input.c * f * f, c_out),
                LayerOp::Fc { out_features } => (out_features * layer.input.volume(), out_features),
                LayerOp::MaxPool { .. } => (0, 0),
            };
            // Exact-size iterators: each layer is allocated once, in place.
            (
                std::iter::repeat_n(0.01f32, w_len).collect(),
                std::iter::repeat_n(0.0f32, b_len).collect(),
            )
        })
        .collect::<Vec<LayerWeights>>();
    let raw = ModelWeights { layers };
    let raw_bytes = raw.resident_bytes();
    let pack = PackedModelWeights::pack_owned(model, raw, None).unwrap();
    pack.resident_bytes() as f64 / raw_bytes as f64
}

#[test]
fn fc_row_panels_inflate_resident_weights_by_less_than_1_percent() {
    // Panels are 64 rows tall, but the last one only as tall as it needs to
    // be (a multiple of 16): tiny-vgg's ten-class head from 64 inputs would
    // grow 1.3 % if it were padded to a whole panel, VGG-11's 1000-class one
    // not at all either way.
    for model in [cnn_model::zoo::tiny_vgg(), cnn_model::zoo::vgg11()] {
        let inflation = pack_inflation(&model, |op| matches!(op, cnn_model::LayerOp::Fc { .. }));
        assert!(
            (1.0..1.01).contains(&inflation),
            "{}: FC pack is {inflation:.4}x the raw weights",
            model.name()
        );
    }
}

#[test]
fn vgg11_f32_pack_is_within_7_percent_of_the_raw_weights() {
    // Every conv layer holds exactly one panel form.  The six 128+-channel
    // 3×3 layers hold Winograd panels (16/9 of raw); nothing also holds the
    // im2col panels the route never reads — with both forms resident the
    // whole pack was 1.12x raw (598 MB over 532 MB), with one it is 1.055x.
    let inflation = pack_inflation(&cnn_model::zoo::vgg11(), |_| true);
    assert!(
        (1.0..=1.07).contains(&inflation),
        "VGG-11 f32 pack is {inflation:.4}x the raw weights"
    );
}

#[test]
fn quantized_frames_cut_per_image_wire_bytes_at_least_3x() {
    use cnn_model::exec::{deterministic_input, ModelWeights};
    use cnn_model::{PartitionScheme, VolumeSplit};
    use edge_runtime::runtime::RuntimeOptions;
    use edge_runtime::session::Deploy;
    use edge_runtime::transport::{ChannelTransport, FrameTx, Transport};
    use edge_runtime::wire::Frame;
    use edgesim::{Endpoint, ExecutionPlan};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc::Receiver;
    use std::sync::Arc;

    /// A channel fabric that counts every byte its links carry.
    struct CountingTransport {
        inner: ChannelTransport,
        bytes: Arc<AtomicUsize>,
    }
    struct CountingTx {
        inner: Box<dyn FrameTx>,
        bytes: Arc<AtomicUsize>,
    }
    impl FrameTx for CountingTx {
        fn send(&mut self, frame: &Frame) -> edge_runtime::Result<usize> {
            let n = self.inner.send(frame)?;
            self.bytes.fetch_add(n, Ordering::SeqCst);
            Ok(n)
        }
    }
    impl Transport for CountingTransport {
        fn open(&mut self, from: Endpoint, to: Endpoint) -> edge_runtime::Result<Box<dyn FrameTx>> {
            Ok(Box::new(CountingTx {
                inner: self.inner.open(from, to)?,
                bytes: Arc::clone(&self.bytes),
            }))
        }
        fn inbox(&mut self, at: Endpoint) -> edge_runtime::Result<Receiver<Vec<u8>>> {
            self.inner.inbox(at)
        }
    }

    let model = quantizable_model();
    let weights = ModelWeights::deterministic(&model, 43);
    let scheme = PartitionScheme::single_volume(&model);
    let split = VolumeSplit::equal(3, model.prefix_output().h);
    let plan = ExecutionPlan::from_splits(&model, &scheme, &[split], 3).unwrap();

    // Stream the same images through an f32 and a quantized session over
    // counting fabrics; everything but the wire precision is identical.
    let mut wire_bytes = [0usize; 2];
    for (slot, quantized) in [(0usize, false), (1usize, true)] {
        let counter = Arc::new(AtomicUsize::new(0));
        let mut transport = CountingTransport {
            inner: ChannelTransport::new(3),
            bytes: Arc::clone(&counter),
        };
        let options = RuntimeOptions::default().with_quantized(quantized);
        let session = Deploy::new(&model, &plan, &weights)
            .over(&mut transport)
            .options(options)
            .start()
            .unwrap();
        for seed in 0..2u64 {
            let t = session.submit(&deterministic_input(&model, seed)).unwrap();
            session.wait(t).unwrap();
        }
        // Snapshot before shutdown so halt frames don't blur the ratio.
        wire_bytes[slot] = counter.load(Ordering::SeqCst);
        session.shutdown().unwrap();
    }
    assert!(
        wire_bytes[0] >= 3 * wire_bytes[1],
        "q8 activation transfer must cut wire bytes >= 3x: f32 {} vs int8 {}",
        wire_bytes[0],
        wire_bytes[1]
    );
}

#[test]
fn offload_concentrates_memory_on_a_single_device() {
    let model = cnn_model::zoo::resnet50();
    let cluster = Scenario::group_dc(100.0).build_constant();
    let cfg = DistrEdgeConfig::fast(cluster.len())
        .with_episodes(1)
        .with_seed(1);
    let strategy = plan_method(Method::Offload, &model, &cluster, &cfg).unwrap();
    let footprints = strategy.memory_footprints(&model).unwrap();
    let loaded: Vec<usize> = footprints
        .iter()
        .enumerate()
        .filter(|(_, f)| f.total_bytes() > 0.0)
        .map(|(i, _)| i)
        .collect();
    assert_eq!(
        loaded.len(),
        1,
        "offload must load exactly one device: {loaded:?}"
    );
}
