//! Deploy-time memory, measured at the allocator: every weight exists once
//! between the caller and the kernel panels.
//!
//! A counting `#[global_allocator]` tracks live and peak heap bytes of this
//! test binary (which is why it is a binary of its own).  The account a
//! deploy must keep to:
//!
//! * the caller's `ModelWeights` — one raw copy per process;
//! * the session's retained set and the per-device shards — refcount bumps
//!   on that same storage, zero bytes;
//! * the f32 FC layers and every bias — read by the kernels in place, so
//!   the pack holds the caller's storage: zero bytes;
//! * the deploy's conv panels — one form per layer, packed once for every
//!   device that runs it;
//! * transiently, packing scratch bounded by the largest raw conv layer.
//!
//! The single-device reference (`exec::run_full`, which every deploy's
//! caller runs first) keeps its own: one conv layer's panels at a time,
//! nothing once it has returned.
//!
//! The tests take a lock: the counters are process-wide.

use cnn_model::exec::{
    self, deterministic_input, LayerWeights, ModelWeights, PackedLayerWeights, PackedModelWeights,
};
use cnn_model::{LayerOp, Model, PartitionScheme, VolumeSplit};
use edge_runtime::provider::{spawn_provider, ProviderHandle, Shared};
use edge_runtime::transport::FrameTx;
use edge_runtime::{
    ChannelTransport, Deploy, EpochSlot, Frame, PlanEpoch, RuntimeOptions, Transport,
};
use edge_telemetry::Telemetry;
use edgesim::{Endpoint, ExecutionPlan};
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use tensor::Shape;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// The system allocator with live/peak byte counters.
struct Counting;

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every call forwards to `System` unchanged; the counters only
// observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        System.dealloc(p, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let q = System.realloc(p, layout, new_size);
        if !q.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        q
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn live() -> usize {
    LIVE.load(Ordering::Relaxed)
}

/// Restarts peak tracking from the current live level.
fn reset_peak() -> usize {
    let now = live();
    PEAK.store(now, Ordering::Relaxed);
    now
}

fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

const DEVICES: usize = 3;
const MB: usize = 1 << 20;

/// A mid-size VGG-shaped model (27.6 MB of weights): a thin stem and a
/// GEMM-routed conv, five wide Winograd-routed 3×3 convs (10.6 MB), and an
/// FC head whose first layer (16.8 MB) is the largest raw layer — the shape
/// of the paper-scale deploy problem, where neither the conv stack nor the
/// head is negligible.
fn model() -> Model {
    Model::new(
        "alloc-test",
        Shape::new(3, 32, 32),
        &[
            LayerOp::conv(32, 3, 1, 1),
            LayerOp::pool(2, 2),
            LayerOp::conv(128, 3, 1, 1),
            LayerOp::pool(2, 2),
            LayerOp::conv(256, 3, 1, 1),
            LayerOp::conv(256, 3, 1, 1),
            LayerOp::conv(256, 3, 1, 1),
            LayerOp::conv(256, 3, 1, 1),
            LayerOp::conv(256, 3, 1, 1),
            LayerOp::fc(256),
            LayerOp::fc(10),
        ],
    )
    .unwrap()
}

fn split_plan(m: &Model) -> ExecutionPlan {
    let scheme = PartitionScheme::single_volume(m);
    let split = VolumeSplit::equal(DEVICES, m.prefix_output().h);
    ExecutionPlan::from_splits(m, &scheme, &[split], DEVICES).unwrap()
}

fn is_conv(m: &Model, l: usize) -> bool {
    matches!(m.layers()[l].op, LayerOp::Conv { .. })
}

/// Bytes of the raw weight tensors (no biases) of the conv layers of `w`:
/// all of them, and the largest.
fn raw_conv_bytes(m: &Model, w: &ModelWeights) -> (usize, usize) {
    let conv = w
        .layers
        .iter()
        .enumerate()
        .filter(|&(l, _)| is_conv(m, l))
        .map(|(_, (lw, _))| std::mem::size_of_val(&**lw));
    conv.fold((0, 0), |(all, max), b| (all + b, max.max(b)))
}

/// Bytes of the raw FC weight tensors of `w`.
fn raw_fc_bytes(m: &Model, w: &ModelWeights) -> usize {
    w.layers
        .iter()
        .enumerate()
        .filter(|&(l, _)| matches!(m.layers()[l].op, LayerOp::Fc { .. }))
        .map(|(_, (lw, _))| std::mem::size_of_val(&**lw))
        .sum()
}

/// The bytes packing `layers` once adds to the caller's: the conv panels.
/// An f32 FC filter and every bias are the raw storage itself.
fn panel_bytes(m: &Model, w: &ModelWeights, layers: &HashSet<usize>) -> usize {
    PackedModelWeights::pack_owned(m, w.shard(layers), None)
        .unwrap()
        .layers()
        .iter()
        .map(|l| match l {
            PackedLayerWeights::Conv { filter, .. } => filter.bytes(),
            _ => 0,
        })
        .sum()
}

#[test]
fn deploy_peaks_at_one_raw_copy_plus_panels_and_shutdown_returns_it_all() {
    let _guard = serial();
    let m = model();
    let plan = split_plan(&m);
    let weights = ModelWeights::deterministic(&m, 7);
    let img = deterministic_input(&m, 7);
    let reference = exec::run_full(&m, &weights, &img).unwrap().pop().unwrap();
    // One pack of every layer some device runs: the convs every device
    // runs are resident once, not once per device.
    let union: HashSet<usize> = (0..DEVICES).flat_map(|d| plan.keep_layers(&m, d)).collect();
    let panels = panel_bytes(&m, &weights, &union);
    let per_device: usize = (0..DEVICES)
        .map(|d| panel_bytes(&m, &weights, &plan.keep_layers(&m, d)))
        .sum();
    assert!(per_device > panels + 8 * MB, "the devices share convs");
    let (_, largest) = raw_conv_bytes(&m, &weights);
    let fc = raw_fc_bytes(&m, &weights);
    let options = RuntimeOptions::default();

    // One throw-away deploy first: lazily initialised process state (thread
    // pools, dispatch caches) is not what this test accounts.
    Deploy::new(&m, &plan, &weights)
        .options(options)
        .start()
        .unwrap()
        .shutdown()
        .unwrap();

    // `before` holds the caller's one raw copy (plus the fixtures above).
    let before = reset_peak();
    let session = Deploy::new(&m, &plan, &weights)
        .options(options)
        .start()
        .unwrap();
    let deploy_peak = PEAK.load(Ordering::Relaxed) - before;
    let deployed = live() - before;

    // During deploy: conv panels, plus packing scratch no larger than the
    // largest raw conv layer, plus 1 MB of slack for fabric, threads'
    // bookkeeping and routing tables.  No second raw copy fits under this
    // bound: a deep-copied session set alone is 27.6 MB, deep-copied shards
    // 49 MB — and no copy of the FC head (17 MB) either.
    assert!(weights.resident_bytes() > largest + 8 * MB);
    assert!(fc > 8 * MB, "the head is {fc} B");
    assert!(
        deploy_peak <= panels + largest + MB,
        "deploy peaked {deploy_peak} B over the caller's weights; conv panels {panels} B, \
         largest raw conv layer {largest} B"
    );
    // Once deployed: conv panels and bookkeeping only — the session's
    // weight set, every raw and packed shard and every FC filter are
    // handles on shared storage.
    assert!(
        deployed <= panels + MB,
        "a deployed session holds {deployed} B; its conv panels are {panels} B"
    );
    assert!(deployed >= panels, "panels must be resident: {deployed} B");

    let t = session.submit(&img).unwrap();
    assert_eq!(session.wait(t).unwrap(), reference);
    session.shutdown().unwrap();
    let after = live();
    assert!(
        after <= before + 64 * 1024,
        "deploy → shutdown leaked {} B",
        after.saturating_sub(before)
    );
}

#[test]
fn run_full_holds_one_layers_panels_at_a_time_and_keeps_nothing() {
    let _guard = serial();
    let m = model();
    let weights = ModelWeights::deterministic(&m, 11);
    let img = deterministic_input(&m, 11);
    // Each layer's panels, packed alone (an FC layer packs into none), and
    // all of them together: what a packed model adds.
    let panels: Vec<usize> = (0..m.len())
        .map(|l| panel_bytes(&m, &weights, &[l].into()))
        .collect();
    let largest = *panels.iter().max().unwrap();
    let all: usize = panels.iter().sum();
    assert!(
        all > largest + 8 * MB,
        "{all} B of panels, {largest} B largest"
    );

    // One throw-away run: lazily initialised process state is not what this
    // test accounts; it also sizes what `run_full` returns.
    let outputs = exec::run_full(&m, &weights, &img).unwrap();
    let activations: usize = outputs
        .iter()
        .map(|t| std::mem::size_of_val(t.data()))
        .sum();
    drop(outputs);

    // `before` holds the raw weights and the image.
    let before = reset_peak();
    let outputs = exec::run_full(&m, &weights, &img).unwrap();
    let peak = PEAK.load(Ordering::Relaxed) - before;
    let returned = live() - before;
    // While running: the layer outputs so far, one conv layer's panels
    // (packing scratch included) and kernel scratch.  Two layers' panels
    // alive together do not fit, let alone the model's, nor a copy of the
    // FC head.
    assert!(
        peak <= largest + activations + MB,
        "run_full peaked {peak} B over the raw weights; the largest layer's panels are \
         {largest} B, its outputs {activations} B"
    );
    // Once returned: the outputs, and no panel.
    assert!(
        returned <= activations + 64 * 1024,
        "run_full returned holding {returned} B; its outputs are {activations} B"
    );
    drop(outputs);
    assert!(
        live() <= before + 64 * 1024,
        "run_full leaked {} B",
        live().saturating_sub(before)
    );
}

/// What a cluster node holds after decoding its `Hello`: device `d`'s shard
/// in storage nobody else references.
fn solely_owned_shard(m: &Model, plan: &ExecutionPlan, d: usize) -> ModelWeights {
    let layers: Vec<LayerWeights> = ModelWeights::deterministic(m, 9)
        .shard(&plan.keep_layers(m, d))
        .layers
        .iter()
        .map(|(w, b)| (Arc::from(&w[..]), Arc::from(&b[..])))
        .collect();
    ModelWeights { layers }
}

/// Brings device `d` up the way a cluster node bootstraps: packs `shard`
/// (consuming it), then spawns the provider over the pack.  Returns what
/// stopping it needs.
fn ready_provider(
    m: &Model,
    plan: &ExecutionPlan,
    d: usize,
    shard: ModelWeights,
) -> (ProviderHandle, Box<dyn FrameTx>, ChannelTransport) {
    let packed = PackedModelWeights::pack_owned(m, shard, None).unwrap();
    let mut transport = ChannelTransport::new(DEVICES);
    let inbox = transport.inbox(Endpoint::Device(d)).unwrap();
    let halt = transport
        .open(Endpoint::Requester, Endpoint::Device(d))
        .unwrap();
    let mut txs = HashMap::new();
    txs.insert(
        Endpoint::Requester,
        transport
            .open(Endpoint::Device(d), Endpoint::Requester)
            .unwrap(),
    );
    let shared = Arc::new(Shared {
        model: m.clone(),
        slot: EpochSlot::new(PlanEpoch::new(0, m, plan, None).unwrap()),
    });
    let provider = spawn_provider(d, shared, packed, inbox, txs, &Telemetry::disabled());
    (provider, halt, transport)
}

fn halt_and_join(provider: ProviderHandle, mut halt: Box<dyn FrameTx>) {
    halt.send(&Frame::halt()).unwrap();
    provider.join().unwrap();
}

#[test]
fn a_provider_that_solely_owns_its_shard_frees_every_raw_layer_by_ready() {
    let _guard = serial();
    let m = model();
    let plan = split_plan(&m);
    let d = plan.head_device.expect("the model has an FC head");
    let panels = panel_bytes(
        &m,
        &ModelWeights::deterministic(&m, 9),
        &plan.keep_layers(&m, d),
    );

    // By the handles: once the provider is up, every raw conv layer has no
    // owner left, and every raw FC layer and bias has exactly one — the
    // provider, whose kernels read it in place.
    let shard = solely_owned_shard(&m, &plan, d);
    let raw_layers: Vec<_> = shard
        .layers
        .iter()
        .enumerate()
        .filter(|(_, (w, _))| !w.is_empty())
        .map(|(l, (w, b))| (l, Arc::downgrade(w), Arc::downgrade(b)))
        .collect();
    assert!(raw_layers.iter().any(|&(l, ..)| !is_conv(&m, l)));
    let (provider, halt, _transport) = ready_provider(&m, &plan, d, shard);
    for (l, w, b) in &raw_layers {
        let kept = w.upgrade().map(|w| Arc::strong_count(&w) - 1);
        let want = (!is_conv(&m, *l)).then_some(1);
        assert_eq!(kept, want, "layer {l}: raw weights' owners once ready");
        let bias = b.upgrade().map(|b| Arc::strong_count(&b) - 1);
        assert_eq!(bias, Some(1), "layer {l}: the provider holds its bias");
    }
    halt_and_join(provider, halt);
    // (A `Weak` keeps its allocation mapped, so the byte account below runs
    // without any.)
    drop(raw_layers);

    // By the bytes: `before` includes the shard; by the time the provider
    // is up, its raw convs have turned into panels and the rest of it —
    // FC weights and biases — is the provider's own.
    let shard = solely_owned_shard(&m, &plan, d);
    let (convs, largest) = raw_conv_bytes(&m, &shard);
    let before = reset_peak();
    let (provider, halt, _transport) = ready_provider(&m, &plan, d, shard);
    let now = live();
    assert!(
        now + convs <= before + panels + MB,
        "a provider that is up holds {} B beyond its conv panels and its shard's FC \
         weights and biases",
        (now + convs).saturating_sub(before + panels)
    );
    // And packing streamed: each raw conv was gone before the next packed,
    // so the peak was the kept storage + conv panels + the largest raw conv
    // — not + every raw conv, 8 MB more.
    assert!(convs > largest + 8 * MB);
    let peak = PEAK.load(Ordering::Relaxed) - before + convs;
    assert!(
        peak <= panels + largest + MB,
        "packing {convs} B of raw convs peaked at {peak} B over the kept storage \
         (conv panels {panels} B, largest raw conv {largest} B)"
    );
    halt_and_join(provider, halt);
}
