//! Deploying a plan: the [`Deploy`] builder and the one wiring path behind
//! it.
//!
//! Every way a session comes up is a value on the builder, not a function
//! of its own: the fabric ([`Deploy::over`]; default a fresh in-process
//! [`ChannelTransport`]), the streaming options ([`Deploy::options`]), the
//! telemetry hub ([`Deploy::telemetry`]; default disabled) and where the
//! weights come from ([`WeightSource`]).  [`Deploy::start`] is the only
//! function that wires a cluster up.

use super::{gather, PlanState, ScatterState, Session, SessionShared, SessionTelemetry};
use crate::provider::{spawn_provider, Shared};
use crate::routing::{EpochSlot, PlanEpoch};
use crate::runtime::RuntimeOptions;
use crate::transport::{ChannelTransport, FrameTx, Transport};
use crate::{Result, RuntimeError};
use cnn_model::exec::{ModelWeights, PackedModelWeights, QuantSpec};
use cnn_model::Model;
use edge_telemetry::{Telemetry, REQUESTER};
use edgesim::{Endpoint, ExecutionPlan};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::AtomicBool;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Where a deploy's resident weights come from.  In every case the raw set
/// is retained by the session — shared storage, not a copy — as the source
/// of plan-swap deltas, and each local provider is handed a
/// `PackedModelWeights::shard` of one pack: its own layers, their panels
/// shared with every other device of the deploy.
pub enum WeightSource {
    /// The deploy packs the union of the devices' layers once (against the
    /// calibrated `QuantSpec` when it serves quantized), and each provider
    /// holds only the layers its parts run (plus the FC head on the head
    /// device).  `&ModelWeights` and `Arc<ModelWeights>` convert into this.
    Raw(Arc<ModelWeights>),
    /// The caller's full-model pack: the deploy packs nothing
    /// (`DeviceMetrics::layers_packed` stays 0) and every provider holds
    /// every layer of it.  This is the fleet path: K replica sessions of one
    /// model cost one packing pass and one resident copy.  Every layer is
    /// resident everywhere, so plan swaps ship no weight bytes.  A quantized
    /// deploy needs a pack built with its `QuantSpec`
    /// (`PackedModelWeights::pack_with`).
    Shared {
        /// The raw weights the pack was built from.
        raw: Arc<ModelWeights>,
        /// The shared full-model pack.
        packed: Arc<PackedModelWeights>,
    },
    /// The requester side only: gather thread, scatter links and swap
    /// machinery, no local provider workers.  The transport's device
    /// endpoints are served by other processes (`edge-cluster`'s
    /// `distredge-node`) bootstrapped with the same model, plan and shards
    /// before the deploy.  [`Session::metrics`] then reports no per-device
    /// counters; completion and latency accounting are unaffected.
    Remote {
        /// The raw weights the nodes' shards were cut from.
        raw: Arc<ModelWeights>,
        /// The spec the nodes were bootstrapped with (`None` = f32).  It
        /// must be present exactly when the deploy is quantized: the
        /// session ships it in every `Reconfigure` payload, so it must be
        /// the spec the nodes already pack against, not a second
        /// calibration.
        quant: Option<QuantSpec>,
    },
}

impl From<&ModelWeights> for WeightSource {
    /// Bumps refcounts on the caller's storage; copies no weight.
    fn from(weights: &ModelWeights) -> Self {
        WeightSource::Raw(Arc::new(weights.clone()))
    }
}

impl From<Arc<ModelWeights>> for WeightSource {
    fn from(weights: Arc<ModelWeights>) -> Self {
        WeightSource::Raw(weights)
    }
}

/// Builds a [`Session`]: `Deploy::new(&model, &plan, &weights).start()` is
/// an untraced in-process deployment with default options; every other
/// deployment differs from it by a value set here.
pub struct Deploy<'a> {
    model: &'a Model,
    plan: &'a ExecutionPlan,
    weights: WeightSource,
    transport: Option<&'a mut dyn Transport>,
    options: RuntimeOptions,
    telemetry: Telemetry,
}

impl<'a> Deploy<'a> {
    /// A deployment of `plan` for `model` from `weights`.
    pub fn new(
        model: &'a Model,
        plan: &'a ExecutionPlan,
        weights: impl Into<WeightSource>,
    ) -> Self {
        Self {
            model,
            plan,
            weights: weights.into(),
            transport: None,
            options: RuntimeOptions::default(),
            telemetry: Telemetry::disabled(),
        }
    }

    /// Wires the cluster over `transport` instead of a fresh in-process
    /// channel fabric.  The transport is only borrowed for wiring; it must
    /// outlive the session only if its links do (the in-process and shaped
    /// fabrics hand out self-contained links, the TCP fabric's accept
    /// threads must stay alive).
    pub fn over(mut self, transport: &'a mut dyn Transport) -> Self {
        self.transport = Some(transport);
        self
    }

    /// Sets the streaming options (credit window, timeouts, quantization).
    pub fn options(mut self, options: RuntimeOptions) -> Self {
        self.options = options;
        self
    }

    /// Records every stage of every image's lifecycle (scatter, per-band
    /// compute, wire tx/rx, merge, head, wait) plus swap-protocol events
    /// into `telemetry`'s per-thread rings.  With the default disabled hub
    /// every instrumentation point is a single relaxed atomic load; the
    /// session's counts live in its own reports ([`Session::metrics`],
    /// [`super::SwapReport`]) either way.
    pub fn telemetry(mut self, telemetry: &Telemetry) -> Self {
        self.telemetry = telemetry.clone();
        self
    }

    /// Wires the cluster up and returns the live [`Session`].
    ///
    /// Packing comes first, before anything is wired, so a layer that will
    /// not pack fails the deploy with nothing to tear down.  The session
    /// exists — and owns every provider — from before the first worker is
    /// spawned, so a failure after that (a link that will not open) halts
    /// and joins what was started through the session's own teardown.  The
    /// throughput clock starts when this returns, so packing is deploy
    /// cost, never stream cost.
    pub fn start(self) -> Result<Session> {
        let Deploy {
            model,
            plan,
            weights,
            transport,
            options,
            telemetry,
        } = self;
        if options.max_in_flight == 0 {
            return Err(RuntimeError::Execution(
                "max_in_flight must be at least 1".into(),
            ));
        }
        // `remote` is the remote nodes' spec; `None` for local providers.
        let (raw, packed, remote) = match weights {
            WeightSource::Raw(raw) => (raw, None, None),
            WeightSource::Shared { raw, packed } => (raw, Some(packed), None),
            WeightSource::Remote { raw, quant } => (raw, None, Some(quant)),
        };
        let local = remote.is_none();
        if let Some(packed) = &packed {
            // Weightless layers (pools) are resident without holding GEMM
            // panels, so residency — not the packed-panel count — is the
            // full-model check.
            let resident = (0..model.len()).filter(|&i| packed.is_resident(i)).count();
            if resident != model.len() {
                return Err(RuntimeError::Execution(format!(
                    "shared pack holds {resident} of {} layers; it must hold the full model",
                    model.len()
                )));
            }
        }

        // Quantized serving calibrates per-layer activation scales up front
        // from the full raw weights; a shared pack must already carry its
        // spec — the panels were built at pack time and cannot change here —
        // and so must remote nodes, which packed against the spec their
        // handshake shipped.  The spec reaches every local provider inside
        // its packed shard, every later epoch through the `Reconfigure`
        // payloads, and flips the epoch's wire precision to q8.
        let quant: Option<QuantSpec> = match (remote, &packed, options.quantized) {
            (Some(Some(_)), _, false) => {
                return Err(RuntimeError::Execution(
                    "f32 deploy given a QuantSpec for its remote nodes".into(),
                ))
            }
            (_, _, false) => None,
            (Some(quant), _, true) => Some(quant.ok_or_else(|| {
                RuntimeError::Execution(
                    "quantized remote deploy needs the QuantSpec its nodes were \
                     bootstrapped with"
                        .into(),
                )
            })?),
            (None, None, true) => Some(QuantSpec::calibrate(model, &raw)?),
            (None, Some(packed), true) => Some(packed.quant().cloned().ok_or_else(|| {
                RuntimeError::Execution(
                    "quantized deploy needs a shared pack built with a QuantSpec \
                     (PackedModelWeights::pack_with)"
                        .into(),
                )
            })?),
        };
        let epoch0 = PlanEpoch::new(0, model, plan)?.with_wire_q8(quant.is_some());
        let n = plan.num_devices();

        // Weight residency per device: the layers a device's parts run
        // (exactly what `cnn_model::memory::part_footprint` accounts), or
        // everything under a shared pack.  This is the diff basis
        // `apply_plan` uses to ship only delta shards on a swap.
        let keep_sets: Vec<HashSet<usize>> = match &packed {
            Some(_) => vec![(0..model.len()).collect(); n],
            None => (0..n).map(|d| plan.keep_layers(model, d)).collect(),
        };
        let resident_bytes: Vec<usize> = match &packed {
            Some(packed) => vec![packed.resident_bytes(); n],
            None => keep_sets.iter().map(|k| raw.resident_bytes_of(k)).collect(),
        };
        // One pack per deploy — the caller's, or the union of the devices'
        // layers packed here — cut into per-device shards that share its
        // panels, each with the layer count the device is charged
        // (`DeviceMetrics::layers_packed`: nothing when the caller packed).
        // Remote nodes pack their own shards.
        let shards: Vec<(PackedModelWeights, u64)> = match (&packed, local) {
            (_, false) => Vec::new(),
            (Some(packed), true) => keep_sets.iter().map(|k| (packed.shard(k), 0)).collect(),
            (None, true) => {
                let union: HashSet<usize> = keep_sets.iter().flatten().copied().collect();
                let pack =
                    PackedModelWeights::pack_with(model, &raw.shard(&union), quant.as_ref())?;
                keep_sets
                    .iter()
                    .map(|k| {
                        let shard = pack.shard(k);
                        let charged = shard.packed_layer_count() as u64;
                        (shard, charged)
                    })
                    .collect()
            }
        };

        // The requester's side of the fabric first — its links are what
        // teardown halts the providers through.
        let mut own_fabric;
        let transport: &mut dyn Transport = match transport {
            Some(transport) => transport,
            None => {
                own_fabric = ChannelTransport::new(n);
                &mut own_fabric
            }
        };
        let requester_inbox = transport.inbox(Endpoint::Requester)?;
        let requester_txs: Vec<Box<dyn FrameTx>> = (0..n)
            .map(|d| transport.open(Endpoint::Requester, Endpoint::Device(d)))
            .collect::<Result<_>>()?;

        let shared = Arc::new(SessionShared::new(SessionTelemetry::new(&telemetry)));
        let stop = Arc::new(AtomicBool::new(false));
        let gather = gather::spawn(
            requester_inbox,
            Arc::clone(&shared),
            Arc::clone(&stop),
            model,
            plan,
            options.recv_timeout,
            &telemetry,
        );
        let mut session = Session {
            shared,
            scatter: Mutex::new(ScatterState {
                txs: requester_txs,
                scatter_ms: vec![0.0; n],
                plan: plan.clone(),
                rec: telemetry.recorder("requester.submit", REQUESTER),
            }),
            plan_state: Mutex::new(PlanState {
                plan: plan.clone(),
                keep: keep_sets,
                resident_bytes,
            }),
            model: model.clone(),
            weights: raw,
            quant,
            input_shape: model.input().as_array(),
            options,
            stop,
            gather: Some(gather),
            providers: Vec::new(),
            t_start: Instant::now(),
        };

        // One worker per local device — none when the providers are remote
        // — with links to every peer and back to the requester.
        for (d, (shard, charged)) in shards.into_iter().enumerate() {
            let inbox = transport.inbox(Endpoint::Device(d))?;
            let mut txs: HashMap<Endpoint, Box<dyn FrameTx>> = HashMap::new();
            for peer in (0..n).filter(|&peer| peer != d) {
                txs.insert(
                    Endpoint::Device(peer),
                    transport.open(Endpoint::Device(d), Endpoint::Device(peer))?,
                );
            }
            txs.insert(
                Endpoint::Requester,
                transport.open(Endpoint::Device(d), Endpoint::Requester)?,
            );
            let shared = Arc::new(Shared {
                model: model.clone(),
                slot: EpochSlot::new(epoch0.clone()),
            });
            let provider = spawn_provider(d, shared, shard, inbox, txs, &telemetry);
            provider
                .stats
                .comp
                .lock()
                .expect("comp stats poisoned")
                .layers_packed = charged;
            session.providers.push(provider);
        }
        session.t_start = Instant::now();
        Ok(session)
    }
}

/// The deployment entry point the benchmark package compiles against.
#[derive(Debug, Clone, Copy, Default)]
pub struct Runtime;

impl Runtime {
    /// [`Deploy`] with every axis spelled positionally.  `e2e/` calls this
    /// signature and is frozen (`BENCHMARK.json`), so it stays as a
    /// one-statement forward until that package can be ported; new code
    /// uses the builder.
    pub fn deploy_traced(
        model: &Model,
        plan: &ExecutionPlan,
        weights: &ModelWeights,
        transport: &mut dyn Transport,
        options: &RuntimeOptions,
        telemetry: &Telemetry,
    ) -> Result<Session> {
        Deploy::new(model, plan, weights)
            .over(transport)
            .options(*options)
            .telemetry(telemetry)
            .start()
    }
}
