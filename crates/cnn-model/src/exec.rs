//! Execution of models and split-parts on the `tensor` engine.
//!
//! The distribution algorithms never need weights, but the reproduction must
//! demonstrate that a distribution strategy is *functionally lossless*: the
//! stitched outputs of the split-parts equal the output of the un-split
//! model.  This module generates deterministic pseudo-random weights for a
//! model, runs the full model, and runs individual split-parts from their
//! [`PartPlan`]s so integration tests can compare the two.
//!
//! Execution is **packed-only**: a layer runs from its kernel panels and
//! from nothing else, through one per-layer dispatch.  The serving runtime
//! builds a [`PackedModelWeights`] once at deploy and runs
//! [`run_part_on_band_packed`] / [`run_head_packed`] per frame — zero
//! per-frame packing; [`run_part`] and [`run_full_packed`] are the same
//! executor over a whole volume input and a whole model.  The one function
//! that takes raw [`ModelWeights`] is [`run_full`], the single-device
//! reference: it packs a layer, runs it and drops the panels before the
//! next layer packs, so the reference costs one conv layer's panels of
//! memory, not a second copy of the model.
//!
//! Every weight exists **once** between the caller and the kernels:
//! [`ModelWeights`] layers are shared immutable storage (`Arc<[f32]>`), so
//! cloning a weight set, cutting a per-device [`ModelWeights::shard`] and
//! the session's retained copy for swap deltas are refcount bumps.  A pack
//! adds only what a kernel cannot read in place: the f32 FC kernel reads
//! the caller's row-major `[out][in]` weights and every kernel reads its
//! bias as given, so a packed FC layer *is* the raw layer (a refcount bump,
//! or a move when the caller owns it alone) and only conv layers (and int8
//! FC layers) are repacked — [`PackedModelWeights::pack_owned`] releases
//! each of those raw layers as soon as its panels exist.  Packed layers are
//! shared the same way: each holds its filter and bias behind an `Arc`, so
//! a deploy packs each layer once and [`PackedModelWeights::shard`] hands
//! every device its layers of that one pack without copying a panel.

use crate::layer::{Layer, LayerOp};
use crate::model::Model;
use crate::volume::PartPlan;
use crate::Result;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::sync::Arc;
use tensor::ops::{
    conv2d_rows_packed, linear_packed, linear_q8, maxpool2d_rows, pack_conv_filter, quant_scale,
    Activation, ConvRoute, PackedConvFilter, PackedLinearFilter, QuantizedLinearFilter,
};
use tensor::slice::slice_rows;
use tensor::Tensor;

/// One layer's raw `(weights, bias)` in shared immutable storage; both are
/// empty for pooling layers and for layers sharded out of a device's set.
pub type LayerWeights = (Arc<[f32]>, Arc<[f32]>);

/// Deterministic weights for every layer of a model.
///
/// Layers are shared immutable storage: `clone()` and [`ModelWeights::shard`]
/// bump refcounts instead of copying, so a deploy holds each layer's raw
/// values once per process however many devices and sessions reference them.
#[derive(Debug, Clone)]
pub struct ModelWeights {
    /// Per-layer `(weights, bias)`; pooling layers have empty slices.
    pub layers: Vec<LayerWeights>,
}

impl ModelWeights {
    /// Keeps only the layers whose index is in `keep`, replacing the rest
    /// with empty slices.  The layer count (and indexing) is preserved, so
    /// sharded weights drop into every `run_*` entry point unchanged — the
    /// caller just must never execute a dropped layer.  This is how the
    /// runtime hands each provider only the layers its assigned split-parts
    /// (plus, for the head device, the FC head) actually run, instead of
    /// preloading the full model everywhere.  Kept layers share storage
    /// with `self`: no weight is copied.
    pub fn shard(&self, keep: &HashSet<usize>) -> Self {
        let layers = self
            .layers
            .iter()
            .enumerate()
            .map(|(i, layer)| {
                if keep.contains(&i) {
                    layer.clone()
                } else {
                    LayerWeights::default()
                }
            })
            .collect();
        Self { layers }
    }

    /// Bytes of weights and biases actually resident in this set (dropped
    /// layers contribute nothing).
    pub fn resident_bytes(&self) -> usize {
        self.layers.iter().map(layer_bytes).sum()
    }

    /// Bytes of weights and biases of the given layers — what
    /// `self.shard(layers).resident_bytes()` would report, without
    /// building the shard.
    pub fn resident_bytes_of<'a>(&self, layers: impl IntoIterator<Item = &'a usize>) -> usize {
        layers
            .into_iter()
            .map(|&l| layer_bytes(&self.layers[l]))
            .sum()
    }

    /// Generates small random weights for `model`, seeded so that tests are
    /// reproducible.
    pub fn deterministic(model: &Model, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut layers = Vec::with_capacity(model.len());
        for layer in model.layers() {
            let (w_len, b_len) = match layer.op {
                LayerOp::Conv { c_out, f, .. } => (c_out * layer.input.c * f * f, c_out),
                LayerOp::MaxPool { .. } => (0, 0),
                LayerOp::Fc { out_features } => (out_features * layer.input.volume(), out_features),
            };
            // Collected straight into the shared storage (the ranges are
            // exact-size, so each layer is allocated once).
            let w: Arc<[f32]> = (0..w_len).map(|_| rng.gen_range(-0.2..0.2)).collect();
            let b: Arc<[f32]> = (0..b_len).map(|_| rng.gen_range(-0.1..0.1)).collect();
            layers.push((w, b));
        }
        Self { layers }
    }
}

fn layer_bytes((w, b): &LayerWeights) -> usize {
    (w.len() + b.len()) * std::mem::size_of::<f32>()
}

/// Per-layer activation scales for int8 quantized serving.
///
/// Entry `i` is the symmetric quantization scale of layer `i`'s *input*
/// activations (`0.0` = the layer stays on the f32 path).  The spec is
/// computed once at deploy on the device that holds the full weights
/// ([`QuantSpec::calibrate`]) and shipped to providers alongside their
/// weight shards — every device quantizing a layer against the *same*
/// static scale is what keeps band outputs bitwise stitchable.  The
/// runtime's q8 frames into an int8 layer travel at that layer's scale too,
/// so each activation is quantized at one scale wherever it was computed,
/// and a distributed quantized output equals the one-device one.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantSpec {
    scales: Vec<f32>,
}

/// Seeds of the probe inputs calibration pushes through the model.
const CALIBRATION_SEEDS: [u64; 3] = [0xCA11, 0xCA12, 0xCA13];

impl QuantSpec {
    /// Minimum GEMM depth `c_in·f·f` for a conv layer to take the int8
    /// path.  Below this the per-column quantization overhead eats the
    /// int8 throughput win (the VGG stem's K=27 stays f32).
    pub const CONV_MIN_K: usize = 72;
    /// Minimum `in_features` for an FC layer to take the int8 path.
    pub const FC_MIN_IN: usize = 256;

    /// Wraps raw per-layer scales (`0.0` = not quantized) — the way in for
    /// a spec read off the wire.  Every scale must be finite and
    /// non-negative: `+inf` would quantize the layer's every activation to
    /// zero, and a `NaN` or negative one would drop the layer to f32 on this
    /// device alone while its peers run int8.
    pub fn new(scales: Vec<f32>) -> Result<Self> {
        match scales.iter().position(|s| !(s.is_finite() && *s >= 0.0)) {
            Some(layer) => Err(crate::ModelError::InvalidGeometry {
                layer,
                reason: format!(
                    "quantization scale {} is not a finite non-negative number",
                    scales[layer]
                ),
            }),
            None => Ok(Self { scales }),
        }
    }

    /// Calibrates activation scales for `model` by running the f32
    /// reference over deterministic probe inputs and recording each
    /// quantizable layer's input range.  Requires the *full* weights —
    /// this runs on the deploying device, never on a provider holding a
    /// shard.
    ///
    /// Goes layer at a time (`each_layer_packed`, the loop [`run_full`]
    /// runs): layer `i` is packed once, every probe activation is pushed
    /// through it, and its panels are dropped before layer `i + 1` packs —
    /// one packing pass and one layer's panels alive at a time, with scales
    /// bit-identical to running the whole model per probe (same kernels,
    /// same routes).
    pub fn calibrate(model: &Model, weights: &ModelWeights) -> Result<Self> {
        let mut acts: Vec<Tensor> = CALIBRATION_SEEDS
            .iter()
            .map(|&seed| deterministic_input(model, seed))
            .collect();
        let mut max_abs = vec![0.0f32; model.len()];
        each_layer_packed(model, weights, |layer, packed| {
            let m = &mut max_abs[layer.index];
            for v in acts.iter().flat_map(|t| t.data()) {
                *m = m.max(v.abs());
            }
            for act in &mut acts {
                *act = run_whole_layer(layer, packed, act)?;
            }
            Ok(())
        })?;
        Ok(Self::from_input_ranges(model, &max_abs))
    }

    /// Turns per-layer input ranges into scales under the routing policy.
    fn from_input_ranges(model: &Model, max_abs: &[f32]) -> Self {
        let scales = model
            .layers()
            .iter()
            .zip(max_abs)
            .map(|(layer, &m)| {
                if Self::layer_is_quantizable(layer) {
                    quant_scale(&[m])
                } else {
                    0.0
                }
            })
            .collect();
        Self { scales }
    }

    /// The whole-model-per-probe calibration [`QuantSpec::calibrate`]
    /// replaced, kept as its oracle: three `run_full` passes, each packing
    /// every layer again.
    #[cfg(test)]
    fn calibrate_via_run_full(model: &Model, weights: &ModelWeights) -> Result<Self> {
        let mut max_abs = vec![0.0f32; model.len()];
        for seed in CALIBRATION_SEEDS {
            let input = deterministic_input(model, seed);
            let outs = run_full(model, weights, &input)?;
            for i in 0..model.len() {
                let t = if i == 0 { &input } else { &outs[i - 1] };
                for &v in t.data() {
                    max_abs[i] = max_abs[i].max(v.abs());
                }
            }
        }
        Ok(Self::from_input_ranges(model, &max_abs))
    }

    /// Whether the routing policy sends this layer to the int8 kernels.
    pub fn layer_is_quantizable(layer: &Layer) -> bool {
        let k = match layer.op {
            LayerOp::Conv { f, .. } => {
                let k = layer.input.c * f * f;
                if k < Self::CONV_MIN_K {
                    return false;
                }
                k
            }
            LayerOp::Fc { .. } => {
                let k = layer.input.volume();
                if k < Self::FC_MIN_IN {
                    return false;
                }
                k
            }
            LayerOp::MaxPool { .. } => return false,
        };
        k <= tensor::ops::qgemm::MAX_QUANT_K
    }

    /// The input scale for layer `index`, or `None` when the layer runs f32.
    pub fn layer_scale(&self, index: usize) -> Option<f32> {
        match self.scales.get(index) {
            Some(&s) if s > 0.0 => Some(s),
            _ => None,
        }
    }

    /// Raw per-layer scales (`0.0` = not quantized).
    pub fn scales(&self) -> &[f32] {
        &self.scales
    }

    /// Number of layers routed to the int8 kernels.
    pub fn quantized_layer_count(&self) -> usize {
        self.scales.iter().filter(|&&s| s > 0.0).count()
    }
}

/// One layer's weights in the form its kernel reads — each layer's single
/// resident copy.  Filters and biases are shared immutable storage: cloning
/// a layer (or cutting a [`PackedModelWeights::shard`]) bumps refcounts.
#[derive(Debug, Clone, PartialEq)]
pub enum PackedLayerWeights {
    /// A conv layer packed in the one panel form its geometry routes to:
    /// Winograd-transformed panels, im2col `[c_out] × [c_in·f·f]` GEMM
    /// panels, or int8 panels (see [`tensor::ops::PackedConvFilter`]).
    Conv {
        /// Prepacked conv panels (exactly one of GEMM / Winograd / int8).
        filter: Arc<PackedConvFilter>,
        /// One bias entry per output channel.
        bias: Arc<[f32]>,
    },
    /// An f32 FC layer: the raw row-major `[out][in]` weights, shared with
    /// the [`ModelWeights`] they came from and read in place by the GEMV
    /// kernel — no panel form exists.
    Fc {
        /// The raw weights, wrapped (not copied).
        filter: Arc<PackedLinearFilter>,
        /// One bias entry per output feature.
        bias: Arc<[f32]>,
    },
    /// An FC layer packed into int8 GEMV quad panels for the quantized path.
    QFc {
        /// Prepacked int8 panels with per-row corrections.
        filter: Arc<QuantizedLinearFilter>,
        /// Calibrated input-activation scale.
        scale_in: f32,
        /// One bias entry per output feature.
        bias: Arc<[f32]>,
    },
    /// A pooling layer — no weights to pack.
    Pool,
    /// Not resident on this device (sharded out).
    Absent,
}

/// Deploy-time artifact: every resident layer's weights in the form its
/// kernel reads — conv panels, int8 FC quad panels, f32 FC weights as
/// given — so the per-frame hot path ([`run_part_on_band_packed`] /
/// [`run_head_packed`]) never repacks.
///
/// Built once from (possibly sharded) [`ModelWeights`] at deploy and cut
/// into per-device [`PackedModelWeights::shard`]s that share its panels.
/// A device's set grows layer-by-layer via
/// [`PackedModelWeights::install_layer`] when a `Reconfigure` delta shard
/// arrives — so a plan swap repacks only the layers that actually shipped.
#[derive(Debug, Clone, PartialEq)]
pub struct PackedModelWeights {
    layers: Vec<PackedLayerWeights>,
    quant: Option<QuantSpec>,
}

impl PackedModelWeights {
    /// Packs every resident layer of `weights` (empty layers of a shard
    /// become [`PackedLayerWeights::Absent`]) on the f32 paths.
    pub fn pack(model: &Model, weights: &ModelWeights) -> Result<Self> {
        Self::pack_with(model, weights, None)
    }

    /// [`PackedModelWeights::pack_owned`] for a caller that keeps its
    /// weights: the clone it consumes is refcount bumps, so nothing is
    /// copied and the caller's layers simply stay alive.
    pub fn pack_with(
        model: &Model,
        weights: &ModelWeights,
        quant: Option<&QuantSpec>,
    ) -> Result<Self> {
        Self::pack_owned(model, weights.clone(), quant)
    }

    /// Packs every resident layer of `weights`, **consuming** them layer by
    /// layer: a layer is packed, its raw handle dropped, then the next one
    /// starts — so a caller that solely owns its shard (a provider after
    /// deploy, a cluster node after bootstrap) peaks at *panels + the
    /// largest raw layer*, not *panels + the whole shard*.  An f32 FC layer
    /// and every bias are moved into the pack as they are.
    ///
    /// Layers the optional quantization spec covers are packed
    /// **int8-only** (quad panels plus a per-layer weight scale — no f32
    /// panels kept, which is where the ~4× resident-weight shrink comes
    /// from); the rest pack on the f32 paths.  The spec is retained so
    /// `Reconfigure` delta shards repack the same way via
    /// [`PackedModelWeights::install_layer`].
    pub fn pack_owned(
        model: &Model,
        weights: ModelWeights,
        quant: Option<&QuantSpec>,
    ) -> Result<Self> {
        check_layer_count(model, &weights)?;
        let layers = model
            .layers()
            .iter()
            .zip(weights.layers)
            .map(|(layer, (w, b))| {
                // `w` and `b` move into this call: a conv layer's raw
                // weights are released before the next layer packs.
                Self::pack_layer(layer, w, b, quant.and_then(|q| q.layer_scale(layer.index)))
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(Self {
            layers,
            quant: quant.cloned(),
        })
    }

    /// Packs one layer.  Biases and f32 FC weights are kept as given —
    /// the kernels read them in place — so the packed layer shares them
    /// with whoever else holds `w` and `b`; conv and int8 FC weights are
    /// packed from `w`, which is dropped on return.
    fn pack_layer(
        layer: &Layer,
        w: Arc<[f32]>,
        b: Arc<[f32]>,
        scale_in: Option<f32>,
    ) -> Result<PackedLayerWeights> {
        let geometry_err = |e: tensor::TensorError| crate::ModelError::InvalidGeometry {
            layer: layer.index,
            reason: e.to_string(),
        };
        let packed = match layer.op {
            LayerOp::MaxPool { .. } => PackedLayerWeights::Pool,
            LayerOp::Conv {
                c_out, f, stride, ..
            } => {
                if w.is_empty() && b.is_empty() {
                    PackedLayerWeights::Absent
                } else {
                    let pin = scale_in.map(|scale_in| ConvRoute::Quant { scale_in });
                    let filter = pack_conv_filter(&w, layer.input.c, c_out, f, stride, pin)
                        .map_err(geometry_err)?;
                    PackedLayerWeights::Conv {
                        filter: Arc::new(filter),
                        bias: b,
                    }
                }
            }
            LayerOp::Fc { out_features } => {
                if w.is_empty() && b.is_empty() {
                    PackedLayerWeights::Absent
                } else if let Some(scale_in) = scale_in {
                    let filter =
                        QuantizedLinearFilter::pack(&w, out_features, layer.input.volume())
                            .map_err(geometry_err)?;
                    PackedLayerWeights::QFc {
                        filter: Arc::new(filter),
                        scale_in,
                        bias: b,
                    }
                } else {
                    let filter = PackedLinearFilter::shared(w, out_features, layer.input.volume())
                        .map_err(geometry_err)?;
                    PackedLayerWeights::Fc {
                        filter: Arc::new(filter),
                        bias: b,
                    }
                }
            }
        };
        Ok(packed)
    }

    /// Packs and installs one layer's raw weights (a `Reconfigure` delta
    /// shard) — the only packing a running provider ever does after deploy.
    /// Honors the quantization spec the pack was built with, so a delta
    /// shard lands on the same kernel path as a fresh deploy; like
    /// [`PackedModelWeights::pack_owned`], it keeps the bias and f32 FC
    /// weights it is handed instead of copying them.
    pub fn install_layer(
        &mut self,
        model: &Model,
        index: usize,
        w: Arc<[f32]>,
        b: Arc<[f32]>,
    ) -> Result<()> {
        let layer =
            model
                .layers()
                .get(index)
                .ok_or_else(|| crate::ModelError::InvalidGeometry {
                    layer: index,
                    reason: format!("model has {} layers", model.len()),
                })?;
        let scale_in = self.quant.as_ref().and_then(|q| q.layer_scale(index));
        self.layers[index] = Self::pack_layer(layer, w, b, scale_in)?;
        Ok(())
    }

    /// Keeps only the layers whose index is in `keep`; the rest become
    /// [`PackedLayerWeights::Absent`] (pools stay resident) — the packed
    /// twin of [`ModelWeights::shard`], equal to packing the raw shard.
    /// Kept layers share panels with `self`: refcount bumps, no copy, so
    /// devices cut from one pack hold one copy of each layer between them.
    /// The shard keeps the quantization spec for its own delta installs.
    pub fn shard(&self, keep: &HashSet<usize>) -> Self {
        let layers = self
            .layers
            .iter()
            .enumerate()
            .map(|(i, layer)| match layer {
                PackedLayerWeights::Pool => PackedLayerWeights::Pool,
                _ if keep.contains(&i) => layer.clone(),
                _ => PackedLayerWeights::Absent,
            })
            .collect();
        Self {
            layers,
            quant: self.quant.clone(),
        }
    }

    /// How many packs hold this pack's panels: itself plus every live
    /// [`PackedModelWeights::shard`] cut from it, read off the first packed
    /// layer.  `1` for a pack without weights.
    pub fn panel_holders(&self) -> usize {
        self.layers
            .iter()
            .find_map(|l| match l {
                PackedLayerWeights::Conv { filter, .. } => Some(Arc::strong_count(filter)),
                PackedLayerWeights::Fc { filter, .. } => Some(Arc::strong_count(filter)),
                PackedLayerWeights::QFc { filter, .. } => Some(Arc::strong_count(filter)),
                _ => None,
            })
            .unwrap_or(1)
    }

    /// The quantization spec this pack was built with, if any.
    pub fn quant(&self) -> Option<&QuantSpec> {
        self.quant.as_ref()
    }

    /// Per-layer packed weights.
    pub fn layers(&self) -> &[PackedLayerWeights] {
        &self.layers
    }

    /// Whether layer `index` is resident (packed or weight-free pooling).
    pub fn is_resident(&self, index: usize) -> bool {
        !matches!(self.layers[index], PackedLayerWeights::Absent)
    }

    /// Number of layers holding packed GEMM panels (conv / FC layers whose
    /// weights are resident).
    pub fn packed_layer_count(&self) -> usize {
        self.layers
            .iter()
            .filter(|l| {
                matches!(
                    l,
                    PackedLayerWeights::Conv { .. }
                        | PackedLayerWeights::Fc { .. }
                        | PackedLayerWeights::QFc { .. }
                )
            })
            .count()
    }

    /// Bytes of weights and biases this pack holds resident — panels, and
    /// the f32 FC weights it shares with the raw set.
    pub fn resident_bytes(&self) -> usize {
        self.layers
            .iter()
            .map(|l| match l {
                PackedLayerWeights::Conv { filter, bias } => {
                    filter.bytes() + bias.len() * std::mem::size_of::<f32>()
                }
                PackedLayerWeights::Fc { filter, bias } => {
                    filter.bytes() + bias.len() * std::mem::size_of::<f32>()
                }
                PackedLayerWeights::QFc { filter, bias, .. } => {
                    filter.bytes() + bias.len() * std::mem::size_of::<f32>()
                }
                _ => 0,
            })
            .sum()
    }
}

fn check_layer_count(model: &Model, weights: &ModelWeights) -> Result<()> {
    if weights.layers.len() != model.len() {
        return Err(crate::ModelError::InvalidGeometry {
            layer: 0,
            reason: format!(
                "weights cover {} layers, model has {}",
                weights.layers.len(),
                model.len()
            ),
        });
    }
    Ok(())
}

/// Generates a deterministic input tensor for a model.
pub fn deterministic_input(model: &Model, seed: u64) -> Tensor {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
    let s = model.input();
    Tensor::from_fn([s.c, s.h, s.w], |_, _, _| rng.gen_range(-1.0..1.0))
}

/// Runs one layer over a row band from prepacked weights — the one place a
/// layer op meets a kernel, and the per-frame hot path: no packing, ever.
///
/// `input` carries original input rows `[in_row_offset, …)`; output rows
/// `[out_lo, out_hi)` (full-layer coordinates) are produced.
fn run_layer_rows_packed(
    layer: &Layer,
    packed: &PackedLayerWeights,
    input: &Tensor,
    in_row_offset: usize,
    out_lo: usize,
    out_hi: usize,
) -> Result<Tensor> {
    let geometry_err = |reason: String| crate::ModelError::InvalidGeometry {
        layer: layer.index,
        reason,
    };
    let t = match (&layer.op, packed) {
        (
            LayerOp::Conv {
                f,
                stride,
                padding,
                act,
                ..
            },
            PackedLayerWeights::Conv { filter, bias },
        ) => conv2d_rows_packed(
            input,
            in_row_offset,
            layer.input.h,
            out_lo,
            out_hi,
            filter,
            bias,
            *f,
            *stride,
            *padding,
            *act,
        )
        .map_err(|e| geometry_err(e.to_string()))?,
        (LayerOp::MaxPool { f, stride }, PackedLayerWeights::Pool) => maxpool2d_rows(
            input,
            in_row_offset,
            layer.input.h,
            out_lo,
            out_hi,
            *f,
            *stride,
        )
        .map_err(|e| geometry_err(e.to_string()))?,
        (LayerOp::Fc { .. }, PackedLayerWeights::Fc { filter, bias }) => {
            linear_packed(input, filter, bias, Activation::Relu)
                .map_err(|e| geometry_err(e.to_string()))?
        }
        (
            LayerOp::Fc { .. },
            PackedLayerWeights::QFc {
                filter,
                scale_in,
                bias,
            },
        ) => linear_q8(input, filter, *scale_in, bias, Activation::Relu)
            .map_err(|e| geometry_err(e.to_string()))?,
        (_, PackedLayerWeights::Absent) => {
            return Err(geometry_err(
                "layer weights are not resident on this device".into(),
            ))
        }
        _ => {
            return Err(geometry_err(
                "packed weights do not match the layer op".into(),
            ))
        }
    };
    Ok(t)
}

/// [`run_layer_rows_packed`] at full height.
fn run_whole_layer(layer: &Layer, packed: &PackedLayerWeights, input: &Tensor) -> Result<Tensor> {
    run_layer_rows_packed(layer, packed, input, 0, 0, layer.output.h)
}

/// The raw-weight loop: hands `run` each layer of `model` with its weights
/// packed on the f32 routes.  A layer's panels are dropped before the next
/// layer packs, so at most one conv layer's panels are alive; an FC layer
/// runs on the raw weights themselves.
fn each_layer_packed(
    model: &Model,
    weights: &ModelWeights,
    mut run: impl FnMut(&Layer, &PackedLayerWeights) -> Result<()>,
) -> Result<()> {
    check_layer_count(model, weights)?;
    for (layer, (w, b)) in model.layers().iter().zip(&weights.layers) {
        let packed = PackedModelWeights::pack_layer(layer, w.clone(), b.clone(), None)?;
        run(layer, &packed)?;
    }
    Ok(())
}

/// Runs the full model from raw weights, returning the output of every
/// layer (index `i` holds the output of layer `i`) — the single-device f32
/// reference.  Packs layer by layer (`each_layer_packed`); to run a model
/// more than once, pack it once and call [`run_full_packed`].
pub fn run_full(model: &Model, weights: &ModelWeights, input: &Tensor) -> Result<Vec<Tensor>> {
    let mut outputs: Vec<Tensor> = Vec::with_capacity(model.len());
    each_layer_packed(model, weights, |layer, packed| {
        let out = run_whole_layer(layer, packed, outputs.last().unwrap_or(input))?;
        outputs.push(out);
        Ok(())
    })?;
    Ok(outputs)
}

/// Runs the full model from prepacked weights, returning the final output —
/// the single-device reference for packed (including quantized) execution.
pub fn run_full_packed(
    model: &Model,
    packed: &PackedModelWeights,
    input: &Tensor,
) -> Result<Tensor> {
    run_layers_packed(model.layers(), packed, input)
}

/// Chains whole-layer packed execution over `layers`.  The first layer
/// reads `input` in place — no copy before the first kernel; an empty
/// chain returns the input unchanged.
fn run_layers_packed(
    layers: &[Layer],
    packed: &PackedModelWeights,
    input: &Tensor,
) -> Result<Tensor> {
    let run = |layer: &Layer, x: &Tensor| run_whole_layer(layer, &packed.layers()[layer.index], x);
    let Some((first, rest)) = layers.split_first() else {
        return Ok(input.clone());
    };
    let mut current = run(first, input)?;
    for layer in rest {
        current = run(layer, &current)?;
    }
    Ok(current)
}

/// Runs one split-part of a layer-volume.
///
/// `volume_input` is the *full* input feature map of the volume (the model
/// input for the first volume, the previous volume's stitched output
/// otherwise); the part extracts exactly the rows its [`PartPlan`] requires
/// and runs [`run_part_on_band_packed`] on them.  Returns `None` for an
/// empty part.
pub fn run_part(
    model: &Model,
    packed: &PackedModelWeights,
    plan: &PartPlan,
    volume_input: &Tensor,
) -> Result<Option<Tensor>> {
    if plan.is_empty() {
        return Ok(None);
    }
    let (in_lo, in_hi) = plan.input_rows;
    let band = slice_rows(volume_input, in_lo, in_hi)
        .map_err(|e| crate::ModelError::InvalidSplit(e.to_string()))?;
    run_part_on_band_packed(model, packed, plan, band).map(Some)
}

/// Runs one split-part directly on its input band over deploy-time
/// [`PackedModelWeights`] — the entry point the distributed runtime's
/// compute threads use, where a provider only ever holds the halo band
/// `[plan.input_rows.0, plan.input_rows.1)` it received over the wire, never
/// the full volume input.
///
/// `band` must carry exactly the rows `plan.input_rows` of the volume input.
/// Takes the band by value: the caller (the runtime's compute thread, or
/// `run_part`) owns it and never needs it afterwards, so the hot path pays
/// no copy before the first kernel.
pub fn run_part_on_band_packed(
    model: &Model,
    packed: &PackedModelWeights,
    plan: &PartPlan,
    band: Tensor,
) -> Result<Tensor> {
    let (in_lo, in_hi) = plan.input_rows;
    if plan.is_empty() {
        return Err(crate::ModelError::InvalidSplit(
            "run_part_on_band_packed called on an empty part".into(),
        ));
    }
    if band.height() != in_hi - in_lo {
        return Err(crate::ModelError::InvalidSplit(format!(
            "band carries {} rows, part needs rows {in_lo}..{in_hi}",
            band.height()
        )));
    }
    let mut band = band;
    let mut band_offset = in_lo;
    for lr in &plan.layers {
        let layer = &model.layers()[lr.layer];
        let w = &packed.layers()[lr.layer];
        let (out_lo, out_hi) = lr.out_rows;
        band = run_layer_rows_packed(layer, w, &band, band_offset, out_lo, out_hi)?;
        band_offset = out_lo;
    }
    Ok(band)
}

/// Runs the model's FC head (the layers past the distributable prefix) on
/// the stitched output of the last layer-volume — what the head device's
/// compute thread runs per frame.  Returns the input unchanged for models
/// without a head.
pub fn run_head_packed(
    model: &Model,
    packed: &PackedModelWeights,
    stitched: &Tensor,
) -> Result<Tensor> {
    run_layers_packed(model.head_layers(), packed, stitched)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::volume::{LayerVolume, PartitionScheme, VolumeSplit};
    use tensor::slice::concat_rows;
    use tensor::Shape;

    fn small_model() -> Model {
        Model::new(
            "exec-test",
            Shape::new(2, 20, 16),
            &[
                LayerOp::conv(4, 3, 1, 1),
                LayerOp::conv(4, 3, 1, 1),
                LayerOp::pool(2, 2),
                LayerOp::conv(6, 3, 1, 1),
                LayerOp::fc(5),
            ],
        )
        .unwrap()
    }

    #[test]
    fn run_full_produces_expected_shapes() {
        let m = small_model();
        let w = ModelWeights::deterministic(&m, 7);
        let input = deterministic_input(&m, 7);
        let outs = run_full(&m, &w, &input).unwrap();
        assert_eq!(outs.len(), 5);
        assert_eq!(outs[0].shape(), [4, 20, 16]);
        assert_eq!(outs[2].shape(), [4, 10, 8]);
        assert_eq!(outs[3].shape(), [6, 10, 8]);
        assert_eq!(outs[4].shape(), [5, 1, 1]);
    }

    #[test]
    fn sharded_weights_keep_indexing_and_drop_bytes() {
        use std::collections::HashSet;
        let m = small_model();
        let w = ModelWeights::deterministic(&m, 21);
        let keep: HashSet<usize> = [0, 2].into_iter().collect();
        let sharded = w.shard(&keep);
        assert_eq!(sharded.layers.len(), w.layers.len());
        assert_eq!(sharded.layers[0], w.layers[0]);
        assert!(sharded.layers[1].0.is_empty() && sharded.layers[1].1.is_empty());
        assert!(sharded.resident_bytes() < w.resident_bytes());
        // A part that only runs kept layers executes bit-exact on the shard.
        let v = LayerVolume::new(0, 1);
        let input = deterministic_input(&m, 21);
        let plan = PartPlan::plan(&m, v, 0, v.last_output_height(&m)).unwrap();
        let pack = |w: &ModelWeights| PackedModelWeights::pack(&m, w).unwrap();
        let full = run_part(&m, &pack(&w), &plan, &input).unwrap().unwrap();
        let shard_out = run_part(&m, &pack(&sharded), &plan, &input)
            .unwrap()
            .unwrap();
        assert_eq!(full, shard_out);
    }

    #[test]
    fn weights_are_deterministic() {
        let m = small_model();
        let a = ModelWeights::deterministic(&m, 42);
        let b = ModelWeights::deterministic(&m, 42);
        assert_eq!(a.layers[0].0, b.layers[0].0);
        let c = ModelWeights::deterministic(&m, 43);
        assert_ne!(a.layers[0].0, c.layers[0].0);
    }

    #[test]
    fn split_parts_stitch_to_full_output() {
        let m = small_model();
        let w = ModelWeights::deterministic(&m, 11);
        let input = deterministic_input(&m, 11);
        let full = run_full(&m, &w, &input).unwrap();
        let packed = PackedModelWeights::pack(&m, &w).unwrap();

        // Two volumes: [0,3) and [3,4); split each across 3 devices.
        let scheme = PartitionScheme::new(&m, vec![0, 3, 4]).unwrap();
        let mut volume_input = input.clone();
        for volume in scheme.volumes() {
            let h_last = volume.last_output_height(&m);
            let split = VolumeSplit::new(vec![h_last / 4, h_last / 2], h_last);
            let plans = PartPlan::plan_all(&m, volume, &split).unwrap();
            let mut parts = Vec::new();
            for plan in &plans {
                if let Some(out) = run_part(&m, &packed, plan, &volume_input).unwrap() {
                    parts.push(out);
                }
            }
            let stitched = concat_rows(&parts).unwrap();
            let reference = &full[volume.end - 1];
            assert!(
                stitched.approx_eq(reference, 1e-4),
                "volume {:?} mismatch: {}",
                volume,
                stitched.max_abs_diff(reference).unwrap()
            );
            volume_input = stitched;
        }
    }

    #[test]
    fn empty_part_returns_none() {
        let m = small_model();
        let w = ModelWeights::deterministic(&m, 3);
        let packed = PackedModelWeights::pack(&m, &w).unwrap();
        let input = deterministic_input(&m, 3);
        let v = LayerVolume::new(0, 3);
        let plan = PartPlan::plan(&m, v, 5, 5).unwrap();
        assert!(run_part(&m, &packed, &plan, &input).unwrap().is_none());
    }

    #[test]
    fn single_device_split_equals_full_volume() {
        let m = small_model();
        let w = ModelWeights::deterministic(&m, 9);
        let input = deterministic_input(&m, 9);
        let full = run_full(&m, &w, &input).unwrap();
        let v = LayerVolume::new(0, 4);
        let plan = PartPlan::plan(&m, v, 0, v.last_output_height(&m)).unwrap();
        let packed = PackedModelWeights::pack(&m, &w).unwrap();
        let out = run_part(&m, &packed, &plan, &input).unwrap().unwrap();
        assert!(out.approx_eq(&full[3], 1e-4));
    }

    #[test]
    fn run_part_on_band_matches_run_part() {
        // The runtime's entry point: the part executes on just its halo
        // band (what arrived over the wire), never the full volume input.
        let m = small_model();
        let w = ModelWeights::deterministic(&m, 13);
        let packed = PackedModelWeights::pack(&m, &w).unwrap();
        let input = deterministic_input(&m, 13);
        let v = LayerVolume::new(0, 3);
        let h = v.last_output_height(&m);
        let plan = PartPlan::plan(&m, v, h / 3, h).unwrap();
        let via_full = run_part(&m, &packed, &plan, &input).unwrap().unwrap();
        let band = slice_rows(&input, plan.input_rows.0, plan.input_rows.1).unwrap();
        let via_band = run_part_on_band_packed(&m, &packed, &plan, band).unwrap();
        assert_eq!(via_band, via_full);
    }

    #[test]
    fn packing_a_shard_marks_dropped_layers_absent() {
        use std::collections::HashSet;
        let m = small_model();
        let w = ModelWeights::deterministic(&m, 33);
        let keep: HashSet<usize> = [0, 2].into_iter().collect();
        let packed = PackedModelWeights::pack(&m, &w.shard(&keep)).unwrap();
        assert!(packed.is_resident(0));
        assert!(!packed.is_resident(1));
        assert!(packed.is_resident(2), "pool layers are always resident");
        assert!(!packed.is_resident(3));
        assert_eq!(packed.packed_layer_count(), 1); // layer 0 only (2 is a pool)
        assert!(packed.resident_bytes() > 0);
        // Executing a non-resident layer fails loudly instead of corrupting.
        let v = LayerVolume::new(1, 2);
        let input = deterministic_input(&m, 33);
        let l0_out = run_full(&m, &w, &input).unwrap().remove(0);
        let plan = PartPlan::plan(&m, v, 0, v.last_output_height(&m)).unwrap();
        let band = slice_rows(&l0_out, plan.input_rows.0, plan.input_rows.1).unwrap();
        assert!(run_part_on_band_packed(&m, &packed, &plan, band).is_err());
    }

    #[test]
    fn a_packed_shard_equals_packing_the_raw_shard_and_shares_its_panels() {
        for (m, quantize) in [(small_model(), false), (quantizable_model(), true)] {
            let w = ModelWeights::deterministic(&m, 34);
            let spec = quantize.then(|| QuantSpec::calibrate(&m, &w).unwrap());
            let full = PackedModelWeights::pack_with(&m, &w, spec.as_ref()).unwrap();
            assert_eq!(full.panel_holders(), 1);
            let keep: HashSet<usize> = [0, 3].into_iter().collect();
            let shard = full.shard(&keep);
            let packed_raw_shard =
                PackedModelWeights::pack_with(&m, &w.shard(&keep), spec.as_ref()).unwrap();
            assert_eq!(shard, packed_raw_shard);
            assert_eq!(shard.quant(), spec.as_ref());
            match (&shard.layers()[0], &full.layers()[0]) {
                (
                    PackedLayerWeights::Conv {
                        filter: a,
                        bias: ba,
                    },
                    PackedLayerWeights::Conv {
                        filter: b,
                        bias: bb,
                    },
                ) => assert!(Arc::ptr_eq(a, b) && Arc::ptr_eq(ba, bb)),
                other => panic!("layer 0 must pack as Conv, got {other:?}"),
            }
            assert_eq!(full.panel_holders(), 2);
            drop(shard);
            assert_eq!(full.panel_holders(), 1);
        }
    }

    #[test]
    fn install_layer_repacks_exactly_one_layer() {
        use std::collections::HashSet;
        let m = small_model();
        let w = ModelWeights::deterministic(&m, 35);
        let keep: HashSet<usize> = [0, 2].into_iter().collect();
        let mut packed = PackedModelWeights::pack(&m, &w.shard(&keep)).unwrap();
        assert!(!packed.is_resident(1));
        packed
            .install_layer(&m, 1, w.layers[1].0.clone(), w.layers[1].1.clone())
            .unwrap();
        assert!(packed.is_resident(1));
        assert_eq!(packed.packed_layer_count(), 2);
        // The freshly installed layer computes exactly what a full pack does.
        let full_pack = PackedModelWeights::pack(&m, &w).unwrap();
        let input = deterministic_input(&m, 35);
        let l0_out = run_full(&m, &w, &input).unwrap().remove(0);
        let v = LayerVolume::new(1, 2);
        let plan = PartPlan::plan(&m, v, 0, v.last_output_height(&m)).unwrap();
        let band = slice_rows(&l0_out, plan.input_rows.0, plan.input_rows.1).unwrap();
        let a = run_part_on_band_packed(&m, &packed, &plan, band.clone()).unwrap();
        let b = run_part_on_band_packed(&m, &full_pack, &plan, band).unwrap();
        assert_eq!(a, b);
        // An FC layer installed from a delta shard is the full pack's layer
        // bit for bit: same panels, same head output.
        packed
            .install_layer(&m, 4, w.layers[4].0.clone(), w.layers[4].1.clone())
            .unwrap();
        match (&packed.layers()[4], &full_pack.layers()[4]) {
            (
                PackedLayerWeights::Fc {
                    filter: a,
                    bias: ba,
                },
                PackedLayerWeights::Fc {
                    filter: b,
                    bias: bb,
                },
            ) => {
                assert_eq!(a, b);
                assert_eq!(ba, bb);
            }
            other => panic!("layer 4 must pack as Fc on both sides, got {other:?}"),
        }
        let prefix_out = &run_full(&m, &w, &input).unwrap()[m.distributable_len() - 1];
        assert_eq!(
            run_head_packed(&m, &packed, prefix_out).unwrap(),
            run_head_packed(&m, &full_pack, prefix_out).unwrap()
        );
        // Out-of-range installs are rejected.
        let none = LayerWeights::default();
        assert!(packed.install_layer(&m, 99, none.0, none.1).is_err());
    }

    fn quantizable_model() -> Model {
        Model::new(
            "quant-test",
            Shape::new(8, 16, 16),
            &[
                LayerOp::conv(16, 3, 1, 1), // K = 8·9 = 72 → int8
                LayerOp::conv(16, 3, 1, 1), // K = 144 → int8
                LayerOp::pool(2, 2),
                LayerOp::fc(10), // in = 16·8·8 = 1024 → int8
            ],
        )
        .unwrap()
    }

    #[test]
    fn calibrated_spec_follows_the_routing_policy() {
        let m = quantizable_model();
        let w = ModelWeights::deterministic(&m, 41);
        let spec = QuantSpec::calibrate(&m, &w).unwrap();
        assert_eq!(spec.quantized_layer_count(), 3);
        assert!(spec.layer_scale(0).is_some());
        assert!(spec.layer_scale(2).is_none(), "pool layers never quantize");
        assert!(spec.layer_scale(3).is_some());
        // A shallow stem stays f32: K = 2·9 = 18 < CONV_MIN_K.
        let shallow = small_model();
        let sw = ModelWeights::deterministic(&shallow, 41);
        let sspec = QuantSpec::calibrate(&shallow, &sw).unwrap();
        assert!(sspec.layer_scale(0).is_none());
    }

    #[test]
    fn a_spec_rejects_scales_no_calibration_produces() {
        assert_eq!(
            QuantSpec::new(vec![0.0, 0.5]).unwrap().layer_scale(1),
            Some(0.5)
        );
        for bad in [f32::NAN, f32::INFINITY, -0.25] {
            let err = QuantSpec::new(vec![0.0, 0.5, bad]).unwrap_err();
            assert!(
                matches!(err, crate::ModelError::InvalidGeometry { layer: 2, .. }),
                "{bad}: {err}"
            );
        }
    }

    #[test]
    fn layerwise_calibration_is_bit_identical_to_the_run_full_oracle() {
        for (m, seed) in [(quantizable_model(), 41u64), (crate::zoo::tiny_vgg(), 7)] {
            let w = ModelWeights::deterministic(&m, seed);
            let spec = QuantSpec::calibrate(&m, &w).unwrap();
            let oracle = QuantSpec::calibrate_via_run_full(&m, &w).unwrap();
            assert!(spec.quantized_layer_count() > 0, "{}", m.name());
            let bits = |s: &QuantSpec| s.scales().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&spec), bits(&oracle), "{}", m.name());
        }
    }

    #[test]
    fn shards_and_clones_share_storage_with_the_source() {
        use std::collections::HashSet;
        let m = small_model();
        let w = ModelWeights::deterministic(&m, 23);
        let keep: HashSet<usize> = [0, 3].into_iter().collect();
        let shard = w.shard(&keep);
        assert!(Arc::ptr_eq(&shard.layers[0].0, &w.layers[0].0));
        assert!(Arc::ptr_eq(&shard.layers[3].1, &w.layers[3].1));
        assert!(Arc::ptr_eq(&w.clone().layers[4].0, &w.layers[4].0));
        assert_eq!(w.resident_bytes_of(&keep), shard.resident_bytes());
        let all: Vec<usize> = (0..m.len()).collect();
        assert_eq!(w.resident_bytes_of(&all), w.resident_bytes());
    }

    #[test]
    fn pack_owned_equals_pack_with_and_releases_each_raw_layer() {
        for (m, quantize) in [(small_model(), false), (quantizable_model(), true)] {
            let w = ModelWeights::deterministic(&m, 37);
            let spec = quantize.then(|| QuantSpec::calibrate(&m, &w).unwrap());
            let borrowed = PackedModelWeights::pack_with(&m, &w, spec.as_ref()).unwrap();
            // A solely-owned copy: every layer must be dead after the pack.
            let owned_raw = ModelWeights {
                layers: w
                    .layers
                    .iter()
                    .map(|(w, b)| (Arc::from(&w[..]), Arc::from(&b[..])))
                    .collect(),
            };
            let handles: Vec<_> = owned_raw
                .layers
                .iter()
                .map(|(w, _)| Arc::downgrade(w))
                .collect();
            let owned = PackedModelWeights::pack_owned(&m, owned_raw, spec.as_ref()).unwrap();
            assert_eq!(owned, borrowed, "one packing implementation, equal panels");
            assert_eq!(owned.resident_bytes(), borrowed.resident_bytes());
            // Every raw layer that was packed is gone; an f32 FC layer is
            // not packed — it *is* the filter.
            for (h, packed) in handles.iter().zip(owned.layers()) {
                match packed {
                    PackedLayerWeights::Fc { filter, .. } => {
                        let raw = h.upgrade().expect("the filter holds the raw FC layer");
                        assert_eq!(filter.data().as_ptr(), raw.as_ptr());
                    }
                    _ => assert!(h.upgrade().is_none()),
                }
            }
            // `pack_with` left the caller's layers alive and untouched; the
            // borrowed pack shares its f32 FC layers.
            assert_eq!(w.layers.len(), m.len());
            for ((lw, _), packed) in w.layers.iter().zip(borrowed.layers()) {
                let holders = matches!(packed, PackedLayerWeights::Fc { .. }) as usize + 1;
                assert_eq!(Arc::strong_count(lw), holders);
            }
        }
    }

    #[test]
    fn pack_with_reads_the_callers_fc_weights_in_place() {
        let m = small_model();
        let w = ModelWeights::deterministic(&m, 41);
        let packed = PackedModelWeights::pack_with(&m, &w, None).unwrap();
        let mut fc = 0;
        for (layer, (lw, lb)) in packed.layers().iter().zip(&w.layers) {
            if let PackedLayerWeights::Fc { filter, bias } = layer {
                assert_eq!(filter.data().as_ptr(), lw.as_ptr(), "FC weights copied");
                assert!(Arc::ptr_eq(bias, lb), "FC bias copied");
                fc += 1;
            }
        }
        assert!(fc > 0, "the model has an f32 FC head");
        // The pack's residency counts those shared bytes, as the caller's
        // does: no padding, no second copy.
        let fc_layers: Vec<usize> = (0..m.len())
            .filter(|&l| matches!(packed.layers()[l], PackedLayerWeights::Fc { .. }))
            .collect();
        let keep = fc_layers.iter().copied().collect();
        let fc_pack = PackedModelWeights::pack_with(&m, &w.shard(&keep), None).unwrap();
        assert_eq!(fc_pack.resident_bytes(), w.resident_bytes_of(&fc_layers));
    }

    #[test]
    fn install_layer_matches_a_fresh_pack_layer_for_layer() {
        use std::collections::HashSet;
        for (m, quantize) in [(small_model(), false), (quantizable_model(), true)] {
            let w = ModelWeights::deterministic(&m, 39);
            let spec = quantize.then(|| QuantSpec::calibrate(&m, &w).unwrap());
            let full = PackedModelWeights::pack_with(&m, &w, spec.as_ref()).unwrap();
            let mut grown =
                PackedModelWeights::pack_owned(&m, w.shard(&HashSet::new()), spec.as_ref())
                    .unwrap();
            for (i, (lw, lb)) in w.layers.iter().enumerate() {
                grown.install_layer(&m, i, lw.clone(), lb.clone()).unwrap();
            }
            assert_eq!(grown, full);
        }
    }

    #[test]
    fn quantized_pack_shrinks_resident_bytes() {
        let m = quantizable_model();
        let w = ModelWeights::deterministic(&m, 43);
        let spec = QuantSpec::calibrate(&m, &w).unwrap();
        let f32_pack = PackedModelWeights::pack(&m, &w).unwrap();
        let q_pack = PackedModelWeights::pack_with(&m, &w, Some(&spec)).unwrap();
        let shrink = f32_pack.resident_bytes() as f64 / q_pack.resident_bytes() as f64;
        assert!(shrink >= 3.0, "resident shrink only {shrink:.2}×");
    }

    #[test]
    fn quantized_run_tracks_f32_reference() {
        let m = quantizable_model();
        let w = ModelWeights::deterministic(&m, 47);
        let spec = QuantSpec::calibrate(&m, &w).unwrap();
        let q_pack = PackedModelWeights::pack_with(&m, &w, Some(&spec)).unwrap();
        let input = deterministic_input(&m, 47);
        let oracle = run_full(&m, &w, &input).unwrap().pop().unwrap();
        let quantized = run_full_packed(&m, &q_pack, &input).unwrap();
        assert_eq!(quantized.shape(), oracle.shape());
        let scale: f32 = oracle.data().iter().fold(0.1f32, |a, v| a.max(v.abs()));
        let diff = quantized.max_abs_diff(&oracle).unwrap();
        assert!(
            diff <= 0.05 * scale,
            "quantized output drifts {diff} (range {scale})"
        );
    }

    #[test]
    fn quantized_bands_stitch_bitwise_and_install_keeps_spec() {
        let m = quantizable_model();
        let w = ModelWeights::deterministic(&m, 53);
        let spec = QuantSpec::calibrate(&m, &w).unwrap();
        let q_pack = PackedModelWeights::pack_with(&m, &w, Some(&spec)).unwrap();
        assert_eq!(q_pack.quant(), Some(&spec));
        let input = deterministic_input(&m, 53);
        // Three bands over the conv prefix stitch to the one-band run
        // bitwise — every device quantizes against the same static scales.
        let v = LayerVolume::new(0, m.distributable_len());
        let h = v.last_output_height(&m);
        let whole = {
            let plan = PartPlan::plan(&m, v, 0, h).unwrap();
            let band = slice_rows(&input, plan.input_rows.0, plan.input_rows.1).unwrap();
            run_part_on_band_packed(&m, &q_pack, &plan, band).unwrap()
        };
        let mut parts = Vec::new();
        for (lo, hi) in [(0, h / 3), (h / 3, 2 * h / 3), (2 * h / 3, h)] {
            let plan = PartPlan::plan(&m, v, lo, hi).unwrap();
            let band = slice_rows(&input, plan.input_rows.0, plan.input_rows.1).unwrap();
            parts.push(run_part_on_band_packed(&m, &q_pack, &plan, band).unwrap());
        }
        let stitched = concat_rows(&parts).unwrap();
        assert_eq!(stitched, whole, "quantized bands must stitch bitwise");
        // A Reconfigure delta repacks onto the same int8 path.
        let mut repacked = q_pack.clone();
        repacked
            .install_layer(&m, 3, w.layers[3].0.clone(), w.layers[3].1.clone())
            .unwrap();
        assert!(matches!(
            repacked.layers()[3],
            PackedLayerWeights::QFc { .. }
        ));
        let a = run_full_packed(&m, &q_pack, &input).unwrap();
        let b = run_full_packed(&m, &repacked, &input).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn run_part_on_band_rejects_wrong_band_height() {
        let m = small_model();
        let w = ModelWeights::deterministic(&m, 13);
        let packed = PackedModelWeights::pack(&m, &w).unwrap();
        let input = deterministic_input(&m, 13);
        let v = LayerVolume::new(0, 3);
        let plan = PartPlan::plan(&m, v, 0, 4).unwrap();
        let wrong = slice_rows(&input, 0, 2).unwrap();
        assert!(run_part_on_band_packed(&m, &packed, &plan, wrong).is_err());
        let empty = PartPlan::plan(&m, v, 4, 4).unwrap();
        assert!(run_part_on_band_packed(&m, &packed, &empty, input.clone()).is_err());
    }

    #[test]
    fn run_head_matches_full_model_tail() {
        let m = small_model();
        let w = ModelWeights::deterministic(&m, 17);
        let input = deterministic_input(&m, 17);
        let full = run_full(&m, &w, &input).unwrap();
        // The head consumes the last distributable layer's output.
        let prefix_out = &full[m.distributable_len() - 1];
        let packed = PackedModelWeights::pack(&m, &w).unwrap();
        let head_out = run_head_packed(&m, &packed, prefix_out).unwrap();
        assert_eq!(&head_out, full.last().unwrap());
    }

    #[test]
    fn run_head_is_identity_without_head() {
        let m = Model::new(
            "nohead",
            Shape::new(2, 8, 8),
            &[LayerOp::conv(3, 3, 1, 1), LayerOp::pool(2, 2)],
        )
        .unwrap();
        let w = ModelWeights::deterministic(&m, 1);
        let packed = PackedModelWeights::pack(&m, &w).unwrap();
        let t = deterministic_input(&m, 1);
        assert_eq!(run_head_packed(&m, &packed, &t).unwrap(), t);
    }
}
