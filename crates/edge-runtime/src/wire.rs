//! The binary wire format: length-prefixed frames carrying tensor slabs,
//! tagged with the plan epoch they belong to.
//!
//! Every message between endpoints is one frame:
//!
//! ```text
//! [len: u32]                      -- bytes after this field
//! [magic: u16 = 0xED6E]           -- "edge"
//! [kind: u8]                      -- Rows / Result / Halt / Reconfigure /
//!                                    EpochAck
//! [epoch: u64]                    -- plan epoch the frame belongs to
//! [image: u32]                    -- image sequence number (device index
//!                                    for EpochAck frames)
//! [stage: u32]                    -- volume index the rows feed
//!                                    (num_volumes = head gather / result)
//! [row_lo: u32]                   -- first carried row, full coordinates
//! [body]                          -- tensor::slab encoding of the band,
//!                                    or the raw ReconfigurePayload bytes
//!                                    for Reconfigure frames
//! ```
//!
//! The carried band is `[c, rows, w]`; `row_hi` is implied by `row_lo` plus
//! the slab height.  `Reconfigure` frames carry a [`ReconfigurePayload`]
//! instead of a slab: the next epoch's execution plan plus only the weight
//! layers the receiving device does not already hold resident (the delta
//! shard), so a hot plan swap never re-ships weights a device kept from an
//! earlier epoch.
//!
//! A `Rows` frame with a [`Frame::scale`] (the plan epoch's decision,
//! [`crate::PlanEpoch`]) ships its band as a q8 slab — one i8 code per
//! element plus the scale, ~4× smaller — under the wire kind byte
//! [`KIND_ROWS_Q8`], not a flag on [`FrameKind`]: every decoder sees a
//! plain `Rows` frame.  Encoding quantizes the band straight into the
//! output; decoding dequantizes straight into [`Frame::tensor`], onto the
//! scale's grid.  `Result` frames always stay f32.

use crate::{Result, RuntimeError};
use cnn_model::exec::QuantSpec;
use cnn_model::Model;
use edgesim::ExecutionPlan;
use std::sync::Arc;
use tensor::ops::quant_scale;
use tensor::{slab, Tensor};

/// Frame magic (sanity check against stream desync).
pub const MAGIC: u16 = 0xED6E;

/// Upper bound on a frame's body length (bytes after the length prefix).
///
/// Weight-bearing `Reconfigure` payloads for paper-scale models run to
/// hundreds of megabytes, so the cap is generous — its job is to reject a
/// corrupt or adversarial length prefix *before* the allocation, not to
/// bound legitimate traffic.
pub const MAX_FRAME_LEN: usize = 1 << 30;

/// Rejects a length prefix larger than [`MAX_FRAME_LEN`] with a typed
/// protocol error, so a corrupt header cannot drive an unbounded allocation.
pub fn check_frame_len(len: usize) -> Result<()> {
    if len > MAX_FRAME_LEN {
        return Err(RuntimeError::transport_protocol(format!(
            "frame length {len} exceeds cap {MAX_FRAME_LEN}"
        )));
    }
    Ok(())
}

/// Byte length of the frame header after the length prefix
/// (magic + kind + epoch + image + stage + row_lo).
const HEADER_LEN: usize = 2 + 1 + 8 + 4 + 4 + 4;

/// What a frame carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// Rows of a volume's input feature map (or of the head gather).
    Rows,
    /// Rows of the final output, heading back to the requester.
    Result,
    /// Orderly shutdown marker.
    Halt,
    /// A plan swap: the next epoch's plan plus the delta weight shard the
    /// receiving device is missing (requester → provider).
    Reconfigure,
    /// A provider's confirmation that it installed an epoch
    /// (provider → requester; `image` carries the device index).
    EpochAck,
}

impl FrameKind {
    fn to_u8(self) -> u8 {
        match self {
            FrameKind::Rows => 0,
            FrameKind::Result => 1,
            FrameKind::Halt => 2,
            FrameKind::Reconfigure => 3,
            FrameKind::EpochAck => 4,
        }
    }

    fn from_u8(v: u8) -> Result<Self> {
        match v {
            0 => Ok(FrameKind::Rows),
            1 => Ok(FrameKind::Result),
            2 => Ok(FrameKind::Halt),
            3 => Ok(FrameKind::Reconfigure),
            4 => Ok(FrameKind::EpochAck),
            other => Err(RuntimeError::Wire(format!("unknown frame kind {other}"))),
        }
    }
}

/// Wire kind byte of a `Rows` frame whose body is a q8 slab.  Maps back to
/// [`FrameKind::Rows`] at decode; the quantized body is visible only via
/// [`Frame::scale`].
pub const KIND_ROWS_Q8: u8 = 5;

/// One wire message.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    /// What the frame carries.
    pub kind: FrameKind,
    /// Plan epoch the frame belongs to.  The swap protocol drains the old
    /// epoch and resumes admission only after every device installed the
    /// new one, so providers reject any data frame whose epoch differs
    /// from their installed epoch as a protocol violation.
    pub epoch: u64,
    /// Image sequence number (device index for `EpochAck` frames).
    pub image: u32,
    /// Volume index the carried rows feed (`num_volumes` for the head
    /// gather / final result).
    pub stage: u32,
    /// First carried row in full-feature-map coordinates.
    pub row_lo: u32,
    /// The row band, `[c, rows, w]` (empty for control frames).  A decoded
    /// q8 frame's band is its dequantized codes.
    pub tensor: Tensor,
    /// Raw payload of `Reconfigure` frames (empty for every other kind).
    pub payload: Vec<u8>,
    /// The step a `Rows` frame's band travels quantized at; `None` ships
    /// it f32 (every other kind always does).
    pub scale: Option<f32>,
}

impl Frame {
    /// A data frame (`Rows` / `Result`) carrying a row band.
    pub fn data(
        kind: FrameKind,
        epoch: u64,
        image: u32,
        stage: u32,
        row_lo: u32,
        tensor: Tensor,
    ) -> Self {
        Frame {
            kind,
            epoch,
            image,
            stage,
            row_lo,
            tensor,
            payload: Vec::new(),
            scale: None,
        }
    }

    /// The frame with its band travelling quantized at `scale` (`None`:
    /// f32).  Only a `Rows` frame travels quantized; encoding quantizes.
    pub fn at_scale(self, scale: Option<f32>) -> Self {
        Self { scale, ..self }
    }

    /// A `Rows` frame at the band's own max-abs scale, which serving never
    /// uses (a cut would change the answer); `e2e`'s codec timing calls it.
    pub fn rows_q8(epoch: u64, image: u32, stage: u32, row_lo: u32, tensor: &Tensor) -> Self {
        let scale = Some(quant_scale(tensor.data()));
        Self::data(FrameKind::Rows, epoch, image, stage, row_lo, tensor.clone()).at_scale(scale)
    }

    /// The halt marker.
    pub fn halt() -> Self {
        Self::data(FrameKind::Halt, 0, 0, 0, 0, Tensor::zeros([0, 0, 0]))
    }

    /// A plan-swap frame installing `epoch` with the given payload bytes.
    pub fn reconfigure(epoch: u64, payload: Vec<u8>) -> Self {
        Frame {
            kind: FrameKind::Reconfigure,
            epoch,
            image: 0,
            stage: 0,
            row_lo: 0,
            tensor: Tensor::zeros([0, 0, 0]),
            payload,
            scale: None,
        }
    }

    /// Device `d`'s confirmation that it installed `epoch`.
    pub fn epoch_ack(epoch: u64, device: usize) -> Self {
        Self::data(
            FrameKind::EpochAck,
            epoch,
            device as u32,
            0,
            0,
            Tensor::zeros([0, 0, 0]),
        )
    }

    /// One past the last carried row.
    pub fn row_hi(&self) -> usize {
        self.row_lo as usize + self.tensor.height()
    }

    fn body_len(&self) -> usize {
        let [c, h, w] = self.tensor.shape();
        let tail = if self.kind == FrameKind::Reconfigure {
            self.payload.len()
        } else if self.kind == FrameKind::Rows && self.scale.is_some() {
            slab::q8_slab_len(c, h, w)
        } else {
            slab::slab_len(c, h, w)
        };
        HEADER_LEN + tail
    }

    /// Byte length of [`Frame::encode`]'s output, without encoding.
    pub fn encoded_len(&self) -> usize {
        4 + self.body_len()
    }

    /// Encodes the frame, length prefix included; a q8 band is quantized
    /// straight into the output.
    pub fn encode(&self) -> Vec<u8> {
        let body_len = self.body_len();
        let scale = self.scale.filter(|_| self.kind == FrameKind::Rows);
        let mut out = Vec::with_capacity(4 + body_len);
        out.extend_from_slice(&(body_len as u32).to_le_bytes());
        out.extend_from_slice(&MAGIC.to_le_bytes());
        out.push(if scale.is_some() {
            KIND_ROWS_Q8
        } else {
            self.kind.to_u8()
        });
        out.extend_from_slice(&self.epoch.to_le_bytes());
        out.extend_from_slice(&self.image.to_le_bytes());
        out.extend_from_slice(&self.stage.to_le_bytes());
        out.extend_from_slice(&self.row_lo.to_le_bytes());
        if self.kind == FrameKind::Reconfigure {
            out.extend_from_slice(&self.payload);
        } else if let Some(scale) = scale {
            slab::write_q8_slab(&self.tensor, scale, &mut out);
        } else {
            slab::write_slab(&self.tensor, &mut out);
        }
        out
    }

    /// Decodes a frame body (the bytes *after* the length prefix).
    pub fn decode_body(body: &[u8]) -> Result<Self> {
        if body.len() < HEADER_LEN {
            return Err(RuntimeError::Wire(format!(
                "frame body too short: {} bytes",
                body.len()
            )));
        }
        let magic = u16::from_le_bytes([body[0], body[1]]);
        if magic != MAGIC {
            return Err(RuntimeError::Wire(format!("bad magic {magic:#06x}")));
        }
        let quantized = body[2] == KIND_ROWS_Q8;
        let kind = if quantized {
            FrameKind::Rows
        } else {
            FrameKind::from_u8(body[2])?
        };
        let u32_at =
            |at: usize| u32::from_le_bytes([body[at], body[at + 1], body[at + 2], body[at + 3]]);
        let epoch = u64::from_le_bytes([
            body[3], body[4], body[5], body[6], body[7], body[8], body[9], body[10],
        ]);
        let image = u32_at(11);
        let stage = u32_at(15);
        let row_lo = u32_at(19);
        let (tensor, payload, scale) = if kind == FrameKind::Reconfigure {
            (Tensor::zeros([0, 0, 0]), body[HEADER_LEN..].to_vec(), None)
        } else if quantized {
            let (tensor, scale) = slab::from_q8_slab(&body[HEADER_LEN..])
                .map_err(|e| RuntimeError::Wire(format!("bad q8 slab: {e}")))?;
            (tensor, Vec::new(), Some(scale))
        } else {
            let tensor = slab::from_slab(&body[HEADER_LEN..])
                .map_err(|e| RuntimeError::Wire(format!("bad slab: {e}")))?;
            (tensor, Vec::new(), None)
        };
        Ok(Frame {
            kind,
            epoch,
            image,
            stage,
            row_lo,
            tensor,
            payload,
            scale,
        })
    }

    /// Decodes a full encoding produced by [`Frame::encode`].
    pub fn decode(bytes: &[u8]) -> Result<Self> {
        if bytes.len() < 4 {
            return Err(RuntimeError::Wire("missing length prefix".into()));
        }
        let len = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]) as usize;
        check_frame_len(len)?;
        if bytes.len() != 4 + len {
            return Err(RuntimeError::Wire(format!(
                "length prefix {len} does not match body of {}",
                bytes.len() - 4
            )));
        }
        Self::decode_body(&bytes[4..])
    }
}

/// One layer's weights shipped in a plan swap: a layer the receiving device
/// needs under the new plan but does not hold resident from earlier epochs.
///
/// The values are the same shared storage [`cnn_model::exec::ModelWeights`]
/// holds: building a delta from a session's weights is a refcount bump, and
/// a decoded delta moves into a node's weight shard without another copy.
#[derive(Debug, Clone, PartialEq)]
pub struct WeightDelta {
    /// Model-wide index of the layer.
    pub layer: usize,
    /// The layer's weights.
    pub weights: Arc<[f32]>,
    /// The layer's bias.
    pub bias: Arc<[f32]>,
}

impl WeightDelta {
    /// Bytes of weight data this delta ships.
    pub fn bytes(&self) -> usize {
        (self.weights.len() + self.bias.len()) * std::mem::size_of::<f32>()
    }
}

/// The body of a [`FrameKind::Reconfigure`] frame: the next epoch's plan
/// plus only the weight layers the receiving device is missing.
///
/// Encoding: `[plan_json_len: u32][plan JSON][n: u32]` followed by `n`
/// entries of `[layer: u32][w_len: u32][b_len: u32][w: f32s][b: f32s]`,
/// then an optional quantization section `[flag: u8 = 1][n: u32][scales:
/// f32s]` (absent or `flag = 0` means the epoch runs f32).  The plan rides
/// as JSON (it is small and already serde-enabled); the weight data — the
/// bulk of the payload — is raw little-endian f32.  Payloads from older
/// peers simply end after the delta entries and decode with no quant spec,
/// so f32 and int8 builds interoperate.
#[derive(Debug, Clone, PartialEq)]
pub struct ReconfigurePayload {
    /// The execution plan of the new epoch.
    pub plan: ExecutionPlan,
    /// Weight layers the receiving device must add to its resident set.
    pub delta: Vec<WeightDelta>,
    /// Per-layer activation scales when the epoch serves quantized; the
    /// receiver packs its shard against these, and its `Rows` frames into
    /// an int8 layer travel at that layer's scale.
    pub quant: Option<QuantSpec>,
}

impl ReconfigurePayload {
    /// Bytes of weight data shipped (the delta-shard size, excluding the
    /// plan itself).
    pub fn delta_bytes(&self) -> usize {
        self.delta.iter().map(WeightDelta::bytes).sum()
    }

    /// What decoding alone cannot check: that the quant spec, if any, has
    /// one scale per layer of the `model` the payload is about to be
    /// installed on.  A shorter spec would leave the layers past its end on
    /// the f32 path on this device while its peers run them int8.
    pub fn check_against(&self, model: &Model) -> Result<()> {
        match &self.quant {
            Some(spec) if spec.scales().len() != model.len() => Err(RuntimeError::Wire(format!(
                "quant section carries {} scales for a {}-layer model",
                spec.scales().len(),
                model.len()
            ))),
            _ => Ok(()),
        }
    }

    /// Encodes the payload.
    pub fn encode(&self) -> Result<Vec<u8>> {
        let plan_json = serde_json::to_string(&self.plan)
            .map_err(|e| RuntimeError::Wire(format!("plan serialization failed: {e}")))?;
        let mut out = Vec::with_capacity(4 + plan_json.len() + 4 + self.delta_bytes());
        out.extend_from_slice(&(plan_json.len() as u32).to_le_bytes());
        out.extend_from_slice(plan_json.as_bytes());
        out.extend_from_slice(&(self.delta.len() as u32).to_le_bytes());
        for d in &self.delta {
            out.extend_from_slice(&(d.layer as u32).to_le_bytes());
            out.extend_from_slice(&(d.weights.len() as u32).to_le_bytes());
            out.extend_from_slice(&(d.bias.len() as u32).to_le_bytes());
            for v in d.weights.iter().chain(d.bias.iter()) {
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
        match &self.quant {
            Some(spec) => {
                out.push(1);
                out.extend_from_slice(&(spec.scales().len() as u32).to_le_bytes());
                for s in spec.scales() {
                    out.extend_from_slice(&s.to_le_bytes());
                }
            }
            None => out.push(0),
        }
        Ok(out)
    }

    /// Decodes a payload produced by [`ReconfigurePayload::encode`].
    pub fn decode(bytes: &[u8]) -> Result<Self> {
        let mut at = 0usize;
        let read_u32 = |bytes: &[u8], at: &mut usize| -> Result<u32> {
            let end = *at + 4;
            if end > bytes.len() {
                return Err(RuntimeError::Wire("reconfigure payload truncated".into()));
            }
            let v =
                u32::from_le_bytes([bytes[*at], bytes[*at + 1], bytes[*at + 2], bytes[*at + 3]]);
            *at = end;
            Ok(v)
        };
        // Collects straight into the caller's container: `chunks_exact` is
        // exact-size, so an `Arc<[f32]>` target is allocated once and
        // filled in place — no `Vec` → `Arc` re-copy of a weight layer.
        fn read_f32s<C: FromIterator<f32>>(bytes: &[u8], at: &mut usize, n: usize) -> Result<C> {
            let end = *at + n * 4;
            if end > bytes.len() {
                return Err(RuntimeError::Wire("reconfigure payload truncated".into()));
            }
            let out = bytes[*at..end]
                .chunks_exact(4)
                .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
                .collect();
            *at = end;
            Ok(out)
        }

        let plan_len = read_u32(bytes, &mut at)? as usize;
        if at + plan_len > bytes.len() {
            return Err(RuntimeError::Wire("reconfigure payload truncated".into()));
        }
        let plan_json = std::str::from_utf8(&bytes[at..at + plan_len])
            .map_err(|e| RuntimeError::Wire(format!("plan JSON not UTF-8: {e}")))?;
        let plan: ExecutionPlan = serde_json::from_str(plan_json)
            .map_err(|e| RuntimeError::Wire(format!("plan deserialization failed: {e}")))?;
        at += plan_len;

        let n = read_u32(bytes, &mut at)? as usize;
        // Every entry carries at least its 12-byte header, so a count the
        // remaining bytes cannot hold is refused before it sizes anything.
        if n > (bytes.len() - at) / 12 {
            return Err(RuntimeError::Wire(format!(
                "reconfigure payload claims {n} deltas in {} bytes",
                bytes.len() - at
            )));
        }
        let mut delta = Vec::with_capacity(n);
        for _ in 0..n {
            let layer = read_u32(bytes, &mut at)? as usize;
            let w_len = read_u32(bytes, &mut at)? as usize;
            let b_len = read_u32(bytes, &mut at)? as usize;
            let weights = read_f32s(bytes, &mut at, w_len)?;
            let bias = read_f32s(bytes, &mut at, b_len)?;
            delta.push(WeightDelta {
                layer,
                weights,
                bias,
            });
        }
        // The quantization section is optional: payloads from builds that
        // predate int8 serving end right after the delta entries.
        let quant = if at == bytes.len() {
            None
        } else {
            let flag = bytes[at];
            at += 1;
            match flag {
                0 => None,
                1 => {
                    let n = read_u32(bytes, &mut at)? as usize;
                    let spec = QuantSpec::new(read_f32s(bytes, &mut at, n)?)
                        .map_err(|e| RuntimeError::Wire(format!("bad quant section: {e}")))?;
                    Some(spec)
                }
                other => {
                    return Err(RuntimeError::Wire(format!(
                        "unknown quant section flag {other}"
                    )))
                }
            }
        };
        if at != bytes.len() {
            return Err(RuntimeError::Wire(format!(
                "reconfigure payload has {} trailing bytes",
                bytes.len() - at
            )));
        }
        Ok(Self { plan, delta, quant })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::read_raw_frame;

    /// The next frame off a byte stream, read the way every socket reader
    /// reads it.
    fn read_frame(r: &mut impl std::io::Read) -> Result<Option<Frame>> {
        read_raw_frame(r)?.map(|b| Frame::decode(&b)).transpose()
    }

    fn sample_frame() -> Frame {
        Frame::data(
            FrameKind::Rows,
            5,
            42,
            3,
            17,
            Tensor::from_fn([2, 4, 5], |c, y, x| (c * 100 + y * 10 + x) as f32 * 0.5),
        )
    }

    #[test]
    fn encode_decode_roundtrip() {
        let f = sample_frame();
        let bytes = f.encode();
        assert_eq!(bytes.len(), f.encoded_len());
        let back = Frame::decode(&bytes).unwrap();
        assert_eq!(back, f);
        assert_eq!(back.row_hi(), 21);
        assert_eq!(back.epoch, 5);
    }

    #[test]
    fn stream_roundtrip_multiple_frames() {
        let a = sample_frame();
        let b = Frame::halt();
        let buf = [a.encode(), b.encode()].concat();
        let mut cursor = &buf[..];
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), a);
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), b);
        assert!(read_frame(&mut cursor).unwrap().is_none());
    }

    #[test]
    fn rejects_bad_magic() {
        let mut bytes = sample_frame().encode();
        bytes[4] ^= 0xFF;
        assert!(Frame::decode(&bytes).is_err());
    }

    #[test]
    fn rejects_truncation() {
        let bytes = sample_frame().encode();
        assert!(Frame::decode(&bytes[..bytes.len() - 2]).is_err());
        assert!(Frame::decode(&bytes[..3]).is_err());
    }

    #[test]
    fn rejects_oversized_length_prefix() {
        // A corrupt header claiming a multi-gigabyte body must be rejected
        // with a typed protocol error before any allocation happens.
        let mut bytes = sample_frame().encode();
        bytes[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = Frame::decode(&bytes).unwrap_err();
        let t = err.as_transport().expect("typed transport error");
        assert_eq!(t.kind, crate::TransportErrorKind::Protocol);
        assert!(!t.is_retryable());

        let mut stream = Vec::new();
        stream.extend_from_slice(&u32::MAX.to_le_bytes());
        stream.extend_from_slice(&[0u8; 64]);
        let err = read_raw_frame(&mut &stream[..]).unwrap_err();
        assert_eq!(
            err.as_transport().unwrap().kind,
            crate::TransportErrorKind::Protocol
        );
    }

    #[test]
    fn rejects_unknown_kind() {
        let mut bytes = sample_frame().encode();
        bytes[6] = 9; // kind byte: 4 length + 2 magic
        assert!(Frame::decode(&bytes).is_err());
    }

    #[test]
    fn epoch_ack_carries_device_and_epoch() {
        let f = Frame::epoch_ack(7, 2);
        let back = Frame::decode(&f.encode()).unwrap();
        assert_eq!(back.kind, FrameKind::EpochAck);
        assert_eq!(back.epoch, 7);
        assert_eq!(back.image, 2);
    }

    #[test]
    fn q8_frame_roundtrips_byte_exact_and_shrinks() -> Result<()> {
        let t = Tensor::from_fn([8, 16, 12], |c, y, x| {
            ((c + 2 * y) as f32 - x as f32) * 0.17
        });
        let f32_frame = Frame::data(FrameKind::Rows, 2, 9, 1, 4, t.clone());
        let step = 0.05;
        let q = Frame::data(FrameKind::Rows, 2, 9, 1, 4, t.clone()).at_scale(Some(step));
        assert_eq!(q.row_hi(), 20);
        // The q8 body is ~4× smaller than the f32 slab.
        assert!(q.encoded_len() * 3 < f32_frame.encoded_len());
        let bytes = q.encode();
        assert_eq!(bytes.len(), q.encoded_len());
        let back = Frame::decode(&bytes)?;
        assert_eq!(
            (back.kind, back.row_lo, back.scale),
            (FrameKind::Rows, 4, Some(step))
        );
        assert_eq!(back.encode(), bytes, "re-encode must be byte-exact");
        // The decoded band is within half a step of the original, on the
        // step's grid.
        assert!(back.tensor.max_abs_diff(&t)? <= 0.5 * step + 1e-6);
        for &v in back.tensor.data() {
            assert_eq!(v, (v / step).round() * step);
        }
        // Truncated q8 bodies are rejected.
        assert!(Frame::decode(&bytes[..bytes.len() - 1]).is_err());
        Ok(())
    }

    #[test]
    fn a_q8_frame_clamps_an_infinite_activation() -> Result<()> {
        let t = Tensor::from_vec([1, 1, 2], vec![f32::INFINITY, -1.0])?;
        let back = Frame::decode(
            &Frame::data(FrameKind::Rows, 0, 0, 1, 0, t)
                .at_scale(Some(0.5))
                .encode(),
        )?;
        assert_eq!(back.tensor.data(), [63.5, -1.0]);
        Ok(())
    }

    #[test]
    fn q8_frame_streams_alongside_f32_frames() {
        // An f32 consumer and a q8 producer share one stream: both kinds
        // decode to FrameKind::Rows with a usable f32 tensor.
        let t = Tensor::from_fn([2, 3, 4], |c, y, x| (c + y + x) as f32 * 0.25 - 0.9);
        let buf = [
            Frame::data(FrameKind::Rows, 1, 0, 0, 0, t.clone())
                .at_scale(Some(0.01))
                .encode(),
            Frame::data(FrameKind::Rows, 1, 1, 0, 0, t.clone()).encode(),
        ]
        .concat();
        let mut cursor = &buf[..];
        let a = read_frame(&mut cursor).unwrap().unwrap();
        let b = read_frame(&mut cursor).unwrap().unwrap();
        assert_eq!(a.kind, FrameKind::Rows);
        assert_eq!(a.scale, Some(0.01));
        assert_eq!(a.tensor.shape(), t.shape());
        assert_eq!(b.kind, FrameKind::Rows);
        assert_eq!(b.scale, None);
        assert_eq!(b.tensor, t);
    }

    fn sample_plan() -> ExecutionPlan {
        use cnn_model::{LayerOp, Model};
        use tensor::Shape;
        let m = Model::new(
            "wire-test",
            Shape::new(2, 16, 12),
            &[
                LayerOp::conv(4, 3, 1, 1),
                LayerOp::pool(2, 2),
                LayerOp::fc(3),
            ],
        )
        .unwrap();
        ExecutionPlan::offload(&m, 1, 2).unwrap()
    }

    #[test]
    fn reconfigure_payload_roundtrips() {
        let payload = ReconfigurePayload {
            plan: sample_plan(),
            delta: vec![
                WeightDelta {
                    layer: 0,
                    weights: vec![0.5, -0.25, 3.0].into(),
                    bias: vec![0.125].into(),
                },
                WeightDelta {
                    layer: 2,
                    weights: vec![].into(),
                    bias: vec![1.0, 2.0].into(),
                },
            ],
            quant: None,
        };
        let bytes = payload.encode().unwrap();
        let back = ReconfigurePayload::decode(&bytes).unwrap();
        assert_eq!(back, payload);
        assert_eq!(back.delta_bytes(), (3 + 1 + 2) * 4);
        // A quant spec rides along and rountrips exactly.
        let quantized = ReconfigurePayload {
            quant: Some(QuantSpec::new(vec![0.0, 0.031, 0.0]).unwrap()),
            ..payload.clone()
        };
        let back = ReconfigurePayload::decode(&quantized.encode().unwrap()).unwrap();
        assert_eq!(back, quantized);
        // A payload that simply ends after the delta entries (an f32-era
        // peer) decodes with no quant spec.
        let legacy = &bytes[..bytes.len() - 1];
        let back = ReconfigurePayload::decode(legacy).unwrap();
        assert_eq!(back, payload);
    }

    #[test]
    fn reconfigure_frame_roundtrips_payload() {
        let payload = ReconfigurePayload {
            plan: sample_plan(),
            delta: vec![WeightDelta {
                layer: 1,
                weights: vec![9.0; 8].into(),
                bias: vec![-1.0].into(),
            }],
            quant: None,
        };
        let frame = Frame::reconfigure(3, payload.encode().unwrap());
        let back = Frame::decode(&frame.encode()).unwrap();
        assert_eq!(back.kind, FrameKind::Reconfigure);
        assert_eq!(back.epoch, 3);
        assert_eq!(ReconfigurePayload::decode(&back.payload).unwrap(), payload);
    }

    #[test]
    fn reconfigure_payload_rejects_truncation() {
        let payload = ReconfigurePayload {
            plan: sample_plan(),
            delta: vec![WeightDelta {
                layer: 0,
                weights: vec![1.0, 2.0].into(),
                bias: vec![].into(),
            }],
            quant: None,
        };
        let bytes = payload.encode().unwrap();
        assert!(ReconfigurePayload::decode(&bytes[..bytes.len() - 3]).is_err());
    }
}
