//! Property tests for the wire codecs: arbitrary f32 frames and reconfigure
//! payloads round-trip bit-exactly, a q8 frame decodes onto its scale's
//! grid and re-encodes to the same bytes, and corrupt or truncated inputs — slab
//! dims or a delta count no byte string could back, a quantization scale
//! no calibration could produce, a spec that does not cover the model —
//! are rejected with typed errors instead of panics, unbounded allocation
//! or a silently different kernel path.

use edge_runtime::transport::read_raw_frame;
use edge_runtime::wire::check_frame_len;
use edge_runtime::{
    Frame, FrameKind, ReconfigurePayload, RuntimeError, TransportErrorKind, WeightDelta,
    MAX_FRAME_LEN,
};
use proptest::prelude::*;
use tensor::Tensor;

#[allow(clippy::too_many_arguments)]
fn frame_from(
    kind_sel: u8,
    epoch: u64,
    image: u32,
    stage: u32,
    row_lo: u32,
    c: usize,
    rows: usize,
    w: usize,
    fill: f32,
) -> Frame {
    let kind = match kind_sel % 2 {
        0 => FrameKind::Rows,
        _ => FrameKind::Result,
    };
    let tensor = Tensor::from_fn([c, rows, w], |ci, ri, wi| {
        fill + (ci * 31 + ri * 7 + wi) as f32 * 0.5
    });
    Frame::data(kind, epoch, image, stage, row_lo, tensor)
}

/// Offset of the slab header in a data frame's encoding: the length prefix
/// plus the frame header.
const SLAB_AT: usize = 4 + 23;

/// `frame`'s encoding with its slab header rewritten to `dims` and at most
/// `keep` bytes of slab data left behind it, the length prefix fixed up.
/// Returns the bytes and how many data bytes they carry.
fn with_slab_dims(frame: &Frame, dims: [u32; 3], keep: usize) -> (Vec<u8>, usize) {
    let mut bytes = frame.encode();
    let data_at = SLAB_AT + if frame.scale.is_some() { 16 } else { 12 };
    bytes.truncate(data_at + keep);
    for (i, d) in dims.iter().enumerate() {
        bytes[SLAB_AT + 4 * i..][..4].copy_from_slice(&d.to_le_bytes());
    }
    let body_len = (bytes.len() - 4) as u32;
    bytes[..4].copy_from_slice(&body_len.to_le_bytes());
    let data_len = bytes.len() - data_at;
    (bytes, data_len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Encode → decode is the identity for arbitrary data frames.
    #[test]
    fn frames_round_trip(
        kind_sel in 0u8..255,
        epoch in any::<u64>(),
        image in any::<u32>(),
        stage in 0u32..64,
        row_lo in 0u32..1024,
        c in 1usize..4,
        rows in 1usize..6,
        w in 1usize..8,
        fill in -100.0f32..100.0,
    ) {
        let frame = frame_from(kind_sel, epoch, image, stage, row_lo, c, rows, w, fill);
        let bytes = frame.encode();
        prop_assert_eq!(bytes.len(), frame.encoded_len());
        let back = Frame::decode(&bytes).unwrap();
        prop_assert_eq!(back, frame);
    }

    /// A q8 frame built at a given scale decodes onto that scale's grid:
    /// every element is its code times the scale, within half a step of the
    /// band where the band is in range, and clamped to `±127` steps beyond.
    /// Decoding, then re-encoding, gives the same bytes.
    #[test]
    fn q8_frames_decode_onto_their_scales_grid(
        c in 1usize..4,
        rows in 1usize..6,
        w in 1usize..8,
        fill in -100.0f32..100.0,
        spread in 0.0f32..20.0,
        scale in 0.001f32..2.0,
    ) {
        let band = Tensor::from_fn([c, rows, w], |ci, ri, wi| {
            fill + ((ci * 31 + ri * 7 + wi) % 13) as f32 * spread - 6.0 * spread
        });
        let frame = Frame::data(FrameKind::Rows, 1, 2, 3, 4, band.clone()).at_scale(Some(scale));
        let bytes = frame.encode();
        prop_assert_eq!(bytes.len(), frame.encoded_len());
        let back = Frame::decode(&bytes).unwrap();
        prop_assert_eq!((back.kind, back.scale), (FrameKind::Rows, Some(scale)));
        prop_assert_eq!(back.tensor.shape(), band.shape());
        for (&x, &y) in band.data().iter().zip(back.tensor.data()) {
            let code = (x / scale).round().clamp(-127.0, 127.0);
            prop_assert_eq!(y, code * scale);
            if x.abs() <= 127.0 * scale {
                prop_assert!((y - x).abs() <= 0.5 * scale * (1.0 + 1e-4), "{} -> {}", x, y);
            }
        }
        prop_assert_eq!(back.encode(), bytes);
    }

    /// Any truncation of a valid encoding is rejected — never a panic,
    /// never a bogus frame.
    #[test]
    fn truncated_frames_are_rejected(
        epoch in any::<u64>(),
        image in any::<u32>(),
        c in 1usize..3,
        rows in 1usize..4,
        w in 1usize..6,
        cut_fraction in 0.0f64..1.0,
    ) {
        let frame = frame_from(0, epoch, image, 0, 0, c, rows, w, 1.0);
        let bytes = frame.encode();
        let cut = (cut_fraction * (bytes.len() - 1) as f64) as usize;
        prop_assert!(Frame::decode(&bytes[..cut]).is_err());
        // The socket reader must reject it too: clean EOF at offset 0 is the
        // only non-error short read, and EOF inside the prefix or the body
        // is an `Io` error.
        let result = read_raw_frame(&mut &bytes[..cut]);
        if cut == 0 {
            prop_assert!(matches!(result, Ok(None)), "{:?}", result);
        } else {
            let kind = result.err().and_then(|e| e.as_transport().map(|t| t.kind));
            prop_assert!(
                kind == Some(TransportErrorKind::Io),
                "short read of {cut}/{} bytes: {kind:?}",
                bytes.len()
            );
        }
    }

    /// A corrupt byte anywhere in the header is rejected or decodes to a
    /// frame that differs from the original — never a panic.
    #[test]
    fn corrupt_headers_never_panic(
        epoch in 0u64..1000,
        pos in 0usize..23,
        xor in 1u8..255,
    ) {
        let frame = frame_from(0, epoch, 1, 0, 0, 1, 2, 3, 2.0);
        let mut bytes = frame.encode();
        bytes[pos] ^= xor;
        // Either a typed error or a different (but well-formed) frame.
        if let Ok(back) = Frame::decode(&bytes) {
            prop_assert!(back != frame, "corrupt byte produced the original frame");
        }
    }

    /// Oversized length prefixes are refused before any allocation.
    #[test]
    fn oversized_length_prefixes_are_refused(excess in 1usize..1_000_000) {
        let len = MAX_FRAME_LEN + excess;
        let err = check_frame_len(len).unwrap_err();
        let t = err.as_transport().expect("typed transport error");
        prop_assert_eq!(t.kind, TransportErrorKind::Protocol);
        prop_assert!(!t.is_retryable());

        // And through the decoder: a header claiming `len` bytes.
        let mut bytes = vec![0u8; 32];
        bytes[0..4].copy_from_slice(&(len as u32).to_le_bytes());
        prop_assert!(Frame::decode(&bytes).is_err());
        // And through the socket reader, which must not allocate `len`.
        let err = read_raw_frame(&mut &bytes[..]).unwrap_err();
        prop_assert_eq!(err.as_transport().map(|t| t.kind), Some(TransportErrorKind::Protocol));
    }

    /// A slab header is peer-supplied: arbitrary `[c, h, w]` dims on an f32
    /// or a q8 `Rows` frame — down to zero, up to products past `usize` —
    /// decode only when they match the bytes behind them, and are a typed
    /// error otherwise: never a panic, never an allocation or a shape sized
    /// from the header alone.
    #[test]
    fn arbitrary_slab_dims_are_rejected(
        raw in (any::<u32>(), any::<u32>(), any::<u32>()),
        shift in (0u32..33, 0u32..33, 0u32..33),
        pick in 0usize..4,
        q8 in any::<bool>(),
        keep in 0usize..160,
    ) {
        // Shifted draws reach every magnitude down to zero; half the cases
        // take a header whose byte count wraps to 0 in 64-bit arithmetic.
        let dims = match pick {
            0 => [1 << 31, 1 << 31, 1],
            1 => [1 << 16, 1 << 24, 1 << 24],
            _ => [
                raw.0.checked_shr(shift.0).unwrap_or(0),
                raw.1.checked_shr(shift.1).unwrap_or(0),
                raw.2.checked_shr(shift.2).unwrap_or(0),
            ],
        };
        let tensor = Tensor::from_fn([2, 3, 5], |c, y, x| (c * 15 + y * 5 + x) as f32 - 7.0);
        let frame = if q8 {
            Frame::rows_q8(1, 2, 0, 0, &tensor)
        } else {
            Frame::data(FrameKind::Rows, 1, 2, 0, 0, tensor)
        };
        let (bytes, data_len) = with_slab_dims(&frame, dims, keep);
        let elems = dims.iter().map(|&d| u128::from(d)).product::<u128>();
        let fits = elems * if q8 { 1 } else { 4 } == data_len as u128;
        match Frame::decode(&bytes) {
            Ok(back) => prop_assert!(fits && back.tensor.len() as u128 == elems, "{:?}", dims),
            Err(e) => prop_assert!(!fits && matches!(e, RuntimeError::Wire(_)), "{:?}: {}", dims, e),
        }
    }

    /// A q8 `Rows` frame's scale is peer-supplied too: NaN, an infinity,
    /// a zero or a negated scale written into an encoded frame is a `Wire`
    /// error — never a band of NaNs, infinities, zeros or flipped signs.
    #[test]
    fn corrupt_q8_scales_are_rejected(
        pick in 0usize..6,
        c in 1usize..4,
        rows in 1usize..4,
        w in 1usize..6,
        fill in -100.0f32..100.0,
    ) {
        let tensor = Tensor::from_fn([c, rows, w], |ci, ri, wi| {
            fill + (ci * 31 + ri * 7 + wi) as f32 * 0.5
        });
        let frame = Frame::rows_q8(1, 2, 0, 0, &tensor);
        let mut bytes = frame.encode();
        prop_assert_eq!(Frame::decode(&bytes).unwrap().encode(), bytes.clone());
        let scale = frame.scale.unwrap();
        let bad = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 0.0, -0.0, -scale][pick];
        bytes[SLAB_AT + 12..][..4].copy_from_slice(&bad.to_le_bytes());
        match Frame::decode(&bytes) {
            Err(RuntimeError::Wire(_)) => {}
            other => prop_assert!(false, "scale {} decoded to {:?}", bad, other),
        }
    }

    /// A `Reconfigure` payload's delta count is peer-supplied too: a count
    /// the bytes behind it cannot hold is a `Wire` error, never an
    /// allocation sized from it.
    #[test]
    fn arbitrary_delta_counts_are_rejected(count in any::<u32>(), quantized in any::<bool>()) {
        let model = cnn_model::Model::new(
            "prop",
            tensor::Shape::new(1, 8, 8),
            &[cnn_model::LayerOp::conv(2, 3, 1, 1), cnn_model::LayerOp::fc(4)],
        )
        .unwrap();
        let payload = ReconfigurePayload {
            plan: edgesim::ExecutionPlan::offload(&model, 0, 2).unwrap(),
            delta: Vec::new(),
            quant: quantized.then(|| cnn_model::exec::QuantSpec::new(vec![0.5, 0.25]).unwrap()),
        };
        let mut bytes = payload.encode().unwrap();
        // The count follows the length-prefixed plan JSON.
        let at = 4 + u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]) as usize;
        bytes[at..at + 4].copy_from_slice(&count.to_le_bytes());
        let result = ReconfigurePayload::decode(&bytes);
        if count == 0 {
            prop_assert_eq!(result.unwrap(), payload);
        } else {
            prop_assert!(matches!(result, Err(RuntimeError::Wire(_))), "{} deltas: {:?}", count, result);
        }
    }

    /// Reconfigure payloads (plan JSON + raw weight deltas) round-trip.
    #[test]
    fn reconfigure_payloads_round_trip(
        n_layers in 1usize..4,
        w_len in 0usize..32,
        b_len in 0usize..8,
        seed in any::<u32>(),
    ) {
        let model = cnn_model::Model::new(
            "prop",
            tensor::Shape::new(1, 8, 8),
            &[cnn_model::LayerOp::conv(2, 3, 1, 1), cnn_model::LayerOp::fc(4)],
        )
        .unwrap();
        let plan = edgesim::ExecutionPlan::offload(&model, 0, 2).unwrap();
        let delta: Vec<WeightDelta> = (0..n_layers)
            .map(|layer| WeightDelta {
                layer,
                weights: (0..w_len).map(|i| (seed as usize + i) as f32 * 0.25).collect(),
                bias: (0..b_len).map(|i| i as f32 - 2.0).collect(),
            })
            .collect();
        // Half the cases carry a quant spec so the optional tail of the
        // codec is exercised both ways.
        let quant = seed.is_multiple_of(2).then(|| {
            cnn_model::exec::QuantSpec::new(
                (0..n_layers).map(|i| i as f32 * 0.015625).collect(),
            )
            .unwrap()
        });
        let payload = ReconfigurePayload { plan, delta, quant };
        let bytes = payload.encode().unwrap();
        let back = ReconfigurePayload::decode(&bytes).unwrap();
        prop_assert_eq!(back, payload);

        // Truncations of the payload body are rejected as well.
        if bytes.len() > 1 {
            prop_assert!(ReconfigurePayload::decode(&bytes[..bytes.len() / 2]).is_err());
        }
    }

    /// A quant section is checked where it enters: a scale that is not a
    /// finite non-negative number fails the decode, and a spec with more or
    /// fewer scales than the model has layers fails the check both
    /// installers run before touching state — `Wire` errors, both.
    #[test]
    fn corrupt_quant_sections_are_rejected(
        n_scales in 0usize..6,
        victim in 0usize..6,
        bad in 0usize..5,
        seed in any::<u32>(),
    ) {
        let model = cnn_model::Model::new(
            "prop",
            tensor::Shape::new(1, 8, 8),
            &[
                cnn_model::LayerOp::conv(2, 3, 1, 1),
                cnn_model::LayerOp::pool(2, 2),
                cnn_model::LayerOp::fc(4),
            ],
        )
        .unwrap();
        let scales: Vec<f32> = (0..n_scales).map(|i| ((seed as usize + i) % 7) as f32 * 0.03125).collect();
        let payload = ReconfigurePayload {
            plan: edgesim::ExecutionPlan::offload(&model, 0, 2).unwrap(),
            delta: Vec::new(),
            quant: Some(cnn_model::exec::QuantSpec::new(scales).unwrap()),
        };
        let bytes = payload.encode().unwrap();
        let decoded = ReconfigurePayload::decode(&bytes).unwrap();
        let fits = decoded.check_against(&model);
        if n_scales == model.len() {
            prop_assert!(fits.is_ok());
        } else {
            prop_assert!(matches!(fits, Err(RuntimeError::Wire(_))), "{} scales: {:?}", n_scales, fits);
        }

        // The scales are the payload's last `4·n` bytes.
        if n_scales > 0 {
            let bad = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.5, -f32::MIN_POSITIVE][bad];
            let at = bytes.len() - 4 * (1 + victim % n_scales);
            let mut corrupt = bytes.clone();
            corrupt[at..at + 4].copy_from_slice(&bad.to_le_bytes());
            let err = ReconfigurePayload::decode(&corrupt);
            prop_assert!(matches!(err, Err(RuntimeError::Wire(_))), "scale {}: {:?}", bad, err);
        }
    }
}
