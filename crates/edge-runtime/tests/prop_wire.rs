//! Property tests for the wire codecs: arbitrary frames and reconfigure
//! payloads round-trip bit-exactly, and corrupt or truncated inputs — a
//! quantization scale no calibration could produce, a spec that does not
//! cover the model — are rejected with typed errors instead of panics,
//! unbounded allocation or a silently different kernel path.

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
