//! Property tests for the handshake's numerics-contract byte: it
//! round-trips through `Hello` for every value (drawn as `0u16..256`: the
//! proptest stand-in has no `any::<u8>()`), any truncation of a
//! handshake message is a typed transport error, and a refusal reaches the
//! coordinator as the non-retryable mismatch error naming both contracts.
//! And for the quant spec a `Hello` bootstraps a node with: one that does
//! not cover the model, or carries a scale no calibration could produce, is
//! a typed error before anything is installed.

use cnn_model::exec::{ModelWeights, QuantSpec};
use cnn_model::{LayerOp, Model};
use edge_cluster::proto::{
    read_hello, read_welcome, write_hello, write_numerics_refusal, write_welcome,
};
use edge_cluster::{Hello, Welcome};
use edge_runtime::{ReconfigurePayload, RuntimeError, TransportErrorKind, WeightDelta};
use proptest::prelude::*;
use tensor::ops::NUMERICS_CONTRACT;
use tensor::Shape;

fn hello(numerics: u8, device: usize, epoch: u64, peers: usize) -> Hello {
    let model = Model::new(
        "tiny",
        Shape::new(1, 8, 8),
        &[LayerOp::conv(2, 3, 1, 1), LayerOp::fc(4)],
    )
    .unwrap();
    let weights = ModelWeights::deterministic(&model, 5);
    let plan = edgesim::ExecutionPlan::offload(&model, 0, 2).unwrap();
    Hello {
        numerics,
        device,
        epoch,
        peers: (0..peers)
            .map(|d| (d, format!("127.0.0.1:{}", 7700 + d)))
            .collect(),
        model,
        payload: ReconfigurePayload {
            plan,
            delta: vec![WeightDelta {
                layer: 0,
                weights: weights.layers[0].0.clone(),
                bias: weights.layers[0].1.clone(),
            }],
            quant: None,
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every contract byte survives the `Hello` codec, next to whatever
    /// else the message carries.
    #[test]
    fn hello_round_trips_the_numerics_byte(
        numerics in 0u16..256,
        device in 0usize..64,
        epoch in any::<u64>(),
        peers in 0usize..5,
    ) {
        let numerics = numerics as u8;
        let sent = hello(numerics, device, epoch, peers);
        let mut buf = Vec::new();
        write_hello(&mut buf, &sent).unwrap();
        // Byte 0 is the preamble the accept loop consumes.
        let back = read_hello(&mut &buf[1..]).unwrap();
        prop_assert_eq!(back.numerics, numerics);
        prop_assert_eq!(back, sent);
    }

    /// A `Hello` cut anywhere — inside the new byte's header included — is
    /// a typed transport error, never a panic or a message with a made-up
    /// contract.
    #[test]
    fn truncated_hello_is_rejected(numerics in 0u16..256, cut in 0usize..4096) {
        let mut buf = Vec::new();
        write_hello(&mut buf, &hello(numerics as u8, 1, 3, 2)).unwrap();
        let body = &buf[1..];
        let cut = cut % body.len();
        let err = read_hello(&mut &body[..cut]).unwrap_err();
        prop_assert!(err.as_transport().is_some(), "typed transport error: {}", err);
    }

    /// A `Hello` whose quant spec has a scale per layer round-trips; one
    /// with more or fewer scales than its own model has layers, or with a
    /// non-finite or negative scale, is a `Wire` error.
    #[test]
    fn hello_with_a_bad_quant_spec_is_rejected(
        n_scales in 0usize..5,
        victim in 0usize..5,
        bad in 0usize..5,
    ) {
        let mut sent = hello(NUMERICS_CONTRACT, 1, 3, 2);
        let scales = (0..n_scales).map(|i| i as f32 * 0.0625).collect();
        sent.payload.quant = Some(QuantSpec::new(scales).unwrap());
        let mut buf = Vec::new();
        write_hello(&mut buf, &sent).unwrap();
        let read = read_hello(&mut &buf[1..]);
        if n_scales == sent.model.len() {
            prop_assert_eq!(read.unwrap(), sent);
        } else {
            prop_assert!(matches!(read, Err(RuntimeError::Wire(_))), "{} scales: {:?}", n_scales, read);
        }

        // The payload is the message's last block and the scales its last
        // `4·n` bytes.
        if n_scales > 0 {
            let bad = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.5, -f32::MIN_POSITIVE][bad];
            let at = buf.len() - 4 * (1 + victim % n_scales);
            buf[at..at + 4].copy_from_slice(&bad.to_le_bytes());
            let read = read_hello(&mut &buf[1..]);
            prop_assert!(matches!(read, Err(RuntimeError::Wire(_))), "scale {}: {:?}", bad, read);
        }
    }

    /// The reply codec: a `Welcome` round-trips, a refusal becomes the
    /// mismatch error (not retryable, naming both contracts), and either
    /// reply cut short is an I/O error.
    #[test]
    fn replies_round_trip_and_reject_truncation(
        device in 0usize..4096,
        epoch in any::<u64>(),
        sent in 0u16..256,
        cut in 0usize..13,
    ) {
        let sent = sent as u8;
        let welcome = Welcome { device, epoch };
        let mut buf = Vec::new();
        write_welcome(&mut buf, &welcome).unwrap();
        prop_assert_eq!(read_welcome(&mut &buf[..], sent).unwrap(), welcome);
        let err = read_welcome(&mut &buf[..cut], sent).unwrap_err();
        prop_assert_eq!(err.as_transport().map(|t| t.kind), Some(TransportErrorKind::Io));

        let mut refusal = Vec::new();
        write_numerics_refusal(&mut refusal).unwrap();
        let err = read_welcome(&mut &refusal[..], sent).unwrap_err();
        let t = err.as_transport().expect("typed transport error");
        prop_assert_eq!(t.kind, TransportErrorKind::Config);
        prop_assert!(!t.is_retryable());
        prop_assert!(t.detail.contains(&format!("contract {sent}")), "{}", t.detail);
        prop_assert!(t.detail.contains(&format!("contract {NUMERICS_CONTRACT}")), "{}", t.detail);
        let err = read_welcome(&mut &refusal[..cut % refusal.len()], sent).unwrap_err();
        prop_assert_eq!(err.as_transport().map(|t| t.kind), Some(TransportErrorKind::Io));
    }
}
