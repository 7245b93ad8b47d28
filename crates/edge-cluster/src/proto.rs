//! The cluster bootstrap handshake.
//!
//! Every connection a node accepts starts with a one-byte preamble saying
//! who is dialing:
//!
//! * [`PREAMBLE_HELLO`] — the coordinator.  A [`Hello`] follows: the
//!   coordinator's numerics contract, the node's device id, the current
//!   epoch, the full peer address table, the model (JSON), and the epoch's
//!   `ExecutionPlan` + this device's weight shard as raw
//!   [`ReconfigurePayload`] bytes — the same codec a live plan swap uses,
//!   so bootstrap and reconfiguration share one wire format.  The node
//!   installs everything and replies [`Welcome`]; the connection then
//!   carries scatter frames coordinator→node and result frames
//!   node→coordinator.  A node whose kernels compute under a different
//!   numerics contract installs nothing and replies with a refusal, which
//!   the coordinator reads as a typed, non-retryable error
//!   ([`numerics_mismatch`]): its bands would differ from everyone else's
//!   in the last bit, and nothing downstream could tell.
//! * [`PREAMBLE_LINK`] — a peer node.  A device id follows; the
//!   connection then carries halo-exchange frames from that peer.
//!
//! A coordinator that reconnects simply sends `Hello` again: a node that
//! is already running re-attaches the socket and confirms its installed
//! epoch instead of re-bootstrapping.

use cnn_model::Model;
use edge_runtime::wire::check_frame_len;
use edge_runtime::{ReconfigurePayload, Result, RuntimeError};
use std::io::{Read, Write};
use tensor::ops::NUMERICS_CONTRACT;

/// First byte of a coordinator connection.
pub const PREAMBLE_HELLO: u8 = 0x01;
/// First byte of a peer halo link.
pub const PREAMBLE_LINK: u8 = 0x02;

/// First byte of a node's handshake reply when a [`Welcome`] follows.
const REPLY_WELCOME: u8 = 0x01;
/// First byte of a node's handshake reply when it refuses the coordinator's
/// numerics contract; the node's own contract byte follows.
const REPLY_REFUSED_NUMERICS: u8 = 0x02;

/// Longest accepted peer address string.
const MAX_ADDR_LEN: usize = 1024;
/// Most peers a handshake will enumerate.
const MAX_PEERS: usize = 4096;

/// The coordinator's bootstrap message to one node.
#[derive(Debug, Clone, PartialEq)]
pub struct Hello {
    /// The f32 numerical contract the coordinator's build computes under
    /// ([`tensor::ops::NUMERICS_CONTRACT`]); the node refuses any other.
    pub numerics: u8,
    /// Device index the receiving node serves.
    pub device: usize,
    /// The coordinator's current epoch.
    pub epoch: u64,
    /// Every node's `(device, addr)`, so the receiver can open halo links.
    pub peers: Vec<(usize, String)>,
    /// The model to execute.
    pub model: Model,
    /// The current plan plus this device's weight shard, in the
    /// `Reconfigure` payload codec.
    pub payload: ReconfigurePayload,
}

/// The node's reply: which device answered and the epoch it has installed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Welcome {
    /// The responding node's device index.
    pub device: usize,
    /// The epoch the node is running (equals the Hello epoch after a
    /// bootstrap; an already-running node reports what it has).
    pub epoch: u64,
}

/// The error for a coordinator and a node built under different numerics
/// contracts.  A topology mistake, not a link fault: reconnecting to the
/// same binary cannot clear it, so it is not retryable.
pub fn numerics_mismatch(coordinator: u8, node: u8) -> RuntimeError {
    RuntimeError::transport_config(format!(
        "numerics contract mismatch: the coordinator computes under contract {coordinator}, \
         the node under contract {node}; their bands would differ in the last bit — \
         run the same build on every machine"
    ))
}

fn io_err(what: &str, e: std::io::Error) -> RuntimeError {
    RuntimeError::transport_io(format!("{what}: {e}"))
}

fn write_block(w: &mut impl Write, bytes: &[u8]) -> Result<()> {
    w.write_all(&(bytes.len() as u32).to_le_bytes())
        .and_then(|()| w.write_all(bytes))
        .map_err(|e| io_err("write handshake block", e))
}

fn read_block(r: &mut impl Read, what: &str) -> Result<Vec<u8>> {
    let mut len = [0u8; 4];
    r.read_exact(&mut len)
        .map_err(|e| io_err(&format!("read {what} block length"), e))?;
    let len = u32::from_le_bytes(len) as usize;
    check_frame_len(len)?;
    let mut buf = vec![0u8; len];
    r.read_exact(&mut buf)
        .map_err(|e| io_err(&format!("read {what} block"), e))?;
    Ok(buf)
}

/// Writes the preamble byte + `Hello`.  Returns the bytes written
/// (handshake framing plus payload).
pub fn write_hello(w: &mut impl Write, hello: &Hello) -> Result<usize> {
    let model_json = serde_json::to_string(&hello.model)
        .map_err(|e| RuntimeError::Wire(format!("encode model: {e}")))?;
    let payload = hello.payload.encode()?;

    let mut head = Vec::with_capacity(64);
    head.push(PREAMBLE_HELLO);
    head.push(hello.numerics);
    head.extend_from_slice(&(hello.device as u32).to_le_bytes());
    head.extend_from_slice(&hello.epoch.to_le_bytes());
    head.extend_from_slice(&(hello.peers.len() as u32).to_le_bytes());
    for (d, addr) in &hello.peers {
        head.extend_from_slice(&(*d as u32).to_le_bytes());
        head.extend_from_slice(&(addr.len() as u16).to_le_bytes());
        head.extend_from_slice(addr.as_bytes());
    }
    w.write_all(&head).map_err(|e| io_err("write hello", e))?;
    write_block(w, model_json.as_bytes())?;
    write_block(w, &payload)?;
    w.flush().map_err(|e| io_err("flush hello", e))?;
    Ok(head.len() + 8 + model_json.len() + payload.len())
}

/// Reads a `Hello` (the preamble byte has already been consumed by the
/// accept loop's dispatch).
pub fn read_hello(r: &mut impl Read) -> Result<Hello> {
    let mut fixed = [0u8; 17];
    r.read_exact(&mut fixed)
        .map_err(|e| io_err("read hello header", e))?;
    let numerics = fixed[0];
    let device = u32::from_le_bytes(fixed[1..5].try_into().expect("4 bytes")) as usize;
    let epoch = u64::from_le_bytes(fixed[5..13].try_into().expect("8 bytes"));
    let n_peers = u32::from_le_bytes(fixed[13..17].try_into().expect("4 bytes")) as usize;
    if n_peers > MAX_PEERS {
        return Err(RuntimeError::transport_protocol(format!(
            "hello enumerates {n_peers} peers (cap {MAX_PEERS})"
        )));
    }
    let mut peers = Vec::with_capacity(n_peers);
    for _ in 0..n_peers {
        let mut head = [0u8; 6];
        r.read_exact(&mut head)
            .map_err(|e| io_err("read peer entry", e))?;
        let d = u32::from_le_bytes(head[0..4].try_into().expect("4 bytes")) as usize;
        let alen = u16::from_le_bytes(head[4..6].try_into().expect("2 bytes")) as usize;
        if alen > MAX_ADDR_LEN {
            return Err(RuntimeError::transport_protocol(format!(
                "peer address of {alen} bytes (cap {MAX_ADDR_LEN})"
            )));
        }
        let mut addr = vec![0u8; alen];
        r.read_exact(&mut addr)
            .map_err(|e| io_err("read peer address", e))?;
        let addr = String::from_utf8(addr)
            .map_err(|_| RuntimeError::transport_protocol("peer address is not UTF-8"))?;
        peers.push((d, addr));
    }
    let model_json = read_block(r, "model")?;
    let model_json = std::str::from_utf8(&model_json)
        .map_err(|_| RuntimeError::transport_protocol("model JSON is not UTF-8"))?;
    let model: Model = serde_json::from_str(model_json)
        .map_err(|e| RuntimeError::transport_protocol(format!("bad model JSON: {e}")))?;
    let payload_bytes = read_block(r, "payload")?;
    let payload = ReconfigurePayload::decode(&payload_bytes)?;
    payload.check_against(&model)?;
    Ok(Hello {
        numerics,
        device,
        epoch,
        peers,
        model,
        payload,
    })
}

/// Writes a `Welcome`.
pub fn write_welcome(w: &mut impl Write, welcome: &Welcome) -> Result<()> {
    let mut buf = [0u8; 13];
    buf[0] = REPLY_WELCOME;
    buf[1..5].copy_from_slice(&(welcome.device as u32).to_le_bytes());
    buf[5..13].copy_from_slice(&welcome.epoch.to_le_bytes());
    w.write_all(&buf)
        .and_then(|()| w.flush())
        .map_err(|e| io_err("write welcome", e))
}

/// Writes the node's refusal of a `Hello` whose numerics contract is not
/// this build's.
pub fn write_numerics_refusal(w: &mut impl Write) -> Result<()> {
    w.write_all(&[REPLY_REFUSED_NUMERICS, NUMERICS_CONTRACT])
        .and_then(|()| w.flush())
        .map_err(|e| io_err("write numerics refusal", e))
}

/// Reads the node's reply to a `Hello` that carried contract `sent`: the
/// `Welcome`, or [`numerics_mismatch`] if the node refused.
pub fn read_welcome(r: &mut impl Read, sent: u8) -> Result<Welcome> {
    let mut tag = [0u8; 1];
    r.read_exact(&mut tag)
        .map_err(|e| io_err("read handshake reply", e))?;
    match tag[0] {
        REPLY_WELCOME => {
            let mut buf = [0u8; 12];
            r.read_exact(&mut buf)
                .map_err(|e| io_err("read welcome", e))?;
            Ok(Welcome {
                device: u32::from_le_bytes(buf[0..4].try_into().expect("4 bytes")) as usize,
                epoch: u64::from_le_bytes(buf[4..12].try_into().expect("8 bytes")),
            })
        }
        REPLY_REFUSED_NUMERICS => {
            let mut node = [0u8; 1];
            r.read_exact(&mut node)
                .map_err(|e| io_err("read numerics refusal", e))?;
            Err(numerics_mismatch(sent, node[0]))
        }
        other => Err(RuntimeError::transport_protocol(format!(
            "unknown handshake reply tag {other:#04x}"
        ))),
    }
}

/// Writes the preamble byte + device id of a peer halo link.
pub fn write_link(w: &mut impl Write, from: usize) -> Result<()> {
    let mut buf = [0u8; 5];
    buf[0] = PREAMBLE_LINK;
    buf[1..5].copy_from_slice(&(from as u32).to_le_bytes());
    w.write_all(&buf)
        .and_then(|()| w.flush())
        .map_err(|e| io_err("write link preamble", e))
}

/// Reads the device id of a peer halo link (preamble byte already
/// consumed).
pub fn read_link(r: &mut impl Read) -> Result<usize> {
    let mut buf = [0u8; 4];
    r.read_exact(&mut buf)
        .map_err(|e| io_err("read link preamble", e))?;
    Ok(u32::from_le_bytes(buf) as usize)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnn_model::exec::ModelWeights;
    use cnn_model::{LayerOp, Model};
    use edge_runtime::WeightDelta;
    use tensor::Shape;

    fn tiny() -> (Model, ModelWeights) {
        let model = Model::new(
            "tiny",
            Shape::new(1, 8, 8),
            &[LayerOp::conv(2, 3, 1, 1), LayerOp::fc(4)],
        )
        .unwrap();
        let weights = ModelWeights::deterministic(&model, 5);
        (model, weights)
    }

    #[test]
    fn hello_round_trips() {
        let (model, weights) = tiny();
        let plan = edgesim::ExecutionPlan::offload(&model, 0, 2).unwrap();
        let delta: Vec<WeightDelta> = weights
            .layers
            .iter()
            .enumerate()
            .map(|(i, (w, b))| WeightDelta {
                layer: i,
                weights: w.clone(),
                bias: b.clone(),
            })
            .collect();
        let hello = Hello {
            numerics: NUMERICS_CONTRACT,
            device: 1,
            epoch: 7,
            peers: vec![(0, "127.0.0.1:7700".into()), (1, "127.0.0.1:7701".into())],
            model,
            payload: ReconfigurePayload {
                plan,
                delta,
                quant: Some(cnn_model::exec::QuantSpec::new(vec![0.0, 0.125]).unwrap()),
            },
        };
        let mut buf = Vec::new();
        let written = write_hello(&mut buf, &hello).unwrap();
        assert!(written > 0);
        assert_eq!(buf[0], PREAMBLE_HELLO);
        let back = read_hello(&mut &buf[1..]).unwrap();
        assert_eq!(back, hello);
    }

    #[test]
    fn welcome_and_link_round_trip() {
        let mut buf = Vec::new();
        write_welcome(
            &mut buf,
            &Welcome {
                device: 2,
                epoch: 9,
            },
        )
        .unwrap();
        assert_eq!(
            read_welcome(&mut &buf[..], NUMERICS_CONTRACT).unwrap(),
            Welcome {
                device: 2,
                epoch: 9
            }
        );

        let mut buf = Vec::new();
        write_link(&mut buf, 3).unwrap();
        assert_eq!(buf[0], PREAMBLE_LINK);
        assert_eq!(read_link(&mut &buf[1..]).unwrap(), 3);
    }

    #[test]
    fn truncated_hello_is_an_io_error() {
        let (model, weights) = tiny();
        let plan = edgesim::ExecutionPlan::offload(&model, 0, 2).unwrap();
        let hello = Hello {
            numerics: NUMERICS_CONTRACT,
            device: 0,
            epoch: 0,
            peers: vec![(0, "a".into())],
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
        };
        let mut buf = Vec::new();
        write_hello(&mut buf, &hello).unwrap();
        let cut = buf.len() / 2;
        let err = read_hello(&mut &buf[1..cut]).unwrap_err();
        assert!(err.as_transport().is_some(), "typed transport error: {err}");
    }

    #[test]
    fn oversized_block_is_rejected_before_allocation() {
        // A corrupt length prefix far beyond the cap must be refused.
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        let err = read_block(&mut &buf[..], "model").unwrap_err();
        let t = err.as_transport().expect("typed transport error");
        assert_eq!(t.kind, edge_runtime::TransportErrorKind::Protocol);
        assert!(!t.is_retryable());
    }
}
