//! Random-plan differential test through the runtime.
//!
//! Each case draws a small model (convs with `padding ≤ ⌊f/2⌋` and
//! max-pools, sometimes an FC head), a random plan on 1–5 devices (random
//! volume boundaries and cuts, zero-row parts included) and a window of 1
//! or 4 images.  It serves a few images in process in `f32`, swaps to a
//! second random plan mid-stream with `apply_plan`, serves a few more, and
//! checks:
//!
//! * every output is bit-equal to single-device `exec::run_full`;
//! * per image, the data frames the fabric carried are exactly the plan's
//!   non-local transfers — same (from, to, stage, rows), none missing,
//!   none extra.
//!
//! A failing case panics with its seed and a one-line plan; the generator
//! is a fixed-seed SplitMix64, so the seed alone replays the case.

use cnn_model::exec::{self, deterministic_input, ModelWeights};
use cnn_model::{LayerOp, Model, PartitionScheme, VolumeSplit};
use edge_runtime::transport::FrameTx;
use edge_runtime::{
    ChannelTransport, Deploy, Frame, FrameKind, Result as RtResult, RuntimeOptions, Transport,
};
use edgesim::{Endpoint, ExecutionPlan};
use std::sync::mpsc::Receiver;
use std::sync::{Arc, Mutex};
use std::time::Duration;
use tensor::Shape;

/// Images served under each of the two plans.
const IMAGES_PER_PLAN: u64 = 3;

/// SplitMix64: a tiny, fully determined generator.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next() % (hi - lo + 1) as u64) as usize
    }

    fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.range(0, items.len() - 1)]
    }
}

/// A random model: 1, 3 or 4 input channels, 6–40 rows and columns, 2–6
/// conv / pool layers, and an FC head on half the draws.  Draws that do not
/// fit their input are redrawn.
fn random_model(g: &mut Gen) -> Model {
    loop {
        let input = Shape::new(g.pick(&[1, 3, 4]), g.range(6, 40), g.range(6, 40));
        let mut ops: Vec<LayerOp> = (0..g.range(2, 6))
            .map(|_| {
                if g.range(0, 2) < 2 {
                    let f = g.pick(&[1, 3, 5]);
                    LayerOp::conv(g.range(1, 6), f, g.range(1, 2), g.range(0, f / 2))
                } else {
                    let (f, s) = g.pick(&[(2, 2), (3, 2), (3, 1), (2, 1)]);
                    LayerOp::pool(f, s)
                }
            })
            .collect();
        if g.range(0, 1) == 1 {
            ops.push(LayerOp::fc(g.range(1, 8)));
        }
        if let Ok(model) = Model::new("fuzz", input, &ops) {
            return model;
        }
    }
}

/// A random plan on `devices` devices: random volume boundaries, and per
/// volume `devices - 1` random cuts (equal cuts give zero-row parts).
fn random_plan(g: &mut Gen, model: &Model, devices: usize) -> ExecutionPlan {
    let len = model.distributable_len();
    let mut boundaries: Vec<usize> = (1..len).filter(|_| g.range(0, 1) == 1).collect();
    boundaries.insert(0, 0);
    boundaries.push(len);
    let scheme = PartitionScheme::new(model, boundaries).expect("boundaries are in range");
    let splits: Vec<VolumeSplit> = scheme
        .volumes()
        .iter()
        .map(|v| {
            let h = v.last_output_height(model);
            let cuts = (1..devices).map(|_| g.range(0, h)).collect();
            VolumeSplit::new(cuts, h)
        })
        .collect();
    ExecutionPlan::from_splits(model, &scheme, &splits, devices).expect("a valid random plan")
}

/// One line naming the model and the plan, for a failure message.
fn describe(model: &Model, plan: &ExecutionPlan) -> String {
    let layers: Vec<String> = model
        .layers()
        .iter()
        .map(|l| match l.op {
            LayerOp::Conv {
                c_out,
                f,
                stride,
                padding,
                ..
            } => format!("c{c_out}/f{f}/s{stride}/p{padding}"),
            LayerOp::MaxPool { f, stride } => format!("pool{f}/{stride}"),
            LayerOp::Fc { out_features } => format!("fc{out_features}"),
        })
        .collect();
    let volumes: Vec<String> = plan
        .volumes
        .iter()
        .map(|va| {
            let v = va.parts[0].volume;
            let rows: Vec<String> = va
                .parts
                .iter()
                .map(|p| format!("{}..{}", p.output_rows.0, p.output_rows.1))
                .collect();
            format!("L{}..{} [{}]", v.start, v.end, rows.join(" "))
        })
        .collect();
    let s = model.input();
    format!(
        "input {}x{}x{} [{}] volumes {} head {:?}",
        s.c,
        s.h,
        s.w,
        layers.join(" "),
        volumes.join(" | "),
        plan.head_device
    )
}

/// One data frame the fabric carried, as routing sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Hop {
    from: Endpoint,
    to: Endpoint,
    stage: usize,
    rows: (usize, usize),
}

/// `hops` in one canonical order, so two lists compare as multisets.
fn sorted(mut hops: Vec<Hop>) -> Vec<Hop> {
    let rank = |e: Endpoint| match e {
        Endpoint::Device(d) => d,
        Endpoint::Requester => usize::MAX,
    };
    hops.sort_by_key(|h| (rank(h.from), rank(h.to), h.stage, h.rows));
    hops
}

/// A data frame tagged with the image and epoch it belongs to.
type Sent = (u64, u32, Hop);

/// A fabric that logs every data frame sent over it, then delivers it
/// through an in-process channel fabric.
struct Counting {
    inner: ChannelTransport,
    log: Arc<Mutex<Vec<Sent>>>,
}

struct CountingTx {
    from: Endpoint,
    to: Endpoint,
    inner: Box<dyn FrameTx>,
    log: Arc<Mutex<Vec<Sent>>>,
}

impl FrameTx for CountingTx {
    fn send(&mut self, frame: &Frame) -> RtResult<usize> {
        if matches!(frame.kind, FrameKind::Rows | FrameKind::Result) {
            let hop = Hop {
                from: self.from,
                to: self.to,
                stage: frame.stage as usize,
                rows: (frame.row_lo as usize, frame.row_hi()),
            };
            let mut log = self.log.lock().expect("frame log poisoned");
            log.push((frame.epoch, frame.image, hop));
        }
        self.inner.send(frame)
    }
}

impl Transport for Counting {
    fn open(&mut self, from: Endpoint, to: Endpoint) -> RtResult<Box<dyn FrameTx>> {
        Ok(Box::new(CountingTx {
            from,
            to,
            inner: self.inner.open(from, to)?,
            log: Arc::clone(&self.log),
        }))
    }

    fn inbox(&mut self, at: Endpoint) -> RtResult<Receiver<Vec<u8>>> {
        self.inner.inbox(at)
    }
}

/// The plan's non-local transfers over every stage: what one image ships.
fn expected_hops(plan: &ExecutionPlan) -> Vec<Hop> {
    let hops = (0..=plan.finish_stage()).flat_map(|stage| {
        plan.transfers(stage)
            .filter(|t| !t.is_local())
            .map(move |t| Hop {
                from: t.from,
                to: t.to,
                stage,
                rows: t.rows,
            })
    });
    sorted(hops.collect())
}

/// Serves one case; an `Err` names what went wrong.
fn run_case(seed: u64) -> Result<(), String> {
    let mut g = Gen(seed);
    let model = random_model(&mut g);
    let devices = g.range(1, 5);
    let plans = [
        random_plan(&mut g, &model, devices),
        random_plan(&mut g, &model, devices),
    ];
    let window = g.pick(&[1, 4]);
    let weights = ModelWeights::deterministic(&model, seed);
    let context = |what: String| {
        format!(
            "{what}\n  window {window}, plan 0: {}\n  plan 1: {}",
            describe(&model, &plans[0]),
            describe(&model, &plans[1])
        )
    };

    let log = Arc::new(Mutex::new(Vec::new()));
    let mut fabric = Counting {
        inner: ChannelTransport::new(devices),
        log: Arc::clone(&log),
    };
    let options = RuntimeOptions::default()
        .with_max_in_flight(window)
        .with_recv_timeout(Duration::from_secs(20));
    let session = Deploy::new(&model, &plans[0], &weights)
        .over(&mut fabric)
        .options(options)
        .start()
        .map_err(|e| context(format!("deploy: {e}")))?;
    for (epoch, plan) in plans.iter().enumerate() {
        if epoch > 0 {
            session
                .apply_plan(plan)
                .map_err(|e| context(format!("apply_plan: {e}")))?;
        }
        let first = epoch as u64 * IMAGES_PER_PLAN;
        let images: Vec<_> = (first..first + IMAGES_PER_PLAN)
            .map(|i| deterministic_input(&model, seed ^ i))
            .collect();
        let tickets = images
            .iter()
            .map(|img| session.submit(img))
            .collect::<RtResult<Vec<_>>>()
            .map_err(|e| context(format!("submit: {e}")))?;
        for (img, ticket) in images.iter().zip(tickets) {
            let out = session
                .wait(ticket)
                .map_err(|e| context(format!("wait: {e}")))?;
            let reference = exec::run_full(&model, &weights, img).map_err(|e| e.to_string())?;
            if Some(&out) != reference.last() {
                return Err(context(format!(
                    "epoch {epoch}: output differs from run_full"
                )));
            }
        }
    }
    session
        .shutdown()
        .map_err(|e| context(format!("shutdown: {e}")))?;

    let log = log.lock().expect("frame log poisoned");
    for (epoch, plan) in plans.iter().enumerate() {
        let expected = expected_hops(plan);
        let first = epoch as u64 * IMAGES_PER_PLAN;
        for image in first..first + IMAGES_PER_PLAN {
            let shipped = sorted(
                log.iter()
                    .filter(|(e, i, _)| *e == epoch as u64 && u64::from(*i) == image)
                    .map(|&(_, _, hop)| hop)
                    .collect(),
            );
            if shipped != expected {
                return Err(context(format!(
                    "image {image}: frames shipped {shipped:?}\n  plan lists {expected:?}"
                )));
            }
        }
    }
    Ok(())
}

/// Runs `cases` cases drawn from `seed`, panicking on the first failure
/// with the case seed that replays it.
fn fuzz(seed: u64, cases: u64) {
    let mut g = Gen(seed);
    for case in 0..cases {
        let case_seed = g.next();
        if let Err(e) = run_case(case_seed) {
            panic!("plan fuzz case {case} (seed {seed}, case seed {case_seed:#x}) failed: {e}");
        }
    }
}

#[test]
fn random_plans_serve_bit_exact_and_ship_exactly_the_planned_frames() {
    fuzz(0x00d1_57ed, 48);
}

#[test]
#[ignore = "a larger count on two more seeds; run with --ignored in release"]
fn random_plans_at_the_larger_count() {
    for seed in [0x5eed_0002, 0x5eed_0003] {
        fuzz(seed, 300);
    }
}
