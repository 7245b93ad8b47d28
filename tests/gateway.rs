//! Gateway serving behaviour: bursty multi-client traffic with bit-exact
//! outputs and bounded tail latency, typed deadline/overload shedding,
//! percentile monotonicity against the live session metrics, and the
//! batcher's linger/size invariants as properties.

use cnn_model::exec::{self, deterministic_input, ModelWeights};
use cnn_model::{LayerOp, Model, PartitionScheme, VolumeSplit};
use edge_gateway::{Batcher, Gateway, GatewayConfig, GatewayError, Priority};
use edge_runtime::session::Deploy;
use edge_runtime::RuntimeOptions;
use edge_telemetry::{Stage, Telemetry};
use edgesim::ExecutionPlan;
use proptest::prelude::*;
use std::time::{Duration, Instant};

fn model() -> Model {
    Model::new(
        "gateway-test",
        tensor::Shape::new(2, 16, 12),
        &[
            LayerOp::conv(4, 3, 1, 1),
            LayerOp::pool(2, 2),
            LayerOp::fc(3),
        ],
    )
    .unwrap()
}

fn two_device_plan(model: &Model) -> ExecutionPlan {
    let scheme = PartitionScheme::single_volume(model);
    let split = VolumeSplit::equal(2, model.prefix_output().h);
    ExecutionPlan::from_splits(model, &scheme, &[split], 2).unwrap()
}

fn deploy_gateway(model: &Model, weights: &ModelWeights, config: GatewayConfig) -> Gateway {
    let plan = two_device_plan(model);
    let session = Deploy::new(model, &plan, weights)
        .options(RuntimeOptions::default().with_max_in_flight(4))
        .start()
        .unwrap();
    Gateway::over(session, config, &Telemetry::disabled()).unwrap()
}

#[test]
fn bursty_clients_get_bit_exact_outputs_with_bounded_p99_and_zero_loss() {
    const CLIENTS: u64 = 4;
    const BURSTS: u64 = 2;
    const BURST_SIZE: u64 = 4;
    let m = model();
    let weights = ModelWeights::deterministic(&m, 51);
    let gateway = deploy_gateway(
        &m,
        &weights,
        GatewayConfig::default()
            .with_max_batch(4)
            .with_max_linger(Duration::from_millis(1)),
    );

    std::thread::scope(|scope| {
        for client_id in 0..CLIENTS {
            let client = if client_id == 0 {
                gateway.client().with_priority(Priority::High)
            } else {
                gateway.client()
            };
            let m = &m;
            let weights = &weights;
            scope.spawn(move || {
                for burst in 0..BURSTS {
                    // Fire the whole burst before claiming anything — this
                    // is what gives the batcher something to batch.
                    let images: Vec<_> = (0..BURST_SIZE)
                        .map(|i| deterministic_input(m, 1_000 * client_id + 10 * burst + i))
                        .collect();
                    let responses: Vec<_> = images.iter().map(|img| client.infer(img)).collect();
                    for (img, response) in images.iter().zip(responses) {
                        let out = response.wait().expect("no request may be lost");
                        let reference = exec::run_full(m, weights, img).unwrap();
                        assert_eq!(
                            &out,
                            reference.last().unwrap(),
                            "client {client_id} burst {burst}: output differs from single-device"
                        );
                    }
                }
            });
        }
    });

    let total = CLIENTS * BURSTS * BURST_SIZE;
    let metrics = gateway.shutdown().unwrap();
    assert_eq!(metrics.completed, total, "zero lost responses");
    assert_eq!(metrics.shed_deadline + metrics.shed_overload, 0);
    assert_eq!(metrics.queue_depth, 0);
    assert_eq!(
        metrics.session.images, total as usize,
        "gateway and session disagree on served images"
    );
    // Tail latency is measured, monotone, and bounded: an in-process
    // deployment of this tiny model serves every request well under the
    // (generous) bound unless batching or scheduling regressed badly.
    assert!(metrics.p50_ms > 0.0);
    assert!(metrics.p50_ms <= metrics.p95_ms && metrics.p95_ms <= metrics.p99_ms);
    assert!(
        metrics.p99_ms < 30_000.0,
        "p99 blew up: {:.1} ms",
        metrics.p99_ms
    );
    assert!(metrics.batches > 0);
    assert!(metrics.batch_occupancy >= 1.0);
}

#[test]
fn deadline_misses_are_shed_with_a_typed_error() {
    let m = model();
    let weights = ModelWeights::deterministic(&m, 52);
    let gateway = deploy_gateway(&m, &weights, GatewayConfig::default());
    let client = gateway.client();
    let img = deterministic_input(&m, 1);

    // A generous deadline completes in time, bit-exact.
    let out = client
        .infer_with_deadline(&img, Duration::from_secs(120))
        .wait()
        .expect("a generous deadline must be met");
    let reference = exec::run_full(&m, &weights, &img).unwrap();
    assert_eq!(&out, reference.last().unwrap());

    // An already-expired deadline is shed with the typed error — the
    // request never occupies the cluster.
    let err = client
        .infer_with_deadline(&img, Duration::ZERO)
        .wait()
        .expect_err("an expired deadline cannot be met");
    assert_eq!(err, GatewayError::DeadlineExceeded);

    // With a service estimate now recorded and the gateway idle, deadline
    // traffic is still admitted and re-measured — a stale estimate can
    // never wedge an idle gateway into shedding everything.
    client
        .infer_with_deadline(&img, Duration::from_secs(120))
        .wait()
        .expect("an idle gateway must admit and serve deadline traffic");

    let metrics = gateway.shutdown().unwrap();
    assert_eq!(metrics.completed, 2);
    assert!(metrics.shed_deadline >= 1);
    // The shed reason is attributed to the shedding client's class.
    assert_eq!(
        metrics.shed_deadline_by_class.iter().sum::<u64>(),
        metrics.shed_deadline
    );
    assert!(metrics.shed_deadline_by_class[Priority::Normal.index()] >= 1);
    assert_eq!(metrics.shed_overload_by_class, [0, 0, 0]);
    assert!(metrics.est_service_ms > 0.0);
}

#[test]
fn overload_is_shed_at_admission_with_a_typed_error() {
    let m = model();
    let weights = ModelWeights::deterministic(&m, 53);
    // Large linger + large batch: the first request provably sits in the
    // queue for ~100 ms, so a capacity of one sheds the second request
    // deterministically.
    let gateway = deploy_gateway(
        &m,
        &weights,
        GatewayConfig::default()
            .with_max_batch(8)
            .with_max_linger(Duration::from_millis(100))
            .with_queue_capacity(1),
    );
    let client = gateway.client();
    let img = deterministic_input(&m, 2);
    let first = client.infer(&img);
    let second = client.infer(&img);
    match second.wait() {
        Err(GatewayError::Overloaded { queue_depth }) => assert_eq!(queue_depth, 1),
        other => panic!("expected Overloaded, got {other:?}"),
    }
    first.wait().expect("the admitted request still completes");
    let metrics = gateway.shutdown().unwrap();
    assert_eq!(metrics.completed, 1);
    assert_eq!(metrics.shed_overload, 1);
    assert_eq!(
        metrics.shed_overload_by_class,
        [0, 1, 0],
        "the overload shed must land on the Normal class"
    );
}

#[test]
fn traced_gateway_records_queue_spans_and_per_class_shed_reasons() {
    let m = model();
    let weights = ModelWeights::deterministic(&m, 57);
    let telemetry = Telemetry::new();
    let plan = two_device_plan(&m);
    let session = Deploy::new(&m, &plan, &weights)
        .options(RuntimeOptions::default().with_max_in_flight(4))
        .telemetry(&telemetry)
        .start()
        .unwrap();
    let gateway = Gateway::over(
        session,
        GatewayConfig::default().with_max_linger(Duration::ZERO),
        &telemetry,
    )
    .unwrap();
    let client = gateway.client();
    client.infer(&deterministic_input(&m, 7)).wait().unwrap();
    // A Low-priority request with an expired deadline sheds, and the shed
    // is attributed to its class (not just counted globally).
    let low = gateway.client().with_priority(Priority::Low);
    let err = low
        .infer_with_deadline(&deterministic_input(&m, 8), Duration::ZERO)
        .wait()
        .expect_err("an expired deadline cannot be met");
    assert_eq!(err, GatewayError::DeadlineExceeded);

    let metrics = gateway.shutdown().unwrap();
    assert_eq!(metrics.completed, 1);
    assert_eq!(metrics.dispatched, 1);
    assert_eq!(metrics.queue_depth, 0);
    assert_eq!(metrics.shed_deadline_by_class, [0, 0, 1]);
    assert_eq!(
        metrics.shed_deadline_by_class.iter().sum::<u64>(),
        metrics.shed_deadline
    );

    // The served image's trace covers the whole path — gateway queue wait,
    // session submit/scatter, device recv/compute, and the response — on
    // one shared hub.
    let report = telemetry.collect();
    let stages = report.stages_seen(0);
    for stage in [
        "gateway-queue",
        "submit",
        "scatter",
        "recv",
        "compute",
        "respond",
    ] {
        assert!(
            stages.contains(&stage),
            "stage {stage} missing from image 0's trace: {stages:?}"
        );
    }
    // The one shed left one instant naming its class (low half) and its
    // reason (high half: 0 = deadline).
    let sheds: Vec<u32> = report
        .tracks
        .iter()
        .flat_map(|t| &t.events)
        .filter(|e| e.stage == Stage::Shed)
        .map(|e| e.arg)
        .collect();
    assert_eq!(sheds, vec![Priority::Low.index() as u32]);
}

#[test]
fn a_post_swap_image_is_queued_and_answered_under_the_new_epoch() {
    let m = model();
    let weights = ModelWeights::deterministic(&m, 58);
    let telemetry = Telemetry::new();
    let plan = two_device_plan(&m);
    let session = Deploy::new(&m, &plan, &weights)
        .telemetry(&telemetry)
        .start()
        .unwrap();
    let gateway = Gateway::over(
        session,
        GatewayConfig::default().with_max_linger(Duration::ZERO),
        &telemetry,
    )
    .unwrap();
    let client = gateway.client();
    client.infer(&deterministic_input(&m, 1)).wait().unwrap();
    assert_eq!(gateway.apply_plan(&plan).unwrap().epoch, 1);
    client.infer(&deterministic_input(&m, 2)).wait().unwrap();
    gateway.shutdown().unwrap();

    // Image 1 was admitted at epoch 1: its queue span and its response
    // instant sit on that epoch's trace.
    let report = telemetry.collect();
    let epochs = |stage: Stage| -> Vec<u64> {
        report
            .tracks
            .iter()
            .flat_map(|t| &t.events)
            .filter(|e| e.stage == stage && e.trace.image == 1)
            .map(|e| e.trace.epoch)
            .collect()
    };
    assert_eq!(epochs(Stage::GatewayQueue), vec![1]);
    assert_eq!(epochs(Stage::Respond), vec![1]);
}

#[test]
fn metrics_percentiles_are_monotone_and_match_the_session() {
    let m = model();
    let weights = ModelWeights::deterministic(&m, 54);
    let gateway = deploy_gateway(
        &m,
        &weights,
        GatewayConfig::default().with_max_linger(Duration::ZERO),
    );
    let client = gateway.client();

    let mut last_completed = 0u64;
    for i in 0..5u64 {
        client
            .infer(&deterministic_input(&m, 30 + i))
            .wait()
            .unwrap();
        let snap = gateway.metrics();
        assert_eq!(snap.completed, last_completed + 1);
        // Percentiles come from one histogram: monotone in the quantile.
        assert!(
            snap.p50_ms <= snap.p95_ms && snap.p95_ms <= snap.p99_ms,
            "p50 {} / p95 {} / p99 {}",
            snap.p50_ms,
            snap.p95_ms,
            snap.p99_ms
        );
        // The gateway's delivered count can never overtake the session's
        // completed-image count, and sequential traffic keeps them equal.
        assert_eq!(snap.session.images as u64, snap.completed);
        assert!(snap.est_service_ms > 0.0);
        last_completed = snap.completed;
    }
    let final_metrics = gateway.shutdown().unwrap();
    assert_eq!(final_metrics.completed, 5);
    assert_eq!(final_metrics.session.images, 5);
}

#[test]
fn dropping_the_gateway_tears_the_cluster_down_despite_live_clients() {
    let m = model();
    let weights = ModelWeights::deterministic(&m, 56);
    let gateway = deploy_gateway(&m, &weights, GatewayConfig::default());
    let client = gateway.client();
    client.infer(&deterministic_input(&m, 1)).wait().unwrap();
    // The client handle keeps the shared state alive, but dropping the
    // gateway must still halt and join the session's worker threads (the
    // test harness would hang on leaked threads otherwise) and resolve
    // later submissions as Closed.
    drop(gateway);
    let err = client
        .infer(&deterministic_input(&m, 2))
        .wait()
        .expect_err("the cluster is gone");
    assert_eq!(err, GatewayError::Closed);
}

#[test]
fn requests_after_shutdown_resolve_to_closed() {
    let m = model();
    let weights = ModelWeights::deterministic(&m, 55);
    let gateway = deploy_gateway(&m, &weights, GatewayConfig::default());
    let client = gateway.client();
    client.infer(&deterministic_input(&m, 1)).wait().unwrap();
    gateway.shutdown().unwrap();
    // The client handle outlives the gateway; submissions now fail typed.
    let err = client
        .infer(&deterministic_input(&m, 2))
        .wait()
        .expect_err("the gateway is gone");
    assert_eq!(err, GatewayError::Closed);
}

/// Sustained High-priority load must not starve Low work indefinitely.
/// Driven with synthetic clocks on the batcher directly: one Low item
/// arrives, then High traffic keeps every wave full forever.  Without a
/// starvation bound the Low item never leaves; with
/// `with_max_starvation(bound)` it is dispatched once its wait crosses the
/// bound — i.e. its wait is bounded by `bound` plus one dispatch interval.
#[test]
fn sustained_high_load_cannot_starve_low_beyond_the_bound() {
    let t0 = Instant::now();
    let tick = Duration::from_millis(10);
    let bound = Duration::from_millis(50);
    const LOW: usize = 9_999;

    // Adversarial arrival schedule: every tick, two fresh High items show
    // up and exactly two credits are available — so strict class order
    // never reaches the Low queue.
    let run = |mut b: Batcher<usize>| -> Option<Duration> {
        b.push(LOW, Priority::Low, t0);
        for step in 0..40u64 {
            let now = t0 + tick * (step as u32 + 1);
            b.push(2 * step as usize, Priority::High, now);
            b.push(2 * step as usize + 1, Priority::High, now);
            let wave = b.take_batch(2, now);
            assert_eq!(wave.len(), 2, "waves stay saturated with High work");
            if wave.contains(&LOW) {
                return Some(now - t0);
            }
        }
        None
    };

    // Strict class order: the Low item starves for the whole experiment.
    let strict = Batcher::new(2, Duration::ZERO);
    assert_eq!(
        run(strict),
        None,
        "without a bound, sustained High load starves Low indefinitely"
    );

    // Bounded: the Low item leaves with the first wave after its wait
    // crosses the bound, displacing a fresh High arrival.
    let fair = Batcher::new(2, Duration::ZERO).with_max_starvation(Some(bound));
    let waited = run(fair).expect("the bound must free the Low item");
    assert!(waited >= bound, "promotion cannot fire early");
    assert!(
        waited <= bound + tick,
        "Low waited {waited:?}, beyond the bound plus one dispatch interval"
    );
}

/// The same fairness contract end-to-end: a live gateway configured with
/// `with_max_starvation` completes a Low request while High clients hammer
/// it, instead of shedding it on deadline.
#[test]
fn gateway_with_starvation_bound_serves_low_under_high_load() {
    let m = model();
    let weights = ModelWeights::deterministic(&m, 97);
    let gateway = deploy_gateway(
        &m,
        &weights,
        GatewayConfig::default()
            .with_max_batch(2)
            .with_max_linger(Duration::from_millis(1))
            .with_max_starvation(Duration::from_millis(25)),
    );

    let out = std::thread::scope(|scope| {
        // Two High-priority clients keep the queue saturated.
        for client_id in 0..2u64 {
            let client = gateway.client().with_priority(Priority::High);
            let m = &m;
            scope.spawn(move || {
                for i in 0..24u64 {
                    let img = deterministic_input(m, 500 * client_id + i);
                    client.infer(&img).wait().expect("high request failed");
                }
            });
        }
        // One Low request submitted into the thick of it must still finish.
        let low = gateway.client().with_priority(Priority::Low);
        let img = deterministic_input(&m, 4_242);
        let handle = scope.spawn(move || low.infer(&img).wait());
        handle.join().expect("low client panicked")
    });
    let img = deterministic_input(&m, 4_242);
    let oracle = exec::run_full(&m, &weights, &img).unwrap().pop().unwrap();
    assert_eq!(
        out.expect("the bounded batcher must serve the Low request"),
        oracle
    );
    let metrics = gateway.shutdown().unwrap();
    assert_eq!(metrics.completed, 49, "all 48 High + 1 Low completed");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The batcher's linger/size contract, driven by synthetic clocks: a
    /// wave never exceeds `max_batch`; while not ready the queue is below
    /// the size knob and the oldest wait is below the linger knob; every
    /// item is emitted exactly once, most-urgent class first, FIFO within
    /// its class.
    #[test]
    fn batcher_linger_and_size_invariants(
        max_batch in 1usize..6,
        linger_ms in 0u64..20,
        raw_arrivals in proptest::collection::vec((0u64..50, 0usize..3), 1..40),
    ) {
        let base = Instant::now();
        let linger = Duration::from_millis(linger_ms);
        let mut arrivals = raw_arrivals;
        arrivals.sort_by_key(|(off, _)| *off);
        let classes: Vec<usize> = arrivals.iter().map(|(_, c)| *c).collect();

        let mut batcher: Batcher<usize> = Batcher::new(max_batch, linger);
        let mut emitted: Vec<Vec<usize>> = Vec::new();
        for (idx, (off, class)) in arrivals.iter().enumerate() {
            let now = base + Duration::from_millis(*off);
            // Dispatch everything due before this arrival.
            while batcher.ready(now) {
                let batch = batcher.take_batch(usize::MAX, now);
                prop_assert!(!batch.is_empty(), "a due wave cannot be empty");
                prop_assert!(batch.len() <= max_batch, "wave exceeds max_batch");
                emitted.push(batch);
            }
            // Not ready means neither knob has tripped.
            prop_assert!(batcher.len() < max_batch);
            if let Some(wait) = batcher.oldest_wait(now) {
                prop_assert!(wait < linger);
            }
            let priority = [Priority::High, Priority::Normal, Priority::Low][*class];
            batcher.push(idx, priority, now);
        }
        // Past the last arrival plus the linger, everything left is due.
        let end = base + Duration::from_millis(51) + linger;
        while !batcher.is_empty() {
            prop_assert!(batcher.ready(end), "leftovers must be due after the linger");
            let batch = batcher.take_batch(usize::MAX, end);
            prop_assert!(!batch.is_empty() && batch.len() <= max_batch);
            emitted.push(batch);
        }

        // Exactly once.
        let mut all: Vec<usize> = emitted.iter().flatten().copied().collect();
        all.sort_unstable();
        let expected: Vec<usize> = (0..arrivals.len()).collect();
        prop_assert_eq!(all, expected);
        // Within a wave, urgency never increases.
        for batch in &emitted {
            for pair in batch.windows(2) {
                prop_assert!(classes[pair[0]] <= classes[pair[1]]);
            }
        }
        // Across waves, each class leaves in arrival order.
        for class in 0..3usize {
            let order: Vec<usize> = emitted
                .iter()
                .flatten()
                .copied()
                .filter(|i| classes[*i] == class)
                .collect();
            prop_assert!(order.windows(2).all(|p| p[0] < p[1]), "class {} not FIFO", class);
        }
    }
}
