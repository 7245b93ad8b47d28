//! Measured metrics of a runtime execution, in the simulator's vocabulary.
//!
//! [`RuntimeReport`] embeds an [`edgesim::SimReport`] built from *measured*
//! per-image latencies and per-device compute/transmission breakdowns, so
//! every consumer of simulator output (figure binaries, comparisons, tests)
//! can read runtime measurements unchanged.  [`MeasuredCompute`] closes the
//! loop in the other direction: it feeds the runtime's measured kernel times
//! into the simulator as a `PartCompute` backend, which is how the
//! runtime-vs-simulator agreement tests work.

use cnn_model::{LayerVolume, Model, PartPlan};
use device_profile::{DeviceSpec, DeviceType};
use edgesim::{simulate, Cluster, ExecutionPlan, PartCompute, SimOptions, SimReport};
use netsim::{LinkConfig, TraceKind};
use serde::Serialize;
use std::collections::HashMap;

/// Per-device measurements of one execution.
#[derive(Debug, Clone, Default, Serialize)]
pub struct DeviceMetrics {
    /// Total kernel time across all images (split-parts plus head).
    pub compute_ms: f64,
    /// Wall time this device's send thread spent on the wire.
    pub tx_ms: f64,
    /// Wall time the requester spent scattering input rows to this device.
    pub scatter_ms: f64,
    /// Kernel time per volume (summed over images).
    pub per_volume_ms: Vec<f64>,
    /// Images of each volume this device computed.
    pub per_volume_images: Vec<u64>,
    /// FC-head kernel time (head device only).
    pub head_ms: f64,
    /// Head executions.
    pub head_images: u64,
    /// Frames / bytes in and out of the transport.
    pub frames_in: u64,
    /// Encoded bytes received.
    pub bytes_in: u64,
    /// Frames sent.
    pub frames_out: u64,
    /// Encoded bytes sent.
    pub bytes_out: u64,
    /// High-water mark of distinct images simultaneously in assembly on
    /// this device — pipelining evidence.
    pub max_concurrent_images: usize,
    /// Weight layers packed into GEMM panels for this device: the layers of
    /// its deploy shard (0 when the deploy shared a caller's pack) plus its
    /// `Reconfigure` delta installs — it moves at deploy and swap time only,
    /// never per frame (the residency tests assert exactly that).
    pub layers_packed: u64,
    /// Data frames dropped because they carried an epoch older than the
    /// installed one — debris of an epoch re-sync, never of a drained plan
    /// swap.
    pub stale_frames: u64,
}

/// The full measurement of one runtime execution.
#[derive(Debug, Clone, Serialize)]
pub struct RuntimeReport {
    /// Measured metrics in the simulator's report shape: per-image latency,
    /// IPS over the stream, per-device compute/transmission means.
    pub sim: SimReport,
    /// Images streamed.
    pub images: usize,
    /// Wall-clock time of the whole stream.
    pub wall_ms: f64,
    /// Throughput over the wall clock — with pipelining this exceeds the
    /// closed-loop `sim.ips` (which divides by summed latencies).
    pub measured_ips: f64,
    /// High-water mark of images in flight at the requester.
    pub max_in_flight_observed: usize,
    /// The serving epoch the snapshot was taken under (`0` until the first
    /// [`crate::Session::apply_plan`] swap).  Metrics windows taken before
    /// and after a swap carry different epochs, so consumers (the online
    /// adaptation, dashboards) can tell them apart.
    pub epoch: u64,
    /// Per-device measurements.
    pub devices: Vec<DeviceMetrics>,
}

impl RuntimeReport {
    /// Builds a report from requester-side measurements and per-device
    /// counters.  `latencies_ms` holds one entry per *completed* image (in
    /// completion order), which is what makes mid-stream snapshots and
    /// final reports share one constructor.
    pub fn from_measured(
        latencies_ms: Vec<f64>,
        devices: Vec<DeviceMetrics>,
        wall_ms: f64,
        max_in_flight_observed: usize,
        epoch: u64,
    ) -> Self {
        let images = latencies_ms.len();
        let compute_totals: Vec<f64> = devices.iter().map(|m| m.compute_ms).collect();
        let tx_totals: Vec<f64> = devices.iter().map(|m| m.tx_ms + m.scatter_ms).collect();
        let sim = SimReport::from_raw(latencies_ms, compute_totals, tx_totals);
        let measured_ips = if wall_ms > 0.0 {
            images as f64 / (wall_ms / 1e3)
        } else {
            0.0
        };
        Self {
            sim,
            images,
            wall_ms,
            measured_ips,
            max_in_flight_observed,
            epoch,
            devices,
        }
    }

    /// Relative gap between this measurement's IPS and the simulator's
    /// `predicted` IPS: `|measured - predicted| / predicted`, or `None` when
    /// the prediction is non-positive (nothing meaningful to divide by —
    /// e.g. a degenerate simulated stream).
    ///
    /// The simulator models the paper's closed-loop stream (one image in
    /// flight), so the measured side is `sim.ips` for closed-loop runs
    /// (`max_in_flight_observed <= 1`) and the wall-clock `measured_ips`
    /// otherwise — under pipelining, per-image latencies include queueing
    /// and their inverse no longer measures throughput.
    pub fn ips_gap(&self, predicted: &SimReport) -> Option<f64> {
        if predicted.ips <= 0.0 {
            return None;
        }
        let measured = if self.max_in_flight_observed <= 1 {
            self.sim.ips
        } else {
            self.measured_ips
        };
        Some((measured - predicted.ips).abs() / predicted.ips)
    }
}

/// An `edgesim` compute backend backed by a runtime's measured kernel
/// times: device `d`'s part of volume `v` costs the mean wall time the
/// runtime measured for exactly that (device, volume) pair.
///
/// Only meaningful for the plan the report was measured under — the lookup
/// is by layer-volume identity, not by part geometry.
#[derive(Debug, Clone)]
pub struct MeasuredCompute {
    volume_index: HashMap<LayerVolume, usize>,
    mean_ms: Vec<Vec<f64>>,
    head_mean_ms: f64,
}

impl MeasuredCompute {
    /// Builds the backend from a report and the plan it measured.
    pub fn from_report(report: &RuntimeReport, plan: &ExecutionPlan) -> Self {
        let volume_index: HashMap<LayerVolume, usize> = plan
            .volumes
            .iter()
            .enumerate()
            .map(|(i, a)| (a.parts[0].volume, i))
            .collect();
        let mean_ms = report
            .devices
            .iter()
            .map(|m| {
                m.per_volume_ms
                    .iter()
                    .zip(&m.per_volume_images)
                    .map(|(ms, n)| if *n > 0 { ms / *n as f64 } else { 0.0 })
                    .collect()
            })
            .collect();
        let head_mean_ms = report
            .devices
            .iter()
            .filter(|m| m.head_images > 0)
            .map(|m| m.head_ms / m.head_images as f64)
            .fold(0.0, f64::max);
        Self {
            volume_index,
            mean_ms,
            head_mean_ms,
        }
    }
}

impl PartCompute for MeasuredCompute {
    fn part_compute_ms(&self, device: usize, _model: &Model, part: &PartPlan) -> f64 {
        if part.is_empty() {
            return 0.0;
        }
        self.volume_index
            .get(&part.volume)
            .map(|&i| self.mean_ms[device][i])
            .unwrap_or(0.0)
    }

    fn head_compute_ms(&self, _device: usize, _model: &Model) -> f64 {
        self.head_mean_ms
    }
}

/// Simulates the plan with the report's measured kernel times over an ideal
/// wire (the in-process transport's regime: effectively infinite bandwidth,
/// no I/O overhead).  Comparing the returned `ips` against the runtime's
/// closed-loop `sim.ips` validates the simulator's *structure* — dependency
/// graph, gather/compute ordering, head placement — against real execution.
pub fn predicted_report(
    model: &Model,
    plan: &ExecutionPlan,
    report: &RuntimeReport,
    num_images: usize,
) -> SimReport {
    let n = report.devices.len();
    let devices = (0..n)
        .map(|d| DeviceSpec::new(format!("measured-{d}"), DeviceType::Xavier))
        .collect();
    let ideal = LinkConfig {
        kind: TraceKind::Constant { mbps: 1e7 },
        io_overhead_ms: 0.0,
    };
    let cluster = Cluster::uniform(devices, ideal);
    predicted_report_on_cluster(model, &cluster, plan, report, num_images)
}

/// Like [`predicted_report`] but over a real cluster's links — the
/// comparison point for shaped-transport runs.
pub fn predicted_report_on_cluster(
    model: &Model,
    cluster: &Cluster,
    plan: &ExecutionPlan,
    report: &RuntimeReport,
    num_images: usize,
) -> SimReport {
    let compute = MeasuredCompute::from_report(report, plan);
    simulate(
        model,
        cluster,
        &compute,
        plan,
        SimOptions {
            num_images,
            start_ms: 0.0,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnn_model::{LayerOp, PartitionScheme, VolumeSplit};
    use tensor::Shape;

    fn model() -> Model {
        Model::new(
            "report-test",
            Shape::new(2, 16, 16),
            &[
                LayerOp::conv(4, 3, 1, 1),
                LayerOp::pool(2, 2),
                LayerOp::fc(3),
            ],
        )
        .unwrap()
    }

    fn report_for(plan: &ExecutionPlan, per_volume_ms: &[Vec<f64>]) -> RuntimeReport {
        let num_volumes = plan.num_volumes();
        let devices = per_volume_ms
            .iter()
            .map(|ms| DeviceMetrics {
                per_volume_ms: ms.clone(),
                per_volume_images: vec![1; num_volumes],
                head_ms: 2.0,
                head_images: 1,
                ..DeviceMetrics::default()
            })
            .collect();
        RuntimeReport {
            sim: SimReport::from_raw(
                vec![10.0],
                vec![0.0; per_volume_ms.len()],
                vec![0.0; per_volume_ms.len()],
            ),
            images: 1,
            wall_ms: 10.0,
            measured_ips: 100.0,
            max_in_flight_observed: 1,
            epoch: 0,
            devices,
        }
    }

    #[test]
    fn measured_compute_looks_up_by_volume() {
        let m = model();
        let scheme = PartitionScheme::single_volume(&m);
        let split = VolumeSplit::equal(2, m.prefix_output().h);
        let plan = ExecutionPlan::from_splits(&m, &scheme, &[split], 2).unwrap();
        let report = report_for(&plan, &[vec![5.0], vec![7.5]]);
        let mc = MeasuredCompute::from_report(&report, &plan);
        let part = &plan.volumes[0].parts[0];
        assert_eq!(mc.part_compute_ms(0, &m, part), 5.0);
        assert_eq!(mc.part_compute_ms(1, &m, part), 7.5);
        assert_eq!(mc.head_compute_ms(0, &m), 2.0);
    }

    #[test]
    fn ips_gap_is_none_for_nonpositive_predictions() {
        let report = RuntimeReport::from_measured(vec![10.0], Vec::new(), 10.0, 1, 0);
        let predicted = SimReport::from_raw(Vec::new(), Vec::new(), Vec::new());
        assert_eq!(predicted.ips, 0.0);
        assert_eq!(report.ips_gap(&predicted), None);
    }

    #[test]
    fn ips_gap_measures_closed_loop_runs_by_latency_and_pipelined_runs_by_wall_clock() {
        // Two images of 10 ms each: closed-loop `sim.ips` is 100.  Over a
        // 10 ms wall clock (both in flight at once) `measured_ips` is 200.
        // The prediction is 80 IPS.
        let predicted = SimReport::from_raw(vec![12.5, 12.5], Vec::new(), Vec::new());
        let gap = |in_flight| {
            RuntimeReport::from_measured(vec![10.0, 10.0], Vec::new(), 10.0, in_flight, 0)
                .ips_gap(&predicted)
                .unwrap()
        };
        assert!((gap(1) - 0.25).abs() < 1e-9, "closed loop: {}", gap(1));
        assert!((gap(2) - 1.5).abs() < 1e-9, "pipelined: {}", gap(2));
    }

    #[test]
    fn predicted_report_reflects_measured_times() {
        let m = model();
        let scheme = PartitionScheme::single_volume(&m);
        let split = VolumeSplit::equal(2, m.prefix_output().h);
        let plan = ExecutionPlan::from_splits(&m, &scheme, &[split], 2).unwrap();
        let slow = predicted_report(&m, &plan, &report_for(&plan, &[vec![50.0], vec![50.0]]), 4);
        let fast = predicted_report(&m, &plan, &report_for(&plan, &[vec![5.0], vec![5.0]]), 4);
        assert!(
            fast.ips > slow.ips * 5.0,
            "fast {} vs slow {}",
            fast.ips,
            slow.ips
        );
    }
}
