//! The layer-volume splitting problem as a Markov Decision Process
//! (paper §IV-C1).
//!
//! * **State** `s_l = (T_{l-1}, H_l, C_l, F_l, S_l)` — the accumulated
//!   latencies of all service providers after the previous layer-volume,
//!   plus the configuration (height, depth, filter, stride) of the current
//!   volume's last layer (Eq. 7).
//! * **Action** `a_l = (x_1, …, x_{|D|-1})` — cut points on the height of
//!   the volume's last layer (Eq. 6), produced by mapping the sorted raw
//!   actor output from `[-1, 1]` onto `[0, H_l]` (Eq. 9).
//! * **Reward** — zero for intermediate volumes, `1/T` at the end of the
//!   episode where `T` is the end-to-end execution latency (Eq. 8).
//!
//! The accumulated latencies come from the same stepper the simulator uses,
//! driven by either profiled predictions (training "estimated by the
//! profiling results") or the ground truth (training "directly measured with
//! real execution").

use crate::{DistrError, Result};
use cnn_model::{LayerVolume, Model, PartitionScheme, VolumeSplit};
use edgesim::{
    advance_volume, finish_image, Cluster, ClusterState, DataLocation, ExecutionPlan, PartCompute,
    VolumeAssignment,
};
use serde::{Deserialize, Serialize};

/// Scale (ms) used to normalise accumulated latencies in the observation.
const LATENCY_SCALE_MS: f64 = 100.0;

/// One step outcome of the environment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StepOutcome {
    /// Observation after the step (state `s_{l+1}`).
    pub next_state: Vec<f64>,
    /// Reward `r_l`.
    pub reward: f64,
    /// Whether the episode ended (all volumes split).
    pub done: bool,
}

/// The OSDS training / decision environment.
pub struct SplitEnv<'a> {
    model: &'a Model,
    cluster: &'a Cluster,
    compute: &'a dyn PartCompute,
    volumes: Vec<LayerVolume>,
    head_needed: bool,
    // Per-episode runtime state.
    state: ClusterState,
    location: DataLocation,
    current: usize,
    splits: Vec<VolumeSplit>,
    last_latency_ms: Option<f64>,
}

impl<'a> SplitEnv<'a> {
    /// Creates an environment for one (model, cluster, partition scheme)
    /// triple, with latency feedback from `compute`.
    pub fn new(
        model: &'a Model,
        cluster: &'a Cluster,
        compute: &'a dyn PartCompute,
        scheme: &PartitionScheme,
    ) -> Self {
        let volumes = scheme.volumes();
        let n = cluster.len();
        Self {
            model,
            cluster,
            compute,
            volumes,
            head_needed: !model.head_layers().is_empty(),
            state: ClusterState::new(0.0, n),
            location: DataLocation::Requester,
            current: 0,
            splits: Vec::new(),
            last_latency_ms: None,
        }
    }

    /// Number of service providers.
    pub fn num_devices(&self) -> usize {
        self.cluster.len()
    }

    /// Dimensionality of the observation vector.
    pub fn state_dim(&self) -> usize {
        self.num_devices() + 4
    }

    /// Dimensionality of the (raw) action vector.
    pub fn action_dim(&self) -> usize {
        self.num_devices().saturating_sub(1)
    }

    /// Number of layer-volumes (= episode length).
    pub fn num_volumes(&self) -> usize {
        self.volumes.len()
    }

    /// Resets the episode and returns the initial observation `s_1`.
    pub fn reset(&mut self) -> Vec<f64> {
        self.state = ClusterState::new(0.0, self.num_devices());
        self.location = DataLocation::Requester;
        self.current = 0;
        self.splits.clear();
        self.last_latency_ms = None;
        self.observe()
    }

    /// The current observation.
    pub fn observe(&self) -> Vec<f64> {
        let mut s = Vec::with_capacity(self.state_dim());
        for t in self.state.accumulated_latencies() {
            s.push(t / LATENCY_SCALE_MS);
        }
        let volume = self.volumes[self.current.min(self.volumes.len() - 1)];
        let last = &self.model.layers()[volume.end - 1];
        s.push(last.output.h as f64 / 100.0);
        s.push(last.output.c as f64 / 1000.0);
        s.push(last.filter() as f64 / 10.0);
        s.push(last.stride() as f64 / 4.0);
        s
    }

    /// Maps a raw actor output in `[-1, 1]^(|D|-1)` to a vertical split of a
    /// volume whose last layer has height `h` (Eq. 9: sort, then scale).
    ///
    /// # Panics
    /// If `raw` holds a NaN; [`SplitEnv::step`] refuses one first.
    pub fn map_action(raw: &[f64], h: usize) -> VolumeSplit {
        let mut sorted = raw.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite actions"));
        let cuts = sorted
            .iter()
            .map(|&a| {
                let clamped = a.clamp(-1.0, 1.0);
                ((clamped + 1.0) / 2.0 * h as f64).round() as usize
            })
            .collect();
        VolumeSplit::new(cuts, h)
    }

    /// Applies the (raw) action for the current layer-volume and advances the
    /// episode.  A non-finite action (a diverged actor, or one fed
    /// non-finite observations) is an error and leaves the episode as it
    /// was.
    pub fn step(&mut self, raw_action: &[f64]) -> Result<StepOutcome> {
        assert!(
            self.current < self.volumes.len(),
            "step() called on a finished episode; call reset()"
        );
        if let Some(bad) = raw_action.iter().find(|a| !a.is_finite()) {
            return Err(DistrError::InvalidConfig(format!(
                "non-finite action {bad} for layer-volume {} (has the actor diverged?)",
                self.current
            )));
        }
        let volume = self.volumes[self.current];
        let h = volume.last_output_height(self.model);
        let split = Self::map_action(raw_action, h);
        let parts = cnn_model::PartPlan::plan_all(self.model, volume, &split)?;
        let assignment = VolumeAssignment { parts };
        advance_volume(
            self.model,
            self.cluster,
            self.compute,
            &assignment,
            &mut self.location,
            &mut self.state,
        );
        self.splits.push(split);
        self.current += 1;

        let done = self.current == self.volumes.len();
        let reward = if done {
            let head_device = self.head_needed.then(|| assignment.head_device());
            let fin = finish_image(
                self.model,
                self.cluster,
                self.compute,
                &assignment,
                &self.state,
                head_device,
            );
            let total_ms = fin.finish_ms - self.state.image_start_ms;
            self.last_latency_ms = Some(total_ms);
            // Eq. 8 rewards 1/T; expressing T in seconds gives a reward on
            // the same scale as IPS, which keeps critic targets well-scaled.
            1e3 / total_ms.max(1e-3)
        } else {
            0.0
        };
        Ok(StepOutcome {
            next_state: self.observe(),
            reward,
            done,
        })
    }

    /// The split decisions taken so far in this episode.
    pub fn splits(&self) -> &[VolumeSplit] {
        &self.splits
    }

    /// End-to-end latency of the completed episode (ms), if finished.
    pub fn episode_latency_ms(&self) -> Option<f64> {
        self.last_latency_ms
    }

    /// Evaluates a full set of split decisions (one per volume) without
    /// touching the episode state; used to score baseline or stored
    /// strategies with the same latency oracle the agent trains against.
    pub fn evaluate_splits(&self, splits: &[VolumeSplit]) -> Result<f64> {
        let scheme = PartitionScheme::new(
            self.model,
            self.volumes
                .iter()
                .map(|v| v.start)
                .chain(std::iter::once(self.model.distributable_len()))
                .collect(),
        )?;
        let plan = ExecutionPlan::from_splits(self.model, &scheme, splits, self.num_devices())?;
        let report = edgesim::simulate(
            self.model,
            self.cluster,
            self.compute,
            &plan,
            edgesim::SimOptions {
                num_images: 1,
                start_ms: 0.0,
            },
        );
        Ok(report.mean_latency_ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnn_model::LayerOp;
    use device_profile::{DeviceSpec, DeviceType};
    use netsim::LinkConfig;
    use tensor::Shape;

    fn model() -> Model {
        Model::new(
            "t",
            Shape::new(3, 64, 64),
            &[
                LayerOp::conv(16, 3, 1, 1),
                LayerOp::pool(2, 2),
                LayerOp::conv(32, 3, 1, 1),
                LayerOp::pool(2, 2),
                LayerOp::fc(10),
            ],
        )
        .unwrap()
    }

    fn cluster() -> Cluster {
        Cluster::uniform(
            vec![
                DeviceSpec::new("xavier", DeviceType::Xavier),
                DeviceSpec::new("nano", DeviceType::Nano),
            ],
            LinkConfig::constant(100.0),
        )
    }

    #[test]
    fn dimensions() {
        let m = model();
        let c = cluster();
        let compute = c.ground_truth_compute();
        let scheme = PartitionScheme::new(&m, vec![0, 2, 4]).unwrap();
        let env = SplitEnv::new(&m, &c, &compute, &scheme);
        assert_eq!(env.state_dim(), 6);
        assert_eq!(env.action_dim(), 1);
        assert_eq!(env.num_volumes(), 2);
    }

    #[test]
    fn action_mapping_is_sorted_and_bounded() {
        let split = SplitEnv::map_action(&[0.9, -0.9, 0.0], 100);
        assert_eq!(split.cuts(), &[5, 50, 95]);
        let extreme = SplitEnv::map_action(&[-5.0, 5.0], 64);
        assert_eq!(extreme.cuts(), &[0, 64]);
    }

    /// A NaN from a diverged actor is a typed error from `step`, not a
    /// panic in the sort (which compares only when there are two or more
    /// cuts, hence three devices), and the episode is left where it was.
    #[test]
    fn a_non_finite_action_is_an_error_not_a_panic() {
        let m = model();
        let c = Cluster::uniform(
            vec![
                DeviceSpec::new("xavier", DeviceType::Xavier),
                DeviceSpec::new("nano", DeviceType::Nano),
                DeviceSpec::new("tx2", DeviceType::Tx2),
            ],
            LinkConfig::constant(100.0),
        );
        let compute = c.ground_truth_compute();
        let scheme = PartitionScheme::new(&m, vec![0, 2, 4]).unwrap();
        let mut env = SplitEnv::new(&m, &c, &compute, &scheme);
        env.reset();
        for bad in [[0.5, f64::NAN], [f64::NAN, f64::NAN], [f64::INFINITY, 0.0]] {
            match env.step(&bad) {
                Err(DistrError::InvalidConfig(msg)) => assert!(msg.contains("non-finite")),
                other => panic!("{bad:?} gave {other:?}"),
            }
        }
        assert!(env.splits().is_empty());
        assert!(!env.step(&[-0.2, 0.4]).unwrap().done);
    }

    #[test]
    fn episode_walks_all_volumes_and_rewards_at_end() {
        let m = model();
        let c = cluster();
        let compute = c.ground_truth_compute();
        let scheme = PartitionScheme::new(&m, vec![0, 2, 4]).unwrap();
        let mut env = SplitEnv::new(&m, &c, &compute, &scheme);
        let s0 = env.reset();
        assert_eq!(s0.len(), env.state_dim());
        assert!(
            s0[..2].iter().all(|&v| v == 0.0),
            "no latency accumulated yet"
        );

        let r1 = env.step(&[0.0]).unwrap();
        assert!(!r1.done);
        assert_eq!(r1.reward, 0.0);
        assert!(
            r1.next_state[..2].iter().any(|&v| v > 0.0),
            "latencies accumulated"
        );

        let r2 = env.step(&[0.2]).unwrap();
        assert!(r2.done);
        assert!(r2.reward > 0.0);
        assert!(env.episode_latency_ms().unwrap() > 0.0);
        assert_eq!(env.splits().len(), 2);
    }

    #[test]
    fn reward_is_inverse_latency() {
        let m = model();
        let c = cluster();
        let compute = c.ground_truth_compute();
        let scheme = PartitionScheme::single_volume(&m);
        let mut env = SplitEnv::new(&m, &c, &compute, &scheme);
        env.reset();
        let out = env.step(&[0.0]).unwrap();
        let t = env.episode_latency_ms().unwrap();
        assert!((out.reward - 1e3 / t).abs() < 1e-9);
    }

    #[test]
    fn better_split_earns_higher_reward() {
        // Giving (almost) everything to the fast Xavier beats giving
        // everything to the slow Nano.
        let m = model();
        let c = cluster();
        let compute = c.ground_truth_compute();
        let scheme = PartitionScheme::single_volume(&m);

        let mut env = SplitEnv::new(&m, &c, &compute, &scheme);
        env.reset();
        // Cut near +1 => device 0 (Xavier) gets nearly all rows.
        let fast = env.step(&[0.95]).unwrap().reward;

        env.reset();
        // Cut near -1 => device 1 (Nano) gets nearly all rows.
        let slow = env.step(&[-0.95]).unwrap().reward;
        assert!(fast > slow, "fast {fast} vs slow {slow}");
    }

    #[test]
    fn reset_clears_episode() {
        let m = model();
        let c = cluster();
        let compute = c.ground_truth_compute();
        let scheme = PartitionScheme::single_volume(&m);
        let mut env = SplitEnv::new(&m, &c, &compute, &scheme);
        env.reset();
        let _ = env.step(&[0.0]).unwrap();
        assert_eq!(env.splits().len(), 1);
        env.reset();
        assert_eq!(env.splits().len(), 0);
        assert!(env.episode_latency_ms().is_none());
    }

    #[test]
    fn evaluate_splits_matches_episode_latency() {
        let m = model();
        let c = cluster();
        let compute = c.ground_truth_compute();
        let scheme = PartitionScheme::new(&m, vec![0, 2, 4]).unwrap();
        let mut env = SplitEnv::new(&m, &c, &compute, &scheme);
        env.reset();
        env.step(&[0.3]).unwrap();
        env.step(&[0.3]).unwrap();
        let episode = env.episode_latency_ms().unwrap();
        let evaluated = env.evaluate_splits(env.splits()).unwrap();
        assert!(
            (episode - evaluated).abs() / episode < 0.05,
            "episode {episode} vs evaluated {evaluated}"
        );
    }
}
