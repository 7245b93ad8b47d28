//! Edge-device compute characters for the DistrEdge reproduction.
//!
//! The paper's testbed uses four device types — Raspberry Pi 3, Jetson Nano,
//! Jetson TX2 and Jetson AGX Xavier — whose computing latency as a function
//! of layer configuration is *non-linear* (§III-C challenge 2, Fig. 14).
//! This crate provides:
//!
//! * [`device`] — the device types and their ground-truth compute models,
//!   calibrated so that the ordering `Pi3 ≪ Nano < TX2 < Xavier` and the
//!   non-linear latency-vs-rows shape hold,
//! * [`profiler`] — the offline profiling step DistrEdge's controller runs
//!   (measure each layer's latency against output height, repeat and
//!   average) and the measured table it predicts from.
//!
//! The ground-truth models stand in for the physical boards, which this
//! reproduction does not have; everything downstream — the profiler, the
//! baselines' linear assumptions, OSDS's learned behaviour — only observes
//! them through measurements, exactly as on real hardware.

pub mod device;
pub mod profiler;

pub use device::{ComputeModel, DeviceSpec, DeviceType, GroundTruthModel};
pub use profiler::{LayerLatencyTable, Profiler, ProfilingOptions};
