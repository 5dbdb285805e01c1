//! Simulated DVFS-capable edge devices for the BoFL reproduction.
//!
//! The paper evaluates BoFL on two real boards — Nvidia Jetson AGX Xavier
//! and Jetson TX2 — whose CPU, GPU and memory-controller frequencies can be
//! set independently through sysfs, and whose power draw is read from the
//! onboard INA3221 sensor. This crate replaces that hardware with a
//! calibrated simulator:
//!
//! - [`FreqTable`] / [`ConfigSpace`] reproduce the exact discrete frequency
//!   grids of the paper's Table 1 (AGX: 25×14×6 = 2100 configurations,
//!   TX2: 12×13×6 = 936).
//! - `LatencyModel` is a roofline-style pipeline model: per-minibatch
//!   latency is the maximum of the overlappable CPU data pipeline and the
//!   GPU path (compute/memory roofline plus CPU-serialized kernel-launch
//!   time). It reproduces the paper's three measured phenomena (§2.2):
//!   non-linearity, NN-model dependence and hardware dependence.
//! - [`PowerModel`] is a CMOS DVFS model: each unit draws
//!   `c · f · V(f)² · (idle + (1−idle)·utilization)` with a linear
//!   voltage/frequency curve, plus a constant board power.
//! - [`PowerSensor`] emulates the INA3221: sampled, quantized, noisy reads,
//!   which is why BoFL measures each configuration for at least `τ` seconds.
//! - [`DvfsActuator`] / [`SimulatedActuator`] emulate the sysfs knobs with a
//!   frequency-switch latency.
//! - [`Device`] bundles everything, with presets [`Device::jetson_agx`] and
//!   [`Device::jetson_tx2`] calibrated so round latencies match Table 2 of
//!   the paper, and [`Device::profile_all`] producing the ground-truth
//!   profile used by the Oracle baseline.
//!
//! # Examples
//!
//! Evaluating the true latency/energy surface at the maximum configuration:
//!
//! ```
//! use bofl_device::Device;
//! use bofl_workload::{FlTask, TaskKind, Testbed};
//!
//! let device = Device::jetson_agx();
//! let task = FlTask::preset(TaskKind::Cifar10Vit, Testbed::JetsonAgx);
//! let x_max = device.config_space().x_max();
//! let m = device.true_cost(&task, x_max);
//! assert!(m.latency_s > 0.1 && m.latency_s < 0.3);
//! assert!(m.energy_j > 2.0 && m.energy_j < 8.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod actuator;
mod clock;
mod config;
mod device;
mod energy;
mod freq;
mod latency;
mod power;
mod sensor;

pub use actuator::{ActuatorError, DvfsActuator, SimulatedActuator};
pub use clock::VirtualClock;
pub use config::{ConfigIndex, ConfigSpace, DvfsConfig};
pub use device::{Device, DeviceBuilder, ProfileEntry};
pub use energy::JobCost;
pub use freq::{FreqMHz, FreqTable};
pub use latency::{CpuModel, GpuModel, MemoryModel};
pub(crate) use latency::{LatencyBreakdown, LatencyModel};
pub use power::{PowerModel, RailModel};
pub use sensor::{PowerSensor, SensorSpec};
