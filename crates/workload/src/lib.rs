//! Workload characterization for the BoFL reproduction.
//!
//! The paper trains three representative neural networks — a Vision
//! Transformer (CIFAR10-ViT), ResNet50 (ImageNet-ResNet50) and an LSTM
//! (IMDB-LSTM) — on Jetson-class edge devices. Since the real hardware and
//! PyTorch stack are not available here, the device simulator in
//! [`bofl-device`] consumes *workload descriptors* instead: per-sample
//! GPU FLOPs, effective memory traffic, host (CPU) preprocessing cycles and
//! per-batch serialized launch/sync cycles. Those quantities are exactly
//! what a profiler would fit from the paper's measurement study (§2.2), and
//! they are everything BoFL's blackbox functions `T(x)`/`E(x)` depend on.
//!
//! This crate provides:
//!
//! - [`NnModel`] — a workload descriptor with presets [`NnModel::vit`],
//!   `NnModel::resnet50`, and `NnModel::lstm`, each calibrated so that
//!   the simulated latencies in `bofl-device` match Table 2 of the paper.
//! - [`Dataset`] — dataset descriptors (CIFAR10, ImageNet, IMDB).
//! - [`FlTask`] — the task tuple `(B, E, N)` of the paper's §3.1, with
//!   Table 2 presets per testbed.
//! - [`Testbed`] — which evaluation board a preset targets.
//!
//! # Examples
//!
//! ```
//! use bofl_workload::{FlTask, TaskKind, Testbed};
//!
//! let task = FlTask::preset(TaskKind::Cifar10Vit, Testbed::JetsonAgx);
//! assert_eq!(task.minibatch_size(), 32);
//! assert_eq!(task.jobs_per_round(), 5 * 40); // W = E × N
//! ```
//!
//! [`bofl-device`]: https://docs.rs/bofl-device

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dataset;
mod model;
mod task;

pub use dataset::Dataset;
pub use model::{ArchEfficiency, GpuArch, ModelClass, NnModel};
pub use task::{FlTask, TaskKind, Testbed};
