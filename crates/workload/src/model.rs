/// GPU micro-architecture family of a simulated device.
///
/// Kernel efficiency — how much of the GPU's peak FLOP rate a given model
/// actually sustains — is both model- and architecture-dependent. This is
/// the mechanism behind the paper's "hardware dependence" observation
/// (§2.2(3), Fig. 5): the same network speeds up by very different factors
/// when moved from a Pascal-class TX2 to a Volta-class AGX.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum GpuArch {
    /// Volta-class GPU (Jetson AGX Xavier).
    Volta,
    /// Pascal-class GPU (Jetson TX2).
    Pascal,
}

impl std::fmt::Display for GpuArch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GpuArch::Volta => write!(f, "volta"),
            GpuArch::Pascal => write!(f, "pascal"),
        }
    }
}

/// Broad class of a neural network, following the paper's taxonomy
/// (Transformer / CNN / RNN).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum ModelClass {
    /// Transformer models (large GEMMs, moderate launch overhead).
    Transformer,
    /// Convolutional networks (GPU- and memory-bound, few launches).
    Cnn,
    /// Recurrent networks (many tiny kernels, CPU-launch-bound).
    Rnn,
}

impl std::fmt::Display for ModelClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelClass::Transformer => write!(f, "transformer"),
            ModelClass::Cnn => write!(f, "cnn"),
            ModelClass::Rnn => write!(f, "rnn"),
        }
    }
}

/// Sustained fraction of peak GPU throughput per architecture.
///
/// Values are in `(0, 1]`; they capture kernel-level efficiency (occupancy,
/// tensor-core usage, launch granularity) fitted per architecture.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArchEfficiency {
    /// Sustained fraction on Volta-class GPUs.
    pub volta: f64,
    /// Sustained fraction on Pascal-class GPUs.
    pub pascal: f64,
}

impl ArchEfficiency {
    /// Efficiency for a given architecture.
    pub fn for_arch(&self, arch: GpuArch) -> f64 {
        match arch {
            GpuArch::Volta => self.volta,
            GpuArch::Pascal => self.pascal,
        }
    }

    /// `true` iff both efficiencies are in `(0, 1]`.
    pub(crate) fn is_valid(&self) -> bool {
        (0.0..=1.0).contains(&self.volta)
            && self.volta > 0.0
            && (0.0..=1.0).contains(&self.pascal)
            && self.pascal > 0.0
    }
}

/// A neural-network *training* workload descriptor: everything the device
/// simulator needs to predict per-minibatch latency and energy.
///
/// All per-sample quantities refer to one forward + backward pass of one
/// training sample; per-batch quantities are paid once per minibatch
/// regardless of batch size (kernel launches, gradient-step driver, host
/// synchronization).
///
/// The preset constants were calibrated against the paper's Table 2
/// (`T_min` per task/device) and Figs. 3–5; see `DESIGN.md` §2 for the
/// calibration story.
///
/// # Examples
///
/// ```
/// use bofl_workload::{GpuArch, NnModel};
///
/// let vit = NnModel::vit();
/// assert!(vit.flops_per_sample() > 1e9);
/// assert!(vit.efficiency().for_arch(GpuArch::Volta) > 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct NnModel {
    name: String,
    class: ModelClass,
    flops_per_sample: f64,
    bytes_per_sample: f64,
    host_cycles_per_sample: f64,
    serial_cycles_per_batch: f64,
    parameter_bytes: f64,
    efficiency: ArchEfficiency,
}

impl NnModel {
    /// Creates a custom workload descriptor.
    ///
    /// # Panics
    ///
    /// Panics if any quantity is non-positive or non-finite, or the
    /// efficiency is outside `(0, 1]` (C-VALIDATE).
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        name: impl Into<String>,
        class: ModelClass,
        flops_per_sample: f64,
        bytes_per_sample: f64,
        host_cycles_per_sample: f64,
        serial_cycles_per_batch: f64,
        parameter_bytes: f64,
        efficiency: ArchEfficiency,
    ) -> Self {
        let name = name.into();
        for (v, what) in [
            (flops_per_sample, "flops_per_sample"),
            (bytes_per_sample, "bytes_per_sample"),
            (host_cycles_per_sample, "host_cycles_per_sample"),
            (serial_cycles_per_batch, "serial_cycles_per_batch"),
            (parameter_bytes, "parameter_bytes"),
        ] {
            assert!(
                v.is_finite() && v > 0.0,
                "NnModel {name}: {what} must be positive and finite, got {v}"
            );
        }
        assert!(
            efficiency.is_valid(),
            "NnModel {name}: efficiency must be in (0, 1]"
        );
        NnModel {
            name,
            class,
            flops_per_sample,
            bytes_per_sample,
            host_cycles_per_sample,
            serial_cycles_per_batch,
            parameter_bytes,
            efficiency,
        }
    }

    /// Vision Transformer trained on CIFAR10 (the paper's CIFAR10-ViT task).
    ///
    /// Moderately GPU-bound with a non-negligible host pipeline; calibrated
    /// for `T(x_max) ≈ 0.186 s` per 32-sample minibatch on the AGX.
    pub fn vit() -> Self {
        NnModel::new(
            "ViT",
            ModelClass::Transformer,
            1.8e9,  // FLOPs fwd+bwd per 32×32 sample
            1.86e8, // effective DRAM traffic per sample (weights + activations)
            1.8e7,  // host cycles per sample (augmentation, tensor staging)
            4.0e7,  // serialized launch/sync cycles per minibatch
            4.0e7,  // ~10 M parameters × 4 B (a CIFAR-scale ViT)
            ArchEfficiency {
                volta: 0.29,
                pascal: 0.22,
            },
        )
    }

    /// ResNet50 trained on ImageNet (the paper's ImageNet-ResNet50 task).
    ///
    /// Strongly GPU/memory-bound with heavy host-side JPEG decode; latency
    /// is nearly flat in CPU frequency (paper Fig. 4a). Calibrated for
    /// `T(x_max) ≈ 0.26 s` per 8-sample minibatch on the AGX.
    pub(crate) fn resnet50() -> Self {
        NnModel::new(
            "ResNet50",
            ModelClass::Cnn,
            1.1e10, // FLOPs fwd+bwd per 224×224 sample
            1.91e9, // effective DRAM traffic per sample
            1.9e7,  // host cycles per sample (decode + resize + normalize)
            2.5e7,  // serialized launch/sync cycles per minibatch
            1.0e8,  // 25.5 M parameters × 4 B
            ArchEfficiency {
                volta: 0.29,
                pascal: 0.20,
            },
        )
    }

    /// LSTM sentiment model trained on IMDB (the paper's IMDB-LSTM task).
    ///
    /// Launch-bound: many tiny recurrent kernels serialize on the CPU, so
    /// latency scales strongly with CPU frequency (paper Fig. 4a) and the
    /// energy curve *decreases* with CPU frequency (Fig. 4b). Calibrated for
    /// `T(x_max) ≈ 0.29 s` per 8-sample minibatch on the AGX.
    pub(crate) fn lstm() -> Self {
        NnModel::new(
            "LSTM",
            ModelClass::Rnn,
            1.59e9, // FLOPs fwd+bwd per sequence
            2.1e8,  // effective DRAM traffic per sample
            2.0e7,  // host cycles per sample (tokenize, pad, embed staging)
            4.87e8, // serialized launch/sync cycles per minibatch (recurrence!)
            4.0e7,  // ~10 M parameters × 4 B
            ArchEfficiency {
                volta: 0.18,
                pascal: 0.18,
            },
        )
    }

    /// Model name, e.g. `"ResNet50"`.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// GPU FLOPs (forward + backward) per training sample.
    pub fn flops_per_sample(&self) -> f64 {
        self.flops_per_sample
    }

    /// CPU cycles per minibatch that serialize with GPU execution (kernel
    /// launches, synchronization, optimizer driver).
    pub fn serial_cycles_per_batch(&self) -> f64 {
        self.serial_cycles_per_batch
    }

    /// Size of the model parameters in bytes (used for the FL
    /// upload/download window in `bofl-fl`).
    pub fn parameter_bytes(&self) -> f64 {
        self.parameter_bytes
    }

    /// Per-architecture sustained GPU efficiency.
    pub fn efficiency(&self) -> ArchEfficiency {
        self.efficiency
    }

    /// Total GPU FLOPs for a minibatch of `batch_size` samples.
    pub fn flops_per_batch(&self, batch_size: usize) -> f64 {
        self.flops_per_sample * batch_size as f64
    }

    /// Total effective DRAM traffic for a minibatch of `batch_size` samples.
    pub fn bytes_per_batch(&self, batch_size: usize) -> f64 {
        self.bytes_per_sample * batch_size as f64
    }

    /// Total overlappable host cycles for a minibatch.
    pub fn host_cycles_per_batch(&self, batch_size: usize) -> f64 {
        self.host_cycles_per_sample * batch_size as f64
    }
}

impl std::fmt::Display for NnModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} ({})", self.name, self.class)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_valid() {
        for m in [NnModel::vit(), NnModel::resnet50(), NnModel::lstm()] {
            assert!(m.flops_per_sample() > 0.0);
            assert!(m.bytes_per_sample > 0.0);
            assert!(m.host_cycles_per_sample > 0.0);
            assert!(m.serial_cycles_per_batch() > 0.0);
            assert!(m.efficiency().is_valid());
        }
    }

    #[test]
    fn lstm_is_launch_bound() {
        // The defining property of the RNN workload: far more serialized
        // CPU work per batch than the other models.
        let lstm = NnModel::lstm();
        assert!(lstm.serial_cycles_per_batch() > 5.0 * NnModel::vit().serial_cycles_per_batch());
        assert!(
            lstm.serial_cycles_per_batch() > 5.0 * NnModel::resnet50().serial_cycles_per_batch()
        );
        assert_eq!(lstm.class, ModelClass::Rnn);
    }

    #[test]
    fn resnet_is_compute_heavy() {
        let r = NnModel::resnet50();
        assert!(r.flops_per_sample() > 3.0 * NnModel::vit().flops_per_sample());
        assert_eq!(r.class, ModelClass::Cnn);
    }

    #[test]
    fn batch_scaling_is_linear() {
        let m = NnModel::vit();
        assert_eq!(m.flops_per_batch(32), 32.0 * m.flops_per_sample());
        assert_eq!(m.bytes_per_batch(8), 8.0 * m.bytes_per_sample);
        assert_eq!(m.host_cycles_per_batch(4), 4.0 * m.host_cycles_per_sample);
    }

    #[test]
    fn arch_efficiency_lookup() {
        let e = ArchEfficiency {
            volta: 0.3,
            pascal: 0.2,
        };
        assert_eq!(e.for_arch(GpuArch::Volta), 0.3);
        assert_eq!(e.for_arch(GpuArch::Pascal), 0.2);
        assert!(e.is_valid());
        assert!(!ArchEfficiency {
            volta: 0.0,
            pascal: 0.2
        }
        .is_valid());
        assert!(!ArchEfficiency {
            volta: 1.5,
            pascal: 0.2
        }
        .is_valid());
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn new_rejects_nonpositive() {
        let _ = NnModel::new(
            "bad",
            ModelClass::Cnn,
            0.0,
            1.0,
            1.0,
            1.0,
            1.0,
            ArchEfficiency {
                volta: 0.5,
                pascal: 0.5,
            },
        );
    }

    #[test]
    fn display_formats() {
        assert_eq!(NnModel::vit().to_string(), "ViT (transformer)");
        assert_eq!(GpuArch::Volta.to_string(), "volta");
        assert_eq!(ModelClass::Rnn.to_string(), "rnn");
    }
}
