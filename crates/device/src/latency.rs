use crate::DvfsConfig;
use bofl_workload::{FlTask, GpuArch};

/// CPU-side performance parameters of a simulated device.
///
/// Both the overlappable data pipeline and the serialized launch/sync path
/// run on the CPU cluster; their throughput scales linearly with the CPU
/// clock, modulated by a per-device IPC factor (`ipc_factor`, which is how
/// the TX2's weaker Denver2/A57 complex is modeled relative to the AGX's
/// Carmel cores).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuModel {
    /// Relative instructions-per-cycle factor (AGX Carmel = 1.0).
    pub ipc_factor: f64,
    /// Number of cores usable by the overlapped data pipeline.
    pub pipeline_cores: f64,
}

/// GPU performance parameters of a simulated device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuModel {
    /// Micro-architecture family, used to look up the workload's sustained
    /// kernel efficiency.
    pub arch: GpuArch,
    /// Peak FLOPs per GPU cycle (CUDA cores × 2 for FMA).
    pub peak_flops_per_cycle: f64,
}

/// Memory-controller performance parameters of a simulated device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemoryModel {
    /// Effective (sustained) bytes transferred per EMC cycle.
    pub bytes_per_cycle: f64,
}

/// Per-minibatch latency decomposition produced by [`LatencyModel::evaluate`].
///
/// All times are in seconds. The total is
/// `fixed + max(gpu_path, cpu_pipeline)` where
/// `gpu_path = roofline(compute, memory) + serial`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct LatencyBreakdown {
    /// GPU compute time at the configured GPU clock.
    pub gpu_compute_s: f64,
    /// DRAM transfer time at the configured EMC clock.
    pub memory_s: f64,
    /// CPU-serialized launch/sync time at the configured CPU clock.
    pub serial_s: f64,
    /// Overlappable CPU data-pipeline time at the configured CPU clock.
    pub pipeline_s: f64,
    /// Configuration-independent fixed overhead.
    pub fixed_s: f64,
    /// Total per-minibatch latency.
    pub total_s: f64,
}

impl LatencyBreakdown {
    /// Busy fraction of the GPU during the minibatch (for the power model).
    pub(crate) fn gpu_utilization(&self) -> f64 {
        if self.total_s <= 0.0 {
            return 0.0;
        }
        (self.gpu_compute_s.max(self.memory_s) / self.total_s).min(1.0)
    }

    /// Busy fraction of the CPU during the minibatch.
    pub(crate) fn cpu_utilization(&self) -> f64 {
        if self.total_s <= 0.0 {
            return 0.0;
        }
        ((self.serial_s + self.pipeline_s) / self.total_s).min(1.0)
    }

    /// Busy fraction of the memory controller during the minibatch.
    pub(crate) fn mem_utilization(&self) -> f64 {
        if self.total_s <= 0.0 {
            return 0.0;
        }
        (self.memory_s / self.total_s).min(1.0)
    }
}

/// The roofline-style pipeline latency model `T(x)` of the simulated
/// device.
///
/// Model (per minibatch of `B` samples):
///
/// ```text
/// t_compute  = B · flops/sample ÷ (peak_flops_per_cycle · eff(arch) · f_gpu)
/// t_memory   = B · bytes/sample ÷ (bytes_per_cycle · f_mem)
/// t_gpu      = max(t_compute, t_memory) + γ · min(t_compute, t_memory)
/// t_serial   = serial_cycles/batch ÷ (ipc_factor · f_cpu)
/// t_pipeline = B · host_cycles/sample ÷ (ipc_factor · pipeline_cores · f_cpu)
/// T(x)       = t_fixed + max(t_gpu + t_serial, t_pipeline)
/// ```
///
/// `γ` (`roofline_overlap`) captures the imperfect overlap of compute and
/// memory phases; `t_serial` is what makes slow CPUs bottleneck GPU-bound
/// workloads (the paper's Fig. 3a saturation) and launch-heavy RNNs scale
/// with CPU frequency (Fig. 4a).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct LatencyModel {
    /// CPU parameters.
    pub cpu: CpuModel,
    /// GPU parameters.
    pub gpu: GpuModel,
    /// Memory parameters.
    pub mem: MemoryModel,
    /// Fraction of the shorter roofline phase that fails to overlap with
    /// the longer one (0 = perfect overlap, 1 = fully serial).
    pub roofline_overlap: f64,
    /// Fixed per-minibatch overhead in seconds.
    pub fixed_overhead_s: f64,
}

impl LatencyModel {
    /// Evaluates the noise-free latency of one minibatch of `task` under
    /// configuration `x`.
    pub(crate) fn evaluate(&self, task: &FlTask, x: DvfsConfig) -> LatencyBreakdown {
        let b = task.minibatch_size();
        let model = task.model();
        let eff = model.efficiency().for_arch(self.gpu.arch);

        let gpu_rate = self.gpu.peak_flops_per_cycle * eff * x.gpu.as_hz();
        let gpu_compute_s = model.flops_per_batch(b) / gpu_rate;

        let mem_rate = self.mem.bytes_per_cycle * x.mem.as_hz();
        let memory_s = model.bytes_per_batch(b) / mem_rate;

        let cpu_rate = self.cpu.ipc_factor * x.cpu.as_hz();
        let serial_s = model.serial_cycles_per_batch() / cpu_rate;
        let pipeline_s = model.host_cycles_per_batch(b) / (cpu_rate * self.cpu.pipeline_cores);

        let long = gpu_compute_s.max(memory_s);
        let short = gpu_compute_s.min(memory_s);
        let gpu_path = long + self.roofline_overlap * short + serial_s;

        let total_s = self.fixed_overhead_s + gpu_path.max(pipeline_s);

        LatencyBreakdown {
            gpu_compute_s,
            memory_s,
            serial_s,
            pipeline_s,
            fixed_s: self.fixed_overhead_s,
            total_s,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FreqMHz;
    use bofl_workload::{TaskKind, Testbed};

    fn agx_like() -> LatencyModel {
        LatencyModel {
            cpu: CpuModel {
                ipc_factor: 1.0,
                pipeline_cores: 4.0,
            },
            gpu: GpuModel {
                arch: GpuArch::Volta,
                peak_flops_per_cycle: 1024.0,
            },
            mem: MemoryModel {
                bytes_per_cycle: 40.0,
            },
            roofline_overlap: 0.15,
            fixed_overhead_s: 0.018,
        }
    }

    fn cfg(c: u32, g: u32, m: u32) -> DvfsConfig {
        DvfsConfig::new(FreqMHz::new(c), FreqMHz::new(g), FreqMHz::new(m))
    }

    #[test]
    fn latency_decreases_with_gpu_freq_when_gpu_bound() {
        let lm = agx_like();
        let task = FlTask::preset(TaskKind::Cifar10Vit, Testbed::JetsonAgx);
        let slow = lm.evaluate(&task, cfg(2265, 700, 2133));
        let fast = lm.evaluate(&task, cfg(2265, 1377, 2133));
        assert!(fast.total_s < slow.total_s);
    }

    #[test]
    fn slow_cpu_saturates_gpu_scaling() {
        // Paper Fig. 3a: with CPU at 0.42 GHz, raising GPU clock past some
        // point stops helping because the CPU pipeline/serial path is the
        // bottleneck.
        let lm = agx_like();
        let task = FlTask::preset(TaskKind::Cifar10Vit, Testbed::JetsonAgx);
        let mid = lm.evaluate(&task, cfg(420, 1100, 2133));
        let max = lm.evaluate(&task, cfg(420, 1377, 2133));
        let rel_gain = (mid.total_s - max.total_s) / mid.total_s;
        assert!(
            rel_gain < 0.05,
            "gain {rel_gain} should be small when CPU-bound"
        );
        // ... but with a fast CPU the same GPU step helps substantially.
        let mid_f = lm.evaluate(&task, cfg(2265, 1100, 2133));
        let max_f = lm.evaluate(&task, cfg(2265, 1377, 2133));
        let rel_gain_f = (mid_f.total_s - max_f.total_s) / mid_f.total_s;
        assert!(rel_gain_f > rel_gain);
    }

    #[test]
    fn lstm_scales_with_cpu_clock() {
        // Paper Fig. 4a: LSTM latency roughly halves from 0.6 → 1.7 GHz.
        let lm = agx_like();
        let task = FlTask::preset(TaskKind::ImdbLstm, Testbed::JetsonAgx);
        let slow = lm.evaluate(&task, cfg(650, 1377, 2133));
        let fast = lm.evaluate(&task, cfg(1700, 1377, 2133));
        let ratio = slow.total_s / fast.total_s;
        assert!(
            (1.6..=2.8).contains(&ratio),
            "LSTM CPU-scaling ratio {ratio}"
        );
    }

    #[test]
    fn resnet_is_flat_in_cpu_clock() {
        // Paper Fig. 4a: ResNet50 latency barely moves across the CPU sweep.
        let lm = agx_like();
        let task = FlTask::preset(TaskKind::ImagenetResnet50, Testbed::JetsonAgx);
        let slow = lm.evaluate(&task, cfg(700, 1377, 2133));
        let fast = lm.evaluate(&task, cfg(1700, 1377, 2133));
        let ratio = slow.total_s / fast.total_s;
        assert!(ratio < 1.25, "ResNet CPU-scaling ratio {ratio}");
    }

    #[test]
    fn utilizations_are_fractions() {
        let lm = agx_like();
        for kind in TaskKind::all() {
            let task = FlTask::preset(kind, Testbed::JetsonAgx);
            for x in [
                cfg(420, 114, 204),
                cfg(2265, 1377, 2133),
                cfg(1100, 700, 800),
            ] {
                let b = lm.evaluate(&task, x);
                for u in [
                    b.gpu_utilization(),
                    b.cpu_utilization(),
                    b.mem_utilization(),
                ] {
                    assert!((0.0..=1.0).contains(&u), "utilization {u} out of range");
                }
                assert!(b.total_s > 0.0);
                assert!(b.total_s >= b.fixed_s);
            }
        }
    }

    #[test]
    fn breakdown_total_is_consistent() {
        let lm = agx_like();
        let task = FlTask::preset(TaskKind::Cifar10Vit, Testbed::JetsonAgx);
        let b = lm.evaluate(&task, cfg(2265, 1377, 2133));
        let long = b.gpu_compute_s.max(b.memory_s);
        let short = b.gpu_compute_s.min(b.memory_s);
        let gpu_path = long + 0.15 * short + b.serial_s;
        let expect = b.fixed_s + gpu_path.max(b.pipeline_s);
        assert!((b.total_s - expect).abs() < 1e-12);
    }
}
