use crate::{DvfsConfig, LatencyBreakdown};

/// DVFS power parameters of one voltage rail (CPU, GPU or memory).
///
/// Dynamic CMOS power is `C·V²·f`; on Jetson boards the regulator raises
/// voltage roughly linearly with frequency over the usable range, so each
/// rail is modeled as
///
/// ```text
/// P(f, u) = coeff · f_GHz · V(f)² · (idle_fraction + (1 − idle_fraction) · u)
/// V(f)    = v0 + v1 · f_GHz
/// ```
///
/// where `u ∈ [0, 1]` is the rail's utilization during the job. The
/// `idle_fraction` term models clock-tree and leakage power that is paid
/// whenever the rail is powered at that frequency, busy or not — the reason
/// "race-to-idle" sometimes beats "slow-and-steady" and the energy surface
/// is non-monotonic (paper Fig. 3b).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RailModel {
    /// Effective switched capacitance, in watts per (GHz·V²).
    pub coeff: f64,
    /// Voltage intercept in volts.
    pub v0: f64,
    /// Voltage slope in volts per GHz.
    pub v1: f64,
    /// Fraction of dynamic power drawn even when idle at this frequency.
    pub idle_fraction: f64,
}

impl RailModel {
    /// Rail voltage at frequency `f_ghz`.
    pub(crate) fn voltage(&self, f_ghz: f64) -> f64 {
        self.v0 + self.v1 * f_ghz
    }

    /// Rail power at frequency `f_ghz` and utilization `u` (clamped to
    /// `[0, 1]`).
    pub(crate) fn power(&self, f_ghz: f64, u: f64) -> f64 {
        let u = u.clamp(0.0, 1.0);
        let v = self.voltage(f_ghz);
        self.coeff * f_ghz * v * v * (self.idle_fraction + (1.0 - self.idle_fraction) * u)
    }
}

/// Average power decomposition over one minibatch, in watts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct PowerBreakdown {
    /// CPU rail power.
    pub cpu_w: f64,
    /// GPU rail power.
    pub gpu_w: f64,
    /// Memory rail power.
    pub mem_w: f64,
    /// Constant board power (SoC infrastructure, storage, sensors).
    pub static_w: f64,
    /// Total average power.
    pub total_w: f64,
}

/// The whole-board power model `P(x, utilization)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerModel {
    /// CPU rail parameters.
    pub cpu: RailModel,
    /// GPU rail parameters.
    pub gpu: RailModel,
    /// Memory rail parameters.
    pub mem: RailModel,
    /// Constant board power in watts.
    pub static_w: f64,
}

impl PowerModel {
    /// Average power over a minibatch whose execution produced `lat`.
    pub(crate) fn evaluate(&self, x: DvfsConfig, lat: &LatencyBreakdown) -> PowerBreakdown {
        let cpu_w = self.cpu.power(x.cpu.as_ghz(), lat.cpu_utilization());
        let gpu_w = self.gpu.power(x.gpu.as_ghz(), lat.gpu_utilization());
        let mem_w = self.mem.power(x.mem.as_ghz(), lat.mem_utilization());
        PowerBreakdown {
            cpu_w,
            gpu_w,
            mem_w,
            static_w: self.static_w,
            total_w: cpu_w + gpu_w + mem_w + self.static_w,
        }
    }

    /// Board power with the CPU fully busy and GPU/memory idle at `x`
    /// (the state during on-device MBO computation).
    pub fn cpu_busy_power(&self, x: DvfsConfig) -> f64 {
        self.static_w
            + self.cpu.power(x.cpu.as_ghz(), 1.0)
            + self.gpu.power(x.gpu.as_ghz(), 0.0)
            + self.mem.power(x.mem.as_ghz(), 0.2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CpuModel, FreqMHz, GpuModel, LatencyModel, MemoryModel};
    use bofl_workload::{FlTask, GpuArch, TaskKind, Testbed};

    fn rail() -> RailModel {
        RailModel {
            coeff: 9.0,
            v0: 0.55,
            v1: 0.33,
            idle_fraction: 0.25,
        }
    }

    fn pm() -> PowerModel {
        PowerModel {
            cpu: RailModel {
                coeff: 3.68,
                v0: 0.55,
                v1: 0.22,
                idle_fraction: 0.25,
            },
            gpu: rail(),
            mem: RailModel {
                coeff: 3.5,
                v0: 0.6,
                v1: 0.1,
                idle_fraction: 0.25,
            },
            static_w: 4.0,
        }
    }

    #[test]
    fn power_monotonic_in_frequency() {
        let r = rail();
        let mut prev = 0.0;
        for f in [0.2, 0.5, 0.9, 1.4] {
            let p = r.power(f, 0.8);
            assert!(p > prev, "power must rise with frequency");
            prev = p;
        }
    }

    #[test]
    fn power_monotonic_in_utilization() {
        let r = rail();
        assert!(r.power(1.0, 0.9) > r.power(1.0, 0.1));
        // clamping
        assert_eq!(r.power(1.0, 1.5), r.power(1.0, 1.0));
        assert_eq!(r.power(1.0, -0.5), r.power(1.0, 0.0));
    }

    #[test]
    fn idle_power_is_positive_but_smaller() {
        let r = rail();
        let idle = r.power(1.0, 0.0);
        let busy = r.power(1.0, 1.0);
        assert!(idle > 0.0);
        assert!(idle < busy);
        assert!((idle / busy - 0.25).abs() < 1e-12);
    }

    #[test]
    fn voltage_is_affine() {
        let r = rail();
        assert!((r.voltage(1.377) - (0.55 + 0.33 * 1.377)).abs() < 1e-12);
    }

    #[test]
    fn breakdown_sums() {
        let pm = pm();
        let lm = LatencyModel {
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
        };
        let task = FlTask::preset(TaskKind::Cifar10Vit, Testbed::JetsonAgx);
        let x = DvfsConfig::new(FreqMHz::new(2265), FreqMHz::new(1377), FreqMHz::new(2133));
        let lat = lm.evaluate(&task, x);
        let p = pm.evaluate(x, &lat);
        assert!((p.total_w - (p.cpu_w + p.gpu_w + p.mem_w + p.static_w)).abs() < 1e-12);
        // A busy AGX should land in a plausible power envelope.
        assert!(p.total_w > 10.0 && p.total_w < 40.0, "total {}", p.total_w);
    }
}
