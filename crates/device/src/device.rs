use crate::sensor::standard_normal;
use crate::{
    ConfigSpace, CpuModel, DvfsConfig, FreqTable, GpuModel, JobCost, LatencyModel, MemoryModel,
    PowerModel, PowerSensor, RailModel, SensorSpec,
};
use bofl_workload::{FlTask, GpuArch};
use rand::Rng;

/// One row of a full offline profile: a configuration and its ground-truth
/// cost (the input the Oracle baseline is allowed to use).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProfileEntry {
    /// The profiled configuration.
    pub config: DvfsConfig,
    /// Its noise-free cost.
    pub cost: JobCost,
}

/// A simulated DVFS-capable edge device.
///
/// Bundles the configuration space, latency model, power model and power
/// sensor, and exposes the two views BoFL distinguishes:
///
/// - [`Device::true_cost`] — the noise-free blackbox `(T(x), E(x))`,
///   used by the simulator itself and by the Oracle baseline;
/// - [`Device::run_job`] — one *measured* job execution including latency
///   jitter and sensor noise, which is all a real controller ever sees.
///
/// # Examples
///
/// ```
/// use bofl_device::Device;
/// use bofl_workload::{FlTask, TaskKind, Testbed};
///
/// let agx = Device::jetson_agx();
/// assert_eq!(agx.config_space().len(), 2100); // Table 1
/// let task = FlTask::preset(TaskKind::ImdbLstm, Testbed::JetsonAgx);
/// let tmin = agx.round_latency_at_max(&task);
/// assert!(tmin > 30.0 && tmin < 60.0); // Table 2: 46.1 s
/// ```
#[derive(Debug, Clone)]
pub struct Device {
    name: String,
    space: ConfigSpace,
    latency: LatencyModel,
    power: PowerModel,
    sensor: PowerSensor,
    latency_jitter: f64,
    transition_latency_s: f64,
}

impl Device {
    /// Starts building a custom device.
    pub fn builder(name: impl Into<String>) -> DeviceBuilder {
        DeviceBuilder::new(name)
    }

    /// The Jetson AGX Xavier preset (Table 1 of the paper).
    ///
    /// Frequency grids: CPU 0.42–2.27 GHz in 25 steps, GPU 0.11–1.38 GHz in
    /// 14 steps, EMC 0.20–2.13 GHz in 6 steps → 2100 configurations.
    /// Latency/power constants are calibrated so `T_min` per task matches
    /// the paper's Table 2 within a few percent.
    pub fn jetson_agx() -> Device {
        Device::builder("Jetson AGX")
            .cpu_table(FreqTable::linspace_mhz(420, 2265, 25))
            .gpu_table(FreqTable::linspace_mhz(114, 1377, 14))
            .mem_table(FreqTable::linspace_mhz(204, 2133, 6))
            .cpu_model(CpuModel {
                ipc_factor: 1.0,
                pipeline_cores: 4.0,
            })
            .gpu_model(GpuModel {
                arch: GpuArch::Volta,
                peak_flops_per_cycle: 1024.0,
            })
            .memory_model(MemoryModel {
                bytes_per_cycle: 40.0,
            })
            .roofline_overlap(0.15)
            .fixed_overhead_s(0.018)
            .cpu_rail(RailModel {
                coeff: 2.67,
                v0: 0.55,
                v1: 0.30,
                idle_fraction: 0.25,
            })
            .gpu_rail(RailModel {
                coeff: 6.6,
                v0: 0.55,
                v1: 0.45,
                idle_fraction: 0.25,
            })
            .mem_rail(RailModel {
                coeff: 3.1,
                v0: 0.60,
                v1: 0.15,
                idle_fraction: 0.25,
            })
            .static_power_w(3.6)
            .build()
    }

    /// The Jetson TX2 preset (Table 1 of the paper).
    ///
    /// Frequency grids: CPU 0.35–2.04 GHz in 12 steps, GPU 0.11–1.30 GHz in
    /// 13 steps, EMC 0.41–1.87 GHz in 6 steps → 936 configurations.
    pub fn jetson_tx2() -> Device {
        Device::builder("Jetson TX2")
            .cpu_table(FreqTable::linspace_mhz(345, 2035, 12))
            .gpu_table(FreqTable::linspace_mhz(114, 1300, 13))
            .mem_table(FreqTable::linspace_mhz(408, 1866, 6))
            .cpu_model(CpuModel {
                ipc_factor: 0.44,
                pipeline_cores: 3.0,
            })
            .gpu_model(GpuModel {
                arch: GpuArch::Pascal,
                peak_flops_per_cycle: 512.0,
            })
            .memory_model(MemoryModel {
                bytes_per_cycle: 13.4,
            })
            .roofline_overlap(0.15)
            .fixed_overhead_s(0.035)
            .cpu_rail(RailModel {
                coeff: 1.40,
                v0: 0.55,
                v1: 0.30,
                idle_fraction: 0.25,
            })
            .gpu_rail(RailModel {
                coeff: 3.6,
                v0: 0.55,
                v1: 0.45,
                idle_fraction: 0.25,
            })
            .mem_rail(RailModel {
                coeff: 1.55,
                v0: 0.60,
                v1: 0.15,
                idle_fraction: 0.25,
            })
            .static_power_w(2.2)
            .build()
    }

    /// Device name, e.g. `"Jetson AGX"`.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The relative standard deviation of per-job latency jitter.
    pub fn latency_jitter(&self) -> f64 {
        self.latency_jitter
    }

    /// Returns this device with a different per-job latency jitter — the
    /// hook fleet generation uses to give every sampled client its own
    /// thermal/interference profile without rebuilding the full model.
    ///
    /// # Panics
    ///
    /// Panics if `jitter < 0`.
    #[must_use]
    pub fn with_latency_jitter(mut self, jitter: f64) -> Device {
        assert!(jitter >= 0.0, "latency jitter must be >= 0");
        self.latency_jitter = jitter;
        self
    }

    /// Returns this device with a different DVFS transition latency
    /// (per-client governor/firmware variation in a heterogeneous fleet).
    ///
    /// # Panics
    ///
    /// Panics if `seconds` is negative or non-finite.
    #[must_use]
    pub fn with_transition_latency_s(mut self, seconds: f64) -> Device {
        assert!(
            seconds.is_finite() && seconds >= 0.0,
            "transition latency must be finite and >= 0"
        );
        self.transition_latency_s = seconds;
        self
    }

    /// The discrete DVFS configuration space.
    pub fn config_space(&self) -> &ConfigSpace {
        &self.space
    }

    /// The power model (exposed for diagnostics and benches).
    pub fn power_model(&self) -> &PowerModel {
        &self.power
    }

    /// Latency of one frequency transition, seconds.
    pub fn transition_latency_s(&self) -> f64 {
        self.transition_latency_s
    }

    /// The noise-free blackbox objectives `(T(x), E(x))` for one minibatch.
    pub fn true_cost(&self, task: &FlTask, x: DvfsConfig) -> JobCost {
        let lat = self.latency.evaluate(task, x);
        let pow = self.power.evaluate(x, &lat);
        JobCost {
            latency_s: lat.total_s,
            energy_j: pow.total_w * lat.total_s,
        }
    }

    /// Executes one minibatch job at `x` and returns the *measured* cost:
    /// true latency with multiplicative jitter, and energy read from the
    /// simulated sensor. This is the only view a pace controller gets.
    pub fn run_job(&self, task: &FlTask, x: DvfsConfig, rng: &mut impl Rng) -> JobCost {
        let truth = self.true_cost(task, x);
        let jitter = 1.0 + self.latency_jitter * standard_normal(rng);
        let latency_s = truth.latency_s * jitter.max(0.5);
        let power_w = truth.energy_j / truth.latency_s;
        let energy_j = self.sensor.measure_energy(power_w, latency_s, rng);
        JobCost {
            latency_s,
            energy_j,
        }
    }

    /// Round latency when every job runs at `x_max`: the paper's
    /// `T_min = T(x_max) × W` (Table 2).
    pub fn round_latency_at_max(&self, task: &FlTask) -> f64 {
        self.true_cost(task, self.space.x_max()).latency_s * task.jobs_per_round() as f64
    }

    /// Profiles the *entire* configuration space offline (what the Oracle
    /// baseline requires, and what the paper's Fig. 11 "actual Pareto
    /// front" comes from). Expensive on purpose: it evaluates every grid
    /// point.
    pub fn profile_all(&self, task: &FlTask) -> Vec<ProfileEntry> {
        self.space
            .iter()
            .map(|config| ProfileEntry {
                config,
                cost: self.true_cost(task, config),
            })
            .collect()
    }
}

/// Builder for custom [`Device`]s (C-BUILDER).
///
/// All parameters have sensible defaults except the three frequency tables,
/// which must be provided.
///
/// # Examples
///
/// ```
/// use bofl_device::{Device, FreqTable};
///
/// let dev = Device::builder("MyBoard")
///     .cpu_table(FreqTable::linspace_mhz(500, 2000, 8))
///     .gpu_table(FreqTable::linspace_mhz(200, 1000, 8))
///     .mem_table(FreqTable::linspace_mhz(400, 1600, 4))
///     .build();
/// assert_eq!(dev.config_space().len(), 256);
/// ```
#[derive(Debug, Clone)]
pub struct DeviceBuilder {
    name: String,
    cpu_table: Option<FreqTable>,
    gpu_table: Option<FreqTable>,
    mem_table: Option<FreqTable>,
    cpu_model: CpuModel,
    gpu_model: GpuModel,
    memory_model: MemoryModel,
    roofline_overlap: f64,
    fixed_overhead_s: f64,
    cpu_rail: RailModel,
    gpu_rail: RailModel,
    mem_rail: RailModel,
    static_power_w: f64,
}

impl DeviceBuilder {
    fn new(name: impl Into<String>) -> Self {
        DeviceBuilder {
            name: name.into(),
            cpu_table: None,
            gpu_table: None,
            mem_table: None,
            cpu_model: CpuModel {
                ipc_factor: 1.0,
                pipeline_cores: 4.0,
            },
            gpu_model: GpuModel {
                arch: GpuArch::Volta,
                peak_flops_per_cycle: 512.0,
            },
            memory_model: MemoryModel {
                bytes_per_cycle: 20.0,
            },
            roofline_overlap: 0.15,
            fixed_overhead_s: 0.02,
            cpu_rail: RailModel {
                coeff: 3.0,
                v0: 0.55,
                v1: 0.22,
                idle_fraction: 0.25,
            },
            gpu_rail: RailModel {
                coeff: 6.0,
                v0: 0.55,
                v1: 0.33,
                idle_fraction: 0.25,
            },
            mem_rail: RailModel {
                coeff: 2.5,
                v0: 0.60,
                v1: 0.10,
                idle_fraction: 0.25,
            },
            static_power_w: 3.0,
        }
    }

    /// Sets the CPU frequency table (required).
    pub fn cpu_table(mut self, t: FreqTable) -> Self {
        self.cpu_table = Some(t);
        self
    }

    /// Sets the GPU frequency table (required).
    pub fn gpu_table(mut self, t: FreqTable) -> Self {
        self.gpu_table = Some(t);
        self
    }

    /// Sets the memory-controller frequency table (required).
    pub fn mem_table(mut self, t: FreqTable) -> Self {
        self.mem_table = Some(t);
        self
    }

    /// Sets the CPU performance parameters.
    pub fn cpu_model(mut self, m: CpuModel) -> Self {
        self.cpu_model = m;
        self
    }

    /// Sets the GPU performance parameters.
    pub fn gpu_model(mut self, m: GpuModel) -> Self {
        self.gpu_model = m;
        self
    }

    /// Sets the memory performance parameters.
    pub fn memory_model(mut self, m: MemoryModel) -> Self {
        self.memory_model = m;
        self
    }

    /// Sets the roofline overlap coefficient γ.
    pub(crate) fn roofline_overlap(mut self, g: f64) -> Self {
        self.roofline_overlap = g;
        self
    }

    /// Sets the fixed per-minibatch overhead in seconds.
    pub fn fixed_overhead_s(mut self, s: f64) -> Self {
        self.fixed_overhead_s = s;
        self
    }

    /// Sets the CPU rail power parameters.
    pub fn cpu_rail(mut self, r: RailModel) -> Self {
        self.cpu_rail = r;
        self
    }

    /// Sets the GPU rail power parameters.
    pub fn gpu_rail(mut self, r: RailModel) -> Self {
        self.gpu_rail = r;
        self
    }

    /// Sets the memory rail power parameters.
    pub fn mem_rail(mut self, r: RailModel) -> Self {
        self.mem_rail = r;
        self
    }

    /// Sets the constant board power in watts.
    pub fn static_power_w(mut self, w: f64) -> Self {
        self.static_power_w = w;
        self
    }

    /// Builds the device.
    ///
    /// # Panics
    ///
    /// Panics if any of the three frequency tables is missing.
    pub fn build(self) -> Device {
        let cpu = self.cpu_table.expect("cpu_table is required");
        let gpu = self.gpu_table.expect("gpu_table is required");
        let mem = self.mem_table.expect("mem_table is required");
        Device {
            name: self.name,
            space: ConfigSpace::new(cpu, gpu, mem),
            latency: LatencyModel {
                cpu: self.cpu_model,
                gpu: self.gpu_model,
                mem: self.memory_model,
                roofline_overlap: self.roofline_overlap,
                fixed_overhead_s: self.fixed_overhead_s,
            },
            power: PowerModel {
                cpu: self.cpu_rail,
                gpu: self.gpu_rail,
                mem: self.mem_rail,
                static_w: self.static_power_w,
            },
            sensor: PowerSensor::new(SensorSpec::default()),
            latency_jitter: 0.01,
            transition_latency_s: 0.001,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bofl_workload::{TaskKind, Testbed};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn grid_sizes_match_table1() {
        assert_eq!(Device::jetson_agx().config_space().len(), 2100);
        assert_eq!(Device::jetson_tx2().config_space().len(), 936);
    }

    #[test]
    fn xmax_is_fastest_everywhere() {
        let dev = Device::jetson_agx();
        let task = FlTask::preset(TaskKind::Cifar10Vit, Testbed::JetsonAgx);
        let tmax = dev.true_cost(&task, dev.config_space().x_max()).latency_s;
        // Sample a diagonal slice of the space; nothing should beat x_max.
        for i in (0..dev.config_space().len()).step_by(97) {
            let x = dev.config_space().get(crate::ConfigIndex(i)).unwrap();
            assert!(
                dev.true_cost(&task, x).latency_s >= tmax - 1e-12,
                "{x} beat x_max"
            );
        }
    }

    #[test]
    fn measured_cost_tracks_truth() {
        let dev = Device::jetson_agx();
        let task = FlTask::preset(TaskKind::ImagenetResnet50, Testbed::JetsonAgx);
        let x = dev.config_space().x_max();
        let truth = dev.true_cost(&task, x);
        let mut rng = StdRng::seed_from_u64(11);
        let mut lat = 0.0;
        let mut en = 0.0;
        let n = 200;
        for _ in 0..n {
            let m = dev.run_job(&task, x, &mut rng);
            lat += m.latency_s;
            en += m.energy_j;
        }
        let lat = lat / n as f64;
        let en = en / n as f64;
        assert!((lat / truth.latency_s - 1.0).abs() < 0.02, "latency bias");
        assert!((en / truth.energy_j - 1.0).abs() < 0.03, "energy bias");
    }

    #[test]
    fn profile_covers_space() {
        let dev = Device::builder("tiny")
            .cpu_table(FreqTable::from_mhz(&[500, 1000]))
            .gpu_table(FreqTable::from_mhz(&[200, 400]))
            .mem_table(FreqTable::from_mhz(&[600, 1200]))
            .build();
        let task = FlTask::preset(TaskKind::Cifar10Vit, Testbed::JetsonAgx);
        let profile = dev.profile_all(&task);
        assert_eq!(profile.len(), 8);
        assert!(profile.iter().all(|p| p.cost.latency_s > 0.0));
        assert!(profile.iter().all(|p| p.cost.energy_j > 0.0));
    }

    #[test]
    fn energy_surface_is_nonmonotonic_in_cpu() {
        // Paper Fig. 4b: for at least one workload the energy-vs-CPU-freq
        // curve is not monotonic across the three tasks: LSTM decreases,
        // ResNet increases.
        let dev = Device::jetson_agx();
        let space = dev.config_space();
        let sweep = |kind: TaskKind| -> Vec<f64> {
            let task = FlTask::preset(kind, Testbed::JetsonAgx);
            space
                .cpu_table()
                .iter()
                .map(|c| {
                    dev.true_cost(
                        &task,
                        DvfsConfig::new(c, space.gpu_table().max(), space.mem_table().max()),
                    )
                    .energy_j
                })
                .collect()
        };
        let lstm = sweep(TaskKind::ImdbLstm);
        let resnet = sweep(TaskKind::ImagenetResnet50);
        assert!(
            lstm.first().unwrap() > lstm.last().unwrap(),
            "LSTM energy should fall with CPU frequency"
        );
        assert!(
            resnet.first().unwrap() < resnet.last().unwrap(),
            "ResNet energy should rise with CPU frequency"
        );
    }

    #[test]
    #[should_panic(expected = "cpu_table is required")]
    fn builder_requires_tables() {
        let _ = Device::builder("incomplete").build();
    }

    #[test]
    fn jitter_and_transition_overrides() {
        let dev = Device::jetson_agx()
            .with_latency_jitter(0.07)
            .with_transition_latency_s(0.004);
        assert_eq!(dev.latency_jitter(), 0.07);
        assert_eq!(dev.transition_latency_s(), 0.004);
        // The deterministic cost model is untouched by jitter overrides.
        let task = FlTask::preset(TaskKind::Cifar10Vit, Testbed::JetsonAgx);
        let base = Device::jetson_agx().true_cost(&task, dev.config_space().x_max());
        let tuned = dev.true_cost(&task, dev.config_space().x_max());
        assert_eq!(base, tuned);
        // But measured executions spread further.
        let mut rng = StdRng::seed_from_u64(4);
        let x = dev.config_space().x_max();
        let spread = |d: &Device, rng: &mut StdRng| -> f64 {
            let costs: Vec<f64> = (0..200)
                .map(|_| d.run_job(&task, x, rng).latency_s)
                .collect();
            let mean = costs.iter().sum::<f64>() / costs.len() as f64;
            costs.iter().map(|c| (c - mean).powi(2)).sum::<f64>() / costs.len() as f64
        };
        let calm = spread(&Device::jetson_agx(), &mut rng);
        let hot = spread(&dev, &mut rng);
        assert!(hot > calm, "higher jitter must widen latency spread");
    }
}
