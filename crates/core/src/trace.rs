//! Per-job execution tracing: a composable [`JobExecutor`] wrapper that
//! records every job's configuration and measured cost.
//!
//! Useful for debugging pace decisions, for exporting the raw
//! latency/energy scatter behind Fig. 2-style plots, and for verifying in
//! tests that a controller actually executed the schedule it planned.

use crate::JobExecutor;
use bofl_device::{ConfigSpace, DvfsConfig, JobCost};

/// One traced job execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobEvent {
    /// Zero-based index of the job within the trace.
    pub job: usize,
    /// The DVFS configuration the job ran at.
    pub config: DvfsConfig,
    /// Measured cost of the job.
    pub cost: JobCost,
    /// Round-relative time at which the job *finished*, seconds.
    pub finished_at_s: f64,
}

/// A [`JobExecutor`] wrapper that records a [`JobEvent`] per job.
///
/// # Examples
///
/// ```
/// use bofl::prelude::*;
/// use bofl::trace::TracingExecutor;
/// use bofl::runner::SimExecutor;
/// use bofl::task::PaceController;
///
/// let device = Device::jetson_agx();
/// let task = FlTask::preset(TaskKind::Cifar10Vit, Testbed::JetsonAgx);
/// let inner = SimExecutor::new(&device, &task, 1);
/// let mut exec = TracingExecutor::new(inner);
///
/// let mut ctrl = bofl::baselines::PerformantController::new();
/// let spec = RoundSpec::new(0, 10, 1e6);
/// ctrl.run_round(&spec, &mut exec);
///
/// assert_eq!(exec.events().len(), 10);
/// assert!(exec.events().iter().all(|e| e.config == device.config_space().x_max()));
/// // A header and one row per job.
/// assert_eq!(exec.to_csv().lines().count(), 11);
/// ```
#[derive(Debug)]
pub struct TracingExecutor<E> {
    inner: E,
    events: Vec<JobEvent>,
}

impl<E: JobExecutor> TracingExecutor<E> {
    /// Wraps an executor.
    pub fn new(inner: E) -> Self {
        TracingExecutor {
            inner,
            events: Vec::new(),
        }
    }

    /// The recorded events, in execution order.
    pub fn events(&self) -> &[JobEvent] {
        &self.events
    }

    /// Renders the trace as CSV rows
    /// (`job,cpu_mhz,gpu_mhz,mem_mhz,latency_s,energy_j,finished_at_s`).
    pub fn to_csv(&self) -> String {
        let mut out =
            String::from("job,cpu_mhz,gpu_mhz,mem_mhz,latency_s,energy_j,finished_at_s\n");
        for e in &self.events {
            out.push_str(&format!(
                "{},{},{},{},{:.6},{:.6},{:.6}\n",
                e.job,
                e.config.cpu.as_mhz(),
                e.config.gpu.as_mhz(),
                e.config.mem.as_mhz(),
                e.cost.latency_s,
                e.cost.energy_j,
                e.finished_at_s,
            ));
        }
        out
    }
}

impl<E: JobExecutor> JobExecutor for TracingExecutor<E> {
    fn config_space(&self) -> &ConfigSpace {
        self.inner.config_space()
    }

    fn run_job(&mut self, x: DvfsConfig) -> JobCost {
        let cost = self.inner.run_job(x);
        self.events.push(JobEvent {
            job: self.events.len(),
            config: x,
            cost,
            finished_at_s: self.inner.elapsed_s(),
        });
        cost
    }

    fn elapsed_s(&self) -> f64 {
        self.inner.elapsed_s()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::testing::FakeExecutor;

    #[test]
    fn records_every_job_in_order() {
        let mut exec = TracingExecutor::new(FakeExecutor::new());
        let space = exec.config_space().clone();
        let a = space.x_max();
        let b = space.x_min();
        exec.run_job(a);
        exec.run_job(b);
        exec.run_job(a);
        let events = exec.events();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].config, a);
        assert_eq!(events[1].config, b);
        assert_eq!(
            events.iter().map(|e| e.job).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        // finished_at is monotone increasing.
        assert!(events
            .windows(2)
            .all(|w| w[0].finished_at_s < w[1].finished_at_s));
    }

    #[test]
    fn csv_and_clear() {
        let mut exec = TracingExecutor::new(FakeExecutor::new());
        let x = exec.config_space().x_max();
        exec.run_job(x);
        let csv = exec.to_csv();
        assert!(csv.starts_with("job,cpu_mhz"));
        assert_eq!(csv.lines().count(), 2);
    }

    #[test]
    fn elapsed_passthrough() {
        let mut exec = TracingExecutor::new(FakeExecutor::new());
        let x = exec.config_space().x_max();
        let cost = exec.run_job(x);
        assert!((exec.elapsed_s() - cost.latency_s).abs() < 1e-12);
        assert_eq!(exec.inner.jobs_run.len(), 1);
    }
}
