//! The round-by-round client simulator that drives every experiment: it
//! wraps a simulated [`Device`] behind the [`JobExecutor`] trait, feeds
//! server deadlines to a [`PaceController`], and collects per-round
//! reports.

use crate::task::{ControllerRoundStats, PaceController, Phase};
use crate::{JobExecutor, RoundSpec};
use bofl_device::{
    ConfigIndex, ConfigSpace, Device, DvfsActuator, DvfsConfig, JobCost, SimulatedActuator,
    VirtualClock,
};
use bofl_workload::FlTask;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

/// A schedule of per-round training deadlines.
///
/// The paper samples 100 deadlines uniformly from `[T_min, T_max]` where
/// `T_min = T(x_max) × W` and `T_max = ratio × T_min` with
/// `ratio ∈ [2, 4]` (§6.1).
#[derive(Debug, Clone, PartialEq)]
pub struct DeadlineSchedule {
    t_min_s: f64,
    deadlines: Vec<f64>,
}

impl DeadlineSchedule {
    /// Samples `rounds` deadlines uniformly from `[T_min, ratio × T_min]`,
    /// with `T_min` derived from the device's true `x_max` round latency.
    ///
    /// The lower bound carries a 2% feasibility headroom: a deadline drawn
    /// *exactly* at `T_min` is a coin flip under per-job latency jitter
    /// even for the all-max-frequency schedule, and no sensible server
    /// assigns one (the paper requires deadlines "no less than T_min").
    ///
    /// # Panics
    ///
    /// Panics if `ratio < 1` or `rounds == 0`.
    pub fn uniform(device: &Device, task: &FlTask, rounds: usize, ratio: f64, seed: u64) -> Self {
        assert!(ratio >= 1.0, "deadline ratio must be at least 1");
        assert!(rounds > 0, "at least one round required");
        let t_min = device.round_latency_at_max(task);
        let lo = 1.02f64.min(ratio);
        let mut rng = StdRng::seed_from_u64(seed);
        let deadlines = (0..rounds)
            .map(|_| t_min * (lo + (ratio - lo) * rng.gen::<f64>()))
            .collect();
        DeadlineSchedule {
            t_min_s: t_min,
            deadlines,
        }
    }

    /// `T_min`: the round latency at `x_max` (the feasibility floor).
    pub fn t_min_s(&self) -> f64 {
        self.t_min_s
    }

    /// The per-round deadlines, seconds.
    pub fn deadlines(&self) -> &[f64] {
        &self.deadlines
    }
}

/// One round's outcome, the unit of every figure in the paper's §6.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundReport {
    /// Zero-based round index.
    pub round: usize,
    /// The server-assigned deadline, seconds.
    pub deadline_s: f64,
    /// Wall time the round actually took, seconds.
    pub duration_s: f64,
    /// Energy consumed by the round's training jobs, joules.
    pub energy_j: f64,
    /// Jobs executed (always `W`).
    pub jobs: usize,
    /// Whether the deadline was met.
    pub deadline_met: bool,
    /// BoFL phase of this round (`None` for phase-less baselines).
    pub phase: Option<Phase>,
    /// Configurations newly explored this round.
    pub explored: Vec<ConfigIndex>,
    /// MBO computation time charged to the reporting window, if any.
    pub mbo_duration: Option<Duration>,
    /// Jobs forced to `x_max` by the mid-round guardian escalation.
    pub escalated_jobs: u64,
    /// Latency samples quarantined (kept out of the GP training set).
    pub quarantined: u64,
}

/// Aggregate outcome of a full multi-round run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSummary {
    /// Controller name.
    pub controller: String,
    /// All per-round reports.
    pub reports: Vec<RoundReport>,
}

impl RunSummary {
    /// Total training energy across rounds, joules.
    pub fn total_energy_j(&self) -> f64 {
        self.reports.iter().map(|r| r.energy_j).sum()
    }

    /// Number of rounds whose deadline was met.
    pub fn deadlines_met(&self) -> usize {
        self.reports.iter().filter(|r| r.deadline_met).count()
    }

    /// Total distinct configurations explored.
    pub fn total_explored(&self) -> usize {
        self.reports.iter().map(|r| r.explored.len()).sum()
    }

    /// Reports belonging to a given phase.
    pub fn phase_reports(&self, phase: Phase) -> impl Iterator<Item = &RoundReport> + '_ {
        self.reports.iter().filter(move |r| r.phase == Some(phase))
    }
}

/// [`JobExecutor`] implementation over a simulated device: applies DVFS
/// through a [`SimulatedActuator`], runs jobs with measurement noise, and
/// accounts time on a [`VirtualClock`].
#[derive(Debug)]
pub struct SimExecutor<'a> {
    device: &'a Device,
    task: &'a FlTask,
    actuator: SimulatedActuator,
    clock: VirtualClock,
    rng: StdRng,
    round_start_s: f64,
    energy_j: f64,
}

impl<'a> SimExecutor<'a> {
    /// Creates an executor for one device/task pair.
    pub fn new(device: &'a Device, task: &'a FlTask, seed: u64) -> Self {
        SimExecutor {
            device,
            task,
            actuator: SimulatedActuator::new(
                device.config_space().clone(),
                device.transition_latency_s(),
            ),
            clock: VirtualClock::new(),
            rng: StdRng::seed_from_u64(seed),
            round_start_s: 0.0,
            energy_j: 0.0,
        }
    }

    /// Marks the beginning of a new round; resets the round-relative
    /// clock and the energy counter, returning the previous round energy.
    pub(crate) fn begin_round(&mut self) -> f64 {
        let e = self.energy_j;
        self.round_start_s = self.clock.now_s();
        self.energy_j = 0.0;
        e
    }

    /// Energy consumed so far in the current round, joules.
    pub(crate) fn round_energy_j(&self) -> f64 {
        self.energy_j
    }
}

impl JobExecutor for SimExecutor<'_> {
    fn config_space(&self) -> &ConfigSpace {
        self.device.config_space()
    }

    fn run_job(&mut self, x: DvfsConfig) -> JobCost {
        let transition = self
            .actuator
            .apply(x)
            .expect("controllers must request grid configurations");
        self.clock.advance(transition);
        let cost = self.device.run_job(self.task, x, &mut self.rng);
        self.clock.advance(cost.latency_s);
        self.energy_j += cost.energy_j;
        cost
    }

    fn elapsed_s(&self) -> f64 {
        self.clock.now_s() - self.round_start_s
    }
}

/// Drives a [`PaceController`] through a sequence of rounds on a simulated
/// device.
#[derive(Debug)]
pub struct ClientRunner {
    device: Device,
    task: FlTask,
    seed: u64,
}

impl ClientRunner {
    /// Creates a runner for one device/task pair. The seed controls
    /// measurement noise (deadlines carry their own seed in
    /// [`DeadlineSchedule`]).
    pub fn new(device: Device, task: FlTask, seed: u64) -> Self {
        ClientRunner { device, task, seed }
    }

    /// The simulated device.
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// The FL task.
    pub fn task(&self) -> &FlTask {
        &self.task
    }

    /// Runs `controller` through all `deadlines`, returning the summary.
    pub fn run(&self, controller: &mut dyn PaceController, deadlines: &[f64]) -> RunSummary {
        let mut exec = SimExecutor::new(&self.device, &self.task, self.seed);
        let jobs = self.task.jobs_per_round();
        let mut reports = Vec::with_capacity(deadlines.len());

        for (round, &deadline_s) in deadlines.iter().enumerate() {
            exec.begin_round();
            let spec = RoundSpec::new(round, jobs, deadline_s);
            let stats: ControllerRoundStats = controller.run_round(&spec, &mut exec);
            let duration_s = exec.elapsed_s();
            reports.push(RoundReport {
                round,
                deadline_s,
                duration_s,
                energy_j: exec.round_energy_j(),
                jobs,
                deadline_met: duration_s <= deadline_s + 1e-9,
                phase: stats.phase,
                explored: stats.explored,
                mbo_duration: stats.mbo_duration,
                escalated_jobs: stats.escalated_jobs,
                quarantined: stats.quarantined,
            });
        }

        RunSummary {
            controller: controller.name().to_string(),
            reports,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::PerformantController;
    use bofl_workload::{TaskKind, Testbed};

    fn small_setup() -> (Device, FlTask) {
        // Full AGX device but the lightest task keeps tests quick.
        (
            Device::jetson_agx(),
            FlTask::preset(TaskKind::Cifar10Vit, Testbed::JetsonAgx),
        )
    }

    #[test]
    fn deadline_schedule_ranges() {
        let (device, task) = small_setup();
        let s = DeadlineSchedule::uniform(&device, &task, 50, 2.0, 42);
        let t_min = s.t_min_s();
        assert!((t_min - device.round_latency_at_max(&task)).abs() < 1e-9);
        for &d in s.deadlines() {
            assert!(d >= t_min);
            assert!(d <= 2.0 * t_min);
        }
    }

    #[test]
    fn deadline_schedule_is_seeded() {
        let (device, task) = small_setup();
        let a = DeadlineSchedule::uniform(&device, &task, 10, 2.5, 7);
        let b = DeadlineSchedule::uniform(&device, &task, 10, 2.5, 7);
        let c = DeadlineSchedule::uniform(&device, &task, 10, 2.5, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn performant_run_meets_all_deadlines() {
        let (device, task) = small_setup();
        let sched = DeadlineSchedule::uniform(&device, &task, 5, 2.0, 1);
        let runner = ClientRunner::new(device, task, 11);
        let summary = runner.run(&mut PerformantController::new(), sched.deadlines());
        assert_eq!(summary.reports.len(), 5);
        assert_eq!(summary.deadlines_met(), 5);
        assert_eq!(summary.controller, "Performant");
        assert!(summary.total_energy_j() > 0.0);
        // Every round ran W jobs.
        assert!(summary
            .reports
            .iter()
            .all(|r| r.jobs == runner.task().jobs_per_round()));
    }

    #[test]
    fn run_is_deterministic_under_seed() {
        let (device, task) = small_setup();
        let sched = DeadlineSchedule::uniform(&device, &task, 3, 2.0, 5);
        let r1 = ClientRunner::new(device.clone(), task.clone(), 9)
            .run(&mut PerformantController::new(), sched.deadlines());
        let r2 = ClientRunner::new(device, task, 9)
            .run(&mut PerformantController::new(), sched.deadlines());
        assert_eq!(r1.total_energy_j(), r2.total_energy_j());
    }

    #[test]
    fn executor_charges_transition_latency() {
        let (device, task) = small_setup();
        let mut exec = SimExecutor::new(&device, &task, 3);
        exec.begin_round();
        let space = device.config_space().clone();
        // First job: transition from boot (x_min) to x_max costs extra.
        let c1 = exec.run_job(space.x_max());
        let with_transition = exec.elapsed_s();
        assert!(with_transition >= c1.latency_s + device.transition_latency_s() - 1e-12);
        // Second job at the same config: no transition.
        let t_before = exec.elapsed_s();
        let c2 = exec.run_job(space.x_max());
        assert!((exec.elapsed_s() - t_before - c2.latency_s).abs() < 1e-12);
    }
}
