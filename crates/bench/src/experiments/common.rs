//! Shared experiment machinery: the BoFL / Performant / Oracle triple run
//! that most figures are built from.

use bofl::baselines::{OracleController, PerformantController};
use bofl::prelude::*;
use bofl::BoflController;
use bofl_device::ConfigIndex;
use bofl_workload::{TaskKind, Testbed};

/// Scale of an experiment: full paper scale, or reduced for `--quick` and tests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExperimentScale {
    /// FL rounds per run (paper: 100).
    pub rounds: usize,
    /// Seed for the deadline schedule.
    pub deadline_seed: u64,
    /// Seed for measurement noise.
    pub noise_seed: u64,
}

impl ExperimentScale {
    /// The paper's scale: 100 rounds.
    pub fn full() -> Self {
        ExperimentScale {
            rounds: 100,
            deadline_seed: 2022,
            noise_seed: 7,
        }
    }

    /// Reduced scale for `reproduce --quick` and smoke tests.
    pub fn quick() -> Self {
        ExperimentScale {
            rounds: 20,
            deadline_seed: 2022,
            noise_seed: 7,
        }
    }
}

/// The device preset for a testbed.
pub fn device_for(testbed: Testbed) -> Device {
    match testbed {
        Testbed::JetsonAgx => Device::jetson_agx(),
        Testbed::JetsonTx2 => Device::jetson_tx2(),
        _ => unreachable!("only two testbeds exist"),
    }
}

/// A matched triple of runs over the same deadlines and noise seeds.
#[derive(Debug, Clone)]
pub struct TripleRun {
    /// Which task was run.
    pub kind: TaskKind,
    /// Which testbed it ran on.
    pub testbed: Testbed,
    /// The deadline schedule used by all three controllers.
    pub schedule: DeadlineSchedule,
    /// The BoFL run.
    pub bofl: RunSummary,
    /// The Performant baseline run.
    pub performant: RunSummary,
    /// The Oracle baseline run.
    pub oracle: RunSummary,
    /// Mean measured costs of BoFL's final Pareto set: `(index, T̂, Ê)`.
    pub bofl_pareto: Vec<(ConfigIndex, f64, f64)>,
    /// Every configuration BoFL measured: `(index, T̂, Ê)`.
    pub bofl_observed: Vec<(ConfigIndex, f64, f64)>,
    /// Host wall-clock seconds per MBO invocation.
    pub mbo_host_durations: Vec<f64>,
}

impl TripleRun {
    /// Energy improvement of BoFL vs Performant (paper §6.4 metric 1).
    pub fn improvement(&self) -> f64 {
        bofl::metrics::improvement_vs(&self.bofl, &self.performant)
    }

    /// Energy regret of BoFL vs Oracle (paper §6.4 metric 2).
    pub fn regret(&self) -> f64 {
        bofl::metrics::regret_vs(&self.bofl, &self.oracle)
    }
}

/// Runs BoFL, Performant and Oracle on one task/testbed with deadlines
/// drawn uniformly from `[T_min, ratio × T_min]`.
pub fn run_triple(
    kind: TaskKind,
    testbed: Testbed,
    ratio: f64,
    scale: ExperimentScale,
) -> TripleRun {
    let device = device_for(testbed);
    let task = FlTask::preset(kind, testbed);
    let schedule =
        DeadlineSchedule::uniform(&device, &task, scale.rounds, ratio, scale.deadline_seed);
    let runner = ClientRunner::new(device.clone(), task.clone(), scale.noise_seed);

    let mut bofl_ctrl = BoflController::new(BoflConfig::default());
    let bofl = runner.run(&mut bofl_ctrl, schedule.deadlines());

    let mut perf_ctrl = PerformantController::new();
    let performant = runner.run(&mut perf_ctrl, schedule.deadlines());

    let mut oracle_ctrl = OracleController::new(device.profile_all(&task));
    let oracle = runner.run(&mut oracle_ctrl, schedule.deadlines());

    let space = device.config_space();
    let bofl_pareto = bofl_ctrl
        .observations()
        .pareto_set()
        .into_iter()
        .filter_map(|a| {
            space
                .index_of(a.config)
                .map(|i| (i, a.mean_latency_s(), a.mean_energy_j()))
        })
        .collect();
    let bofl_observed = bofl_ctrl
        .observations()
        .iter()
        .filter_map(|a| {
            space
                .index_of(a.config)
                .map(|i| (i, a.mean_latency_s(), a.mean_energy_j()))
        })
        .collect();
    let mbo_host_durations = bofl
        .reports
        .iter()
        .filter_map(|r| r.mbo_duration)
        .map(|d| d.as_secs_f64())
        .collect();

    TripleRun {
        kind,
        testbed,
        schedule,
        bofl,
        performant,
        oracle,
        bofl_pareto,
        bofl_observed,
        mbo_host_durations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triple_run_is_internally_consistent() {
        let t = run_triple(
            TaskKind::Cifar10Vit,
            Testbed::JetsonAgx,
            2.0,
            ExperimentScale {
                rounds: 12,
                deadline_seed: 3,
                noise_seed: 5,
            },
        );
        assert_eq!(t.bofl.reports.len(), 12);
        assert_eq!(t.performant.reports.len(), 12);
        assert_eq!(t.oracle.reports.len(), 12);
        assert_eq!(t.bofl.deadlines_met(), 12);
        assert!(!t.bofl_pareto.is_empty());
        assert!(t.bofl_observed.len() >= t.bofl_pareto.len());
        // Oracle never does worse than Performant.
        assert!(t.oracle.total_energy_j() <= t.performant.total_energy_j() * 1.001);
    }
}
