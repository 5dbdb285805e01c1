//! The paper's two comparison targets (§6.1): **Performant** (always
//! `x_max`) and **Oracle** (offline full profile, exploitation only).

use crate::exploit::{exploit_remaining_with, ExploitParams};
use crate::task::{ControllerRoundStats, PaceController, Phase};
use crate::{JobExecutor, ObservationStore, RoundSpec};
use bofl_device::ProfileEntry;

/// The Performant baseline: every hardware unit at maximum frequency for
/// every job — the default DVFS governor for real-time tasks. Never misses
/// a deadline, never saves a joule.
#[derive(Debug, Clone, Copy, Default)]
pub struct PerformantController;

impl PerformantController {
    /// Creates the baseline controller.
    pub fn new() -> Self {
        PerformantController
    }
}

impl PaceController for PerformantController {
    fn name(&self) -> &str {
        "Performant"
    }

    fn run_round(&mut self, spec: &RoundSpec, exec: &mut dyn JobExecutor) -> ControllerRoundStats {
        let x_max = exec.config_space().x_max();
        for _ in 0..spec.jobs {
            exec.run_job(x_max);
        }
        ControllerRoundStats::default()
    }
}

/// The Oracle baseline: granted the full offline profile of the
/// configuration space (`Device::profile_all`), it solves the exploitation
/// ILP from round one with ground-truth costs. Unrealizable in practice —
/// profiling 2100 configurations for τ seconds each would take hours —
/// but the gold standard BoFL's regret is measured against.
#[derive(Debug, Clone)]
pub struct OracleController {
    store: ObservationStore,
    safety_margin: f64,
    initialized: bool,
    profile: Vec<ProfileEntry>,
    exploit_params: ExploitParams,
}

impl OracleController {
    /// Creates an Oracle from a full offline profile.
    ///
    /// # Panics
    ///
    /// Panics if the profile is empty.
    pub fn new(profile: Vec<ProfileEntry>) -> Self {
        assert!(!profile.is_empty(), "oracle requires a non-empty profile");
        OracleController {
            store: ObservationStore::new(),
            safety_margin: 0.01,
            initialized: false,
            profile,
            exploit_params: ExploitParams::default(),
        }
    }

    /// Overrides the exploitation parameters (strategy and mid-round
    /// escalation). The default enables escalation; robustness
    /// experiments disable it to measure what the recovery layer buys.
    pub fn with_params(mut self, params: ExploitParams) -> Self {
        self.exploit_params = params;
        self
    }
}

impl PaceController for OracleController {
    fn name(&self) -> &str {
        "Oracle"
    }

    fn run_round(&mut self, spec: &RoundSpec, exec: &mut dyn JobExecutor) -> ControllerRoundStats {
        if !self.initialized {
            self.initialized = true;
            let space = exec.config_space().clone();
            for entry in &self.profile {
                self.store.record(&space, entry.config, entry.cost);
            }
        }
        let effective = spec.deadline_s * (1.0 - self.safety_margin);
        let report = exploit_remaining_with(
            exec,
            spec,
            &mut self.store,
            spec.jobs as u64,
            effective,
            self.exploit_params,
        );
        ControllerRoundStats {
            phase: Some(Phase::Exploitation),
            escalated_jobs: report.escalated_jobs,
            ..ControllerRoundStats::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::testing::FakeExecutor;
    use bofl_device::ProfileEntry;

    fn fake_profile(exec: &FakeExecutor) -> Vec<ProfileEntry> {
        exec.config_space()
            .iter()
            .map(|config| ProfileEntry {
                config,
                cost: FakeExecutor::true_cost(config),
            })
            .collect()
    }

    #[test]
    fn performant_runs_everything_at_xmax() {
        let mut exec = FakeExecutor::new();
        let mut ctrl = PerformantController::new();
        let spec = RoundSpec::new(0, 15, 1e6);
        let stats = ctrl.run_round(&spec, &mut exec);
        assert_eq!(exec.jobs_run.len(), 15);
        let x_max = exec.config_space().x_max();
        assert!(exec.jobs_run.iter().all(|&x| x == x_max));
        assert_eq!(stats.phase, None);
        assert_eq!(ctrl.name(), "Performant");
    }

    #[test]
    fn oracle_beats_performant_with_slack() {
        let mut exec_o = FakeExecutor::new();
        let profile = fake_profile(&exec_o);
        let mut oracle = OracleController::new(profile);
        let t_max = FakeExecutor::true_cost(exec_o.config_space().x_max()).latency_s;
        let jobs = 50;
        let deadline = jobs as f64 * t_max * 3.0;
        let spec = RoundSpec::new(0, jobs, deadline);
        oracle.run_round(&spec, &mut exec_o);
        assert_eq!(exec_o.jobs_run.len(), jobs);
        assert!(exec_o.elapsed_s() <= deadline);

        let mut exec_p = FakeExecutor::new();
        PerformantController::new().run_round(&spec, &mut exec_p);
        assert!(
            exec_o.energy_total < exec_p.energy_total,
            "oracle {} vs performant {}",
            exec_o.energy_total,
            exec_p.energy_total
        );
    }

    #[test]
    fn oracle_matches_performant_under_tight_deadline() {
        let mut exec = FakeExecutor::new();
        let profile = fake_profile(&exec);
        let mut oracle = OracleController::new(profile);
        oracle.safety_margin = 0.0;
        let t_max = FakeExecutor::true_cost(exec.config_space().x_max()).latency_s;
        let jobs = 20;
        let spec = RoundSpec::new(0, jobs, jobs as f64 * t_max * 1.0001);
        oracle.run_round(&spec, &mut exec);
        assert!(exec.elapsed_s() <= spec.deadline_s + 1e-9);
        // Essentially everything must run at x_max.
        let x_max = exec.config_space().x_max();
        let at_max = exec.jobs_run.iter().filter(|&&x| x == x_max).count();
        assert!(at_max >= jobs - 1);
    }

    #[test]
    #[should_panic(expected = "non-empty profile")]
    fn oracle_rejects_empty_profile() {
        let _ = OracleController::new(Vec::new());
    }
}
