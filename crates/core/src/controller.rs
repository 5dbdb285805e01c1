//! The BoFL controller: the three-phase state machine of the paper's
//! Fig. 6, built on the safe-exploration algorithm ([`crate::guardian`]),
//! the MBO engine ([`bofl_mobo`]) and the exploitation ILP
//! ([`crate::exploit`]).

use crate::exploit::{exploit_remaining_with, ExploitParams, ExploitStrategy};
use crate::guardian::{explore_safely, SafeExplorationParams};
use crate::observation::QuarantinePolicy;
use crate::task::{ControllerRoundStats, PaceController, Phase};
use crate::{JobExecutor, ObservationStore, RoundSpec};
use bofl_device::{ConfigSpace, DvfsConfig};
use bofl_mobo::{MoboConfig, MoboEngine, Observation, SobolSequence, StoppingRule};
use std::collections::HashSet;
use std::time::Duration;

/// How phase-2 exploration candidates are generated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExplorationStrategy {
    /// The paper's design: EHVI-guided multi-objective Bayesian
    /// optimization.
    #[default]
    Mbo,
    /// Ablation: keep drawing quasi-random (Sobol) candidates in phase 2
    /// as well, with the same stopping rule.
    RandomOnly,
}

/// How the MBO engine assembles a batch of suggestions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BatchStrategy {
    /// The paper's design: sequential-greedy selection with fantasized
    /// (Kriging-believer) observations between picks.
    #[default]
    GreedyFantasy,
    /// Ablation: rank all candidates by single-point EHVI once and take
    /// the top K (batches tend to cluster).
    NoFantasy,
}

/// Tuning knobs of the BoFL controller, with the paper's defaults.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoflConfig {
    /// Reference measurement duration τ (paper §4.2: 5 s).
    pub tau_s: f64,
    /// Fraction of the configuration space sampled as phase-1 start
    /// points (paper §4.2: ~1%).
    pub random_fraction: f64,
    /// Minimum fraction of the space that must be explored before the
    /// stopping rule may fire (paper §4.3: ~3%).
    pub min_coverage: f64,
    /// Relative hypervolume-increase threshold of the stopping rule
    /// (paper §4.3: 1%).
    pub hvi_threshold: f64,
    /// Upper bound on the MBO batch size (paper §4.3: e.g. 10).
    pub max_batch: usize,
    /// Fraction of each deadline held back as a safety margin.
    pub safety_margin: f64,
    /// Number of GP hyperparameter-optimization restarts per MBO update.
    pub gp_restarts: usize,
    /// Evaluation budget per GP restart.
    pub gp_max_evaluations: usize,
    /// Phase-2 candidate generation (ablation knob).
    pub exploration: ExplorationStrategy,
    /// MBO batch assembly (ablation knob).
    pub batching: BatchStrategy,
    /// Exploitation planning (ablation knob).
    pub exploitation: ExploitStrategy,
    /// Whether the deadline guardian runs (ablation knob; disabling it is
    /// unsafe by design).
    pub guardian_enabled: bool,
    /// Whether the mid-round guardian escalation runs during
    /// exploitation: when observed latency overruns the plan the way a
    /// straggler slowdown does, the rest of the round switches to `x_max`.
    pub escalation_enabled: bool,
    /// Trip ratio of the mid-round escalation (observed latency over
    /// expected latency of the planned job).
    pub escalation_factor: f64,
    /// Quarantine for contaminated latency observations: inflated samples
    /// are excluded from the aggregates feeding the GP surrogate.
    pub quarantine: QuarantinePolicy,
}

impl Default for BoflConfig {
    fn default() -> Self {
        BoflConfig {
            tau_s: 5.0,
            random_fraction: 0.01,
            min_coverage: 0.03,
            hvi_threshold: 0.01,
            max_batch: 10,
            safety_margin: 0.01,
            gp_restarts: 2,
            gp_max_evaluations: 250,
            exploration: ExplorationStrategy::Mbo,
            batching: BatchStrategy::GreedyFantasy,
            exploitation: ExploitStrategy::IlpProfile,
            guardian_enabled: true,
            escalation_enabled: true,
            escalation_factor: 2.5,
            quarantine: QuarantinePolicy::with_factor(3.0),
        }
    }
}

impl BoflConfig {
    /// A configuration with reduced GP effort and τ, for fast unit tests
    /// and doc examples. Semantics are unchanged; only compute shrinks.
    pub fn fast_test() -> Self {
        BoflConfig {
            tau_s: 2.0,
            gp_restarts: 1,
            gp_max_evaluations: 60,
            ..BoflConfig::default()
        }
    }
}

/// The BoFL pace controller (paper §4).
///
/// Create one per FL task per device; it keeps its observations, phase and
/// surrogate models across rounds. Drive it through
/// [`PaceController::run_round`] — see the crate-level example.
#[derive(Debug)]
pub struct BoflController {
    config: BoflConfig,
    store: ObservationStore,
    phase: Phase,
    /// Phase-1 start points not yet explored (front of the queue first).
    pending_start_points: Vec<DvfsConfig>,
    /// Phase-2 suggestions for the upcoming round.
    pending_suggestions: Vec<DvfsConfig>,
    engine: MoboEngine,
    /// Indices (into the engine's observation list) already fed to MBO.
    observed_count: usize,
    /// Round durations seen so far (for the batch-size rule K = T_avg/τ).
    round_durations: Vec<f64>,
    initialized: bool,
    space_len: usize,
    /// Continued Sobol stream for the RandomOnly ablation.
    sobol: SobolSequence,
    last_mbo_duration: Option<Duration>,
    mbo_invocations: u32,
}

/// The MBO engine `config` asks for, whose stopping rule waits for at
/// least `min_evaluations` observations.
fn mobo_engine(config: &BoflConfig, min_evaluations: usize) -> MoboEngine {
    MoboEngine::new(MoboConfig {
        gp: bofl_gp::GpConfig {
            restarts: config.gp_restarts,
            max_evaluations: config.gp_max_evaluations,
            ..bofl_gp::GpConfig::default()
        },
        stopping: StoppingRule {
            min_evaluations,
            hvi_threshold: config.hvi_threshold,
        },
        ..MoboConfig::default()
    })
}

impl BoflController {
    /// Creates a controller with the given configuration.
    pub fn new(config: BoflConfig) -> Self {
        BoflController {
            store: ObservationStore::with_quarantine(config.quarantine),
            // Replaced on initialization, once the space fixes the
            // stopping rule's minimum.
            engine: mobo_engine(&config, usize::MAX),
            config,
            phase: Phase::RandomExploration,
            pending_start_points: Vec::new(),
            pending_suggestions: Vec::new(),
            observed_count: 0,
            round_durations: Vec::new(),
            initialized: false,
            space_len: 0,
            sobol: SobolSequence::new(3),
            last_mbo_duration: None,
            mbo_invocations: 0,
        }
    }

    /// The observation store (everything measured so far).
    pub fn observations(&self) -> &ObservationStore {
        &self.store
    }

    /// Grid indices of the observed configurations whose measured costs
    /// are Pareto-optimal.
    pub fn pareto_configs(&self) -> Vec<DvfsConfig> {
        self.store.pareto_set().iter().map(|a| a.config).collect()
    }

    /// Lazily samples the Sobol start points on first use (needs the
    /// space, which arrives with the first executor).
    fn initialize(&mut self, space: &ConfigSpace) {
        if self.initialized {
            return;
        }
        self.initialized = true;
        self.space_len = space.len();

        let n_start = ((space.len() as f64 * self.config.random_fraction).ceil() as usize).max(4);
        let mut seen: HashSet<(u32, u32, u32)> = HashSet::new();
        let mut points = Vec::with_capacity(n_start + 1);

        // x_max goes first: it is the guardian and the T_min anchor.
        let x_max = space.x_max();
        seen.insert((x_max.cpu.as_mhz(), x_max.gpu.as_mhz(), x_max.mem.as_mhz()));
        points.push(x_max);

        // Oversample the Sobol stream: snapping to the grid may collide.
        let mut attempts = 0;
        while points.len() < n_start + 1 && attempts < n_start * 50 {
            attempts += 1;
            let u = self.sobol.next_point();
            let x = space.from_unit_cube([u[0], u[1], u[2]]);
            if seen.insert((x.cpu.as_mhz(), x.gpu.as_mhz(), x.mem.as_mhz())) {
                points.push(x);
            }
        }
        self.pending_start_points = points;

        // Stopping rule: the paper's ~3% coverage requirement.
        let min_evals = ((space.len() as f64 * self.config.min_coverage).ceil() as usize).max(8);
        self.engine = mobo_engine(&self.config, min_evals);
    }

    /// Feeds all not-yet-fed observations into the MBO engine.
    fn sync_engine(&mut self, space: &ConfigSpace) {
        let aggs: Vec<_> = self.store.iter().skip(self.observed_count).collect();
        let mut new_obs = Vec::with_capacity(aggs.len());
        for agg in aggs {
            let u = agg.config.to_unit_cube(space);
            new_obs.push(Observation::new(
                u.to_vec(),
                [agg.mean_energy_j(), agg.mean_latency_s()],
            ));
        }
        for obs in new_obs {
            self.engine
                .observe(obs)
                .expect("store observations are finite grid points");
            self.observed_count += 1;
        }
    }

    /// Runs the between-round MBO update (paper: in the configuration /
    /// reporting window) and stocks `pending_suggestions`.
    fn mbo_update(&mut self, space: &ConfigSpace) {
        self.sync_engine(space);
        if let Some(worst) = self.store.worst_objectives() {
            // Reference point: the combination of worst phase-1
            // performances (paper §4.3), padded slightly.
            self.engine
                .set_reference([worst[0] * 1.05, worst[1] * 1.05]);
        }
        self.engine.record_round();

        if self.engine.should_stop() {
            self.phase = Phase::Exploitation;
            self.pending_suggestions.clear();
            return;
        }

        // Batch size K = T_avg / τ, capped (paper §4.3).
        let t_avg = if self.round_durations.is_empty() {
            self.config.tau_s
        } else {
            self.round_durations.iter().sum::<f64>() / self.round_durations.len() as f64
        };
        let k = ((t_avg / self.config.tau_s).floor() as usize).clamp(1, self.config.max_batch);

        // Candidate pool: every unexplored grid point.
        let observed: HashSet<_> = self.store.indices().iter().copied().collect();
        let mut candidates = Vec::new();
        let mut candidate_configs = Vec::new();
        for (i, x) in space.iter().enumerate() {
            if !observed.contains(&bofl_device::ConfigIndex(i)) {
                candidates.push(x.to_unit_cube(space).to_vec());
                candidate_configs.push(x);
            }
        }

        let suggestion = match self.config.exploration {
            ExplorationStrategy::RandomOnly => Ok(self.random_candidates(space, k)),
            ExplorationStrategy::Mbo => {
                let picks = match self.config.batching {
                    BatchStrategy::GreedyFantasy => self.engine.suggest(k, &candidates),
                    BatchStrategy::NoFantasy => self.engine.suggest_no_fantasy(k, &candidates),
                };
                picks.map(|idx| idx.into_iter().map(|i| candidate_configs[i]).collect())
            }
        };
        match suggestion {
            Ok(picks) => {
                self.pending_suggestions = picks;
                self.last_mbo_duration = self.engine.last_suggest_duration();
                self.mbo_invocations += 1;
            }
            Err(_) => {
                // Not enough observations or degenerate models: skip this
                // round's suggestions and keep exploring randomly later.
                self.pending_suggestions.clear();
            }
        }

        if self.pending_suggestions.is_empty() {
            // Nothing left to suggest — the space is effectively covered.
            self.phase = Phase::Exploitation;
        }
    }

    /// Draws `k` fresh quasi-random grid configurations (RandomOnly
    /// ablation), skipping everything already observed.
    fn random_candidates(&mut self, space: &ConfigSpace, k: usize) -> Vec<DvfsConfig> {
        let observed: HashSet<(u32, u32, u32)> = self
            .store
            .iter()
            .map(|a| {
                (
                    a.config.cpu.as_mhz(),
                    a.config.gpu.as_mhz(),
                    a.config.mem.as_mhz(),
                )
            })
            .collect();
        let mut out = Vec::with_capacity(k);
        let mut seen = observed;
        let mut attempts = 0;
        while out.len() < k && attempts < k * 200 {
            attempts += 1;
            let u = self.sobol.next_point();
            let x = space.from_unit_cube([u[0], u[1], u[2]]);
            if seen.insert((x.cpu.as_mhz(), x.gpu.as_mhz(), x.mem.as_mhz())) {
                out.push(x);
            }
        }
        out
    }

    fn exploration_params(&self) -> SafeExplorationParams {
        SafeExplorationParams {
            tau_s: self.config.tau_s,
            safety_margin: self.config.safety_margin,
            guardian_enabled: self.config.guardian_enabled,
            exploit_strategy: self.config.exploitation,
            escalation_enabled: self.config.escalation_enabled,
            escalation_factor: self.config.escalation_factor,
            ..SafeExplorationParams::default()
        }
    }
}

impl PaceController for BoflController {
    fn name(&self) -> &str {
        "BoFL"
    }

    fn run_round(&mut self, spec: &RoundSpec, exec: &mut dyn JobExecutor) -> ControllerRoundStats {
        let space = exec.config_space().clone();
        self.initialize(&space);

        // Between-round work (phase transitions + MBO) happens before the
        // round clock starts, in the configuration/reporting window.
        let mut mbo_duration = None;
        if self.phase == Phase::RandomExploration && self.pending_start_points.is_empty() {
            self.phase = Phase::ParetoConstruction;
        }
        if self.phase == Phase::ParetoConstruction {
            self.mbo_update(&space);
            mbo_duration = self.last_mbo_duration;
        }

        let start = exec.elapsed_s();
        let quarantined_before = self.store.quarantined_jobs();
        let params = self.exploration_params();
        let mut stats = match self.phase {
            Phase::RandomExploration => {
                let candidates = self.pending_start_points.clone();
                let out = explore_safely(exec, spec, &mut self.store, &candidates, params);
                // Unconsumed start points roll over to the next round.
                self.pending_start_points.drain(..out.consumed);
                ControllerRoundStats {
                    phase: Some(Phase::RandomExploration),
                    explored: out.explored,
                    escalated_jobs: out.escalated_jobs,
                    ..ControllerRoundStats::default()
                }
            }
            Phase::ParetoConstruction => {
                let candidates = std::mem::take(&mut self.pending_suggestions);
                let out = explore_safely(exec, spec, &mut self.store, &candidates, params);
                // Unexplored suggestions are dropped (paper §4.3); the next
                // MBO update will re-suggest with fresh information.
                ControllerRoundStats {
                    phase: Some(Phase::ParetoConstruction),
                    explored: out.explored,
                    mbo_duration,
                    escalated_jobs: out.escalated_jobs,
                    ..ControllerRoundStats::default()
                }
            }
            Phase::Exploitation => {
                let effective = spec.deadline_s * (1.0 - self.config.safety_margin);
                let report = exploit_remaining_with(
                    exec,
                    spec,
                    &mut self.store,
                    spec.jobs as u64,
                    effective,
                    ExploitParams {
                        strategy: self.config.exploitation,
                        escalation_enabled: self.config.escalation_enabled,
                        escalation_factor: self.config.escalation_factor,
                    },
                );
                ControllerRoundStats {
                    phase: Some(Phase::Exploitation),
                    escalated_jobs: report.escalated_jobs,
                    ..ControllerRoundStats::default()
                }
            }
        };
        stats.quarantined = self.store.quarantined_jobs() - quarantined_before;
        self.round_durations.push(exec.elapsed_s() - start);
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::testing::FakeExecutor;

    fn run_rounds(
        ctrl: &mut BoflController,
        n: usize,
        jobs: usize,
        deadline: f64,
    ) -> Vec<ControllerRoundStats> {
        (0..n)
            .map(|i| {
                let mut exec = FakeExecutor::new();
                let spec = RoundSpec::new(i, jobs, deadline);
                let stats = ctrl.run_round(&spec, &mut exec);
                assert_eq!(exec.jobs_run.len(), jobs, "round {i} must run all jobs");
                assert!(
                    exec.elapsed_s() <= deadline,
                    "round {i} missed deadline: {} > {}",
                    exec.elapsed_s(),
                    deadline
                );
                stats
            })
            .collect()
    }

    #[test]
    fn phases_progress_in_order() {
        let mut ctrl = BoflController::new(BoflConfig {
            tau_s: 1.0,
            random_fraction: 0.10, // 6 start points on the 60-config fake
            min_coverage: 0.15,
            max_batch: 4,
            gp_restarts: 1,
            gp_max_evaluations: 50,
            ..BoflConfig::default()
        });
        let t_max = FakeExecutor::true_cost(FakeExecutor::new().config_space().x_max()).latency_s;
        let jobs = 60;
        let deadline = jobs as f64 * t_max * 3.0;

        let mut seen_phases = Vec::new();
        for stats in run_rounds(&mut ctrl, 12, jobs, deadline) {
            seen_phases.push(stats.phase.unwrap());
        }
        // Monotone phase ordering: exploration → construction → exploitation.
        let order = |p: &Phase| match p {
            Phase::RandomExploration => 0,
            Phase::ParetoConstruction => 1,
            Phase::Exploitation => 2,
        };
        assert!(seen_phases.windows(2).all(|w| order(&w[0]) <= order(&w[1])));
        assert_eq!(seen_phases[0], Phase::RandomExploration);
        assert_eq!(*seen_phases.last().unwrap(), Phase::Exploitation);
    }

    #[test]
    fn explores_roughly_random_fraction_in_phase1() {
        let mut ctrl = BoflController::new(BoflConfig {
            tau_s: 0.5,
            random_fraction: 0.10,
            min_coverage: 0.12,
            gp_restarts: 1,
            gp_max_evaluations: 40,
            ..BoflConfig::default()
        });
        let t_max = FakeExecutor::true_cost(FakeExecutor::new().config_space().x_max()).latency_s;
        let _ = run_rounds(&mut ctrl, 3, 80, 80.0 * t_max * 4.0);
        // 60 configs × 10% = 6 start points + x_max = 7.
        assert!(ctrl.observations().len() >= 7);
    }

    #[test]
    fn exploitation_uses_pareto_configs() {
        let mut ctrl = BoflController::new(BoflConfig {
            tau_s: 0.5,
            random_fraction: 0.10,
            min_coverage: 0.10,
            gp_restarts: 1,
            gp_max_evaluations: 40,
            ..BoflConfig::default()
        });
        let t_max = FakeExecutor::true_cost(FakeExecutor::new().config_space().x_max()).latency_s;
        let jobs = 60;
        let deadline = jobs as f64 * t_max * 4.0;
        let _ = run_rounds(&mut ctrl, 10, jobs, deadline);
        assert_eq!(ctrl.phase, Phase::Exploitation);
        assert!(!ctrl.pareto_configs().is_empty());

        // In exploitation, energy should beat all-x_max (Performant).
        let mut exec = FakeExecutor::new();
        let spec = RoundSpec::new(99, jobs, deadline);
        ctrl.run_round(&spec, &mut exec);
        let performant_energy =
            jobs as f64 * FakeExecutor::true_cost(exec.config_space().x_max()).energy_j;
        assert!(
            exec.energy_total < performant_energy,
            "BoFL {} should beat Performant {}",
            exec.energy_total,
            performant_energy
        );
    }

    #[test]
    fn tight_deadlines_never_violated() {
        let mut ctrl = BoflController::new(BoflConfig {
            tau_s: 1.0,
            random_fraction: 0.10,
            gp_restarts: 1,
            gp_max_evaluations: 40,
            ..BoflConfig::default()
        });
        let t_max = FakeExecutor::true_cost(FakeExecutor::new().config_space().x_max()).latency_s;
        let jobs = 40;
        // Barely feasible deadline: 8% slack only.
        let _ = run_rounds(&mut ctrl, 6, jobs, jobs as f64 * t_max * 1.08);
    }

    #[test]
    fn mbo_runs_between_rounds_and_is_timed() {
        let mut ctrl = BoflController::new(BoflConfig {
            tau_s: 0.5,
            random_fraction: 0.08,
            min_coverage: 0.5, // keep it in phase 2 for a while
            gp_restarts: 1,
            gp_max_evaluations: 40,
            ..BoflConfig::default()
        });
        let t_max = FakeExecutor::true_cost(FakeExecutor::new().config_space().x_max()).latency_s;
        let _ = run_rounds(&mut ctrl, 6, 80, 80.0 * t_max * 4.0);
        assert!(ctrl.mbo_invocations > 0);
        assert!(ctrl.last_mbo_duration.is_some());
    }
}
