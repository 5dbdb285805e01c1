use crate::executor::JobExecutor;
use bofl_device::ConfigIndex;
use std::time::Duration;

/// One federated-learning round as seen by the pace controller: which
/// round it is, how many minibatch jobs must run, and the server-assigned
/// training deadline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundSpec {
    /// Zero-based round index.
    pub index: usize,
    /// Number of jobs `W = E × N` that must complete this round.
    pub jobs: usize,
    /// Training deadline in seconds from round start.
    pub deadline_s: f64,
}

impl RoundSpec {
    /// Creates a round specification.
    ///
    /// # Panics
    ///
    /// Panics if `jobs == 0` or the deadline is non-positive/non-finite.
    pub fn new(index: usize, jobs: usize, deadline_s: f64) -> Self {
        assert!(jobs > 0, "a round must contain at least one job");
        assert!(
            deadline_s.is_finite() && deadline_s > 0.0,
            "deadline must be positive and finite"
        );
        RoundSpec {
            index,
            jobs,
            deadline_s,
        }
    }
}

/// BoFL's operational phase for a given round (paper Fig. 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Phase 1: safe random exploration of Sobol start points.
    RandomExploration,
    /// Phase 2: MBO-guided Pareto front construction.
    ParetoConstruction,
    /// Phase 3: ILP exploitation of the approximated Pareto set.
    Exploitation,
}

impl std::fmt::Display for Phase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Phase::RandomExploration => write!(f, "random exploration"),
            Phase::ParetoConstruction => write!(f, "pareto construction"),
            Phase::Exploitation => write!(f, "exploitation"),
        }
    }
}

/// What a controller reports back about the round it just ran.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ControllerRoundStats {
    /// Which phase the round ran in (`None` for phase-less baselines).
    pub phase: Option<Phase>,
    /// Configurations newly explored (measured) this round.
    pub explored: Vec<ConfigIndex>,
    /// Wall-clock time spent in the MBO engine before this round, if any
    /// (runs in the configuration/reporting window, not on the round
    /// clock — paper §4.3).
    pub mbo_duration: Option<Duration>,
    /// Jobs forced to `x_max` by the mid-round guardian escalation (the
    /// reactive fault-recovery path; zero when nothing went wrong).
    pub escalated_jobs: u64,
    /// Latency samples quarantined this round — counted but excluded from
    /// the observation aggregates feeding the GP surrogate.
    pub quarantined: u64,
}

/// A local training pace controller: the interface BoFL, Performant and
/// Oracle all implement, and the hook through which `bofl-fl` clients and
/// the experiment runner drive them.
///
/// The controller must run **exactly** `spec.jobs` jobs through the
/// executor before returning.
///
/// `Send` is a supertrait so that a client owning a boxed controller can
/// migrate across worker threads — the contract the `bofl-fleet` parallel
/// round engine relies on. Controllers hold only owned state (observation
/// stores, GP surrogates, Sobol streams), so this costs implementors
/// nothing.
pub trait PaceController: Send {
    /// Controller name for reports (e.g. `"BoFL"`).
    fn name(&self) -> &str;

    /// Executes one full round.
    fn run_round(&mut self, spec: &RoundSpec, exec: &mut dyn JobExecutor) -> ControllerRoundStats;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_spec_validation() {
        let r = RoundSpec::new(3, 100, 42.0);
        assert_eq!(r.index, 3);
        assert_eq!(r.jobs, 100);
    }

    #[test]
    #[should_panic(expected = "at least one job")]
    fn rejects_zero_jobs() {
        let _ = RoundSpec::new(0, 0, 1.0);
    }

    #[test]
    #[should_panic(expected = "deadline must be positive")]
    fn rejects_bad_deadline() {
        let _ = RoundSpec::new(0, 1, -1.0);
    }

    #[test]
    fn phase_display() {
        assert_eq!(Phase::RandomExploration.to_string(), "random exploration");
        assert_eq!(Phase::ParetoConstruction.to_string(), "pareto construction");
        assert_eq!(Phase::Exploitation.to_string(), "exploitation");
    }
}
