//! The safe-exploration algorithm with deadline guardian (paper §4.2,
//! Fig. 7).
//!
//! Exploration rounds try unknown configurations, any of which may be a
//! straggler. Safety rests on the *guardian configuration* `x_max` (every
//! clock at maximum): it is measured first, so before exploring a new
//! candidate the controller checks Eqn. (2) of the paper —
//!
//! ```text
//! T_remain − τ  ≥  W_remain × T(x_max)
//! ```
//!
//! i.e. even if `τ` seconds of exploration produce nothing, the remaining
//! jobs still fit at `x_max`. When the check fails, exploration stops and
//! the round finishes via exploitation of whatever has been observed
//! (falling back to `x_max` itself when observations are scarce).

use crate::exploit::{exploit_remaining_with, ExploitParams, ExploitStrategy};
use crate::{JobExecutor, ObservationStore, RoundSpec};
use bofl_device::{ConfigIndex, DvfsConfig};

/// Result of a safe exploration round.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SafeExplorationOutcome {
    /// Grid indices newly observed this round, in exploration order.
    pub explored: Vec<ConfigIndex>,
    /// Number of candidates consumed from the front of the candidate list
    /// (explored candidates; the caller re-queues or drops the rest).
    pub consumed: usize,
    /// `true` if the guardian aborted exploration before the candidate
    /// list was exhausted.
    pub guardian_tripped: bool,
    /// Jobs executed during the exploitation tail of the round.
    pub exploited_jobs: u64,
    /// Jobs of the exploitation tail forced to `x_max` by the mid-round
    /// guardian escalation (see [`ExploitParams`]).
    pub escalated_jobs: u64,
}

/// Parameters of the safe exploration algorithm.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct SafeExplorationParams {
    /// Reference measurement duration τ in seconds (paper §4.2 uses 5 s).
    pub tau_s: f64,
    /// Fraction of the deadline held back as safety margin against
    /// measurement jitter.
    pub safety_margin: f64,
    /// Pessimistic single-job slowdown of an unknown configuration
    /// relative to `x_max`. Eqn. (2) reserves only τ for the candidate,
    /// which under-reserves when one job at a straggler exceeds τ; the
    /// guardian therefore additionally reserves
    /// `slowdown_factor × T(x_max)` for the first (unabortable) job.
    /// The paper's own measurements bound the slowdown by ≈8× (Fig. 2).
    pub slowdown_factor: f64,
    /// Whether the deadline-guardian check runs at all. Disabling it is
    /// *unsafe by design* and exists only for the ablation experiment
    /// demonstrating the deadline misses it prevents.
    pub guardian_enabled: bool,
    /// Planning strategy for the exploitation tail of the round.
    pub exploit_strategy: ExploitStrategy,
    /// Whether the mid-round guardian escalation runs during the
    /// exploitation tail (see [`ExploitParams`]).
    pub escalation_enabled: bool,
    /// Trip ratio of the mid-round escalation (see [`ExploitParams`]).
    pub escalation_factor: f64,
}

impl Default for SafeExplorationParams {
    fn default() -> Self {
        let exploit = ExploitParams::default();
        SafeExplorationParams {
            tau_s: 5.0,
            safety_margin: 0.01,
            slowdown_factor: 10.0,
            guardian_enabled: true,
            exploit_strategy: exploit.strategy,
            escalation_enabled: exploit.escalation_enabled,
            escalation_factor: exploit.escalation_factor,
        }
    }
}

/// Runs one full round (`spec.jobs` jobs) exploring `candidates` under the
/// deadline guardian, finishing leftover jobs by exploitation.
///
/// The first candidate of the very first round must be `x_max` so the
/// guardian latency `T(x_max)` is known before any unknown configuration
/// is tried; the controller guarantees this ordering.
///
/// # Panics
///
/// Panics if a candidate is not on the executor's grid.
pub(crate) fn explore_safely(
    exec: &mut dyn JobExecutor,
    spec: &RoundSpec,
    store: &mut ObservationStore,
    candidates: &[DvfsConfig],
    params: SafeExplorationParams,
) -> SafeExplorationOutcome {
    let space = exec.config_space().clone();
    let x_max = space.x_max();
    let effective_deadline = spec.deadline_s * (1.0 - params.safety_margin);

    let mut jobs_left = spec.jobs as u64;
    let mut explored = Vec::new();
    let mut consumed = 0usize;
    let mut guardian_tripped = false;

    for &x in candidates {
        if jobs_left == 0 {
            break;
        }
        assert!(space.contains(x), "exploration candidate {x} is off-grid");

        let t_guard = store.get_config(&space, x_max).map(|a| a.mean_latency_s());

        // Deadline guardian check (Eqn. 2). The guardian configuration
        // itself is exempt: it *is* the fallback.
        if x != x_max && params.guardian_enabled {
            let Some(t_guard) = t_guard else {
                // x_max has never been measured; exploring anything else
                // would be unsafe. Stop exploring.
                guardian_tripped = true;
                break;
            };
            let t_remain = effective_deadline - exec.elapsed_s();
            let reserve = params.tau_s + params.slowdown_factor * t_guard;
            if t_remain - reserve < jobs_left as f64 * t_guard {
                guardian_tripped = true;
                break;
            }
        }

        // Measure x for at least τ seconds (workload assignment, §4.2).
        consumed += 1;
        let mut spent_at_x = 0.0;
        let mut first_job_latency: Option<f64> = None;
        let mut newly_observed = false;
        while jobs_left > 0 && spent_at_x < params.tau_s {
            // Between jobs, make sure one more job at x cannot endanger
            // the tail (uses the measured latency of the previous job).
            if params.guardian_enabled {
                if let (Some(last), Some(tg)) = (first_job_latency, t_guard) {
                    let t_remain = effective_deadline - exec.elapsed_s();
                    if t_remain - last < (jobs_left - 1) as f64 * tg {
                        break;
                    }
                }
            }
            let cost = exec.run_job(x);
            newly_observed |= store.record(&space, x, cost);
            spent_at_x += cost.latency_s;
            first_job_latency = Some(cost.latency_s);
            jobs_left -= 1;
        }
        if newly_observed {
            if let Some(idx) = space.index_of(x) {
                explored.push(idx);
            }
        }
    }

    // Last-round exploitation (§4.2) / remaining-job exploitation (§4.3).
    let exploited_jobs = jobs_left;
    let mut escalated_jobs = 0;
    if jobs_left > 0 {
        let report = exploit_remaining_with(
            exec,
            spec,
            store,
            jobs_left,
            effective_deadline,
            ExploitParams {
                strategy: params.exploit_strategy,
                escalation_enabled: params.escalation_enabled,
                escalation_factor: params.escalation_factor,
            },
        );
        escalated_jobs = report.escalated_jobs;
    }

    SafeExplorationOutcome {
        explored,
        consumed,
        guardian_tripped,
        exploited_jobs,
        escalated_jobs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::testing::FakeExecutor;

    fn params(tau: f64) -> SafeExplorationParams {
        SafeExplorationParams {
            tau_s: tau,
            safety_margin: 0.01,
            slowdown_factor: 10.0,
            ..SafeExplorationParams::default()
        }
    }

    #[test]
    fn explores_xmax_first_then_candidates() {
        let mut exec = FakeExecutor::new();
        let space = exec.config_space().clone();
        let mut store = ObservationStore::new();
        let candidates = vec![space.x_max(), space.x_min()];
        let t_max = FakeExecutor::true_cost(space.x_max()).latency_s;
        let spec = RoundSpec::new(0, 200, 200.0 * t_max * 3.0);
        let out = explore_safely(&mut exec, &spec, &mut store, &candidates, params(1.0));
        assert_eq!(out.explored.len(), 2);
        assert_eq!(out.consumed, 2);
        assert!(!out.guardian_tripped);
        assert_eq!(exec.jobs_run.len(), 200);
        // x_max ran first.
        assert_eq!(exec.jobs_run[0], space.x_max());
    }

    #[test]
    fn tau_controls_jobs_per_candidate() {
        let mut exec = FakeExecutor::new();
        let space = exec.config_space().clone();
        let mut store = ObservationStore::new();
        let x_max = space.x_max();
        let t_max = FakeExecutor::true_cost(x_max).latency_s;
        // Exactly 10 jobs in the round: τ = 10 × T(x_max) keeps the
        // measurement window open for all of them, and no exploitation
        // tail pollutes the aggregate.
        let spec = RoundSpec::new(0, 10, 1e6);
        let tau = 10.0 * t_max;
        let out = explore_safely(&mut exec, &spec, &mut store, &[x_max], params(tau));
        assert_eq!(out.explored.len(), 1);
        let agg = store.get_config(&space, x_max).unwrap();
        assert_eq!(agg.jobs, 10);
        assert_eq!(out.exploited_jobs, 0);
    }

    #[test]
    fn guardian_blocks_unknown_without_xmax_measurement() {
        let mut exec = FakeExecutor::new();
        let space = exec.config_space().clone();
        let mut store = ObservationStore::new();
        // Candidate list *not* starting with x_max and store empty:
        // nothing can be explored safely; everything runs via fallback.
        let spec = RoundSpec::new(0, 10, 1e6);
        let out = explore_safely(&mut exec, &spec, &mut store, &[space.x_min()], params(1.0));
        assert!(out.guardian_tripped);
        assert!(out.explored.is_empty());
        assert_eq!(exec.jobs_run.len(), 10);
        // Fallback was x_max (empty store → guardian plan).
        assert!(exec.jobs_run.iter().all(|&x| x == space.x_max()));
    }

    #[test]
    fn guardian_trips_on_tight_deadline() {
        let mut exec = FakeExecutor::new();
        let space = exec.config_space().clone();
        let mut store = ObservationStore::new();
        let t_max = FakeExecutor::true_cost(space.x_max()).latency_s;
        // Deadline: exactly W × T(x_max) × 1.1 — no room for τ = 5 s of
        // exploration beyond x_max itself.
        let w = 50usize;
        let spec = RoundSpec::new(0, w, w as f64 * t_max * 1.1);
        let candidates = vec![space.x_max(), space.x_min()];
        let out = explore_safely(&mut exec, &spec, &mut store, &candidates, params(5.0));
        assert!(out.guardian_tripped, "guardian must trip");
        assert_eq!(out.explored.len(), 1, "only x_max explored");
        assert_eq!(exec.jobs_run.len(), w);
        assert!(
            exec.elapsed_s() <= spec.deadline_s,
            "deadline missed: {} > {}",
            exec.elapsed_s(),
            spec.deadline_s
        );
    }

    #[test]
    fn all_jobs_always_run() {
        // Whatever happens, exactly spec.jobs jobs execute.
        for deadline_factor in [1.05, 1.5, 3.0, 10.0] {
            let mut exec = FakeExecutor::new();
            let space = exec.config_space().clone();
            let mut store = ObservationStore::new();
            let t_max = FakeExecutor::true_cost(space.x_max()).latency_s;
            let w = 30usize;
            let spec = RoundSpec::new(0, w, w as f64 * t_max * deadline_factor);
            let candidates: Vec<_> = space.iter().take(6).chain([space.x_max()]).collect();
            let ordered: Vec<_> = [space.x_max()]
                .into_iter()
                .chain(candidates.into_iter().filter(|&c| c != space.x_max()))
                .collect();
            let _ = explore_safely(&mut exec, &spec, &mut store, &ordered, params(2.0));
            assert_eq!(exec.jobs_run.len(), w, "factor {deadline_factor}");
            assert!(
                exec.elapsed_s() <= spec.deadline_s + 1e-9,
                "factor {deadline_factor}: {} > {}",
                exec.elapsed_s(),
                spec.deadline_s
            );
        }
    }
}
