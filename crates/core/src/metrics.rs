//! Evaluation metrics from the paper's §6.4, plus the per-round
//! walkthrough statistics of Table 3.

use crate::runner::RunSummary;
use crate::Phase;
use bofl_device::ConfigIndex;
use std::collections::HashSet;

/// Energy *improvement* of `run` relative to a baseline (paper §6.4
/// metric 1): `1 − run / baseline`. Positive means `run` used less energy.
///
/// # Panics
///
/// Panics if the baseline consumed zero energy.
///
/// # Examples
///
/// ```
/// # use bofl::metrics::improvement_ratio;
/// assert!((improvement_ratio(78.0, 100.0) - 0.22).abs() < 1e-12);
/// ```
pub fn improvement_ratio(run_energy_j: f64, baseline_energy_j: f64) -> f64 {
    assert!(baseline_energy_j > 0.0, "baseline energy must be positive");
    1.0 - run_energy_j / baseline_energy_j
}

/// Energy *regret* of `run` relative to an oracle (paper §6.4 metric 2):
/// `run / oracle − 1`. Positive means `run` used more energy.
///
/// # Panics
///
/// Panics if the oracle consumed zero energy.
///
/// # Examples
///
/// ```
/// # use bofl::metrics::regret_ratio;
/// assert!((regret_ratio(103.0, 100.0) - 0.03).abs() < 1e-12);
/// ```
pub fn regret_ratio(run_energy_j: f64, oracle_energy_j: f64) -> f64 {
    assert!(oracle_energy_j > 0.0, "oracle energy must be positive");
    run_energy_j / oracle_energy_j - 1.0
}

/// Improvement of one run over another, computed on total energies.
pub fn improvement_vs(run: &RunSummary, baseline: &RunSummary) -> f64 {
    improvement_ratio(run.total_energy_j(), baseline.total_energy_j())
}

/// Regret of one run against another, computed on total energies.
pub fn regret_vs(run: &RunSummary, oracle: &RunSummary) -> f64 {
    regret_ratio(run.total_energy_j(), oracle.total_energy_j())
}

/// One row of the paper's Table 3: explorations and eventual-Pareto hits
/// for an exploration-phase round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalkthroughRow {
    /// One-based round number (as printed in Table 3).
    pub round: usize,
    /// Phase of the round.
    pub phase: Phase,
    /// Configurations explored in the round.
    pub explorations: usize,
    /// How many of them belong to the *final* Pareto front.
    pub pareto_hits: usize,
}

/// Reconstructs the Table 3 walkthrough from a BoFL run: for every
/// exploration-phase round, the number of configurations explored and how
/// many ended up in the ultimate Pareto set (`final_pareto`).
pub fn walkthrough(run: &RunSummary, final_pareto: &[ConfigIndex]) -> Vec<WalkthroughRow> {
    let pareto: HashSet<ConfigIndex> = final_pareto.iter().copied().collect();
    run.reports
        .iter()
        .filter_map(|r| {
            let phase = r.phase?;
            if phase == Phase::Exploitation {
                return None;
            }
            Some(WalkthroughRow {
                round: r.round + 1,
                phase,
                explorations: r.explored.len(),
                pareto_hits: r.explored.iter().filter(|i| pareto.contains(i)).count(),
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::RoundReport;

    fn report(round: usize, phase: Option<Phase>, explored: Vec<usize>) -> RoundReport {
        RoundReport {
            round,
            deadline_s: 10.0,
            duration_s: 9.0,
            energy_j: 100.0,
            jobs: 10,
            deadline_met: true,
            phase,
            explored: explored.into_iter().map(ConfigIndex).collect(),
            mbo_duration: None,
            escalated_jobs: 0,
            quarantined: 0,
        }
    }

    #[test]
    fn ratios() {
        assert!((improvement_ratio(74.1, 100.0) - 0.259).abs() < 1e-12);
        assert!((regret_ratio(101.2, 100.0) - 0.012).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "baseline energy must be positive")]
    fn improvement_rejects_zero_baseline() {
        let _ = improvement_ratio(1.0, 0.0);
    }

    #[test]
    fn walkthrough_counts_pareto_hits() {
        let run = RunSummary {
            controller: "BoFL".into(),
            reports: vec![
                report(0, Some(Phase::RandomExploration), vec![1, 2, 3]),
                report(1, Some(Phase::ParetoConstruction), vec![4, 5]),
                report(2, Some(Phase::Exploitation), vec![]),
                report(3, None, vec![]),
            ],
        };
        let final_pareto = vec![ConfigIndex(2), ConfigIndex(4), ConfigIndex(5)];
        let rows = walkthrough(&run, &final_pareto);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].round, 1);
        assert_eq!(rows[0].explorations, 3);
        assert_eq!(rows[0].pareto_hits, 1);
        assert_eq!(rows[1].explorations, 2);
        assert_eq!(rows[1].pareto_hits, 2);
        assert_eq!(rows[1].phase, Phase::ParetoConstruction);
    }

    #[test]
    fn summary_helpers() {
        let run = RunSummary {
            controller: "x".into(),
            reports: vec![
                report(0, Some(Phase::RandomExploration), vec![1]),
                report(1, Some(Phase::Exploitation), vec![]),
            ],
        };
        assert_eq!(run.total_energy_j(), 200.0);
        assert_eq!(run.deadlines_met(), 2);
        assert_eq!(run.total_explored(), 1);
        assert_eq!(run.phase_reports(Phase::Exploitation).count(), 1);
    }
}
