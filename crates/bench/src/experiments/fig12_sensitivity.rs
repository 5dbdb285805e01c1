//! Fig. 12: sensitivity to the deadline length — improvement vs
//! Performant and regret vs Oracle across `T_max/T_min ∈ {2, 2.5, 3,
//! 3.5, 4}` for all three tasks on the AGX.

use crate::experiments::common::{run_triple, ExperimentScale};
use crate::report::{f, Report, Table};
use bofl_workload::{TaskKind, Testbed};

/// The deadline ratios the paper sweeps.
pub(crate) const RATIOS: [f64; 5] = [2.0, 2.5, 3.0, 3.5, 4.0];

/// Runs the Fig. 12 sweep.
pub fn figure(scale: ExperimentScale) -> Report {
    let mut report = Report::new("Figure 12: BoFL effectiveness vs deadline length (AGX)");
    let mut t = Table::new(
        "fig12_sensitivity",
        &[
            "task",
            "ratio",
            "improvement_pct",
            "regret_pct",
            "bofl_j",
            "performant_j",
            "oracle_j",
        ],
    );
    for kind in TaskKind::all() {
        for ratio in RATIOS {
            let triple = run_triple(kind, Testbed::JetsonAgx, ratio, scale);
            t.push_row(vec![
                kind.to_string(),
                f(ratio, 1),
                f(triple.improvement() * 100.0, 1),
                f(triple.regret() * 100.0, 2),
                f(triple.bofl.total_energy_j(), 0),
                f(triple.performant.total_energy_j(), 0),
                f(triple.oracle.total_energy_j(), 0),
            ]);
        }
    }
    report.note("Paper: improvement grows with the ratio (20.3%–25.9% overall);");
    report.note("regret shrinks with the ratio (3.4% down to 1.2%).");
    report.push_table(t);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn improvement_grows_and_regret_shrinks_with_ratio() {
        // Reduced sweep (two endpoints, fewer rounds) keeps the test quick
        // while checking the trend the paper reports.
        let scale = ExperimentScale {
            rounds: 40,
            deadline_seed: 21,
            noise_seed: 22,
        };
        let kind = TaskKind::ImdbLstm;
        let lo = run_triple(kind, Testbed::JetsonAgx, 2.0, scale);
        let hi = run_triple(kind, Testbed::JetsonAgx, 4.0, scale);
        assert!(
            hi.improvement() > lo.improvement(),
            "improvement must grow with ratio: {:.3} vs {:.3}",
            lo.improvement(),
            hi.improvement()
        );
        assert!(
            hi.regret() < lo.regret() + 0.01,
            "regret must not grow with ratio: {:.3} vs {:.3}",
            lo.regret(),
            hi.regret()
        );
        // Band check against the paper at the loose end.
        assert!(
            hi.improvement() > 0.10,
            "ratio-4 improvement {:.3} too small",
            hi.improvement()
        );
    }
}
