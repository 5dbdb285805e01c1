//! Figs. 9–10: per-round energy of BoFL vs Performant vs Oracle on the
//! AGX for the first 40 rounds, with the round deadlines and BoFL phases
//! (Fig. 9 at `T_max/T_min = 2`, Fig. 10 at `= 4`).

use crate::experiments::common::{run_triple, ExperimentScale, TripleRun};
use crate::report::{f, Report, Table};
use bofl::Phase;
use bofl_workload::{TaskKind, Testbed};

fn phase_tag(p: Option<Phase>) -> &'static str {
    match p {
        Some(Phase::RandomExploration) => "phase1",
        Some(Phase::ParetoConstruction) => "phase2",
        Some(Phase::Exploitation) => "phase3",
        None => "-",
    }
}

/// Builds the per-round energy table for one task at one deadline ratio.
pub(crate) fn energy_rounds_table(triple: &TripleRun, plot_rounds: usize) -> Table {
    let mut t = Table::new(
        format!(
            "fig_energy_{}_ratio{}",
            triple.kind.to_string().to_lowercase().replace('-', "_"),
            triple.schedule.deadlines().len()
        ),
        &[
            "round",
            "deadline_s",
            "phase",
            "bofl_j",
            "performant_j",
            "oracle_j",
        ],
    );
    for i in 0..plot_rounds.min(triple.bofl.reports.len()) {
        let b = &triple.bofl.reports[i];
        t.push_row(vec![
            (i + 1).to_string(),
            f(b.deadline_s, 1),
            phase_tag(b.phase).to_string(),
            f(b.energy_j, 1),
            f(triple.performant.reports[i].energy_j, 1),
            f(triple.oracle.reports[i].energy_j, 1),
        ]);
    }
    t
}

/// Runs the Fig. 9 or Fig. 10 experiment (all three tasks on the AGX at
/// the given deadline ratio), returning the report and the raw triples for
/// reuse by Fig. 11 / Table 3.
pub fn figure(ratio: f64, scale: ExperimentScale) -> (Report, Vec<TripleRun>) {
    let fig_name = if (ratio - 2.0).abs() < 1e-9 { 9 } else { 10 };
    let mut report = Report::new(format!(
        "Figure {fig_name}: energy per round, first 40 rounds, AGX, T_max/T_min = {ratio}"
    ));
    let mut triples = Vec::new();
    for kind in TaskKind::all() {
        let triple = run_triple(kind, Testbed::JetsonAgx, ratio, scale);
        let mut table = energy_rounds_table(&triple, 40);
        table.name = format!(
            "fig{}_{}",
            fig_name,
            kind.to_string().to_lowercase().replace('-', "_")
        );
        report.note(format!(
            "{kind}: total energy BoFL {:.0} J / Performant {:.0} J / Oracle {:.0} J → improvement {:.1}%, regret {:.1}%",
            triple.bofl.total_energy_j(),
            triple.performant.total_energy_j(),
            triple.oracle.total_energy_j(),
            triple.improvement() * 100.0,
            triple.regret() * 100.0,
        ));
        report.push_table(table);
        triples.push(triple);
    }
    report.note("Paper Fig. 9a reference: improvement 22.3%, regret 3.48% (ViT, ratio 2).");
    (report, triples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig9_shape_holds_at_reduced_scale() {
        let scale = ExperimentScale {
            rounds: 30,
            deadline_seed: 1,
            noise_seed: 2,
        };
        let (report, triples) = figure(2.0, scale);
        assert_eq!(triples.len(), 3);
        assert_eq!(report.tables.len(), 3);
        for t in &triples {
            // Deadlines always met by all three controllers.
            assert_eq!(t.bofl.deadlines_met(), 30, "{}", t.kind);
            assert_eq!(t.performant.deadlines_met(), 30);
            assert_eq!(t.oracle.deadlines_met(), 30);
            // Even in 30 rounds BoFL shows positive savings.
            assert!(
                t.improvement() > 0.0,
                "{}: improvement {:.3}",
                t.kind,
                t.improvement()
            );
            // Exploitation rounds track the Oracle closely.
            let bofl_p3: f64 = t
                .bofl
                .phase_reports(Phase::Exploitation)
                .map(|r| r.energy_j)
                .sum();
            let oracle_same_rounds: f64 = t
                .bofl
                .phase_reports(Phase::Exploitation)
                .map(|r| t.oracle.reports[r.round].energy_j)
                .sum();
            let gap = (bofl_p3 - oracle_same_rounds) / oracle_same_rounds;
            assert!(
                gap.abs() < 0.10,
                "{}: exploitation-phase gap vs oracle {:.1}%",
                t.kind,
                gap * 100.0
            );
        }
    }
}
