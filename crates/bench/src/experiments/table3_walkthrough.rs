//! Table 3: the per-round exploration walkthrough — how many
//! configurations each exploration round measured and how many of them
//! ended up on the ultimate Pareto front.

use crate::experiments::common::{run_triple, ExperimentScale, TripleRun};
use crate::report::{Report, Table};
use bofl::metrics::walkthrough;
use bofl::Phase;
use bofl_device::ConfigIndex;
use bofl_workload::{TaskKind, Testbed};

/// Builds the Table 3 rows for one triple run.
pub(crate) fn rows_for(triple: &TripleRun) -> Vec<(usize, &'static str, usize, usize)> {
    let pareto: Vec<ConfigIndex> = triple.bofl_pareto.iter().map(|&(i, _, _)| i).collect();
    walkthrough(&triple.bofl, &pareto)
        .into_iter()
        .map(|row| {
            let tag = match row.phase {
                Phase::RandomExploration => "random",
                Phase::ParetoConstruction => "mbo",
                Phase::Exploitation => unreachable!("walkthrough excludes exploitation"),
            };
            (row.round, tag, row.explorations, row.pareto_hits)
        })
        .collect()
}

/// Runs the Table 3 experiment: all three tasks on the AGX at ratio 2.
pub fn table(scale: ExperimentScale) -> Report {
    let mut report =
        Report::new("Table 3: explorations and searched Pareto points per round (phases 1-2)");
    let mut t = Table::new(
        "table3_walkthrough",
        &["task", "round", "phase", "explorations", "pareto_hits"],
    );
    for kind in TaskKind::all() {
        let triple = run_triple(kind, Testbed::JetsonAgx, 2.0, scale);
        let rows = rows_for(&triple);
        let total_exp: usize = rows.iter().map(|r| r.2).sum();
        let total_hits: usize = rows.iter().map(|r| r.3).sum();
        for (round, phase, exp, hits) in rows {
            t.push_row(vec![
                kind.to_string(),
                round.to_string(),
                phase.to_string(),
                exp.to_string(),
                hits.to_string(),
            ]);
        }
        report.note(format!(
            "{kind}: {total_exp} configurations explored, {total_hits} on the final Pareto front"
        ));
    }
    report.note("Paper (CIFAR10-ViT): 70 explored / 20 Pareto over 10 rounds; most Pareto");
    report.note("points are found in phase 2 (MBO) rather than phase 1 (random).");
    report.push_table(t);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn walkthrough_matches_paper_shape() {
        let scale = ExperimentScale {
            rounds: 30,
            deadline_seed: 12,
            noise_seed: 13,
        };
        let triple = run_triple(TaskKind::Cifar10Vit, Testbed::JetsonAgx, 2.0, scale);
        let rows = rows_for(&triple);
        assert!(!rows.is_empty());
        // Phase 1 explores ≈1% of the AGX space (21 points + x_max).
        let random_exp: usize = rows.iter().filter(|r| r.1 == "random").map(|r| r.2).sum();
        assert!(
            (18..=25).contains(&random_exp),
            "phase-1 explorations {random_exp}"
        );
        // MBO rounds exist and explore more configurations overall.
        let mbo_rounds = rows.iter().filter(|r| r.1 == "mbo").count();
        assert!(mbo_rounds >= 2, "expected several MBO rounds");
        // Paper's key qualitative claim: the MBO phase finds Pareto points
        // at a higher hit-rate than random exploration.
        let mbo_exp: usize = rows.iter().filter(|r| r.1 == "mbo").map(|r| r.2).sum();
        let mbo_hits: usize = rows.iter().filter(|r| r.1 == "mbo").map(|r| r.3).sum();
        let random_hits: usize = rows.iter().filter(|r| r.1 == "random").map(|r| r.3).sum();
        let mbo_rate = mbo_hits as f64 / mbo_exp.max(1) as f64;
        let random_rate = random_hits as f64 / random_exp.max(1) as f64;
        assert!(
            mbo_rate > random_rate,
            "MBO hit-rate {mbo_rate:.2} should beat random {random_rate:.2}"
        );
        // Total explorations stay near 3% of the space (63 configs).
        let total = random_exp + mbo_exp;
        assert!(
            (40..=110).contains(&total),
            "total explorations {total} out of expected band"
        );
    }
}
