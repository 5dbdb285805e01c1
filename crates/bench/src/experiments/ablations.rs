//! Ablation study of BoFL's design choices (DESIGN.md §6): what each
//! piece of the system buys, measured on the CIFAR10-ViT/AGX workload.
//!
//! Variants:
//!
//! - `bofl` — the full design (EHVI + greedy-fantasy batching + ILP);
//! - `random_explore` — phase-2 candidates drawn quasi-randomly instead
//!   of by EHVI;
//! - `no_fantasy` — EHVI batch taken as a flat top-K without
//!   Kriging-believer updates;
//! - `single_best` — exploitation runs every job at one configuration
//!   instead of the ILP mix (the SmartPC-style policy);
//! - `no_guardian` — deadline guardian disabled (expect misses under
//!   tight deadlines).

use crate::experiments::common::{device_for, ExperimentScale};
use crate::report::{f, Report, Table};
use bofl::baselines::{OracleController, PerformantController};
use bofl::controller::{BatchStrategy, ExplorationStrategy};
use bofl::exploit::ExploitStrategy;
use bofl::metrics::{improvement_vs, regret_vs};
use bofl::prelude::*;
use bofl_workload::{TaskKind, Testbed};

/// Ablation variants, in report order.
pub(crate) fn variants() -> Vec<(&'static str, BoflConfig)> {
    let base = BoflConfig::default();
    vec![
        ("bofl", base),
        (
            "random_explore",
            BoflConfig {
                exploration: ExplorationStrategy::RandomOnly,
                ..base
            },
        ),
        (
            "no_fantasy",
            BoflConfig {
                batching: BatchStrategy::NoFantasy,
                ..base
            },
        ),
        (
            "single_best",
            BoflConfig {
                exploitation: ExploitStrategy::SingleBest,
                ..base
            },
        ),
        (
            "no_guardian",
            BoflConfig {
                guardian_enabled: false,
                ..base
            },
        ),
    ]
}

/// Runs the ablation table at deadline ratio 2 (where the design is under
/// the most pressure) on CIFAR10-ViT / Jetson AGX.
pub fn study(scale: ExperimentScale) -> Report {
    let device = device_for(Testbed::JetsonAgx);
    let task = FlTask::preset(TaskKind::Cifar10Vit, Testbed::JetsonAgx);
    let schedule =
        DeadlineSchedule::uniform(&device, &task, scale.rounds, 2.0, scale.deadline_seed);
    let runner = ClientRunner::new(device.clone(), task.clone(), scale.noise_seed);

    let perf = runner.run(&mut PerformantController::new(), schedule.deadlines());
    let mut oracle = OracleController::new(device.profile_all(&task));
    let orac = runner.run(&mut oracle, schedule.deadlines());

    let mut report = Report::new("Ablation: what each BoFL design choice buys (ViT/AGX, ratio 2)");
    let mut t = Table::new(
        "ablation_design_choices",
        &[
            "variant",
            "energy_j",
            "improvement_pct",
            "regret_pct",
            "deadlines_met",
            "explored",
        ],
    );
    for (name, cfg) in variants() {
        let mut ctrl = BoflController::new(cfg);
        let run = runner.run(&mut ctrl, schedule.deadlines());
        t.push_row(vec![
            name.to_string(),
            f(run.total_energy_j(), 0),
            f(improvement_vs(&run, &perf) * 100.0, 1),
            f(regret_vs(&run, &orac) * 100.0, 2),
            format!("{}/{}", run.deadlines_met(), scale.rounds),
            ctrl.observations().len().to_string(),
        ]);
    }
    report.note("Reading guide: over a long horizon exploitation dominates, so the");
    report.note("energy gaps between variants are small — the full design's edge");
    report.note("shows in the *regret* column (better fronts) and in short runs.");
    report.note("single_best is competitive only because the searched front is");
    report.note("dense; the ILP mix is what guarantees it never loses (see the");
    report.note("ilp_exploitation unit ablations). no_guardian trades a little");
    report.note("energy for *missed deadlines* — the one currency BoFL never");
    report.note("spends.");
    report.push_table(t);
    report.push_table(tau_sweep_table(
        &runner,
        &schedule,
        &perf,
        &orac,
        scale.rounds,
    ));
    report
}

/// τ-sensitivity sweep: the reference measurement duration trades
/// measurement accuracy (sensor noise averages out over ≥τ seconds)
/// against exploration throughput (longer τ → fewer candidates per
/// round).
fn tau_sweep_table(
    runner: &ClientRunner,
    schedule: &DeadlineSchedule,
    perf: &bofl::RunSummary,
    orac: &bofl::RunSummary,
    rounds: usize,
) -> Table {
    let mut t = Table::new(
        "ablation_tau_sweep",
        &[
            "tau_s",
            "improvement_pct",
            "regret_pct",
            "explored",
            "mean_obs_error_pct",
            "deadlines_met",
        ],
    );
    let device = runner.device().clone();
    let task = runner.task().clone();
    for tau in [1.0, 2.5, 5.0, 10.0] {
        let mut ctrl = BoflController::new(BoflConfig {
            tau_s: tau,
            ..BoflConfig::default()
        });
        let run = runner.run(&mut ctrl, schedule.deadlines());
        // Mean relative error of the controller's energy observations vs
        // the device's ground truth — shorter τ means noisier aggregates.
        let mut err_sum = 0.0;
        let mut err_n = 0usize;
        for agg in ctrl.observations().iter() {
            let truth = device.true_cost(&task, agg.config);
            err_sum += ((agg.mean_energy_j() - truth.energy_j) / truth.energy_j).abs();
            err_n += 1;
        }
        t.push_row(vec![
            f(tau, 1),
            f(improvement_vs(&run, perf) * 100.0, 1),
            f(regret_vs(&run, orac) * 100.0, 2),
            ctrl.observations().len().to_string(),
            f(err_sum / err_n.max(1) as f64 * 100.0, 2),
            format!("{}/{}", run.deadlines_met(), rounds),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_design_dominates_ablations() {
        let scale = ExperimentScale {
            rounds: 30,
            deadline_seed: 71,
            noise_seed: 72,
        };
        let report = study(scale);
        let t = &report.tables[0];
        let energy = |name: &str| -> f64 {
            t.rows
                .iter()
                .find(|r| r[0] == name)
                .unwrap_or_else(|| panic!("variant {name} missing"))[1]
                .parse()
                .unwrap()
        };
        let full = energy("bofl");
        for variant in ["random_explore", "no_fantasy", "single_best"] {
            assert!(
                full <= energy(variant) * 1.02,
                "{variant}: full design {full} should not lose to {}",
                energy(variant)
            );
        }
        // Everyone with the guardian on meets all deadlines.
        for r in &t.rows {
            if r[0] != "no_guardian" {
                assert_eq!(r[4], "30/30", "{} missed deadlines", r[0]);
            }
        }
    }
}
