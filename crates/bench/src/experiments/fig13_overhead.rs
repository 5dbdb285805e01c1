//! Fig. 13: the MBO module's overhead — per-round computation latency and
//! energy on each device, and the overall energy overhead relative to the
//! training energy.
//!
//! Substitution note (see `DESIGN.md` §2): the paper measures its Python
//! (Trieste) MBO stack running *on the Jetson boards* (6–9 s, 50–70 J per
//! invocation). We measure the wall-clock time of our Rust MBO engine on
//! the build host and map it onto each device with a calibrated slowdown
//! factor chosen so the AGX lands in the paper's measured range; the
//! device's CPU-busy power model then converts time to energy. The
//! *comparison the figure makes* — MBO cost per round is an order of
//! magnitude below training cost per round, so the overall overhead is a
//! fraction of a percent — is preserved because both sides of that
//! comparison come from the same device model.

use crate::experiments::common::{device_for, run_triple, ExperimentScale};
use crate::report::{f, Report, Table};
use bofl_workload::{TaskKind, Testbed};

/// Host→device slowdown applied to measured MBO wall time.
///
/// Calibrated so a typical per-invocation suggestion (~0.05–0.15 s of Rust
/// on a server-class core) maps into the paper's measured 6–9 s of Python
/// on the Jetson CPUs (interpreter overhead × embedded-core slowdown).
pub(crate) fn mbo_slowdown(testbed: Testbed) -> f64 {
    match testbed {
        Testbed::JetsonAgx => 60.0,
        // The TX2's Denver2/A57 complex runs the Python BO stack far
        // slower than the AGX's Carmel cores (the paper's Fig. 13a shows
        // the TX2 *above* the AGX despite smaller observation sets).
        Testbed::JetsonTx2 => 250.0,
        _ => unreachable!("only two testbeds exist"),
    }
}

/// Runs the Fig. 13 experiment on both devices.
pub fn figure(scale: ExperimentScale) -> Report {
    let mut report = Report::new("Figure 13: MBO module overhead");
    let mut per_round = Table::new(
        "fig13_mbo_per_round",
        &[
            "device",
            "task",
            "mbo_invocations",
            "host_s_per_invocation",
            "device_s_per_invocation",
            "device_j_per_invocation",
        ],
    );
    let mut overall = Table::new(
        "fig13_overall_overhead",
        &["device", "task", "training_j", "mbo_j", "overhead_pct"],
    );

    for testbed in Testbed::all() {
        let device = device_for(testbed);
        // The MBO computation runs between training rounds: CPU busy at a
        // governor-chosen mid frequency, GPU and memory clocked down.
        let space = device.config_space();
        let mid_cpu = space
            .cpu_table()
            .get(space.cpu_table().len() / 2)
            .expect("non-empty table");
        let mbo_state =
            bofl_device::DvfsConfig::new(mid_cpu, space.gpu_table().min(), space.mem_table().min());
        let mbo_power_w = device.power_model().cpu_busy_power(mbo_state);

        for kind in TaskKind::all() {
            let triple = run_triple(kind, testbed, 2.0, scale);
            let n = triple.mbo_host_durations.len().max(1);
            let host_mean: f64 = triple.mbo_host_durations.iter().sum::<f64>() / n as f64;
            let device_mean = host_mean * mbo_slowdown(testbed);
            let device_energy = device_mean * mbo_power_w;
            per_round.push_row(vec![
                device.name().to_string(),
                kind.to_string(),
                triple.mbo_host_durations.len().to_string(),
                f(host_mean, 3),
                f(device_mean, 1),
                f(device_energy, 1),
            ]);

            let training_j = triple.bofl.total_energy_j();
            let mbo_j = triple.mbo_host_durations.len() as f64 * device_energy;
            overall.push_row(vec![
                device.name().to_string(),
                kind.to_string(),
                f(training_j, 0),
                f(mbo_j, 0),
                f(mbo_j / training_j * 100.0, 2),
            ]);
        }
    }

    report.note("Paper: 6–9 s and 50–70 J per MBO invocation; overall energy");
    report.note("overhead 0.4%–0.7% of training energy.");
    report.note("Device times use the calibrated host→device slowdown (see module docs).");
    report.push_table(per_round);
    report.push_table(overall);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mbo_overhead_is_small() {
        let scale = ExperimentScale {
            rounds: 25,
            deadline_seed: 31,
            noise_seed: 32,
        };
        let triple = run_triple(TaskKind::Cifar10Vit, Testbed::JetsonAgx, 2.0, scale);
        assert!(
            !triple.mbo_host_durations.is_empty(),
            "MBO must have run at least once"
        );
        let device = device_for(Testbed::JetsonAgx);
        // Same governor-lowered MBO power state the figure uses.
        let space = device.config_space();
        let mid_cpu = space
            .cpu_table()
            .get(space.cpu_table().len() / 2)
            .expect("non-empty table");
        let power = device
            .power_model()
            .cpu_busy_power(bofl_device::DvfsConfig::new(
                mid_cpu,
                space.gpu_table().min(),
                space.mem_table().min(),
            ));
        let mbo_j: f64 = triple
            .mbo_host_durations
            .iter()
            .map(|h| h * mbo_slowdown(Testbed::JetsonAgx) * power)
            .sum();
        let overhead = mbo_j / triple.bofl.total_energy_j();
        // The paper reports 0.4%–0.7% at 100 rounds; at 25 rounds the
        // denominator shrinks 4×, so allow up to 5%.
        assert!(
            overhead < 0.05,
            "MBO energy overhead {:.2}% unexpectedly large",
            overhead * 100.0
        );
    }
}
