//! Golden pins on BoFL's decisions end to end: the exact bits of the
//! total energy a 100-round BoFL run spends with the paper's default
//! configuration. Every pace the controller picks flows into that sum,
//! so a surrogate or acquisition speed-up that changes a single MBO
//! suggestion (and hence an explored or exploited configuration) moves
//! these bits. The values were recorded with the earlier from-scratch
//! candidate scan and serial surrogate fits.

use bofl::prelude::*;

fn total_energy_bits(device: Device, kind: TaskKind, testbed: Testbed, seed: u64) -> u64 {
    let task = FlTask::preset(kind, testbed);
    let schedule = DeadlineSchedule::uniform(&device, &task, 100, 2.0, seed);
    let runner = ClientRunner::new(device, task, seed ^ 0x5eed);
    let mut bofl = BoflController::new(BoflConfig::default());
    let run = runner.run(&mut bofl, schedule.deadlines());
    assert_eq!(run.deadlines_met(), 100);
    // The pin only guards the MBO path if the run reaches it.
    assert!(run.phase_reports(Phase::ParetoConstruction).count() > 0);
    run.total_energy_j().to_bits()
}

#[test]
fn agx_cifar10_vit_energy_matches_the_pinned_bits() {
    assert_eq!(
        total_energy_bits(
            Device::jetson_agx(),
            TaskKind::Cifar10Vit,
            Testbed::JetsonAgx,
            2022
        ),
        0x40f0_3207_8fcb_aab1
    );
}

#[test]
fn tx2_imdb_lstm_energy_matches_the_pinned_bits() {
    assert_eq!(
        total_energy_bits(
            Device::jetson_tx2(),
            TaskKind::ImdbLstm,
            Testbed::JetsonTx2,
            7
        ),
        0x40e3_b36f_c600_650d
    );
}
