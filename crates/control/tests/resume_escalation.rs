//! Over-selection escalation survives a crash. A degraded close arms
//! escalation for the next round (its close target widens to the full
//! admitted cohort). The committed Close record carries `degraded`, so a
//! coordinator resumed right after that close must re-arm escalation
//! from the log and continue exactly as the run that never died.

use std::path::PathBuf;

use bofl_control::prelude::*;
use bofl_fl::server::FederationConfig;

const ROUNDS: usize = 8;

fn wal_path(seed: u64) -> PathBuf {
    std::env::temp_dir().join(format!("bofl-escalation-{}-{seed}.wal", std::process::id()))
}

fn builder(seed: u64) -> ControlSimulationBuilder {
    ControlSimulation::builder(FleetSpec::mixed(12, seed))
        .federation(FederationConfig {
            clients_per_round: 4,
            rounds: ROUNDS,
            classes: 3,
            feature_dims: 6,
            seed,
            aggregation: AggregationPolicy::recovery(),
            ..FederationConfig::default()
        })
        .chaos(ChaosPlan::new(seed ^ 0xC4A0).with_drops(0.45))
        .liveness(LivenessPolicy::recovery(seed ^ 0x11FE))
}

#[test]
fn a_resume_after_a_degraded_close_keeps_the_escalation() {
    let mut crashed_after_degraded = 0;
    let mut diverged = Vec::new();
    for seed in 0..40u64 {
        let reference = builder(seed).build().run();

        // Run round by round until the first degraded close commits,
        // then "crash": only the WAL survives.
        let path = wal_path(seed);
        let mut victim = builder(seed).wal(&path).build();
        let mut degraded = false;
        while !degraded && victim.next_round() < ROUNDS {
            degraded = victim.run_rounds(1).closes.last().unwrap().degraded;
        }
        drop(victim);
        if !degraded {
            std::fs::remove_file(&path).ok();
            continue;
        }
        crashed_after_degraded += 1;

        let resumed = builder(seed).resume_from_wal(&path).build().run();
        if resumed.journal.to_jsonl() != reference.journal.to_jsonl()
            || resumed.closes != reference.closes
        {
            diverged.push(seed);
        }
        std::fs::remove_file(&path).ok();
    }
    assert!(
        diverged.is_empty(),
        "resumed runs diverged from the uninterrupted run for seeds {diverged:?}"
    );
    assert!(
        crashed_after_degraded >= 20,
        "only {crashed_after_degraded} of 40 seeds ever degraded"
    );
}
