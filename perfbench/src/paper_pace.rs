//! `paper_pace`: the paper's §6 experiment. BoFL, Performant and Oracle
//! each run 100 rounds on both testbeds × three tasks, on the same
//! deadline schedules drawn uniformly from `[T_min, 2·T_min]`.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use bofl::baselines::{OracleController, PerformantController};
use bofl::metrics::{improvement_vs, regret_vs};
use bofl::task::PaceController;
use bofl::{BoflConfig, BoflController, ClientRunner, DeadlineSchedule, Phase, RunSummary};
use bofl_device::{Device, ProfileEntry};
use bofl_workload::{FlTask, TaskKind, Testbed};

use crate::episode::{percentile, Episode};
use crate::probe::{Probe, TimedController};

const ROUNDS: usize = 100;
const DEADLINE_RATIO: f64 = 2.0;

/// One testbed × task pair, ready to run.
pub struct Pair {
    runner: ClientRunner,
    schedule: DeadlineSchedule,
    profile: Vec<ProfileEntry>,
}

/// Builds the six pairs: devices, tasks, deadline schedules, and the
/// Oracle's offline profile of every configuration.
pub fn setup(seed: u64) -> Vec<Pair> {
    let mut pairs = Vec::new();
    let testbeds: [(Testbed, fn() -> Device); 2] = [
        (Testbed::JetsonAgx, Device::jetson_agx),
        (Testbed::JetsonTx2, Device::jetson_tx2),
    ];
    for (t, (testbed, device)) in testbeds.into_iter().enumerate() {
        for (k, kind) in TaskKind::all().into_iter().enumerate() {
            let index = (t * 3 + k) as u64;
            let device = device();
            let task = FlTask::preset(kind, testbed);
            let schedule = DeadlineSchedule::uniform(
                &device,
                &task,
                ROUNDS,
                DEADLINE_RATIO,
                crate::mix(seed, index),
            );
            let profile = device.profile_all(&task);
            let noise_seed = crate::mix(seed, 100 + index);
            pairs.push(Pair {
                runner: ClientRunner::new(device, task, noise_seed),
                schedule,
                profile,
            });
        }
    }
    pairs
}

/// Runs one controller over a pair's schedule; returns the summary and
/// each round's `(phase, wall ms)`.
fn run_one(
    pair: &Pair,
    controller: Box<dyn PaceController>,
    probe: Option<&Arc<Probe>>,
) -> (RunSummary, Vec<(Option<Phase>, f64)>) {
    let log = Arc::new(Mutex::new(Vec::with_capacity(ROUNDS)));
    let mut timed = TimedController::new(controller, probe.cloned(), Some(Arc::clone(&log)));
    let summary = pair.runner.run(&mut timed, pair.schedule.deadlines());
    let rounds = std::mem::take(&mut *log.lock().expect("round log poisoned"));
    (summary, rounds)
}

/// Fails unless every round of `run` met its deadline.
fn check_deadlines(pair: usize, run: &RunSummary) -> Result<(), String> {
    if run.deadlines_met() == run.reports.len() {
        return Ok(());
    }
    Err(format!(
        "pair {pair}: {} met {} of {} deadlines",
        run.controller,
        run.deadlines_met(),
        run.reports.len()
    ))
}

/// Runs every pair under BoFL and Performant, the two controllers a
/// device can run online; they are the timed part. With `oracle`, each
/// pair then also runs the Oracle, which plans over an offline profile of
/// every configuration, as the untimed reference the checks compare
/// against. Its ILP solve has a heavy, input-driven tail and its result
/// does not change between runs of the same inputs, so callers run it
/// once per input draw.
pub fn run(pairs: Vec<Pair>, oracle: bool, probe: Option<&Arc<Probe>>) -> Result<Episode, String> {
    let mut ep = Episode::default();
    let (mut saved, mut regret) = (Vec::new(), Vec::new());
    let (mut e_bofl, mut e_perf) = (0.0f64, 0.0f64);
    let mut mbo_rounds = 0u64;

    crate::heap::reset_peak();
    let start = Instant::now();
    let cpu0 = crate::cpu::process_s();
    let bofl: Vec<_> = pairs
        .iter()
        .map(|pair| {
            let controller = BoflController::new(BoflConfig::default());
            run_one(pair, Box::new(controller), probe)
        })
        .collect();
    ep.peak_heap_mb = crate::heap::peak_mb();
    let performant: Vec<_> = pairs
        .iter()
        .map(|pair| run_one(pair, Box::new(PerformantController::new()), probe))
        .collect();
    ep.wall_s = start.elapsed().as_secs_f64();
    ep.cpu_s = crate::cpu::process_s() - cpu0;

    let mut pair_rounds = Vec::new();
    let mut mbo_ms = Vec::new();
    for (i, ((pair, (bofl, rounds)), (performant, perf_rounds))) in
        pairs.iter().zip(bofl).zip(performant).enumerate()
    {
        ep.parts
            .push(rounds.iter().chain(&perf_rounds).map(|r| r.1).collect());
        // A pair-round is BoFL and Performant on one deadline. Only rounds
        // in which BoFL has reached exploitation count, so the percentiles
        // describe its steady mode instead of straddling the MBO rounds,
        // which the throughput metrics cover.
        for r in 0..ROUNDS {
            match rounds[r].0 {
                Some(Phase::Exploitation) => pair_rounds.push(rounds[r].1 + perf_rounds[r].1),
                Some(Phase::ParetoConstruction) => mbo_ms.push(rounds[r].1),
                _ => {}
            }
        }

        check_deadlines(i, &bofl)?;
        check_deadlines(i, &performant)?;
        let (b, p) = (bofl.total_energy_j(), performant.total_energy_j());
        if b > p {
            return Err(format!(
                "pair {i}: BoFL used {b} J, more than Performant's {p} J"
            ));
        }
        if oracle {
            let mut controller = OracleController::new(pair.profile.clone());
            let reference = pair.runner.run(&mut controller, pair.schedule.deadlines());
            check_deadlines(i, &reference)?;
            let o = reference.total_energy_j();
            if o > b {
                return Err(format!(
                    "pair {i}: the Oracle used {o} J, more than BoFL's {b} J"
                ));
            }
            regret.push(regret_vs(&bofl, &reference) * 100.0);
        }
        e_bofl += b;
        e_perf += p;
        saved.push(improvement_vs(&bofl, &performant) * 100.0);
        mbo_rounds += bofl.phase_reports(Phase::ParetoConstruction).count() as u64;
        ep.client_rounds += 2 * bofl.reports.len() as u64;
        ep.energy_rounds += bofl.reports.len() as u64;
        ep.deadline_attempted += bofl.reports.len() as u64;
        ep.deadline_met += bofl.deadlines_met() as u64;
    }
    ep.energy_j = e_bofl;
    ep.updates_selected = ep.deadline_attempted;
    ep.updates_delivered = ep.deadline_met;
    ep.round_ms = pair_rounds;

    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    ep.notes = vec![
        ("energy_saved_vs_performant_pct", mean(&saved), "%"),
        ("mbo_update_ms.p50", percentile(&mbo_ms, 50.0), "ms"),
        ("mbo_update_ms.p75", percentile(&mbo_ms, 75.0), "ms"),
        ("mbo_update_ms.samples", mbo_ms.len() as f64, "count"),
    ];
    if oracle {
        ep.notes.push(("regret_vs_oracle_pct", mean(&regret), "%"));
    }
    ep.fingerprint = vec![
        ("bofl_energy_bits", e_bofl.to_bits()),
        ("performant_energy_bits", e_perf.to_bits()),
        ("mbo_rounds", mbo_rounds),
        ("steady_rounds", ep.round_ms.len() as u64),
    ];
    if let Some(probe) = probe {
        ep.layers.extend([
            ("mobo.update_ms", probe.mobo.ms()),
            ("mobo.updates", probe.mobo.calls() as f64),
            ("ilp.plan_ms", probe.ilp.ms()),
            ("core.explore_ms", probe.explore.ms()),
            ("device.job_ms", probe.jobs.ms()),
            ("device.jobs", probe.jobs.calls() as f64),
        ]);
        let covered = probe.mobo.ms() + probe.ilp.ms() + probe.explore.ms() + probe.jobs.ms();
        ep.notes.push((
            "layer_coverage_pct",
            100.0 * covered / (ep.wall_s * 1e3),
            "%",
        ));
    }
    Ok(ep)
}
