//! The round's test score striped across `EventDrivenEngine`'s workers
//! carries the same bits as the sequential engine's inline score: each
//! stripe writes its own samples' losses, and the server folds them in
//! sample order. Row counts here are odd and not multiples of 3, so no
//! stripe count from 2 to 4 divides them and the last stripe is short.

use bofl_control::EventDrivenEngine;
use bofl_fl::engine::RoundEngine;
use bofl_fl::prelude::*;
use bofl_fl::Minibatch;
use bofl_workload::{FlTask, TaskKind, Testbed};

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Every sample's loss bits and the hit count, scored through `engine`.
fn score(
    engine: &mut dyn RoundEngine,
    model: &SoftmaxModel,
    data: &Minibatch<'_>,
) -> (Vec<u64>, usize) {
    let mut losses = vec![f64::NAN; data.len()];
    let hits = engine.score(model, data, &mut losses);
    (bits(&losses), hits)
}

#[test]
fn striped_scores_equal_the_inline_score_per_sample() {
    let data = SyntheticDataset::gaussian_blobs(77, 6, 3, 0.8, 5);
    let mut model = SoftmaxModel::new(6, 3, 9);
    for _ in 0..20 {
        model.sgd_step(&data.batch(0..32), 0.3);
    }
    for rows in [0, 1, 7, 77] {
        let batch = data.batch(0..rows);
        let inline = score(&mut SequentialEngine::new(), &model, &batch);
        for workers in 1..=4 {
            let striped = score(&mut EventDrivenEngine::new(workers), &model, &batch);
            assert_eq!(striped, inline, "{rows} rows on {workers} workers");
        }
    }
}

#[test]
fn federation_round_records_match_at_every_worker_count() {
    // Five clients of 7 × 11 samples: the builder holds out a fifth of
    // the 385 training samples, 77 test rows.
    let preset = FlTask::preset(TaskKind::Cifar10Vit, Testbed::JetsonAgx);
    let task = FlTask::new(preset.model().clone(), preset.dataset().clone(), 7, 1, 11);
    let config = FederationConfig {
        num_clients: 5,
        clients_per_round: 3,
        rounds: 4,
        classes: 3,
        feature_dims: 6,
        seed: 21,
        ..FederationConfig::default()
    };
    let build = || Federation::builder(config).task(task.clone());
    let inline = run(build().engine(SequentialEngine::new()));
    for workers in 1..=4 {
        let striped = run(build().engine(EventDrivenEngine::new(workers)));
        assert_eq!(striped, inline, "{workers} workers");
    }
}

/// Runs a federation; returns its history, every round's score bits
/// and the final global model's bits.
fn run(builder: FederationBuilder) -> (RunHistory, Vec<(u64, u64)>, Vec<u64>) {
    let mut sim = builder.build();
    let history = sim.run();
    let scores = history
        .rounds
        .iter()
        .map(|r| (r.test_accuracy.to_bits(), r.test_loss.to_bits()))
        .collect();
    (history, scores, bits(&sim.global_parameters()))
}
