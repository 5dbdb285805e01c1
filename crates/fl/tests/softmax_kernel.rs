//! Bit-level pins on `SoftmaxModel`'s row-blocked probability kernel.
//!
//! The references below are verbatim copies of the one-row-at-a-time
//! code the kernel replaced: a fresh logits `Vec` and an in-place softmax
//! per sample, the per-sample `loss` and `accuracy` scans, and the SGD
//! step built on them.
//!
//! - `evaluate`, `loss` and `accuracy` must equal the per-sample scans.
//! - `sgd_step` must equal the per-sample step, in the returned loss and
//!   in every weight bit.
//! - Both hold at every row count around a block boundary (0, 1,
//!   `BLOCK - 1`, `BLOCK`, `BLOCK + 1`, and a non-multiple above 40).
//! - A dataset scored in stripes and folded by `fold_scores` equals the
//!   dataset scored whole, at stripe counts no row count divides.
//!
//! Half the cases draw weights and features from {-1, 0, 1}, so tied
//! probabilities (and the argmax tie-break) come up often.

use bofl_fl::model::BLOCK;
use bofl_fl::{fold_scores, Minibatch, SoftmaxModel};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A model plus a labelled dataset (features row-major) drawn from `seed`.
fn draw(
    features: usize,
    classes: usize,
    samples: usize,
    ties: bool,
    seed: u64,
) -> (SoftmaxModel, Vec<f64>, Vec<usize>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut value = |scale: f64| {
        if ties {
            rng.gen_index(0, 3) as f64 - 1.0
        } else {
            (rng.gen::<f64>() - 0.5) * scale
        }
    };
    let mut model = SoftmaxModel::new(features, classes, seed);
    let weights: Vec<f64> = (0..classes * (features + 1)).map(|_| value(4.0)).collect();
    model.set_parameters(&weights);
    let xs: Vec<f64> = (0..samples * features).map(|_| value(6.0)).collect();
    let ys: Vec<usize> = (0..samples).map(|_| rng.gen_index(0, classes)).collect();
    (model, xs, ys)
}

fn softmax_in_place(logits: &mut [f64]) {
    let max = logits.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let mut sum = 0.0;
    for v in logits.iter_mut() {
        *v = (*v - max).exp();
        sum += *v;
    }
    for v in logits.iter_mut() {
        *v /= sum;
    }
}

/// One sample's probabilities: a fresh logits `Vec`, softmaxed in place.
fn reference_proba(weights: &[f64], features: usize, classes: usize, x: &[f64]) -> Vec<f64> {
    let stride = features + 1;
    let mut p: Vec<f64> = (0..classes)
        .map(|c| {
            let row = &weights[c * stride..(c + 1) * stride];
            row[..features]
                .iter()
                .zip(x)
                .map(|(w, xi)| w * xi)
                .sum::<f64>()
                + row[features]
        })
        .collect();
    softmax_in_place(&mut p);
    p
}

/// Index of the largest probability (the last one on ties).
fn reference_argmax(p: &[f64]) -> usize {
    p.iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).expect("probabilities are finite"))
        .map(|(i, _)| i)
        .expect("at least two classes")
}

/// The per-sample `loss` scan.
fn reference_loss(model: &SoftmaxModel, data: &Minibatch<'_>) -> f64 {
    if data.is_empty() {
        return 0.0;
    }
    let weights = model.parameters();
    let proba = |x: &[f64]| reference_proba(&weights, model.features(), model.classes(), x);
    data.rows()
        .map(|(x, y)| -proba(x)[y].max(1e-12).ln())
        .sum::<f64>()
        / data.len() as f64
}

/// The per-sample `accuracy` scan.
fn reference_accuracy(model: &SoftmaxModel, data: &Minibatch<'_>) -> f64 {
    if data.is_empty() {
        return 0.0;
    }
    let weights = model.parameters();
    let proba = |x: &[f64]| reference_proba(&weights, model.features(), model.classes(), x);
    let hits = data
        .rows()
        .filter(|&(x, y)| reference_argmax(&proba(x)) == y)
        .count();
    hits as f64 / data.len() as f64
}

/// The per-sample SGD step over a bare weight vector.
fn reference_step(
    weights: &mut [f64],
    features: usize,
    classes: usize,
    batch: &Minibatch<'_>,
    learning_rate: f64,
) -> f64 {
    let stride = features + 1;
    let scale = learning_rate / batch.len() as f64;
    let mut total_loss = 0.0;
    let mut grad = vec![0.0; weights.len()];
    for (x, y) in batch.rows() {
        let p = reference_proba(weights, features, classes, x);
        total_loss -= p[y].max(1e-12).ln();
        for c in 0..classes {
            let err = p[c] - if c == y { 1.0 } else { 0.0 };
            let row = &mut grad[c * stride..(c + 1) * stride];
            for (g, xi) in row[..features].iter_mut().zip(x) {
                *g += err * xi;
            }
            row[features] += err;
        }
    }
    for (w, g) in weights.iter_mut().zip(&grad) {
        *w -= scale * g;
    }
    total_loss / batch.len() as f64
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// `evaluate`, `loss` and `accuracy` against the per-sample scans.
fn assert_scores_match(model: &SoftmaxModel, data: &Minibatch<'_>) {
    let (accuracy, loss) = model.evaluate(data);
    let expected = (reference_accuracy(model, data), reference_loss(model, data));
    assert_eq!(accuracy.to_bits(), expected.0.to_bits(), "accuracy");
    assert_eq!(loss.to_bits(), expected.1.to_bits(), "loss");
    assert_eq!(model.accuracy(data).to_bits(), expected.0.to_bits());
    assert_eq!(model.loss(data).to_bits(), expected.1.to_bits());
}

/// A few consecutive SGD steps against the per-sample step, so later
/// steps start from trained weights rather than the drawn ones.
fn assert_steps_match(model: &mut SoftmaxModel, batch: &Minibatch<'_>, learning_rate: f64) {
    let mut weights = model.parameters();
    for step in 0..3 {
        let loss = model.sgd_step(batch, learning_rate);
        let expected = reference_step(
            &mut weights,
            model.features(),
            model.classes(),
            batch,
            learning_rate,
        );
        assert_eq!(loss.to_bits(), expected.to_bits(), "loss of step {step}");
        assert_eq!(
            bits(&model.parameters()),
            bits(&weights),
            "weights after step {step}"
        );
    }
}

/// Row counts on both sides of a block boundary, plus one above 40 that
/// no block divides.
const BOUNDARY_ROWS: [usize; 6] = [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 5 * BLOCK + 3];

proptest! {
    #[test]
    fn evaluate_matches_the_per_sample_loss_and_accuracy(
        features in 1usize..7,
        classes in 2usize..6,
        samples in 0usize..60,
        ties in prop::bool::ANY,
        seed in 0u64..1_000_000,
    ) {
        let (model, xs, ys) = draw(features, classes, samples, ties, seed);
        assert_scores_match(&model, &Minibatch::new(&xs, features, &ys));
    }

    #[test]
    fn sgd_step_matches_the_per_sample_vec_step(
        features in 1usize..7,
        classes in 2usize..6,
        batch_size in 1usize..40,
        learning_rate in 0.001f64..2.0,
        ties in prop::bool::ANY,
        seed in 0u64..1_000_000,
    ) {
        let (mut model, xs, ys) = draw(features, classes, batch_size, ties, seed);
        assert_steps_match(&mut model, &Minibatch::new(&xs, features, &ys), learning_rate);
    }
}

#[test]
fn block_boundaries_match_the_per_sample_references() {
    for rows in BOUNDARY_ROWS {
        for ties in [false, true] {
            for seed in 0..4 {
                let (mut model, xs, ys) = draw(5, 4, rows, ties, seed);
                let data = Minibatch::new(&xs, 5, &ys);
                assert_scores_match(&model, &data);
                if rows > 0 {
                    assert_steps_match(&mut model, &data, 0.7);
                }
            }
        }
    }
}

#[test]
fn striped_scores_fold_to_the_whole_score() {
    // No stripe count from 2 to 4 divides 61 rows.
    for ties in [false, true] {
        let (model, xs, ys) = draw(4, 3, 61, ties, 11);
        let data = Minibatch::new(&xs, 4, &ys);
        let whole = model.evaluate(&data);
        for stripes in 1..=4 {
            let rows = data.len().div_ceil(stripes);
            let mut losses = vec![f64::NAN; data.len()];
            let hits: usize = data
                .chunks(rows)
                .zip(losses.chunks_mut(rows))
                .map(|(stripe, losses)| model.score_rows(&stripe, losses))
                .sum();
            let (accuracy, loss) = fold_scores(hits, &losses);
            assert_eq!(accuracy.to_bits(), whole.0.to_bits(), "{stripes} stripes");
            assert_eq!(loss.to_bits(), whole.1.to_bits(), "{stripes} stripes");
        }
    }
}

#[test]
fn evaluate_breaks_argmax_ties_like_accuracy() {
    // All-zero weights: every class is equally likely for every sample.
    let mut model = SoftmaxModel::new(3, 4, 0);
    model.set_parameters(&[0.0; 16]);
    let xs = [1.0, -2.0, 0.5].repeat(8);
    // Six samples labelled with the last class, two with the first.
    let ys: Vec<usize> = (0..8).map(|i| if i < 6 { 3 } else { 0 }).collect();
    let data = Minibatch::new(&xs, 3, &ys);
    assert_scores_match(&model, &data);
    assert_eq!(model.evaluate(&data).0, 0.75, "ties go to the last class");
}
