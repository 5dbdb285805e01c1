//! Bit-level pins on `SoftmaxModel`'s probability kernel.
//!
//! - `evaluate` scores accuracy and loss in one pass; it must equal the
//!   two separate calls bit for bit.
//! - `sgd_step` reuses one probability buffer per step; it must equal a
//!   verbatim copy of the step that allocated a fresh logits `Vec` per
//!   sample, in the returned loss and in every weight bit.
//!
//! Half the cases draw weights and features from {-1, 0, 1}, so tied
//! probabilities (and the argmax tie-break) come up often.

use bofl_fl::{Minibatch, SoftmaxModel, TrainableModel};
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

/// The step as it was before the shared kernel: a fresh logits `Vec` per
/// sample, over a bare weight vector.
fn reference_step(
    weights: &mut [f64],
    features: usize,
    classes: usize,
    batch: &Minibatch<'_>,
    learning_rate: f64,
) -> f64 {
    let logits = |weights: &[f64], x: &[f64]| -> Vec<f64> {
        let stride = features + 1;
        (0..classes)
            .map(|c| {
                let row = &weights[c * stride..(c + 1) * stride];
                row[..features]
                    .iter()
                    .zip(x)
                    .map(|(w, xi)| w * xi)
                    .sum::<f64>()
                    + row[features]
            })
            .collect()
    };
    let stride = features + 1;
    let scale = learning_rate / batch.len() as f64;
    let mut total_loss = 0.0;
    let mut grad = vec![0.0; weights.len()];
    for (x, y) in batch.rows() {
        let mut p = logits(weights, x);
        softmax_in_place(&mut p);
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

proptest! {
    #[test]
    fn evaluate_is_accuracy_and_loss_bit_for_bit(
        features in 1usize..7,
        classes in 2usize..6,
        samples in 0usize..60,
        ties in prop::bool::ANY,
        seed in 0u64..1_000_000,
    ) {
        let (model, xs, ys) = draw(features, classes, samples, ties, seed);
        let data = Minibatch::new(&xs, features, &ys);
        let (accuracy, loss) = model.evaluate(&data);
        prop_assert_eq!(accuracy.to_bits(), model.accuracy(&data).to_bits());
        prop_assert_eq!(loss.to_bits(), model.loss(&data).to_bits());
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
        let mut weights = model.parameters();
        let batch = Minibatch::new(&xs, features, &ys);
        // A few consecutive steps, so later steps start from trained
        // weights rather than the drawn ones.
        for _ in 0..3 {
            let loss = model.sgd_step(&batch, learning_rate);
            let expected = reference_step(&mut weights, features, classes, &batch, learning_rate);
            prop_assert_eq!(loss.to_bits(), expected.to_bits());
            prop_assert_eq!(bits(&model.parameters()), bits(&weights));
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
    let (accuracy, loss) = model.evaluate(&data);
    assert_eq!(accuracy.to_bits(), model.accuracy(&data).to_bits());
    assert_eq!(loss.to_bits(), model.loss(&data).to_bits());
    assert_eq!(accuracy, 0.75, "ties go to the last class");
}
