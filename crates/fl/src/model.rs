//! Trainable models with real stochastic gradient descent.
//!
//! The device simulator decides how long a minibatch *takes* and what it
//! *costs*; these models decide what the minibatch *learns*. Both are
//! driven from the same job loop, so an example run produces a genuinely
//! converging federated model alongside its energy ledger.
//!
//! # The probability kernel
//!
//! [`SoftmaxModel`] computes class probabilities [`BLOCK`] rows at a
//! time, phase by phase: every row's logits, then every row's max, every
//! row's exponentials, every row's sum and divides. Within a row each
//! value comes from the same expression, in the same order, as a
//! one-row-at-a-time softmax, so the probabilities carry the same bits;
//! only the interleaving across rows changes, which lets the rows'
//! independent `exp` and divide chains overlap. SGD steps and scoring
//! both run on this one kernel, and scoring folds the per-row losses in
//! row order ([`fold_scores`]), so a dataset scored in stripes gives the
//! same bits as one scored whole.

use rand::Rng;
use std::cell::RefCell;

/// Rows the probability kernel scores at once.
pub const BLOCK: usize = 8;

/// Rows [`SoftmaxModel::evaluate`] scores per [`SoftmaxModel::score_rows`]
/// call, their losses on the stack.
const EVAL_ROWS: usize = 32 * BLOCK;

/// A borrowed view of labelled samples, for an SGD step or an
/// evaluation: features row-major in one flat slice (sample `i` is
/// `features[i * dims..(i + 1) * dims]`) plus one label per row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Minibatch<'a> {
    features: &'a [f64],
    labels: &'a [usize],
    dims: usize,
}

impl<'a> Minibatch<'a> {
    /// A view of `labels.len()` samples of `dims` features each.
    ///
    /// # Panics
    ///
    /// Panics if `dims == 0` or `features.len() != labels.len() * dims`.
    pub fn new(features: &'a [f64], dims: usize, labels: &'a [usize]) -> Self {
        assert!(dims > 0, "rows need at least one feature");
        assert_eq!(
            features.len(),
            labels.len() * dims,
            "one row of `dims` features per label"
        );
        Minibatch {
            features,
            labels,
            dims,
        }
    }

    /// Number of samples in the minibatch.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// `true` if the minibatch is empty.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// `(features, label)` per sample, in order.
    pub fn rows(&self) -> impl Iterator<Item = (&'a [f64], usize)> + 'a {
        self.features
            .chunks_exact(self.dims)
            .zip(self.labels.iter().copied())
    }

    /// Contiguous runs of at most `rows` samples each, in order (the last
    /// one shorter when `rows` does not divide the length).
    ///
    /// # Panics
    ///
    /// Panics if `rows == 0`.
    pub fn chunks(&self, rows: usize) -> impl Iterator<Item = Minibatch<'a>> + 'a {
        let dims = self.dims;
        self.features
            .chunks(rows * dims)
            .zip(self.labels.chunks(rows))
            .map(move |(features, labels)| Minibatch {
                features,
                labels,
                dims,
            })
    }
}

/// `(accuracy, mean loss)` from a hit count and the per-sample losses
/// ([`SoftmaxModel::score_rows`]'s outputs); `(0.0, 0.0)` for no
/// samples. The losses fold in order, so the result does not depend on
/// how the samples were split up for scoring.
pub fn fold_scores(hits: usize, losses: &[f64]) -> (f64, f64) {
    if losses.is_empty() {
        return (0.0, 0.0);
    }
    let n = losses.len() as f64;
    (hits as f64 / n, losses.iter().sum::<f64>() / n)
}

/// The probability kernel: the softmax class probabilities of up to
/// [`BLOCK`] rows (`xs`, row-major, `features` wide) into `out`
/// (row-major, one slot per class), one phase across all rows at a time.
fn proba_block(weights: &[f64], features: usize, xs: &[f64], out: &mut [f64]) {
    let stride = features + 1;
    let classes = weights.len() / stride;
    debug_assert!(xs.len() <= BLOCK * features);
    debug_assert_eq!(out.len() * features, xs.len() * classes);
    // 1. Every row's logits.
    for (x, logits) in xs.chunks_exact(features).zip(out.chunks_exact_mut(classes)) {
        for (row, o) in weights.chunks_exact(stride).zip(logits) {
            *o = row[..features]
                .iter()
                .zip(x)
                .map(|(w, xi)| w * xi)
                .sum::<f64>()
                + row[features];
        }
    }
    // 2. Every row's max.
    let mut max = [0.0; BLOCK];
    for (m, logits) in max.iter_mut().zip(out.chunks_exact(classes)) {
        *m = logits.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    }
    // 3. Every row's exponentials.
    for (m, logits) in max.iter().zip(out.chunks_exact_mut(classes)) {
        for v in logits {
            *v = (*v - m).exp();
        }
    }
    // 4. Every row's sum, then its divides.
    let mut sum = [0.0; BLOCK];
    for (s, p) in sum.iter_mut().zip(out.chunks_exact(classes)) {
        for v in p {
            *s += *v;
        }
    }
    for (s, p) in sum.iter().zip(out.chunks_exact_mut(classes)) {
        for v in p {
            *v /= s;
        }
    }
}

/// Index of the largest probability (the last one on ties). A diverged
/// model's NaN probabilities order by [`f64::total_cmp`] instead of
/// panicking.
fn argmax(p: &[f64]) -> usize {
    p.iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map(|(i, _)| i)
        .expect("at least two classes")
}

thread_local! {
    /// The SGD workspace: the gradient, then one block's probabilities.
    /// Kept per thread rather than in the model, so a model's size, value,
    /// clones and equality are its weights alone; a thread's first step
    /// grows it, later steps of the same shape reuse it.
    static SGD_SCRATCH: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

/// Multinomial logistic regression (softmax) with bias, trained by SGD.
///
/// # Examples
///
/// ```
/// use bofl_fl::{Minibatch, SoftmaxModel};
///
/// let mut m = SoftmaxModel::new(2, 2, 42);
/// let xs = [2.0, 0.0, -2.0, 0.0]; // two rows of two features
/// let ys = [0usize, 1usize];
/// let batch = Minibatch::new(&xs, 2, &ys);
/// for _ in 0..200 {
///     m.sgd_step(&batch, 0.5);
/// }
/// assert_eq!(m.accuracy(&batch), 1.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SoftmaxModel {
    features: usize,
    classes: usize,
    /// Row-major `classes × (features + 1)`; last column is the bias.
    weights: Vec<f64>,
}

impl SoftmaxModel {
    /// Creates a model with small random weights (seeded).
    ///
    /// # Panics
    ///
    /// Panics if `features == 0` or `classes < 2`.
    pub fn new(features: usize, classes: usize, seed: u64) -> Self {
        assert!(features > 0, "at least one feature required");
        assert!(classes >= 2, "at least two classes required");
        let mut rng = small_rng(seed);
        let weights = (0..classes * (features + 1))
            .map(|_| (rng.gen::<f64>() - 0.5) * 0.02)
            .collect();
        SoftmaxModel {
            features,
            classes,
            weights,
        }
    }

    /// Input dimensionality.
    pub fn features(&self) -> usize {
        self.features
    }

    /// Number of classes.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Flat parameter vector (read).
    pub fn parameters(&self) -> Vec<f64> {
        self.weights.clone()
    }

    /// Overwrites parameters from a flat vector.
    ///
    /// # Panics
    ///
    /// Panics if the length differs from `parameters().len()`.
    pub fn set_parameters(&mut self, params: &[f64]) {
        assert_eq!(
            params.len(),
            self.weights.len(),
            "parameter length mismatch"
        );
        self.weights.copy_from_slice(params);
    }

    /// Performs one SGD step on a minibatch; returns the pre-step
    /// mean cross-entropy loss.
    pub fn sgd_step(&mut self, batch: &Minibatch<'_>, learning_rate: f64) -> f64 {
        assert!(!batch.is_empty(), "minibatch must not be empty");
        self.check_dims(batch);
        let (features, classes) = (self.features, self.classes);
        let stride = features + 1;
        let scale = learning_rate / batch.len() as f64;
        SGD_SCRATCH.with_borrow_mut(|scratch| {
            scratch.resize(self.weights.len() + BLOCK * classes, 0.0);
            let (grad, probs) = scratch.split_at_mut(self.weights.len());
            grad.fill(0.0);
            let mut total_loss = 0.0;
            for block in batch.chunks(BLOCK) {
                let probs = &mut probs[..block.len() * classes];
                proba_block(&self.weights, features, block.features, probs);
                for ((x, y), p) in block.rows().zip(probs.chunks_exact(classes)) {
                    assert!(y < classes, "label {y} out of range");
                    total_loss -= p[y].max(1e-12).ln();
                    for (c, row) in grad.chunks_exact_mut(stride).enumerate() {
                        let err = p[c] - if c == y { 1.0 } else { 0.0 };
                        for (g, xi) in row[..features].iter_mut().zip(x) {
                            *g += err * xi;
                        }
                        row[features] += err;
                    }
                }
            }
            for (w, g) in self.weights.iter_mut().zip(grad.iter()) {
                *w -= scale * g;
            }
            total_loss / batch.len() as f64
        })
    }

    /// Scores every sample without updating: writes each one's
    /// cross-entropy loss into `losses` (one slot per sample, in order)
    /// and returns how many samples the model classifies correctly.
    ///
    /// # Panics
    ///
    /// Panics if `losses.len() != data.len()`.
    pub fn score_rows(&self, data: &Minibatch<'_>, losses: &mut [f64]) -> usize {
        assert_eq!(losses.len(), data.len(), "one loss slot per sample");
        self.check_dims(data);
        let classes = self.classes;
        let mut probs = vec![0.0; BLOCK * classes];
        let mut hits = 0;
        for (block, losses) in data.chunks(BLOCK).zip(losses.chunks_mut(BLOCK)) {
            let probs = &mut probs[..block.len() * classes];
            proba_block(&self.weights, self.features, block.features, probs);
            for ((_, y), (p, loss)) in block.rows().zip(probs.chunks_exact(classes).zip(losses)) {
                hits += usize::from(argmax(p) == y);
                *loss = -p[y].max(1e-12).ln();
            }
        }
        hits
    }

    /// `(accuracy, mean cross-entropy loss)` on a dataset (no update):
    /// [`SoftmaxModel::score_rows`] a few hundred rows at a time, the
    /// losses folded in row order as [`fold_scores`] folds them: the same
    /// bits, with no loss buffer as long as the dataset.
    pub fn evaluate(&self, data: &Minibatch<'_>) -> (f64, f64) {
        if data.is_empty() {
            return (0.0, 0.0);
        }
        let mut hits = 0;
        let loss_sum: f64 = data
            .chunks(EVAL_ROWS)
            .flat_map(|rows| {
                let mut losses = [0.0; EVAL_ROWS];
                hits += self.score_rows(&rows, &mut losses[..rows.len()]);
                losses.into_iter().take(rows.len())
            })
            .sum();
        let n = data.len() as f64;
        (hits as f64 / n, loss_sum / n)
    }

    /// Mean cross-entropy loss on a dataset (no update).
    pub fn loss(&self, data: &Minibatch<'_>) -> f64 {
        self.evaluate(data).1
    }

    /// Classification accuracy on a dataset.
    pub fn accuracy(&self, data: &Minibatch<'_>) -> f64 {
        self.evaluate(data).0
    }

    fn check_dims(&self, data: &Minibatch<'_>) {
        assert!(
            data.is_empty() || data.dims == self.features,
            "feature dimension mismatch"
        );
    }
}

fn small_rng(seed: u64) -> impl Rng {
    use rand::SeedableRng;
    rand::rngs::StdRng::seed_from_u64(seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// XOR's four corners, row-major.
    const XOR_XS: [f64; 8] = [0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0];
    const XOR_YS: [usize; 4] = [0, 1, 1, 0];

    /// 40 linearly separable rows, alternating classes.
    fn separable() -> (Vec<f64>, Vec<usize>) {
        let xs = (0..40)
            .flat_map(|i| {
                let t = i as f64 / 10.0;
                if i % 2 == 0 {
                    [1.0 + t, 1.0]
                } else {
                    [-1.0 - t, -1.0]
                }
            })
            .collect();
        let ys = (0..40).map(|i| i % 2).collect();
        (xs, ys)
    }

    #[test]
    fn softmax_learns_linear_separation() {
        let mut m = SoftmaxModel::new(2, 2, 1);
        let (xs, ys) = separable();
        let batch = Minibatch::new(&xs, 2, &ys);
        let initial_loss = m.loss(&batch);
        for _ in 0..100 {
            m.sgd_step(&batch, 0.5);
        }
        assert!(m.loss(&batch) < initial_loss * 0.5);
        assert_eq!(m.accuracy(&batch), 1.0);
    }

    #[test]
    fn softmax_cannot_solve_xor() {
        let batch = Minibatch::new(&XOR_XS, 2, &XOR_YS);
        let mut linear = SoftmaxModel::new(2, 2, 3);
        for _ in 0..2000 {
            linear.sgd_step(&batch, 0.5);
        }
        assert!(linear.accuracy(&batch) <= 0.75, "linear model solved XOR?");
    }

    #[test]
    fn parameter_roundtrip() {
        let mut a = SoftmaxModel::new(3, 4, 7);
        let b = SoftmaxModel::new(3, 4, 8);
        a.set_parameters(&b.parameters());
        assert_eq!(a.parameters(), b.parameters());
    }

    #[test]
    fn sgd_returns_decreasing_loss() {
        let (xs, ys) = separable();
        let batch = Minibatch::new(&xs, 2, &ys);
        let mut m = SoftmaxModel::new(2, 2, 5);
        let first = m.sgd_step(&batch, 0.3);
        let mut last = first;
        for _ in 0..3000 {
            last = m.sgd_step(&batch, 0.3);
        }
        assert!(last < first * 0.5, "loss {first} -> {last}");
    }

    #[test]
    fn batch_rows_are_the_flat_slices() {
        let batch = Minibatch::new(&XOR_XS, 2, &XOR_YS);
        let rows: Vec<(&[f64], usize)> = batch.rows().collect();
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[2], (&XOR_XS[4..6], 1));
    }

    #[test]
    #[should_panic(expected = "one row of `dims` features per label")]
    fn batch_rejects_ragged_features() {
        let _ = Minibatch::new(&XOR_XS[..7], 2, &XOR_YS);
    }

    #[test]
    #[should_panic(expected = "parameter length mismatch")]
    fn set_parameters_checks_length() {
        SoftmaxModel::new(2, 2, 0).set_parameters(&[1.0]);
    }

    #[test]
    fn evaluate_folds_across_its_chunks_as_one_score() {
        let rows = 2 * EVAL_ROWS + 3;
        let mut rng = small_rng(11);
        let xs: Vec<f64> = (0..rows * 3)
            .map(|_| rng.gen::<f64>() * 4.0 - 2.0)
            .collect();
        let ys: Vec<usize> = (0..rows).map(|i| i % 4).collect();
        let data = Minibatch::new(&xs, 3, &ys);
        let mut m = SoftmaxModel::new(3, 4, 2);
        let weights: Vec<f64> = (0..16).map(|_| rng.gen::<f64>() * 6.0 - 3.0).collect();
        m.set_parameters(&weights);
        let mut losses = vec![0.0; rows];
        let whole = fold_scores(m.score_rows(&data, &mut losses), &losses);
        let (accuracy, loss) = m.evaluate(&data);
        assert_eq!(accuracy.to_bits(), whole.0.to_bits());
        assert_eq!(loss.to_bits(), whole.1.to_bits());
    }

    #[test]
    fn diverged_weights_score_without_panicking() {
        let xs = [1.0, -2.0, 0.5, 0.0, 3.0, 1.0];
        let batch = Minibatch::new(&xs, 3, &[0, 2]);
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut m = SoftmaxModel::new(3, 3, 1);
            let mut weights = m.parameters();
            weights[0] = bad;
            weights[5] = bad;
            m.set_parameters(&weights);
            let (accuracy, loss) = m.evaluate(&batch);
            assert!(loss.is_finite(), "{bad} weights: loss {loss}");
            assert!((0.0..=1.0).contains(&accuracy), "{bad} weights: {accuracy}");
            let mut p = [0.0; 3];
            proba_block(&m.weights, 3, &xs[..3], &mut p);
            assert!(argmax(&p) < 3);
        }
    }

    #[test]
    #[should_panic(expected = "label 5 out of range")]
    fn rejects_out_of_range_labels() {
        let mut m = SoftmaxModel::new(2, 2, 0);
        m.sgd_step(&Minibatch::new(&[0.0, 0.0], 2, &[5]), 0.1);
    }
}
