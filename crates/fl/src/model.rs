//! Trainable models with real stochastic gradient descent.
//!
//! The device simulator decides how long a minibatch *takes* and what it
//! *costs*; these models decide what the minibatch *learns*. Both are
//! driven from the same job loop, so an example run produces a genuinely
//! converging federated model alongside its energy ledger.

use rand::Rng;

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
}

/// A model trainable by minibatch SGD and aggregable by FedAvg.
pub trait TrainableModel: Send {
    /// Flat parameter vector (read).
    fn parameters(&self) -> Vec<f64>;

    /// Overwrites parameters from a flat vector.
    ///
    /// # Panics
    ///
    /// Implementations may panic if the length differs from
    /// `parameters().len()`.
    fn set_parameters(&mut self, params: &[f64]);

    /// Performs one SGD step on a minibatch; returns the pre-step
    /// mean cross-entropy loss.
    fn sgd_step(&mut self, batch: &Minibatch<'_>, learning_rate: f64) -> f64;

    /// Mean cross-entropy loss on a dataset (no update).
    fn loss(&self, data: &Minibatch<'_>) -> f64;

    /// Classification accuracy on a dataset.
    fn accuracy(&self, data: &Minibatch<'_>) -> f64;

    /// `(accuracy, loss)` on a dataset in one call, bit for bit the two
    /// separate calls. Models that can score both in one pass override
    /// this.
    fn evaluate(&self, data: &Minibatch<'_>) -> (f64, f64) {
        (self.accuracy(data), self.loss(data))
    }

    /// Clones the model behind a box (object-safe clone).
    fn clone_box(&self) -> Box<dyn TrainableModel>;
}

impl Clone for Box<dyn TrainableModel> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
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

/// Index of the largest probability (the last one on ties).
fn argmax(p: &[f64]) -> usize {
    p.iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).expect("probabilities are finite"))
        .map(|(i, _)| i)
        .expect("at least two classes")
}

/// Multinomial logistic regression (softmax) with bias, trained by SGD.
///
/// # Examples
///
/// ```
/// use bofl_fl::{Minibatch, SoftmaxModel, TrainableModel};
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

    /// The probability kernel: writes the logits of `x` into `out`
    /// (one slot per class), then softmaxes them in place. The caller
    /// owns the buffer, so SGD and evaluation reuse one per pass.
    fn proba_into(&self, x: &[f64], out: &mut [f64]) {
        assert_eq!(x.len(), self.features, "feature dimension mismatch");
        debug_assert_eq!(out.len(), self.classes);
        for (row, o) in self
            .weights
            .chunks_exact(self.features + 1)
            .zip(out.iter_mut())
        {
            *o = row[..self.features]
                .iter()
                .zip(x)
                .map(|(w, xi)| w * xi)
                .sum::<f64>()
                + row[self.features];
        }
        softmax_in_place(out);
    }

    /// Class probabilities for one sample.
    pub fn predict_proba(&self, x: &[f64]) -> Vec<f64> {
        let mut p = vec![0.0; self.classes];
        self.proba_into(x, &mut p);
        p
    }

    /// Most likely class for one sample.
    pub fn predict(&self, x: &[f64]) -> usize {
        argmax(&self.predict_proba(x))
    }
}

impl TrainableModel for SoftmaxModel {
    fn parameters(&self) -> Vec<f64> {
        self.weights.clone()
    }

    fn set_parameters(&mut self, params: &[f64]) {
        assert_eq!(
            params.len(),
            self.weights.len(),
            "parameter length mismatch"
        );
        self.weights.copy_from_slice(params);
    }

    fn sgd_step(&mut self, batch: &Minibatch<'_>, learning_rate: f64) -> f64 {
        assert!(!batch.is_empty(), "minibatch must not be empty");
        let stride = self.features + 1;
        let scale = learning_rate / batch.len() as f64;
        let mut total_loss = 0.0;
        let mut grad = vec![0.0; self.weights.len()];
        let mut p = vec![0.0; self.classes];
        for (x, y) in batch.rows() {
            assert!(y < self.classes, "label {y} out of range");
            self.proba_into(x, &mut p);
            total_loss -= p[y].max(1e-12).ln();
            for c in 0..self.classes {
                let err = p[c] - if c == y { 1.0 } else { 0.0 };
                let row = &mut grad[c * stride..(c + 1) * stride];
                for (g, xi) in row[..self.features].iter_mut().zip(x) {
                    *g += err * xi;
                }
                row[self.features] += err;
            }
        }
        for (w, g) in self.weights.iter_mut().zip(&grad) {
            *w -= scale * g;
        }
        total_loss / batch.len() as f64
    }

    fn loss(&self, data: &Minibatch<'_>) -> f64 {
        if data.is_empty() {
            return 0.0;
        }
        data.rows()
            .map(|(x, y)| -self.predict_proba(x)[y].max(1e-12).ln())
            .sum::<f64>()
            / data.len() as f64
    }

    fn accuracy(&self, data: &Minibatch<'_>) -> f64 {
        if data.is_empty() {
            return 0.0;
        }
        let hits = data.rows().filter(|&(x, y)| self.predict(x) == y).count();
        hits as f64 / data.len() as f64
    }

    /// One pass over the data: each sample's probabilities are computed
    /// once and scored for both the hit count and the loss.
    fn evaluate(&self, data: &Minibatch<'_>) -> (f64, f64) {
        if data.is_empty() {
            return (0.0, 0.0);
        }
        let mut p = vec![0.0; self.classes];
        let mut hits = 0usize;
        let loss = data
            .rows()
            .map(|(x, y)| {
                self.proba_into(x, &mut p);
                hits += usize::from(argmax(&p) == y);
                -p[y].max(1e-12).ln()
            })
            .sum::<f64>()
            / data.len() as f64;
        (hits as f64 / data.len() as f64, loss)
    }

    fn clone_box(&self) -> Box<dyn TrainableModel> {
        Box::new(self.clone())
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
    fn clone_box_is_independent() {
        let m = SoftmaxModel::new(2, 2, 9);
        let mut boxed: Box<dyn TrainableModel> = m.clone_box();
        let cloned = boxed.clone();
        boxed.set_parameters(&vec![0.0; m.parameters().len()]);
        assert_ne!(cloned.parameters(), boxed.parameters());
    }

    #[test]
    #[should_panic(expected = "parameter length mismatch")]
    fn set_parameters_checks_length() {
        SoftmaxModel::new(2, 2, 0).set_parameters(&[1.0]);
    }

    #[test]
    #[should_panic(expected = "label 5 out of range")]
    fn rejects_out_of_range_labels() {
        let mut m = SoftmaxModel::new(2, 2, 0);
        m.sgd_step(&Minibatch::new(&[0.0, 0.0], 2, &[5]), 0.1);
    }
}
