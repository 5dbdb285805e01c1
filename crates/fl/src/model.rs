//! Trainable models with real stochastic gradient descent.
//!
//! The device simulator decides how long a minibatch *takes* and what it
//! *costs*; these models decide what the minibatch *learns*. Both are
//! driven from the same job loop, so an example run produces a genuinely
//! converging federated model alongside its energy ledger.

use rand::Rng;

/// One minibatch of training data: rows of features plus integer labels.
#[derive(Debug, Clone, PartialEq)]
pub struct Minibatch<'a> {
    /// Feature rows, one per sample.
    pub features: &'a [Vec<f64>],
    /// Class labels, parallel to `features`.
    pub labels: &'a [usize],
}

impl Minibatch<'_> {
    /// Number of samples in the minibatch.
    pub fn len(&self) -> usize {
        self.features.len()
    }

    /// `true` if the minibatch is empty.
    pub fn is_empty(&self) -> bool {
        self.features.is_empty()
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
    fn loss(&self, features: &[Vec<f64>], labels: &[usize]) -> f64;

    /// Classification accuracy on a dataset.
    fn accuracy(&self, features: &[Vec<f64>], labels: &[usize]) -> f64;

    /// `(accuracy, loss)` on a dataset in one call, bit for bit the two
    /// separate calls. Models that can score both in one pass override
    /// this.
    fn evaluate(&self, features: &[Vec<f64>], labels: &[usize]) -> (f64, f64) {
        (self.accuracy(features, labels), self.loss(features, labels))
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
/// let xs = vec![vec![2.0, 0.0], vec![-2.0, 0.0]];
/// let ys = vec![0usize, 1usize];
/// for _ in 0..200 {
///     m.sgd_step(&Minibatch { features: &xs, labels: &ys }, 0.5);
/// }
/// assert_eq!(m.accuracy(&xs, &ys), 1.0);
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
        for (x, &y) in batch.features.iter().zip(batch.labels) {
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

    fn loss(&self, features: &[Vec<f64>], labels: &[usize]) -> f64 {
        assert_eq!(features.len(), labels.len());
        if features.is_empty() {
            return 0.0;
        }
        features
            .iter()
            .zip(labels)
            .map(|(x, &y)| -self.predict_proba(x)[y].max(1e-12).ln())
            .sum::<f64>()
            / features.len() as f64
    }

    fn accuracy(&self, features: &[Vec<f64>], labels: &[usize]) -> f64 {
        assert_eq!(features.len(), labels.len());
        if features.is_empty() {
            return 0.0;
        }
        let hits = features
            .iter()
            .zip(labels)
            .filter(|(x, &y)| self.predict(x) == y)
            .count();
        hits as f64 / features.len() as f64
    }

    /// One pass over the data: each sample's probabilities are computed
    /// once and scored for both the hit count and the loss.
    fn evaluate(&self, features: &[Vec<f64>], labels: &[usize]) -> (f64, f64) {
        assert_eq!(features.len(), labels.len());
        if features.is_empty() {
            return (0.0, 0.0);
        }
        let mut p = vec![0.0; self.classes];
        let mut hits = 0usize;
        let loss = features
            .iter()
            .zip(labels)
            .map(|(x, &y)| {
                self.proba_into(x, &mut p);
                hits += usize::from(argmax(&p) == y);
                -p[y].max(1e-12).ln()
            })
            .sum::<f64>()
            / features.len() as f64;
        (hits as f64 / features.len() as f64, loss)
    }

    fn clone_box(&self) -> Box<dyn TrainableModel> {
        Box::new(self.clone())
    }
}

/// A one-hidden-layer MLP with tanh activation, trained by backprop SGD.
#[derive(Debug, Clone, PartialEq)]
pub struct MlpModel {
    features: usize,
    hidden: usize,
    classes: usize,
    /// `[w1 (hidden × (features+1)) | w2 (classes × (hidden+1))]` flat.
    weights: Vec<f64>,
}

impl MlpModel {
    /// Creates an MLP with Xavier-ish random weights (seeded).
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero or `classes < 2`.
    pub fn new(features: usize, hidden: usize, classes: usize, seed: u64) -> Self {
        assert!(features > 0 && hidden > 0, "dimensions must be positive");
        assert!(classes >= 2, "at least two classes required");
        let mut rng = small_rng(seed);
        let n = hidden * (features + 1) + classes * (hidden + 1);
        let scale = (2.0 / (features + hidden) as f64).sqrt();
        let weights = (0..n).map(|_| (rng.gen::<f64>() - 0.5) * scale).collect();
        MlpModel {
            features,
            hidden,
            classes,
            weights,
        }
    }

    fn split(&self) -> (&[f64], &[f64]) {
        self.weights.split_at(self.hidden * (self.features + 1))
    }

    fn forward(&self, x: &[f64]) -> (Vec<f64>, Vec<f64>) {
        assert_eq!(x.len(), self.features, "feature dimension mismatch");
        let (w1, w2) = self.split();
        let s1 = self.features + 1;
        let h: Vec<f64> = (0..self.hidden)
            .map(|j| {
                let row = &w1[j * s1..(j + 1) * s1];
                (row[..self.features]
                    .iter()
                    .zip(x)
                    .map(|(w, xi)| w * xi)
                    .sum::<f64>()
                    + row[self.features])
                    .tanh()
            })
            .collect();
        let s2 = self.hidden + 1;
        let mut logits: Vec<f64> = (0..self.classes)
            .map(|c| {
                let row = &w2[c * s2..(c + 1) * s2];
                row[..self.hidden]
                    .iter()
                    .zip(&h)
                    .map(|(w, hi)| w * hi)
                    .sum::<f64>()
                    + row[self.hidden]
            })
            .collect();
        softmax_in_place(&mut logits);
        (h, logits)
    }

    /// Most likely class for one sample.
    pub fn predict(&self, x: &[f64]) -> usize {
        argmax(&self.forward(x).1)
    }
}

impl TrainableModel for MlpModel {
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
        let s1 = self.features + 1;
        let s2 = self.hidden + 1;
        let w1_len = self.hidden * s1;
        let mut grad = vec![0.0; self.weights.len()];
        let mut total_loss = 0.0;

        for (x, &y) in batch.features.iter().zip(batch.labels) {
            assert!(y < self.classes, "label {y} out of range");
            let (h, p) = self.forward(x);
            total_loss -= p[y].max(1e-12).ln();
            // Output layer gradient.
            let (_, w2) = self.split();
            let mut dh = vec![0.0; self.hidden];
            for c in 0..self.classes {
                let err = p[c] - if c == y { 1.0 } else { 0.0 };
                let row = &mut grad[w1_len + c * s2..w1_len + (c + 1) * s2];
                for (g, hi) in row[..self.hidden].iter_mut().zip(&h) {
                    *g += err * hi;
                }
                row[self.hidden] += err;
                let w2row = &w2[c * s2..(c + 1) * s2];
                for (dhj, w) in dh.iter_mut().zip(&w2row[..self.hidden]) {
                    *dhj += err * w;
                }
            }
            // Hidden layer gradient through tanh.
            for j in 0..self.hidden {
                let dpre = dh[j] * (1.0 - h[j] * h[j]);
                let row = &mut grad[j * s1..(j + 1) * s1];
                for (g, xi) in row[..self.features].iter_mut().zip(x) {
                    *g += dpre * xi;
                }
                row[self.features] += dpre;
            }
        }

        let scale = learning_rate / batch.len() as f64;
        for (w, g) in self.weights.iter_mut().zip(&grad) {
            *w -= scale * g;
        }
        total_loss / batch.len() as f64
    }

    fn loss(&self, features: &[Vec<f64>], labels: &[usize]) -> f64 {
        assert_eq!(features.len(), labels.len());
        if features.is_empty() {
            return 0.0;
        }
        features
            .iter()
            .zip(labels)
            .map(|(x, &y)| -self.forward(x).1[y].max(1e-12).ln())
            .sum::<f64>()
            / features.len() as f64
    }

    fn accuracy(&self, features: &[Vec<f64>], labels: &[usize]) -> f64 {
        assert_eq!(features.len(), labels.len());
        if features.is_empty() {
            return 0.0;
        }
        let hits = features
            .iter()
            .zip(labels)
            .filter(|(x, &y)| self.predict(x) == y)
            .count();
        hits as f64 / features.len() as f64
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

    fn xor_data() -> (Vec<Vec<f64>>, Vec<usize>) {
        let xs = vec![
            vec![0.0, 0.0],
            vec![0.0, 1.0],
            vec![1.0, 0.0],
            vec![1.0, 1.0],
        ];
        let ys = vec![0, 1, 1, 0];
        (xs, ys)
    }

    #[test]
    fn softmax_learns_linear_separation() {
        let mut m = SoftmaxModel::new(2, 2, 1);
        let xs: Vec<Vec<f64>> = (0..40)
            .map(|i| {
                let t = i as f64 / 10.0;
                if i % 2 == 0 {
                    vec![1.0 + t, 1.0]
                } else {
                    vec![-1.0 - t, -1.0]
                }
            })
            .collect();
        let ys: Vec<usize> = (0..40).map(|i| i % 2).collect();
        let initial_loss = m.loss(&xs, &ys);
        for _ in 0..100 {
            m.sgd_step(
                &Minibatch {
                    features: &xs,
                    labels: &ys,
                },
                0.5,
            );
        }
        assert!(m.loss(&xs, &ys) < initial_loss * 0.5);
        assert_eq!(m.accuracy(&xs, &ys), 1.0);
    }

    #[test]
    fn softmax_cannot_solve_xor_but_mlp_can() {
        let (xs, ys) = xor_data();
        let batch = Minibatch {
            features: &xs,
            labels: &ys,
        };
        let mut linear = SoftmaxModel::new(2, 2, 3);
        for _ in 0..2000 {
            linear.sgd_step(&batch, 0.5);
        }
        assert!(
            linear.accuracy(&xs, &ys) <= 0.75,
            "linear model solved XOR?"
        );

        let mut mlp = MlpModel::new(2, 8, 2, 3);
        for _ in 0..4000 {
            mlp.sgd_step(&batch, 0.5);
        }
        assert_eq!(mlp.accuracy(&xs, &ys), 1.0, "MLP must solve XOR");
    }

    #[test]
    fn parameter_roundtrip() {
        let mut a = SoftmaxModel::new(3, 4, 7);
        let b = SoftmaxModel::new(3, 4, 8);
        a.set_parameters(&b.parameters());
        assert_eq!(a.parameters(), b.parameters());

        let mut m1 = MlpModel::new(3, 5, 2, 1);
        let m2 = MlpModel::new(3, 5, 2, 2);
        m1.set_parameters(&m2.parameters());
        assert_eq!(m1.parameters(), m2.parameters());
    }

    #[test]
    fn sgd_returns_decreasing_loss() {
        let (xs, ys) = xor_data();
        let batch = Minibatch {
            features: &xs,
            labels: &ys,
        };
        let mut m = MlpModel::new(2, 6, 2, 5);
        let first = m.sgd_step(&batch, 0.3);
        let mut last = first;
        for _ in 0..3000 {
            last = m.sgd_step(&batch, 0.3);
        }
        assert!(last < first * 0.5, "loss {first} -> {last}");
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
        let xs = vec![vec![0.0, 0.0]];
        let ys = vec![5usize];
        m.sgd_step(
            &Minibatch {
                features: &xs,
                labels: &ys,
            },
            0.1,
        );
    }
}
