//! Synthetic federated datasets with controllable non-IID label skew.
//!
//! A dataset keeps its features row-major in one buffer: sample `i` is
//! `features[i * dims..(i + 1) * dims]`. Every buffer is allocated at its
//! exact length, so a dataset costs its samples' bytes and nothing per
//! sample on top.

use crate::model::Minibatch;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::Range;

/// A labeled synthetic classification dataset: Gaussian blobs, one center
/// per class.
#[derive(Debug, Clone, PartialEq)]
pub struct SyntheticDataset {
    /// Row-major `samples × dims`.
    features: Vec<f64>,
    labels: Vec<usize>,
    dims: usize,
    classes: usize,
}

impl SyntheticDataset {
    /// Generates `samples` points in `dims` dimensions across `classes`
    /// Gaussian blobs with the given intra-class `noise` (σ).
    ///
    /// # Panics
    ///
    /// Panics if any size parameter is zero, `classes < 2`, or
    /// `noise < 0`.
    pub fn gaussian_blobs(
        samples: usize,
        dims: usize,
        classes: usize,
        noise: f64,
        seed: u64,
    ) -> Self {
        assert!(samples > 0 && dims > 0, "sizes must be positive");
        assert!(classes >= 2, "need at least two classes");
        assert!(noise >= 0.0, "noise must be non-negative");
        let mut rng = StdRng::seed_from_u64(seed);
        // Class centers on a scaled hypersphere-ish lattice, row-major
        // `classes × dims`.
        let centers: Vec<f64> = (0..classes * dims)
            .map(|k| {
                let angle = k as f64 * 2.399963; // golden angle
                3.0 * angle.sin()
            })
            .collect();
        let mut features = Vec::with_capacity(samples * dims);
        for i in 0..samples {
            let c = i % classes;
            features.extend(
                centers[c * dims..(c + 1) * dims]
                    .iter()
                    .map(|&m| m + noise * gaussian(&mut rng)),
            );
        }
        SyntheticDataset {
            features,
            labels: (0..samples).map(|i| i % classes).collect(),
            dims,
            classes,
        }
    }

    /// Feature rows, row-major: sample `i` is
    /// `features()[i * dims()..(i + 1) * dims()]`.
    pub fn features(&self) -> &[f64] {
        &self.features
    }

    /// Labels, one per feature row.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Number of classes.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// `true` if the dataset has no samples.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// The features of sample `i`.
    fn row(&self, i: usize) -> &[f64] {
        &self.features[i * self.dims..(i + 1) * self.dims]
    }

    /// A borrowed view of the samples `rows`, for SGD or evaluation.
    ///
    /// # Panics
    ///
    /// Panics if `rows` runs past the end of the dataset.
    pub fn batch(&self, rows: Range<usize>) -> Minibatch<'_> {
        Minibatch::new(
            &self.features[rows.start * self.dims..rows.end * self.dims],
            self.dims,
            &self.labels[rows],
        )
    }

    /// A borrowed view of every sample.
    pub(crate) fn as_batch(&self) -> Minibatch<'_> {
        self.batch(0..self.len())
    }

    /// Splits off the last `fraction` of samples as a test set (the data
    /// is class-interleaved, so this preserves class balance).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < fraction < 1`.
    pub fn train_test_split(self, fraction: f64) -> (SyntheticDataset, SyntheticDataset) {
        assert!(
            (0.0..1.0).contains(&fraction) && fraction > 0.0,
            "fraction must be in (0, 1)"
        );
        let cut = ((1.0 - fraction) * self.len() as f64).round() as usize;
        let (mut features, mut labels) = (self.features, self.labels);
        let test = SyntheticDataset {
            features: features.split_off(cut * self.dims),
            labels: labels.split_off(cut),
            dims: self.dims,
            classes: self.classes,
        };
        // `split_off` leaves the head at its old capacity.
        features.shrink_to_fit();
        labels.shrink_to_fit();
        let train = SyntheticDataset {
            features,
            labels,
            dims: self.dims,
            classes: self.classes,
        };
        (train, test)
    }

    /// Copies the `count` samples `rows` yields, in order, into a new
    /// dataset with exact-length buffers.
    fn gather(&self, count: usize, rows: impl Iterator<Item = usize>) -> SyntheticDataset {
        let mut features = Vec::with_capacity(count * self.dims);
        let mut labels = Vec::with_capacity(count);
        for i in rows {
            features.extend_from_slice(self.row(i));
            labels.push(self.labels[i]);
        }
        debug_assert_eq!(labels.len(), count);
        SyntheticDataset {
            features,
            labels,
            dims: self.dims,
            classes: self.classes,
        }
    }
}

/// A federated partition of a dataset across clients, with Dirichlet
/// label skew (the standard non-IID benchmark: lower `alpha` → each client
/// sees fewer classes).
#[derive(Debug, Clone, PartialEq)]
pub struct FederatedData {
    shards: Vec<SyntheticDataset>,
}

impl FederatedData {
    /// Partitions `data` across `clients` with Dirichlet(`alpha`) class
    /// proportions per client. Each shard holds its classes in class
    /// order, each class's samples in dataset order.
    ///
    /// # Panics
    ///
    /// Panics if `clients == 0` or `alpha <= 0`.
    pub fn dirichlet_split(data: &SyntheticDataset, clients: usize, alpha: f64, seed: u64) -> Self {
        assert!(clients > 0, "need at least one client");
        assert!(alpha > 0.0, "alpha must be positive");
        let classes = data.classes();
        let mut rng = StdRng::seed_from_u64(seed);

        // Indices per class, each list allocated at its exact length.
        let mut counts = vec![0usize; classes];
        for &y in data.labels() {
            counts[y] += 1;
        }
        let mut per_class: Vec<Vec<usize>> =
            counts.iter().map(|&n| Vec::with_capacity(n)).collect();
        for (i, &y) in data.labels().iter().enumerate() {
            per_class[y].push(i);
        }

        // Client `c`'s share of class `k` is `per_class[k][takes[c * classes + k]]`.
        let mut takes = vec![0..0; clients * classes];
        let mut weights = Vec::with_capacity(clients);
        for (k, class_indices) in per_class.iter().enumerate() {
            // Dirichlet proportions via normalized Gamma(alpha, 1) draws.
            weights.clear();
            weights.extend((0..clients).map(|_| gamma(alpha, &mut rng)));
            let total: f64 = weights.iter().sum();
            let mut cursor = 0usize;
            for (c, w) in weights.iter().enumerate() {
                let take = if c + 1 == clients {
                    class_indices.len() - cursor
                } else {
                    ((w / total) * class_indices.len() as f64).floor() as usize
                };
                takes[c * classes + k] = cursor..cursor + take;
                cursor += take;
            }
        }

        let shards = takes
            .chunks_exact(classes)
            .map(|ranges| {
                let count = ranges.iter().map(|r| r.len()).sum();
                let rows = ranges
                    .iter()
                    .zip(&per_class)
                    .flat_map(|(r, idx)| idx[r.clone()].iter().copied());
                data.gather(count, rows)
            })
            .collect();
        FederatedData { shards }
    }

    /// Number of client shards.
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// `true` if there are no shards.
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    /// Iterates over shards in client order.
    pub fn iter(&self) -> impl Iterator<Item = &SyntheticDataset> + '_ {
        self.shards.iter()
    }

    /// The shards in client order, moved out without a copy.
    pub(crate) fn into_shards(self) -> Vec<SyntheticDataset> {
        self.shards
    }
}

fn gaussian(rng: &mut StdRng) -> f64 {
    loop {
        let u1: f64 = rng.gen::<f64>();
        let u2: f64 = rng.gen::<f64>();
        if u1 > f64::MIN_POSITIVE {
            return (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        }
    }
}

/// Marsaglia–Tsang Gamma(shape, 1) sampler (with the shape<1 boost).
fn gamma(shape: f64, rng: &mut StdRng) -> f64 {
    if shape < 1.0 {
        let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
        return gamma(shape + 1.0, rng) * u.powf(1.0 / shape);
    }
    let d = shape - 1.0 / 3.0;
    let c = 1.0 / (9.0 * d).sqrt();
    loop {
        let x = gaussian(rng);
        let v = (1.0 + c * x).powi(3);
        if v <= 0.0 {
            continue;
        }
        let u: f64 = rng.gen();
        if u < 1.0 - 0.0331 * x.powi(4)
            || u.max(f64::MIN_POSITIVE).ln() < 0.5 * x * x + d * (1.0 - v + v.ln())
        {
            return d * v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blobs_are_balanced_and_separable() {
        let d = SyntheticDataset::gaussian_blobs(300, 4, 3, 0.3, 1);
        assert_eq!(d.len(), 300);
        assert_eq!(d.classes(), 3);
        // Balanced classes.
        for c in 0..3 {
            let n = d.labels().iter().filter(|&&y| y == c).count();
            assert_eq!(n, 100);
        }
        // Distinct class means (separability proxy): centers differ.
        let mean = |c: usize| -> Vec<f64> {
            let rows: Vec<&[f64]> = (0..d.len())
                .filter(|&i| d.labels()[i] == c)
                .map(|i| d.row(i))
                .collect();
            (0..4)
                .map(|j| rows.iter().map(|r| r[j]).sum::<f64>() / rows.len() as f64)
                .collect()
        };
        let (m0, m1) = (mean(0), mean(1));
        let dist: f64 = m0
            .iter()
            .zip(&m1)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt();
        assert!(dist > 1.0, "class centers too close: {dist}");
    }

    #[test]
    fn split_preserves_everything() {
        let d = SyntheticDataset::gaussian_blobs(200, 3, 2, 0.2, 2);
        let (train, test) = d.train_test_split(0.25);
        assert_eq!(train.len() + test.len(), 200);
        assert_eq!(test.len(), 50);
        assert_eq!(train.classes(), 2);
    }

    #[test]
    fn dirichlet_partition_covers_all_samples() {
        let d = SyntheticDataset::gaussian_blobs(400, 3, 4, 0.2, 3);
        let fed = FederatedData::dirichlet_split(&d, 8, 0.5, 4);
        assert_eq!(fed.len(), 8);
        let total: usize = fed.iter().map(|s| s.len()).sum();
        assert_eq!(total, 400);
    }

    #[test]
    fn low_alpha_is_skewed_high_alpha_is_uniform() {
        let d = SyntheticDataset::gaussian_blobs(2000, 3, 4, 0.2, 5);
        let skew = |alpha: f64| -> f64 {
            let fed = FederatedData::dirichlet_split(&d, 5, alpha, 6);
            // Mean over clients of the max class share on that client.
            fed.iter()
                .filter(|s| !s.is_empty())
                .map(|s| {
                    let mut counts = vec![0usize; s.classes()];
                    for &y in s.labels() {
                        counts[y] += 1;
                    }
                    *counts.iter().max().unwrap() as f64 / s.len() as f64
                })
                .sum::<f64>()
                / 5.0
        };
        let skewed = skew(0.1);
        let uniform = skew(100.0);
        assert!(
            skewed > uniform + 0.1,
            "alpha=0.1 should be more skewed: {skewed} vs {uniform}"
        );
    }

    #[test]
    fn gamma_sampler_mean_is_shape() {
        let mut rng = StdRng::seed_from_u64(9);
        for shape in [0.5, 1.0, 3.0] {
            let n = 20_000;
            let mean: f64 = (0..n).map(|_| gamma(shape, &mut rng)).sum::<f64>() / n as f64;
            assert!(
                (mean - shape).abs() < 0.1 * shape.max(1.0),
                "gamma({shape}) mean {mean}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "alpha must be positive")]
    fn dirichlet_rejects_bad_alpha() {
        let d = SyntheticDataset::gaussian_blobs(10, 2, 2, 0.1, 0);
        let _ = FederatedData::dirichlet_split(&d, 2, 0.0, 0);
    }
}
