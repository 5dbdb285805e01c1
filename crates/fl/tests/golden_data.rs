//! Golden pin on the synthetic data layer: an FNV-1a hash over every
//! feature bit and label that `gaussian_blobs`, `train_test_split` and
//! `dirichlet_split` produce at fixed seeds.
//!
//! The expected values were recorded when each sample was stored as its
//! own row `Vec`. Any change to the generator's draw order, the split
//! point or the shard gather moves them.

use bofl_fl::{FederatedData, SyntheticDataset};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(hash: &mut u64, word: u64) {
    for byte in word.to_le_bytes() {
        *hash ^= u64::from(byte);
        *hash = hash.wrapping_mul(FNV_PRIME);
    }
}

/// Folds one dataset into `hash`: its length, class count, every
/// feature bit in sample order, then every label.
fn fold(hash: &mut u64, data: &SyntheticDataset) {
    fnv(hash, data.len() as u64);
    fnv(hash, data.classes() as u64);
    for x in data.features() {
        fnv(hash, x.to_bits());
    }
    for &y in data.labels() {
        fnv(hash, y as u64);
    }
}

/// Hash of the whole pipeline: train set, test set, then every shard in
/// client order.
fn pipeline_hash(
    samples: usize,
    dims: usize,
    classes: usize,
    clients: usize,
    alpha: f64,
    seed: u64,
) -> u64 {
    let all = SyntheticDataset::gaussian_blobs(samples, dims, classes, 0.5, seed);
    let (train, test) = all.train_test_split(0.2);
    let fed = FederatedData::dirichlet_split(&train, clients, alpha, seed ^ 1);
    let mut hash = FNV_OFFSET;
    fold(&mut hash, &train);
    fold(&mut hash, &test);
    fnv(&mut hash, fed.len() as u64);
    for shard in fed.iter() {
        fold(&mut hash, shard);
    }
    hash
}

#[test]
fn skewed_pipeline_is_pinned() {
    // α < 1 takes the Gamma sampler's shape-boost path.
    assert_eq!(
        pipeline_hash(2_000, 8, 4, 16, 0.5, 42),
        0xbbec_9d77_8f86_0720
    );
}

#[test]
fn near_uniform_pipeline_is_pinned() {
    assert_eq!(
        pipeline_hash(1_500, 5, 3, 7, 10.0, 7),
        0x4c60_a926_c18e_d934
    );
}
