//! Golden pins on batch selection: an exact hash of the index batches a
//! seeded sequence of `suggest` calls returns. The value was recorded
//! with the earlier from-scratch candidate scan (every slot re-predicting
//! every candidate, the two surrogates fitted one after the other), so a
//! speed-up that changes even one pick fails here loudly.
//!
//! The candidate set is a 13³ grid (2197 points, well past the parallel
//! scan threshold). Observations grow from 8 to 78 in batches of 10, and
//! `refit_every = 24` makes the fits alternate between warm and full
//! multi-start refits, so both halves of the refit schedule are pinned.

use bofl_mobo::{MoboConfig, MoboEngine, Observation};

const K: usize = 10;
const SIDE: usize = 13;

fn grid() -> Vec<Vec<f64>> {
    let step = (SIDE - 1) as f64;
    let mut out = Vec::with_capacity(SIDE * SIDE * SIDE);
    for i in 0..SIDE {
        for j in 0..SIDE {
            for l in 0..SIDE {
                out.push(vec![i as f64 / step, j as f64 / step, l as f64 / step]);
            }
        }
    }
    out
}

/// Two conflicting smooth objectives over the unit cube.
fn objectives(x: &[f64]) -> [f64; 2] {
    let e = 1.0 + (x[0] - 0.2).powi(2) + 0.5 * (x[1] - 0.7).powi(2) + 0.1 * (5.0 * x[2]).sin();
    let t = 1.0 + (1.0 - x[0]).powi(2) + 0.3 * x[1] * x[2] + 0.05 * (7.0 * x[1]).cos();
    [e, t]
}

/// FNV-1a over every batch (length, then indices, little-endian) of
/// eight `suggest` calls at `scan_workers = workers`.
fn batch_hash(workers: usize) -> u64 {
    let candidates = grid();
    let mut engine = MoboEngine::new(MoboConfig {
        scan_workers: workers,
        refit_every: 24,
        ..MoboConfig::default()
    });
    // Eight distinct seed points picked by a fixed LCG walk over the grid.
    let mut state = 0x2545_f491_4f6c_dd1du64;
    let mut seeded = Vec::new();
    while seeded.len() < 8 {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let i = (state >> 33) as usize % candidates.len();
        if !seeded.contains(&i) {
            seeded.push(i);
        }
    }
    for &i in &seeded {
        let x = &candidates[i];
        engine
            .observe(Observation::new(x.clone(), objectives(x)))
            .unwrap();
    }

    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut feed = |bytes: [u8; 8]| {
        for b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x1000_0000_01b3);
        }
    };
    for _ in 0..8 {
        let batch = engine.suggest(K, &candidates).unwrap();
        assert_eq!(batch.len(), K);
        feed((batch.len() as u64).to_le_bytes());
        for &i in &batch {
            feed((i as u64).to_le_bytes());
            let x = &candidates[i];
            engine
                .observe(Observation::new(x.clone(), objectives(x)))
                .unwrap();
        }
    }
    assert_eq!(engine.len(), 88);
    hash
}

#[test]
fn suggest_batches_match_the_pinned_hash_at_any_worker_count() {
    for workers in [1usize, 2] {
        assert_eq!(
            batch_hash(workers),
            0xb6b4_1825_004f_9af9,
            "batches at scan_workers={workers}"
        );
    }
}
