//! Golden pins on the GP fit: an exact hash of the fitted kernel
//! variance, lengthscales and noise, and of the posterior mean and
//! variance bits at fixed queries, for three fits on one 3-D dataset —
//! a full multi-start fit, a warm-started one-restart refit on grown
//! data, and a `condition_on` fantasy of the full fit. A change to the
//! likelihood, the Nelder–Mead search or the posterior algebra that moves
//! any bit fails here. The values were recorded while the GP still held
//! its kernel behind a trait object with an optional fixed noise, and
//! pass unedited with the concrete `Matern52` and always-fitted noise.

use bofl_gp::{GaussianProcess, GpConfig, WarmStart};

/// `n` points of the unit cube from a fixed LCG walk, with a smooth
/// response plus a small deterministic wobble.
fn dataset(n: usize, mut state: u64) -> (Vec<Vec<f64>>, Vec<f64>) {
    let mut next = || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let xs: Vec<Vec<f64>> = (0..n).map(|_| vec![next(), next(), next()]).collect();
    let ys = xs
        .iter()
        .map(|x| {
            (4.0 * x[0]).sin()
                + 0.5 * (x[1] - 0.3).powi(2)
                + 0.2 * x[2]
                + 0.01 * (40.0 * x[1]).cos()
        })
        .collect();
    (xs, ys)
}

/// FNV-1a over the fitted hyperparameters and the posterior at `queries`.
fn fit_hash(gp: &GaussianProcess, queries: &[Vec<f64>]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut feed = |v: f64| {
        for b in v.to_bits().to_le_bytes() {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x1000_0000_01b3);
        }
    };
    feed(gp.kernel().variance());
    gp.kernel().lengthscales().iter().for_each(|&l| feed(l));
    feed(gp.noise_variance());
    for p in gp.predict_batch(queries).unwrap() {
        feed(p.mean);
        feed(p.variance);
    }
    hash
}

#[test]
fn full_warm_and_fantasy_fits_match_the_pinned_hashes() {
    let (xs, ys) = dataset(24, 0x9e37_79b9_7f4a_7c15);
    let (queries, _) = dataset(16, 7);
    let full = GaussianProcess::fit(&xs, &ys, GpConfig::default()).unwrap();

    let (more_xs, more_ys) = dataset(6, 11);
    let grown_xs = [xs.clone(), more_xs].concat();
    let grown_ys = [ys.clone(), more_ys].concat();
    let warm = GaussianProcess::fit(
        &grown_xs,
        &grown_ys,
        GpConfig {
            restarts: 1,
            warm_start: Some(WarmStart {
                variance: full.kernel().variance(),
                lengthscales: full.kernel().lengthscales().to_vec(),
                noise: full.noise_variance(),
            }),
            ..GpConfig::default()
        },
    )
    .unwrap();

    let fantasy = full.condition_on(&[0.4, 0.6, 0.2], 0.75).unwrap();

    assert_eq!(
        [
            fit_hash(&full, &queries),
            fit_hash(&warm, &queries),
            fit_hash(&fantasy, &queries),
        ],
        [
            0x4020_4bfb_9ab3_603d,
            0x5ff1_e30e_1bf9_eb3c,
            0xe83c_9d76_3fbd_18ef,
        ]
    );
}
