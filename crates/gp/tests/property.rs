//! Property-based tests for the GP surrogate.

use bofl_gp::{
    GaussianProcess, GpConfig, Matern52, PairTable, Posterior, PredictCache, SurrogateModel,
    WarmStart,
};
use bofl_linalg::{Cholesky, Matrix};
use proptest::prelude::*;

/// SplitMix64 points in the unit cube, so one proptest seed can size
/// problems the vendored strategies cannot.
fn unit_points(seed: u64, count: usize, dim: usize) -> Vec<Vec<f64>> {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        (z >> 11) as f64 / (1u64 << 53) as f64
    };
    (0..count)
        .map(|_| (0..dim).map(|_| next()).collect())
        .collect()
}

/// Posteriors as raw bits, so `-0.0`/`0.0` or NaN payload differences
/// fail too.
fn bits(ps: &[Posterior]) -> Vec<(u64, u64)> {
    ps.iter()
        .map(|p| (p.mean.to_bits(), p.variance.to_bits()))
        .collect()
}

/// A cheap exact GP (heuristic hyperparameters, no likelihood search).
fn quick_gp(xs: &[Vec<f64>], lengthscale: f64) -> GaussianProcess {
    let ys: Vec<f64> = xs
        .iter()
        .map(|x| {
            x.iter()
                .enumerate()
                .map(|(i, v)| ((i + 2) as f64 * v).sin())
                .sum()
        })
        .collect();
    let config = GpConfig {
        restarts: 0,
        warm_start: Some(WarmStart {
            variance: 1.3,
            lengthscales: vec![lengthscale; xs[0].len()],
            noise: 1e-4,
        }),
        ..GpConfig::default()
    };
    GaussianProcess::fit(xs, &ys, config).unwrap()
}

/// SplitMix64 hyperparameters spanning the likelihood search's bounds:
/// variance in `[1e-8, 1e4]`, lengthscales in `[1e-4, 1e3]`, noise in
/// `[1e-9, 1]`, all log-uniform.
fn hyperparameters(seed: u64, dim: usize) -> (f64, Vec<f64>, f64) {
    let u = unit_points(seed, 1, dim + 2).remove(0);
    let log_uniform = |u: f64, lo: f64, hi: f64| (lo.ln() + u * (hi.ln() - lo.ln())).exp();
    (
        log_uniform(u[0], 1e-8, 1e4),
        u[1..=dim]
            .iter()
            .map(|&v| log_uniform(v, 1e-4, 1e3))
            .collect(),
        log_uniform(u[dim + 1], 1e-9, 1.0),
    )
}

proptest! {
    /// The pair-table Gram fill is `Matern52::eval` bit for bit on every
    /// lower-triangle entry, and `eval(x, x) + noise` on the diagonal,
    /// across fills of one table at several hyperparameters (the
    /// likelihood search's reuse pattern), for 1 to 40 points in 1 to 4
    /// dimensions. Repeated points give zero differences off the
    /// diagonal too.
    #[test]
    fn pair_table_gram_matches_kernel_eval_bitwise(
        n in 1usize..40,
        dim in 1usize..5,
        seed in 0u64..1_000_000,
    ) {
        let mut xs = unit_points(seed, n, dim);
        if n > 2 {
            xs[n - 1] = xs[0].clone();
        }
        let mut pairs = PairTable::new(&xs);
        // Upper-triangle sentinel: the fill must leave it alone.
        let mut gram = Matrix::from_fn(n, n, |_, _| f64::NAN);
        for fill in 0..3 {
            let (variance, ls, noise) = hyperparameters(seed ^ (fill << 40), dim);
            pairs.fill_gram_lower(&mut gram, variance, &ls, noise);
            let k = Matern52::new(variance, &ls);
            for i in 0..n {
                for j in 0..i {
                    let want = k.eval(&xs[i], &xs[j]);
                    prop_assert!(
                        gram[(i, j)].to_bits() == want.to_bits(),
                        "K[{},{}]: {} vs {}", i, j, gram[(i, j)], want
                    );
                    prop_assert!(gram[(j, i)].is_nan());
                }
                let want = k.eval(&xs[i], &xs[i]) + noise;
                prop_assert!(
                    gram[(i, i)].to_bits() == want.to_bits(),
                    "K[{},{}]: {} vs {}", i, i, gram[(i, i)], want
                );
            }
        }
    }

    /// A one-query kernel row is `Matern52::eval(xs[i], x)` bit for bit,
    /// for queries off the points and on one of them.
    #[test]
    fn kernel_row_matches_kernel_eval_bitwise(
        n in 1usize..40,
        dim in 1usize..5,
        seed in 0u64..1_000_000,
    ) {
        let xs = unit_points(seed, n, dim);
        let (variance, ls, _) = hyperparameters(seed, dim);
        let k = Matern52::new(variance, &ls);
        let mut row = vec![f64::NAN; n];
        for x in unit_points(seed ^ 1, 3, dim).iter().chain(&xs[..1]) {
            k.row_into(&xs, x, &mut row);
            for (xi, got) in xs.iter().zip(&row) {
                prop_assert_eq!(got.to_bits(), k.eval(xi, x).to_bits());
            }
        }
    }

    /// The kernel's covariance matrix over distinct points must be
    /// positive semi-definite (verified PD after a tiny diagonal bump).
    #[test]
    fn matern_kernels_are_psd(
        raw in proptest::collection::vec(-5.0f64..5.0, 2..24),
        ls in 0.05f64..3.0,
        var in 0.1f64..10.0,
    ) {
        // Build 2-D points from the raw pool (dedup to avoid exact repeats).
        let mut pts: Vec<Vec<f64>> = raw.chunks(2)
            .filter(|c| c.len() == 2)
            .map(|c| vec![c[0], c[1]])
            .collect();
        pts.dedup_by(|a, b| a == b);
        prop_assume!(pts.len() >= 2);
        let kernel = Matern52::new(var, &[ls, ls]);
        let n = pts.len();
        let mut gram = Matrix::from_fn(n, n, |i, j| kernel.eval(&pts[i], &pts[j]));
        gram.add_diagonal(1e-9);
        prop_assert!(Cholesky::factor(&gram).is_ok(), "kernel gram matrix must be PSD");
    }

    #[test]
    fn posterior_variance_nonnegative_and_bounded(
        ys in proptest::collection::vec(-100.0f64..100.0, 3..12),
        q in 0.0f64..1.0,
    ) {
        let n = ys.len();
        let xs: Vec<Vec<f64>> = (0..n).map(|i| vec![i as f64 / (n - 1) as f64]).collect();
        let gp = GaussianProcess::fit(&xs, &ys, GpConfig {
            restarts: 1,
            max_evaluations: 100,
            ..GpConfig::default()
        }).unwrap();
        let p = gp.predict(&[q]).unwrap();
        prop_assert!(p.variance >= 0.0);
        prop_assert!(p.mean.is_finite());
        // The latent variance never exceeds the prior variance (in
        // original units) by more than numerical slack.
        let prior_var = gp.kernel().variance();
        let y_spread: f64 = {
            let mean = ys.iter().sum::<f64>() / n as f64;
            (ys.iter().map(|y| (y - mean).powi(2)).sum::<f64>() / (n as f64 - 1.0)).max(1.0)
        };
        prop_assert!(p.variance <= prior_var * y_spread * 10.0 + 1e-6);
    }

    /// The incremental `condition_on` (bordered-Cholesky append, O(n²))
    /// must match the pre-change from-scratch posterior — here rebuilt
    /// through the public API: same standardizer (fitted on the original
    /// targets), same fitted kernel and noise, full Gram refactor over
    /// the extended dataset.
    #[test]
    fn incremental_conditioning_matches_from_scratch(
        ys in proptest::collection::vec(-10.0f64..10.0, 5..10),
        fx in 0.05f64..0.95,
        fy in -5.0f64..5.0,
        q in 0.0f64..1.0,
    ) {
        use bofl_linalg::Standardizer;

        let n = ys.len();
        let xs: Vec<Vec<f64>> = (0..n).map(|i| vec![i as f64 / (n - 1) as f64]).collect();
        let gp = GaussianProcess::fit(&xs, &ys, GpConfig {
            restarts: 1,
            max_evaluations: 120,
            ..GpConfig::default()
        }).unwrap();

        // Incremental: extend the fitted posterior by one fantasy point.
        let inc = gp.condition_on(&[fx], fy).unwrap();

        // From scratch: rebuild the extended posterior exactly as the
        // pre-change implementation did — full Gram, full Cholesky.
        let mut xs2 = xs.clone();
        xs2.push(vec![fx]);
        let std = Standardizer::fit(&ys).unwrap();
        let mut ys_std2: Vec<f64> = ys.iter().map(|&y| std.apply(y)).collect();
        ys_std2.push(std.apply(fy));
        let kernel = Matern52::new(gp.kernel().variance(), gp.kernel().lengthscales());
        let mut gram = Matrix::from_fn(n + 1, n + 1, |i, j| kernel.eval(&xs2[i], &xs2[j]));
        gram.add_diagonal(gp.noise_variance());
        let chol = Cholesky::factor(&gram).unwrap();
        let alpha = chol.solve(&ys_std2).unwrap();
        prop_assume!(chol.jitter() == 0.0);

        for probe in [q, fx, 0.0, 1.0] {
            let k_star: Vec<f64> = xs2.iter().map(|xi| kernel.eval(xi, &[probe])).collect();
            let mean_std: f64 = k_star.iter().zip(&alpha).map(|(k, a)| k * a).sum();
            let v = chol.solve_half(&k_star).unwrap();
            let var_std = (kernel.variance() - v.iter().map(|vi| vi * vi).sum::<f64>()).max(0.0);
            let mean = std.invert(mean_std);
            let variance = var_std * std.scale() * std.scale();

            let pi = inc.predict(&[probe]).unwrap();
            let scale = 1.0 + mean.abs() + variance.abs();
            prop_assert!(
                (pi.mean - mean).abs() <= 1e-8 * scale,
                "mean diverged at {}: {} vs {}", probe, pi.mean, mean
            );
            prop_assert!(
                (pi.variance - variance).abs() <= 1e-8 * scale,
                "variance diverged at {}: {} vs {}", probe, pi.variance, variance
            );
        }
    }

    /// The cached fantasy scan equals `predict_batch` (and per-point
    /// `predict`) on the explicitly conditioned model, bit for bit, along chains of 0–12 fantasies,
    /// for n from 1 to 70 (crossing the dot kernel's 4-lane blocks and
    /// tails), in 1 and 3 dimensions, with the queries split into 1, 2, 3
    /// or 7 chunks that each carry their own cache. Every other step also
    /// re-scans the same model, which must reuse the rows unchanged.
    #[test]
    fn cached_scan_matches_predict_batch_along_fantasy_chains(
        seed in 0u64..1_000_000,
        n in 1usize..71,
        three_d in 0usize..2,
        chain in 0usize..13,
        m in 1usize..40,
        ls in 0.1f64..1.5,
    ) {
        let dim = if three_d == 1 { 3 } else { 1 };
        let xs = unit_points(seed, n, dim);
        let queries = unit_points(seed ^ 0xA5A5, m, dim);
        let base = quick_gp(&xs, ls);
        for chunks in [1usize, 2, 3, 7] {
            let size = m.div_ceil(chunks);
            let mut caches: Vec<PredictCache> = (0..chunks).map(|_| PredictCache::default()).collect();
            let mut model = base.clone();
            for step in 0..=chain {
                for _ in 0..1 + step % 2 {
                    for (w, cache) in caches.iter_mut().enumerate() {
                        let part = &queries[(w * size).min(m)..((w + 1) * size).min(m)];
                        let cached = model.predict_batch_cached(part, cache).unwrap();
                        let direct = model.predict_batch(part).unwrap();
                        prop_assert_eq!(bits(&cached), bits(&direct));
                        let scalar: Vec<Posterior> =
                            part.iter().map(|q| model.predict(q).unwrap()).collect();
                        prop_assert_eq!(bits(&direct), bits(&scalar));
                    }
                }
                // Kriging believer on one of the scanned queries.
                let x = &queries[(step * 7 + 3) % m];
                let y = model.predict(x).unwrap().mean;
                model = model.condition_on(x, y).unwrap();
            }
        }
    }

    #[test]
    fn conditioning_never_raises_variance(
        seed_y in -5.0f64..5.0,
        at in 0.0f64..1.0,
    ) {
        let xs: Vec<Vec<f64>> = (0..6).map(|i| vec![i as f64 / 5.0]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| x[0] * 2.0 - 1.0).collect();
        let gp = GaussianProcess::fit(&xs, &ys, GpConfig {
            restarts: 1,
            max_evaluations: 100,
            ..GpConfig::default()
        }).unwrap();
        let before = gp.predict(&[at]).unwrap().variance;
        let gp2 = gp.condition_on(&[at], seed_y).unwrap();
        let after = gp2.predict(&[at]).unwrap().variance;
        prop_assert!(after <= before + 1e-9, "variance rose: {before} -> {after}");
    }
}

#[test]
fn independent_objectives_two_gps() {
    // The paper models T and E with *independent* GPs; verify two GPs on
    // the same inputs do not interfere (sanity for the MBO engine design).
    let xs: Vec<Vec<f64>> = (0..8).map(|i| vec![i as f64 / 7.0]).collect();
    let t: Vec<f64> = xs.iter().map(|x| 1.0 / (0.2 + x[0])).collect();
    let e: Vec<f64> = xs.iter().map(|x| 2.0 + 3.0 * x[0] * x[0]).collect();
    let gp_t = GaussianProcess::fit(&xs, &t, GpConfig::default()).unwrap();
    let gp_e = GaussianProcess::fit(&xs, &e, GpConfig::default()).unwrap();
    let pt = gp_t.predict(&[0.5]).unwrap();
    let pe = gp_e.predict(&[0.5]).unwrap();
    assert!((pt.mean - 1.0 / 0.7).abs() < 0.15);
    assert!((pe.mean - 2.75).abs() < 0.15);
}

/// A cache handed a model outside its fantasy chain rebuilds instead of
/// serving stale rows: a fresh fit of the same data, other
/// hyperparameters, fewer observations, a sibling fantasy, the parent of
/// the model it last served, and other queries all scan exactly like
/// `predict_batch`. Through the `SurrogateModel` seam too.
#[test]
fn predict_cache_never_serves_stale_rows() {
    let xs = unit_points(11, 24, 3);
    let queries = unit_points(12, 50, 3);
    let base = quick_gp(&xs, 0.4);
    let check = |model: &GaussianProcess, queries: &[Vec<f64>], cache: &mut PredictCache| {
        let cached = model.predict_batch_cached(queries, cache).unwrap();
        assert_eq!(bits(&cached), bits(&model.predict_batch(queries).unwrap()));
    };
    let mut cache = PredictCache::default();
    check(&base, &queries, &mut cache);
    let child = base.condition_on(&queries[0], 0.3).unwrap();
    check(&child, &queries, &mut cache);

    // A fresh fit (same data), other hyperparameters, fewer observations.
    check(&quick_gp(&xs, 0.4), &queries, &mut cache);
    check(&quick_gp(&xs, 0.9), &queries, &mut cache);
    // One observation more than the rows, but not their fantasy.
    check(&child, &queries, &mut cache);
    check(&quick_gp(&xs[..20], 0.4), &queries, &mut cache);

    // Siblings: two fantasies of one parent, at the same observation count,
    // then a fantasy of the second handed to rows of the first.
    check(&base, &queries, &mut cache);
    let first = base.condition_on(&queries[1], 0.1).unwrap();
    let second = base.condition_on(&queries[2], -0.4).unwrap();
    check(&first, &queries, &mut cache);
    check(&second, &queries, &mut cache);
    check(&first, &queries, &mut cache);
    check(
        &second.condition_on(&queries[6], 0.2).unwrap(),
        &queries,
        &mut cache,
    );
    // Back up the chain: the parent of the model last served.
    let grandchild = child.condition_on(&queries[3], 0.8).unwrap();
    check(&child, &queries, &mut cache);
    check(&grandchild, &queries, &mut cache);
    check(&child, &queries, &mut cache);
    // Skipping a generation, and a clone (same posterior, same rows).
    check(&base, &queries, &mut cache);
    check(&grandchild, &queries, &mut cache);
    check(&grandchild.clone(), &queries, &mut cache);
    // The same chain over other (and fewer) queries.
    check(&grandchild, &queries[5..40], &mut cache);
    let mut moved = queries.clone();
    moved[7][1] += 1e-9;
    let great = grandchild.condition_on(&queries[4], 0.0).unwrap();
    check(&great, &moved, &mut cache);

    // Past the cache's headroom the cache rebuilds and still agrees.
    let mut model = base.clone();
    let mut seam_cache = PredictCache::default();
    for i in 0..40 {
        let dynamic: &dyn SurrogateModel = &model;
        let cached = dynamic
            .predict_batch_cached(&queries, &mut seam_cache)
            .unwrap();
        assert_eq!(bits(&cached), bits(&model.predict_batch(&queries).unwrap()));
        model = model.condition_on(&queries[i], 0.05 * i as f64).unwrap();
    }
}
