//! Property-based tests for the linear-algebra kernels.

use bofl_linalg::{dot, solve_lower, Cholesky, LinalgError, Matrix, OnlineStats, Standardizer};
use proptest::prelude::*;

/// Textbook reference implementations the library kernels are checked
/// against, plus the test-only products the fixtures need. These
/// deliberately use the naive orders (sequential dot, `i,j,k` triple loop,
/// row-major scalar Cholesky) so any unrolling bug in the library shows
/// up as a numeric divergence.
mod naive {
    use bofl_linalg::Matrix;
    use proptest::prelude::*;

    /// Generates a random SPD matrix as `B Bᵀ + n·I/2` for a random `B`.
    pub fn spd_matrix(n: usize) -> impl Strategy<Value = Matrix> {
        proptest::collection::vec(-3.0f64..3.0, n * n).prop_map(move |vals| {
            let mut a = gram(&square(n, &vals));
            a.add_diagonal(n as f64 * 0.5);
            a
        })
    }

    /// The `n×n` matrix whose rows are consecutive runs of `vals`.
    pub fn square(n: usize, vals: &[f64]) -> Matrix {
        Matrix::from_fn(n, n, |i, j| vals[i * n + j])
    }

    pub fn transpose(a: &Matrix) -> Matrix {
        Matrix::from_fn(a.cols(), a.rows(), |i, j| a[(j, i)])
    }

    /// `B Bᵀ` by the `i,j,k` triple loop.
    pub fn gram(b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(b.rows(), b.rows());
        for i in 0..b.rows() {
            for j in 0..b.rows() {
                let mut s = 0.0;
                for k in 0..b.cols() {
                    s += b[(i, k)] * b[(j, k)];
                }
                out[(i, j)] = s;
            }
        }
        out
    }

    pub fn max_abs(a: &Matrix) -> f64 {
        a.as_slice().iter().fold(0.0, |m, v| m.max(v.abs()))
    }

    pub fn matvec(a: &Matrix, v: &[f64]) -> Vec<f64> {
        (0..a.rows())
            .map(|i| (0..a.cols()).map(|k| a[(i, k)] * v[k]).sum())
            .collect()
    }

    pub fn cholesky(a: &Matrix) -> Matrix {
        let n = a.rows();
        let mut l = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let mut s = a[(i, j)];
                for k in 0..j {
                    s -= l[(i, k)] * l[(j, k)];
                }
                if i == j {
                    l[(i, i)] = s.sqrt();
                } else {
                    l[(i, j)] = s / l[(j, j)];
                }
            }
        }
        l
    }
}

/// The row-by-row walk the library's column-order factorization must
/// reproduce bit for bit: each entry is one [`dot`] (the library's own
/// fixed-order kernel) over the same prefix, visited row by row, with
/// the library's jitter schedule (`0`, then `1e-10 … 1e-3 × mean |diag|`)
/// and the last attempt's error.
mod row_order {
    use bofl_linalg::{dot, LinalgError, Matrix};

    fn attempt(a: &Matrix, jitter: f64) -> Result<Matrix, LinalgError> {
        let n = a.rows();
        let mut l = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let prefix = dot(&l.row(i)[..j], &l.row(j)[..j]);
                if i == j {
                    let sum = a[(i, i)] + jitter - prefix;
                    if sum <= 0.0 || !sum.is_finite() {
                        return Err(LinalgError::NotPositiveDefinite { pivot: i, jitter });
                    }
                    l[(i, i)] = sum.sqrt();
                } else {
                    l[(i, j)] = (a[(i, j)] - prefix) / l[(j, j)];
                }
            }
        }
        Ok(l)
    }

    pub fn factor(a: &Matrix) -> Result<(Matrix, f64), LinalgError> {
        let n = a.rows();
        let mean_diag = (0..n).map(|i| a[(i, i)].abs()).sum::<f64>() / n as f64;
        let scale = if mean_diag > 0.0 { mean_diag } else { 1.0 };
        let mut jitter = 0.0;
        let mut last = None;
        for step in 0..=8 {
            match attempt(a, jitter) {
                Ok(l) => return Ok((l, jitter)),
                Err(e) => last = Some(e),
            }
            jitter = 1e-10 * scale * 10f64.powi(step);
        }
        Err(last.expect("at least one attempt"))
    }

    /// `Lᵀ x = y` by back-substitution over an explicit transposed copy,
    /// one [`dot`] per row.
    pub fn back_substitute(l: &Matrix, y: &[f64]) -> Vec<f64> {
        let u = super::naive::transpose(l);
        let n = y.len();
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            x[i] = (y[i] - dot(&u.row(i)[i + 1..], &x[i + 1..])) / u[(i, i)];
        }
        x
    }
}

/// Test matrices for the bit-identity checks, `n×n` from one seed:
/// `0` a comfortably SPD `B Bᵀ + n·I`; `1` a singular Gram matrix of
/// clustered, pairwise repeated points under a wide squared-exponential
/// kernel, which needs jitter from `n = 2` on; `2` an indefinite
/// `B Bᵀ − c·I` that fails at some pivot, or is rescued by jitter when
/// `c` is tiny; `3` an SPD matrix with one negative diagonal entry,
/// which no jitter rescues.
fn test_matrix(kind: u8, n: usize, seed: u64) -> Matrix {
    let vals = fill(seed, n * n + 1);
    match kind {
        0 => {
            let mut a = naive::gram(&naive::square(n, &vals));
            a.add_diagonal(n as f64);
            a
        }
        1 => {
            // Points come in equal pairs: repeated rows, so it is singular.
            let x: Vec<f64> = (0..n).map(|i| 0.5 + 1e-3 * vals[i / 2]).collect();
            Matrix::from_fn(n, n, |i, j| (-(x[i] - x[j]).powi(2) / 50.0).exp())
        }
        2 => {
            let mut a = naive::gram(&naive::square(n, &vals));
            a.add_diagonal(-(10f64.powf(4.0 * vals[n] - 6.0)));
            a
        }
        _ => {
            let mut a = naive::gram(&naive::square(n, &vals));
            a.add_diagonal(n as f64);
            let k = (seed as usize) % n;
            a[(k, k)] = -1.0 - vals[n].abs();
            a
        }
    }
}

/// The fixtures reach the paths the bit-identity tests are about: the
/// singular Gram needs jitter, the negative diagonal fails at its
/// own index even at the largest jitter, and the indefinite kind both
/// fails and is rescued.
#[test]
fn bit_identity_fixtures_reach_jitter_and_failing_pivots() {
    let mut indefinite = (0, 0);
    for seed in 0..40u64 {
        for n in [3usize, 9, 17] {
            assert!(Cholesky::factor(&test_matrix(1, n, seed)).unwrap().jitter() > 0.0);
            match Cholesky::factor(&test_matrix(3, n, seed)) {
                Err(LinalgError::NotPositiveDefinite { pivot, .. }) => {
                    assert_eq!(pivot, seed as usize % n)
                }
                other => panic!("negative diagonal factored: {other:?}"),
            }
            match Cholesky::factor(&test_matrix(2, n, seed)) {
                Ok(_) => indefinite.0 += 1,
                Err(_) => indefinite.1 += 1,
            }
        }
    }
    assert!(indefinite.0 > 0 && indefinite.1 > 0, "{indefinite:?}");
}

/// Deterministic pseudo-random fill (SplitMix64 → [-1, 1]) so the
/// fixed-size tests below can use sizes proptest would be too slow for.
fn fill(seed: u64, len: usize) -> Vec<f64> {
    let mut state = seed;
    (0..len)
        .map(|_| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            (z >> 11) as f64 / (1u64 << 52) as f64 - 1.0
        })
        .collect()
}

/// The Cholesky factorization agrees with the scalar textbook one to
/// 1e-12 at sizes up to 100.
#[test]
fn blocked_cholesky_matches_naive_across_panel_boundaries() {
    for &n in &[1usize, 7, 48, 49, 100] {
        let mut a = naive::gram(&naive::square(n, &fill(3, n * n)));
        a.add_diagonal(n as f64); // comfortably SPD → zero jitter
        let chol = Cholesky::factor(&a).unwrap();
        assert_eq!(chol.jitter(), 0.0);
        let slow = naive::cholesky(&a);
        for i in 0..n {
            for j in 0..=i {
                let d = (chol.l()[(i, j)] - slow[(i, j)]).abs();
                assert!(
                    d <= 1e-12 * (1.0 + slow[(i, j)].abs()),
                    "n={n} L[{i},{j}]: {} vs {}",
                    chol.l()[(i, j)],
                    slow[(i, j)]
                );
            }
        }
    }
}

proptest! {
    #[test]
    fn cholesky_reconstructs(a in (1usize..8).prop_flat_map(naive::spd_matrix)) {
        let chol = Cholesky::factor(&a).expect("SPD by construction");
        let r = chol.reconstruct();
        let tol = 1e-8 * (1.0 + naive::max_abs(&a));
        for i in 0..a.rows() {
            for j in 0..a.cols() {
                prop_assert!((a[(i, j)] - r[(i, j)]).abs() <= tol + chol.jitter() * 2.0);
            }
        }
    }

    /// The column-order factorization is the row-by-row walk bit for bit:
    /// every entry of `L` and the jitter it settled on, or the same
    /// `NotPositiveDefinite { pivot, jitter }` when no jitter rescues it.
    /// Sizes cross the dot kernel's 4-lane blocks and tails.
    #[test]
    fn column_order_factor_matches_row_order_bitwise(
        kind in 0u8..4,
        n in 1usize..20,
        seed in 0u64..1_000_000,
    ) {
        let a = test_matrix(kind, n, seed);
        match (Cholesky::factor(&a), row_order::factor(&a)) {
            (Ok(chol), Ok((l, jitter))) => {
                prop_assert_eq!(chol.jitter().to_bits(), jitter.to_bits());
                let got: Vec<u64> = chol.l().as_slice().iter().map(|v| v.to_bits()).collect();
                let want: Vec<u64> = l.as_slice().iter().map(|v| v.to_bits()).collect();
                prop_assert_eq!(got, want);
            }
            (
                Err(LinalgError::NotPositiveDefinite { pivot, jitter }),
                Err(LinalgError::NotPositiveDefinite { pivot: p, jitter: j }),
            ) => {
                prop_assert_eq!(pivot, p);
                prop_assert_eq!(jitter.to_bits(), j.to_bits());
            }
            (got, want) => prop_assert!(false, "{:?} vs {:?}", got.map(|_| ()), want.map(|_| ())),
        }
    }

    /// `Cholesky::solve` reads `Lᵀ` in place and still returns the bits
    /// of `solve_lower` followed by a back-substitution over an explicit
    /// transposed copy.
    #[test]
    fn solve_matches_transposed_back_substitution_bitwise(
        kind in 0u8..3,
        n in 1usize..20,
        seed in 0u64..1_000_000,
    ) {
        let a = test_matrix(kind, n, seed);
        let Ok(chol) = Cholesky::factor(&a) else {
            return Ok(());
        };
        let b = fill(seed ^ 0x5EED, n);
        let x = chol.solve(&b).unwrap();
        let y = solve_lower(chol.l(), &b).unwrap();
        let want = row_order::back_substitute(chol.l(), &y);
        prop_assert_eq!(
            x.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            want.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn cholesky_solve_is_inverse(
        a in (2usize..7).prop_flat_map(naive::spd_matrix),
        seed in 0u64..1000,
    ) {
        let n = a.rows();
        let x_true: Vec<f64> = (0..n).map(|i| ((seed as f64) * 0.37 + i as f64) % 5.0 - 2.0).collect();
        let b = naive::matvec(&a, &x_true);
        let x = Cholesky::factor(&a).unwrap().solve(&b).unwrap();
        let resid = naive::matvec(&a, &x);
        for (r, bi) in resid.iter().zip(&b) {
            prop_assert!((r - bi).abs() < 1e-6 * (1.0 + bi.abs()));
        }
    }

    /// The bordered-update `extend` agrees with a from-scratch `factor` of
    /// the bordered matrix (the incremental surrogate path's correctness
    /// anchor).
    #[test]
    fn cholesky_extend_matches_bordered_factor(
        a in (1usize..7).prop_flat_map(naive::spd_matrix),
        border in proptest::collection::vec(-2.0f64..2.0, 7),
    ) {
        let n = a.rows();
        // Border the SPD matrix with a row scaled small enough (relative
        // to the 0.5·n diagonal boost) to keep the result comfortably SPD.
        let row: Vec<f64> = border[..n].iter().map(|v| v * 0.3).collect();
        let diag = n as f64 * 0.5 + 4.0 + border[n].abs();
        let mut full = Matrix::zeros(n + 1, n + 1);
        for i in 0..n {
            for j in 0..n {
                full[(i, j)] = a[(i, j)];
            }
            full[(n, i)] = row[i];
            full[(i, n)] = row[i];
        }
        full[(n, n)] = diag;

        let ext = Cholesky::factor(&a).unwrap().extend(&row, diag).unwrap();
        let direct = Cholesky::factor(&full).unwrap();
        prop_assume!(direct.jitter() == 0.0 && ext.jitter() == 0.0);
        let tol = 1e-9 * (1.0 + naive::max_abs(&full));
        for i in 0..=n {
            for j in 0..=n {
                prop_assert!(
                    (ext.l()[(i, j)] - direct.l()[(i, j)]).abs() <= tol,
                    "L[{},{}]: {} vs {}", i, j, ext.l()[(i, j)], direct.l()[(i, j)]
                );
            }
        }
        prop_assert!((ext.log_det() - direct.log_det()).abs() <= 1e-9 * (1.0 + direct.log_det().abs()));
    }

    /// Resuming the half-solve at any row `j` from the full solve's prefix
    /// reproduces the full solve bit for bit, and so does resuming on an
    /// `extend`ed factor from the prefix solved against the smaller one
    /// (the fantasy-scan cache's contract). Sizes cross the dot kernel's
    /// 4-lane blocks and tails.
    #[test]
    fn solve_half_from_matches_solve_half(
        a in (1usize..14).prop_flat_map(naive::spd_matrix),
        b in proptest::collection::vec(-3.0f64..3.0, 14),
        border in proptest::collection::vec(-2.0f64..2.0, 15),
    ) {
        let n = a.rows();
        let chol = Cholesky::factor(&a).unwrap();
        let b = &b[..n];
        let full = chol.solve_half(b).unwrap();
        for j in 0..=n {
            let mut out = vec![f64::NAN; n];
            out[..j].copy_from_slice(&full[..j]);
            chol.solve_half_from(b, &mut out, j).unwrap();
            let same = out.iter().zip(&full).all(|(x, y)| x.to_bits() == y.to_bits());
            prop_assert!(same, "resumed at row {}: {:?} vs {:?}", j, out, full);
        }
        let mut short = vec![0.0; n];
        prop_assert!(chol.solve_half_from(b, &mut short, n + 1).is_err());

        let row: Vec<f64> = border[..n].iter().map(|v| v * 0.3).collect();
        let ext = chol.extend(&row, n as f64 * 0.5 + 4.0 + border[n].abs()).unwrap();
        let mut b_ext = b.to_vec();
        b_ext.push(border[n]);
        let direct = ext.solve_half(&b_ext).unwrap();
        let mut resumed = full.clone();
        resumed.push(f64::NAN);
        ext.solve_half_from(&b_ext, &mut resumed, n).unwrap();
        prop_assert_eq!(
            resumed.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            direct.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn triangular_solve_residual(
        diag in proptest::collection::vec(0.5f64..4.0, 2..6),
        seed in 0u64..100,
    ) {
        let n = diag.len();
        let mut l = Matrix::zeros(n, n);
        for i in 0..n {
            l[(i, i)] = diag[i];
            for j in 0..i {
                l[(i, j)] = ((seed + (i * 7 + j) as u64) % 5) as f64 - 2.0;
            }
        }
        let b: Vec<f64> = (0..n).map(|i| i as f64 - 1.0).collect();
        let x = solve_lower(&l, &b).unwrap();
        let r = naive::matvec(&l, &x);
        for (ri, bi) in r.iter().zip(&b) {
            prop_assert!((ri - bi).abs() < 1e-9);
        }
    }

    #[test]
    fn dot_cauchy_schwarz(
        a in proptest::collection::vec(-10.0f64..10.0, 1..20),
        b_seed in 0u64..50,
    ) {
        let b: Vec<f64> = a.iter().enumerate()
            .map(|(i, _)| ((b_seed + i as u64) % 7) as f64 - 3.0)
            .collect();
        let lhs = dot(&a, &b).abs();
        let rhs = dot(&a, &a).sqrt() * dot(&b, &b).sqrt();
        prop_assert!(lhs <= rhs * (1.0 + 1e-9) + 1e-12);
    }

    #[test]
    fn welford_mean_within_bounds(xs in proptest::collection::vec(-1e6f64..1e6, 1..100)) {
        let mut s = OnlineStats::new();
        for &x in &xs {
            s.push(x);
        }
        prop_assert!(s.mean() >= s.min() - 1e-9);
        prop_assert!(s.mean() <= s.max() + 1e-9);
        prop_assert!(s.sample_variance() >= 0.0);
    }

    #[test]
    fn standardizer_roundtrips(xs in proptest::collection::vec(-1e3f64..1e3, 2..50), probe in -1e3f64..1e3) {
        let s = Standardizer::fit(&xs).unwrap();
        prop_assert!((s.invert(s.apply(probe)) - probe).abs() < 1e-6);
        prop_assert!(s.scale() > 0.0);
    }
}
