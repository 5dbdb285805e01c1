//! Property-based tests for the linear-algebra kernels.

use bofl_linalg::{dot, norm2, solve_lower, Cholesky, Matrix, OnlineStats, Standardizer};
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
            let b = Matrix::from_vec(n, n, vals).expect("length checked by strategy");
            let mut a = matmul(&b, &b.transpose());
            a.add_diagonal(n as f64 * 0.5);
            a
        })
    }

    pub fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut s = 0.0;
                for k in 0..a.cols() {
                    s += a[(i, k)] * b[(k, j)];
                }
                out[(i, j)] = s;
            }
        }
        out
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
        let b = Matrix::from_vec(n, n, fill(3, n * n)).unwrap();
        let mut a = naive::matmul(&b, &b.transpose());
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

/// Transpose is an exact permutation (bitwise) and an involution, square
/// and rectangular.
#[test]
fn tiled_transpose_is_exact_across_tile_boundaries() {
    for &(m, n) in &[(1, 1), (5, 3), (32, 33), (70, 31)] {
        let a = Matrix::from_vec(m, n, fill(4, m * n)).unwrap();
        let t = a.transpose();
        assert_eq!(t.rows(), n);
        assert_eq!(t.cols(), m);
        for i in 0..m {
            for j in 0..n {
                assert_eq!(a[(i, j)].to_bits(), t[(j, i)].to_bits());
            }
        }
        let back = t.transpose();
        for i in 0..m {
            for j in 0..n {
                assert_eq!(a[(i, j)].to_bits(), back[(i, j)].to_bits());
            }
        }
    }
}

proptest! {
    #[test]
    fn cholesky_reconstructs(a in (1usize..8).prop_flat_map(naive::spd_matrix)) {
        let chol = Cholesky::factor(&a).expect("SPD by construction");
        let r = chol.reconstruct();
        let tol = 1e-8 * (1.0 + a.max_abs());
        for i in 0..a.rows() {
            for j in 0..a.cols() {
                prop_assert!((a[(i, j)] - r[(i, j)]).abs() <= tol + chol.jitter() * 2.0);
            }
        }
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
        let tol = 1e-9 * (1.0 + full.max_abs());
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
    fn solve_half_from_matches_solve_half_into(
        a in (1usize..14).prop_flat_map(naive::spd_matrix),
        b in proptest::collection::vec(-3.0f64..3.0, 14),
        border in proptest::collection::vec(-2.0f64..2.0, 15),
    ) {
        let n = a.rows();
        let chol = Cholesky::factor(&a).unwrap();
        let b = &b[..n];
        let mut full = vec![0.0; n];
        chol.solve_half_into(b, &mut full).unwrap();
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
        let mut direct = vec![0.0; n + 1];
        ext.solve_half_into(&b_ext, &mut direct).unwrap();
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
        let rhs = norm2(&a) * norm2(&b);
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
