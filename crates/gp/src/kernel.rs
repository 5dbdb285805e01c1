use bofl_linalg::Matrix;

/// The Matérn-5/2 kernel
/// `σ² (1 + √5 r + 5r²/3) exp(−√5 r)` — the paper's prior covariance and
/// the only kernel the GP fits; twice-differentiable, which suits physical
/// response surfaces.
///
/// # Examples
///
/// ```
/// use bofl_gp::Matern52;
///
/// let k = Matern52::new(2.0, &[0.5]);
/// assert_eq!(k.eval(&[0.3], &[0.3]), 2.0);        // k(x,x) = σ²
/// assert!(k.eval(&[0.0], &[1.0]) < 2.0);          // decays with distance
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matern52 {
    variance: f64,
    lengthscales: Vec<f64>,
}

impl Matern52 {
    /// Creates the kernel.
    ///
    /// # Panics
    ///
    /// Panics if `variance <= 0` or any lengthscale is non-positive.
    pub fn new(variance: f64, lengthscales: &[f64]) -> Self {
        assert!(
            variance.is_finite() && variance > 0.0,
            "kernel variance must be positive, got {variance}"
        );
        assert!(
            !lengthscales.is_empty(),
            "at least one lengthscale required"
        );
        assert!(
            lengthscales.iter().all(|l| l.is_finite() && *l > 0.0),
            "lengthscales must be positive"
        );
        Matern52 {
            variance,
            lengthscales: lengthscales.to_vec(),
        }
    }

    /// Covariance between two points.
    ///
    /// # Panics
    ///
    /// Panics if `a` and `b` have different lengths or do not match the
    /// lengthscale dimension.
    pub fn eval(&self, a: &[f64], b: &[f64]) -> f64 {
        assert_eq!(a.len(), b.len(), "kernel: point dimensions differ");
        assert_eq!(
            a.len(),
            self.lengthscales.len(),
            "kernel: lengthscale dimension mismatch"
        );
        covariance(self.variance, scaled_sq_dist(a, b, &self.lengthscales))
    }

    /// One query's kernel row: `out[i] = self.eval(&xs[i], x)`, bit for
    /// bit, with the dimension checks made once for the whole row.
    ///
    /// # Panics
    ///
    /// Panics if `out` and `xs` differ in length, or if `x` or any point
    /// does not match the lengthscale dimension.
    pub fn row_into(&self, xs: &[Vec<f64>], x: &[f64], out: &mut [f64]) {
        let dim = self.lengthscales.len();
        assert_eq!(out.len(), xs.len(), "kernel row: output length differs");
        assert_eq!(x.len(), dim, "kernel: lengthscale dimension mismatch");
        assert!(
            xs.iter().all(|xi| xi.len() == dim),
            "kernel: point dimensions differ"
        );
        for (k, xi) in out.iter_mut().zip(xs) {
            *k = covariance(self.variance, scaled_sq_dist(xi, x, &self.lengthscales));
        }
    }

    /// Prior variance `k(x, x)`.
    pub fn variance(&self) -> f64 {
        self.variance
    }

    /// The ARD lengthscales.
    pub fn lengthscales(&self) -> &[f64] {
        &self.lengthscales
    }
}

/// Squared scaled distance `r² = Σ ((aᵢ − bᵢ)/ℓᵢ)²`, summed left to right.
#[inline]
fn scaled_sq_dist(a: &[f64], b: &[f64], lengthscales: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .zip(lengthscales)
        .map(|((x, y), l)| {
            let d = (x - y) / l;
            d * d
        })
        .sum::<f64>()
}

/// `σ² (1 + s + s²/3) e^{−s}` at `s = √5·r`, from `r²`.
#[inline]
fn covariance(variance: f64, r2: f64) -> f64 {
    let s = 5f64.sqrt() * r2.sqrt();
    variance * (1.0 + s + s * s / 3.0) * (-s).exp()
}

/// The θ-independent half of a Matérn-5/2 Gram matrix over one point
/// set: every pair's coordinate differences `xs[i][d] − xs[j][d]`
/// (`j < i`), stored per dimension in lower-triangle order.
///
/// A likelihood search fills the Gram matrix of the same points for
/// thousands of hyperparameter vectors. With the differences built once,
/// each fill is one slice pass per dimension (`t = diff/ℓ_d`,
/// `r² += t²`, which the compiler can vectorize) and one scalar pass for
/// the `exp` tail. Every entry is bitwise the [`Matern52::eval`] of its
/// pair: the same differences, divides and squares, added in the same
/// dimension order.
///
/// # Examples
///
/// ```
/// use bofl_gp::{Matern52, PairTable};
/// use bofl_linalg::Matrix;
///
/// let xs = vec![vec![0.0, 0.1], vec![0.4, 0.3], vec![0.9, 0.2]];
/// let mut gram = Matrix::zeros(3, 3);
/// PairTable::new(&xs).fill_gram_lower(&mut gram, 1.5, &[0.7, 1.3], 1e-3);
/// let k = Matern52::new(1.5, &[0.7, 1.3]);
/// assert_eq!(gram[(2, 0)], k.eval(&xs[2], &xs[0]));
/// assert_eq!(gram[(1, 1)], k.eval(&xs[1], &xs[1]) + 1e-3);
/// ```
#[derive(Debug)]
pub struct PairTable {
    n: usize,
    dim: usize,
    /// `dim` runs of `n(n−1)/2` differences, pair `(i, j)` at
    /// `i(i−1)/2 + j`.
    diffs: Vec<f64>,
    /// Per-pair `r²` scratch, reused across fills.
    r2: Vec<f64>,
}

impl PairTable {
    /// Builds the pair differences of `xs`.
    ///
    /// # Panics
    ///
    /// Panics if `xs` is empty, or its points are empty-dimensional or
    /// ragged.
    pub fn new(xs: &[Vec<f64>]) -> Self {
        let n = xs.len();
        let dim = xs.first().map_or(0, Vec::len);
        assert!(
            dim > 0 && xs.iter().all(|x| x.len() == dim),
            "pair table: points must share one non-zero dimension"
        );
        let pairs = n * n.saturating_sub(1) / 2;
        let mut diffs = Vec::with_capacity(dim * pairs);
        for d in 0..dim {
            for i in 0..n {
                diffs.extend(xs[..i].iter().map(|xj| xs[i][d] - xj[d]));
            }
        }
        PairTable {
            n,
            dim,
            diffs,
            r2: vec![0.0; pairs],
        }
    }

    /// Overwrites the lower triangle of `gram` (all a Cholesky
    /// factorization reads) with `K + noise·I` for the Matérn-5/2 kernel
    /// of this `variance` and these `lengthscales`. The strict upper
    /// triangle is left as it was.
    ///
    /// # Panics
    ///
    /// Panics if `gram` is not `n×n` or `lengthscales` does not match
    /// the points' dimension.
    pub fn fill_gram_lower(
        &mut self,
        gram: &mut Matrix,
        variance: f64,
        lengthscales: &[f64],
        noise: f64,
    ) {
        let n = self.n;
        assert!(
            gram.rows() == n && gram.cols() == n,
            "pair table: Gram matrix must be {n}×{n}"
        );
        assert_eq!(
            lengthscales.len(),
            self.dim,
            "kernel: lengthscale dimension mismatch"
        );
        let pairs = self.r2.len();
        for (d, l) in lengthscales.iter().enumerate() {
            let diffs = &self.diffs[d * pairs..(d + 1) * pairs];
            // `Matern52::eval` folds from `.sum()`'s seed; `t·t` is never
            // `−0.0`, so seed + `t·t` is `t·t` bit for bit.
            if d == 0 {
                for (r2, diff) in self.r2.iter_mut().zip(diffs) {
                    let t = diff / l;
                    *r2 = t * t;
                }
            } else {
                for (r2, diff) in self.r2.iter_mut().zip(diffs) {
                    let t = diff / l;
                    *r2 += t * t;
                }
            }
        }
        // `eval(x, x)` sees `r² = 0`.
        let diagonal = covariance(variance, 0.0) + noise;
        let mut r2 = self.r2.iter();
        for i in 0..n {
            for (j, r2) in r2.by_ref().take(i).enumerate() {
                gram[(i, j)] = covariance(variance, *r2);
            }
            gram[(i, i)] = diagonal;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kernel() -> Matern52 {
        Matern52::new(1.5, &[0.7, 1.3])
    }

    #[test]
    fn diagonal_equals_variance() {
        let k = kernel();
        assert!((k.eval(&[0.1, -0.4], &[0.1, -0.4]) - 1.5).abs() < 1e-12);
        assert_eq!(k.variance(), 1.5);
        assert_eq!(k.lengthscales(), &[0.7, 1.3]);
    }

    #[test]
    fn symmetry() {
        let (k, a, b) = (kernel(), [0.2, 0.8], [-1.0, 0.3]);
        assert!((k.eval(&a, &b) - k.eval(&b, &a)).abs() < 1e-15);
    }

    #[test]
    fn decay_with_distance() {
        let k = kernel();
        let near = k.eval(&[0.0, 0.0], &[0.1, 0.0]);
        let far = k.eval(&[0.0, 0.0], &[2.0, 0.0]);
        assert!(near > far);
        assert!(far > 0.0);
    }

    #[test]
    fn ard_lengthscales_matter() {
        // Lengthscale 0.7 on axis 0 vs 1.3 on axis 1: same offset decays
        // faster along the shorter-lengthscale axis.
        let k = kernel();
        let along0 = k.eval(&[0.0, 0.0], &[0.5, 0.0]);
        let along1 = k.eval(&[0.0, 0.0], &[0.0, 0.5]);
        assert!(along0 < along1);
    }

    #[test]
    fn matern52_known_value() {
        // At r = 1 (unit lengthscale): (1 + √5 + 5/3) e^{−√5}.
        let k = Matern52::new(1.0, &[1.0]);
        let s = 5f64.sqrt();
        let expect = (1.0 + s + 5.0 / 3.0) * (-s).exp();
        assert!((k.eval(&[0.0], &[1.0]) - expect).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "variance must be positive")]
    fn rejects_bad_variance() {
        let _ = Matern52::new(0.0, &[1.0]);
    }

    #[test]
    #[should_panic(expected = "lengthscales must be positive")]
    fn rejects_bad_lengthscale() {
        let _ = Matern52::new(1.0, &[1.0, -2.0]);
    }

    #[test]
    #[should_panic(expected = "dimensions differ")]
    fn rejects_dim_mismatch() {
        let k = Matern52::new(1.0, &[1.0, 1.0]);
        let _ = k.eval(&[0.0, 0.0], &[0.0]);
    }
}
