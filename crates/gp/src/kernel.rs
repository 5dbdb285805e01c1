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
        // Scaled distance r = √ Σ ((aᵢ − bᵢ)/ℓᵢ)².
        let r = a
            .iter()
            .zip(b)
            .zip(&self.lengthscales)
            .map(|((x, y), l)| {
                let d = (x - y) / l;
                d * d
            })
            .sum::<f64>()
            .sqrt();
        let s = 5f64.sqrt() * r;
        self.variance * (1.0 + s + s * s / 3.0) * (-s).exp()
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
