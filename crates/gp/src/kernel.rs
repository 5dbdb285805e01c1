/// A stationary covariance function with ARD (per-dimension) lengthscales.
///
/// Implementors compute `k(x, x')` for points in `ℝᵈ`. The trait is
/// object-safe so a [`crate::GaussianProcess`] can hold any kernel behind a
/// box.
pub trait Kernel: std::fmt::Debug + Send + Sync {
    /// Covariance between two points.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `a` and `b` have different lengths or
    /// do not match the lengthscale dimension.
    fn eval(&self, a: &[f64], b: &[f64]) -> f64;

    /// Prior variance `k(x, x)` (constant for stationary kernels).
    fn variance(&self) -> f64;

    /// The ARD lengthscales.
    fn lengthscales(&self) -> &[f64];

    /// Clones the kernel with new hyperparameters (same family).
    ///
    /// # Panics
    ///
    /// Implementations may panic if `variance <= 0` or any lengthscale is
    /// non-positive.
    fn with_hyperparameters(&self, variance: f64, lengthscales: &[f64]) -> Box<dyn Kernel>;
}

/// Scaled distance `r = √ Σ ((aᵢ − bᵢ)/ℓᵢ)²`.
fn scaled_distance(a: &[f64], b: &[f64], ls: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "kernel: point dimensions differ");
    assert_eq!(a.len(), ls.len(), "kernel: lengthscale dimension mismatch");
    a.iter()
        .zip(b)
        .zip(ls)
        .map(|((x, y), l)| {
            let d = (x - y) / l;
            d * d
        })
        .sum::<f64>()
        .sqrt()
}

fn validate(variance: f64, lengthscales: &[f64]) {
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
}

/// Kernel family tags, for configuration surfaces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum KernelKind {
    /// Matérn ν = 5/2 (the paper's prior, §4.3).
    Matern52,
    /// Matérn ν = 3/2.
    Matern32,
    /// Squared exponential (RBF).
    SquaredExponential,
}

impl KernelKind {
    /// Instantiates a kernel of this family.
    pub fn build(self, variance: f64, lengthscales: &[f64]) -> Box<dyn Kernel> {
        match self {
            KernelKind::Matern52 => Box::new(Matern52::new(variance, lengthscales)),
            KernelKind::Matern32 => Box::new(Matern32::new(variance, lengthscales)),
            KernelKind::SquaredExponential => {
                Box::new(SquaredExponential::new(variance, lengthscales))
            }
        }
    }
}

/// The Matérn-5/2 kernel
/// `σ² (1 + √5 r + 5r²/3) exp(−√5 r)` — the paper's prior covariance,
/// twice-differentiable and a good default for physical response surfaces.
///
/// # Examples
///
/// ```
/// use bofl_gp::{Kernel, Matern52};
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
        validate(variance, lengthscales);
        Matern52 {
            variance,
            lengthscales: lengthscales.to_vec(),
        }
    }
}

impl Kernel for Matern52 {
    fn eval(&self, a: &[f64], b: &[f64]) -> f64 {
        let r = scaled_distance(a, b, &self.lengthscales);
        let s = 5f64.sqrt() * r;
        self.variance * (1.0 + s + s * s / 3.0) * (-s).exp()
    }

    fn variance(&self) -> f64 {
        self.variance
    }

    fn lengthscales(&self) -> &[f64] {
        &self.lengthscales
    }

    fn with_hyperparameters(&self, variance: f64, lengthscales: &[f64]) -> Box<dyn Kernel> {
        Box::new(Matern52::new(variance, lengthscales))
    }
}

/// The Matérn-3/2 kernel `σ² (1 + √3 r) exp(−√3 r)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Matern32 {
    variance: f64,
    lengthscales: Vec<f64>,
}

impl Matern32 {
    /// Creates the kernel.
    ///
    /// # Panics
    ///
    /// Panics if `variance <= 0` or any lengthscale is non-positive.
    pub fn new(variance: f64, lengthscales: &[f64]) -> Self {
        validate(variance, lengthscales);
        Matern32 {
            variance,
            lengthscales: lengthscales.to_vec(),
        }
    }
}

impl Kernel for Matern32 {
    fn eval(&self, a: &[f64], b: &[f64]) -> f64 {
        let r = scaled_distance(a, b, &self.lengthscales);
        let s = 3f64.sqrt() * r;
        self.variance * (1.0 + s) * (-s).exp()
    }

    fn variance(&self) -> f64 {
        self.variance
    }

    fn lengthscales(&self) -> &[f64] {
        &self.lengthscales
    }

    fn with_hyperparameters(&self, variance: f64, lengthscales: &[f64]) -> Box<dyn Kernel> {
        Box::new(Matern32::new(variance, lengthscales))
    }
}

/// The squared-exponential (RBF) kernel `σ² exp(−r²/2)`.
#[derive(Debug, Clone, PartialEq)]
pub struct SquaredExponential {
    variance: f64,
    lengthscales: Vec<f64>,
}

impl SquaredExponential {
    /// Creates the kernel.
    ///
    /// # Panics
    ///
    /// Panics if `variance <= 0` or any lengthscale is non-positive.
    pub fn new(variance: f64, lengthscales: &[f64]) -> Self {
        validate(variance, lengthscales);
        SquaredExponential {
            variance,
            lengthscales: lengthscales.to_vec(),
        }
    }
}

impl Kernel for SquaredExponential {
    fn eval(&self, a: &[f64], b: &[f64]) -> f64 {
        let r = scaled_distance(a, b, &self.lengthscales);
        self.variance * (-0.5 * r * r).exp()
    }

    fn variance(&self) -> f64 {
        self.variance
    }

    fn lengthscales(&self) -> &[f64] {
        &self.lengthscales
    }

    fn with_hyperparameters(&self, variance: f64, lengthscales: &[f64]) -> Box<dyn Kernel> {
        Box::new(SquaredExponential::new(variance, lengthscales))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kernels() -> Vec<Box<dyn Kernel>> {
        vec![
            Box::new(Matern52::new(1.5, &[0.7, 1.3])),
            Box::new(Matern32::new(1.5, &[0.7, 1.3])),
            Box::new(SquaredExponential::new(1.5, &[0.7, 1.3])),
        ]
    }

    #[test]
    fn diagonal_equals_variance() {
        for k in kernels() {
            assert!((k.eval(&[0.1, -0.4], &[0.1, -0.4]) - 1.5).abs() < 1e-12);
            assert_eq!(k.variance(), 1.5);
        }
    }

    #[test]
    fn symmetry() {
        for k in kernels() {
            let a = [0.2, 0.8];
            let b = [-1.0, 0.3];
            assert!((k.eval(&a, &b) - k.eval(&b, &a)).abs() < 1e-15);
        }
    }

    #[test]
    fn decay_with_distance() {
        for k in kernels() {
            let near = k.eval(&[0.0, 0.0], &[0.1, 0.0]);
            let far = k.eval(&[0.0, 0.0], &[2.0, 0.0]);
            assert!(near > far);
            assert!(far > 0.0);
        }
    }

    #[test]
    fn ard_lengthscales_matter() {
        // Lengthscale 0.7 on axis 0 vs 1.3 on axis 1: same offset decays
        // faster along the shorter-lengthscale axis.
        for k in kernels() {
            let along0 = k.eval(&[0.0, 0.0], &[0.5, 0.0]);
            let along1 = k.eval(&[0.0, 0.0], &[0.0, 0.5]);
            assert!(along0 < along1);
        }
    }

    #[test]
    fn with_hyperparameters_rebuilds() {
        for k in kernels() {
            let k2 = k.with_hyperparameters(3.0, &[1.0, 1.0]);
            assert_eq!(k2.variance(), 3.0);
            assert_eq!(k2.lengthscales(), &[1.0, 1.0]);
        }
    }

    #[test]
    fn kind_builds_each_family() {
        for kind in [
            KernelKind::Matern52,
            KernelKind::Matern32,
            KernelKind::SquaredExponential,
        ] {
            let k = kind.build(1.0, &[1.0]);
            assert_eq!(k.variance(), 1.0);
        }
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
        let _ = Matern32::new(1.0, &[1.0, -2.0]);
    }

    #[test]
    #[should_panic(expected = "dimensions differ")]
    fn rejects_dim_mismatch() {
        let k = Matern52::new(1.0, &[1.0, 1.0]);
        let _ = k.eval(&[0.0, 0.0], &[0.0]);
    }
}
