use crate::LinalgError;

/// Streaming mean/variance accumulator (Welford's algorithm).
///
/// Used by output standardization in the GP, which needs numerically
/// stable single-pass statistics.
///
/// # Examples
///
/// ```
/// use bofl_linalg::OnlineStats;
///
/// let mut s = OnlineStats::new();
/// for v in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     s.push(v);
/// }
/// assert_eq!(s.mean(), 5.0);
/// assert!((s.sample_variance() - 32.0 / 7.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Sample mean (zero when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance `Σ(x−μ)²/(n−1)` (zero when fewer than two
    /// samples).
    pub fn sample_variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub(crate) fn sample_std(&self) -> f64 {
        self.sample_variance().sqrt()
    }

    /// Smallest observation (`+inf` when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (`−inf` when empty).
    pub fn max(&self) -> f64 {
        self.max
    }
}

/// An affine `z = (x − shift) / scale` transform fit from data, used to
/// standardize GP outputs.
///
/// # Examples
///
/// ```
/// use bofl_linalg::Standardizer;
///
/// # fn main() -> Result<(), bofl_linalg::LinalgError> {
/// let s = Standardizer::fit(&[1.0, 2.0, 3.0])?;
/// let z = s.apply(2.0);
/// assert!((s.invert(z) - 2.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Standardizer {
    shift: f64,
    scale: f64,
}

impl Standardizer {
    /// Fits mean/std from data. A degenerate (constant) sample gets unit
    /// scale so the transform stays invertible.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Empty`] for an empty slice and
    /// [`LinalgError::NonFinite`] if the data contain NaN or infinities.
    pub fn fit(xs: &[f64]) -> Result<Self, LinalgError> {
        if xs.is_empty() {
            return Err(LinalgError::Empty { what: "xs" });
        }
        if xs.iter().any(|v| !v.is_finite()) {
            return Err(LinalgError::NonFinite { what: "xs" });
        }
        let mut stats = OnlineStats::new();
        for &x in xs {
            stats.push(x);
        }
        let std = stats.sample_std();
        Ok(Standardizer {
            shift: stats.mean(),
            scale: if std > 1e-12 { std } else { 1.0 },
        })
    }

    /// An identity transform (`shift = 0`, `scale = 1`).
    pub(crate) fn identity() -> Self {
        Standardizer {
            shift: 0.0,
            scale: 1.0,
        }
    }

    /// Applies the forward transform.
    pub fn apply(&self, x: f64) -> f64 {
        (x - self.shift) / self.scale
    }

    /// Applies the inverse transform.
    pub fn invert(&self, z: f64) -> f64 {
        z * self.scale + self.shift
    }

    /// The scale (the data std, or 1 for constant data); always positive.
    pub fn scale(&self) -> f64 {
        self.scale
    }
}

impl Default for Standardizer {
    fn default() -> Self {
        Self::identity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_two_pass() {
        let xs = [1.5, 2.5, 3.5, 10.0, -4.0];
        let mut s = OnlineStats::new();
        for &x in &xs {
            s.push(x);
        }
        let mean: f64 = xs.iter().sum::<f64>() / xs.len() as f64;
        let var: f64 =
            xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (xs.len() - 1) as f64;
        assert!((s.mean() - mean).abs() < 1e-12);
        assert!((s.sample_variance() - var).abs() < 1e-12);
        assert_eq!(s.min(), -4.0);
        assert_eq!(s.max(), 10.0);
    }

    #[test]
    fn empty_stats_are_safe() {
        let s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.sample_variance(), 0.0);
    }

    #[test]
    fn standardizer_roundtrip() {
        let s = Standardizer::fit(&[10.0, 20.0, 30.0]).unwrap();
        for x in [-5.0, 10.0, 17.3, 100.0] {
            assert!((s.invert(s.apply(x)) - x).abs() < 1e-9);
        }
        assert!((s.apply(20.0)).abs() < 1e-12); // mean maps to 0
    }

    #[test]
    fn standardizer_constant_data() {
        let s = Standardizer::fit(&[5.0, 5.0, 5.0]).unwrap();
        assert_eq!(s.scale(), 1.0);
        assert_eq!(s.apply(5.0), 0.0);
    }

    #[test]
    fn standardizer_rejects_bad_input() {
        assert!(Standardizer::fit(&[]).is_err());
        assert!(Standardizer::fit(&[1.0, f64::NAN]).is_err());
    }
}
