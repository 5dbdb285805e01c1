//! Slice-level vector helpers shared by the numeric crates.

/// Dot product of two equal-length slices.
///
/// Runs the crate-wide fixed-order micro-kernel: four independent
/// accumulators over `chunks_exact(4)` combined as
/// `(acc0 + acc2) + (acc1 + acc3)`, then a sequential tail.
///
/// # Panics
///
/// Panics if the slices have different lengths.
///
/// # Examples
///
/// ```
/// assert_eq!(bofl_linalg::dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
/// ```
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot: length mismatch");
    crate::kernels::dot_kernel(a, b)
}

/// Euclidean norm `‖a‖₂`, computed with scaling to avoid overflow.
///
/// # Examples
///
/// ```
/// assert_eq!(bofl_linalg::norm2(&[3.0, 4.0]), 5.0);
/// ```
pub fn norm2(a: &[f64]) -> f64 {
    let max = infinity_norm(a);
    if max == 0.0 || !max.is_finite() {
        return max;
    }
    let sum: f64 = a.iter().map(|v| (v / max) * (v / max)).sum();
    max * sum.sqrt()
}

/// Infinity norm `max |aᵢ|` (zero for an empty slice).
pub fn infinity_norm(a: &[f64]) -> f64 {
    a.iter().fold(0.0, |m, &v| m.max(v.abs()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_basics() {
        assert_eq!(dot(&[], &[]), 0.0);
        assert_eq!(dot(&[1.0, -1.0], &[1.0, 1.0]), 0.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_mismatch_panics() {
        let _ = dot(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn norm2_overflow_safe() {
        let big = f64::MAX / 2.0;
        let n = norm2(&[big, big]);
        assert!(n.is_finite());
        assert!((n / big - std::f64::consts::SQRT_2).abs() < 1e-12);
    }

    #[test]
    fn norm2_zero_and_empty() {
        assert_eq!(norm2(&[]), 0.0);
        assert_eq!(norm2(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn infinity_norm_basics() {
        assert_eq!(infinity_norm(&[-3.0, 2.0]), 3.0);
        assert_eq!(infinity_norm(&[]), 0.0);
    }
}
