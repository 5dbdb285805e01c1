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
}
