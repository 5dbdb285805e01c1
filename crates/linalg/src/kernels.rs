//! The fixed-order dot-product micro-kernel underneath every dense
//! operation in this crate.
//!
//! The Cholesky factorization, its reconstruction and the triangular
//! solves all reduce each output element to **one** call of
//! [`dot_kernel`] over a fixed range. That gives the whole crate a
//! single determinism contract: the kernel accumulates into four
//! independent lanes over `chunks_exact(4)` and combines them as
//! `(acc0 + acc2) + (acc1 + acc3)` before folding the `len % 4` tail
//! sequentially. The order never depends on the caller, so any algorithm
//! that maps each output element to one kernel call over a fixed range is
//! bitwise reproducible whatever order it visits the elements in. The
//! Cholesky factorization relies on this: it visits `L` column by column
//! (the entries below one diagonal do not depend on each other) and
//! still yields the bits of a row-by-row walk.
//!
//! [`dot_kernel_strided`] is the same association over a strided first
//! operand, so the back-substitution against `Lᵀ` reads a column of `L`
//! in place and gets the bits of a contiguous dot over a transposed copy.
//!
//! Slices shorter than four elements never enter the lane loop and are
//! summed left-to-right, which keeps tiny systems (2×2 test fixtures)
//! identical to the historical sequential kernel.

/// Fixed-order dot product of two equal-length slices: four independent
/// accumulators, combined as `(acc0 + acc2) + (acc1 + acc3)`, then the
/// sequential tail.
///
/// This is the only summation primitive the dense kernels use; see the
/// module docs for the determinism contract.
#[inline]
pub(crate) fn dot_kernel(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "dot_kernel: length mismatch");
    let split = a.len() - a.len() % 4;
    let (a4, a_tail) = a.split_at(split);
    let (b4, b_tail) = b.split_at(split);
    let mut acc = [0.0f64; 4];
    for (ca, cb) in a4.chunks_exact(4).zip(b4.chunks_exact(4)) {
        acc[0] += ca[0] * cb[0];
        acc[1] += ca[1] * cb[1];
        acc[2] += ca[2] * cb[2];
        acc[3] += ca[3] * cb[3];
    }
    let mut sum = (acc[0] + acc[2]) + (acc[1] + acc[3]);
    for (x, y) in a_tail.iter().zip(b_tail) {
        sum += x * y;
    }
    sum
}

/// [`dot_kernel`] of `b` with the elements `a[start + m·stride]`,
/// `m = 0..b.len()`: the same four lanes over the same element sequence,
/// so it is bitwise equal to `dot_kernel` on a gathered copy.
#[inline]
pub(crate) fn dot_kernel_strided(a: &[f64], start: usize, stride: usize, b: &[f64]) -> f64 {
    let split = b.len() - b.len() % 4;
    let at = |m: usize| a[start + m * stride];
    let mut acc = [0.0f64; 4];
    for (c, cb) in b[..split].chunks_exact(4).enumerate() {
        let m = 4 * c;
        acc[0] += at(m) * cb[0];
        acc[1] += at(m + 1) * cb[1];
        acc[2] += at(m + 2) * cb[2];
        acc[3] += at(m + 3) * cb[3];
    }
    let mut sum = (acc[0] + acc[2]) + (acc[1] + acc[3]);
    for (m, y) in b.iter().enumerate().skip(split) {
        sum += at(m) * y;
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sequential(a: &[f64], b: &[f64]) -> f64 {
        a.iter().zip(b).map(|(x, y)| x * y).sum()
    }

    #[test]
    fn empty_dot_is_positive_zero() {
        // `iter().sum()` yields -0.0 on an empty iterator; the kernel
        // deliberately returns +0.0, the additive identity that leaves
        // `b[i] - prefix` bitwise untouched in the triangular solves.
        assert_eq!(dot_kernel(&[], &[]).to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn kernel_matches_sequential_on_short_slices() {
        // Below the lane width the kernel must be *bitwise* sequential.
        for n in 1..4usize {
            let a: Vec<f64> = (0..n).map(|i| 0.1 + i as f64).collect();
            let b: Vec<f64> = (0..n).map(|i| 1.7 - i as f64).collect();
            assert_eq!(dot_kernel(&a, &b).to_bits(), sequential(&a, &b).to_bits());
        }
    }

    #[test]
    fn strided_kernel_matches_gathered_dot_bitwise() {
        // Lengths cross the lane blocks and tails; the stride skips
        // entries that must never be read.
        for len in 0..11usize {
            let stride = 3;
            let a: Vec<f64> = (0..1 + len * stride)
                .map(|i| (i as f64 * 0.37).sin())
                .collect();
            let b: Vec<f64> = (0..len).map(|i| (i as f64 * 0.11).cos()).collect();
            let gathered: Vec<f64> = (0..len).map(|m| a[1 + m * stride]).collect();
            assert_eq!(
                dot_kernel_strided(&a, 1, stride, &b).to_bits(),
                dot_kernel(&b, &gathered).to_bits()
            );
        }
    }

    #[test]
    fn kernel_near_sequential_on_long_slices() {
        let a: Vec<f64> = (0..257).map(|i| (i as f64 * 0.37).sin()).collect();
        let b: Vec<f64> = (0..257).map(|i| (i as f64 * 0.11).cos()).collect();
        let got = dot_kernel(&a, &b);
        let want = sequential(&a, &b);
        assert!((got - want).abs() <= 1e-12 * a.len() as f64);
    }
}
