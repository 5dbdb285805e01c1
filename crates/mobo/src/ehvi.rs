//! Exact 2-D expected hypervolume improvement (paper Eqn. 6).
//!
//! For two *independent* Gaussian objectives (the paper's surrogate) the
//! 2-D EHVI has a closed form. Write the improvement as an integral over
//! the improvement region — the part of the objective space that is below
//! the reference point and not dominated by the current front:
//!
//! ```text
//! EHVI = E[ vol{ z : Y ⪯ z ⪯ r, z not dominated by P } ]
//!      = ∫_{region} P(Y₁ ≤ z₁) · P(Y₂ ≤ z₂) dz      (Fubini + independence)
//! ```
//!
//! The region decomposes into `n+1` vertical strips delimited by the
//! sorted front points, each a product of intervals, so the double
//! integral splits into products of the one-dimensional primitive
//! `∫ Φ((z−μ)/σ) dz = σ·ψ((z−μ)/σ)` with `ψ(t) = t·Φ(t) + φ(t)`.
//! Total cost: `O(n)` per evaluation — matching the
//! `O(|D| log |D|)` bound the paper cites for 2-D EHVI.

use crate::ParetoFront;

/// Standard normal probability density function.
pub fn normal_pdf(t: f64) -> f64 {
    (-0.5 * t * t).exp() / (2.0 * std::f64::consts::PI).sqrt()
}

/// Standard normal cumulative distribution function (via `erf`-free
/// Abramowitz–Stegun-style rational approximation accurate to ~1e-7, which
/// is ample for acquisition ranking).
pub fn normal_cdf(t: f64) -> f64 {
    // Φ(t) = 0.5 · erfc(−t/√2); use a high-accuracy erfc approximation.
    0.5 * erfc(-t / std::f64::consts::SQRT_2)
}

/// Complementary error function (W. J. Cody-style rational approximation).
fn erfc(x: f64) -> f64 {
    // Numerical Recipes' erfc approximation, |error| < 1.2e-7 everywhere.
    let z = x.abs();
    let t = 1.0 / (1.0 + 0.5 * z);
    let ans = t
        * (-z * z - 1.26551223
            + t * (1.00002368
                + t * (0.37409196
                    + t * (0.09678418
                        + t * (-0.18628806
                            + t * (0.27886807
                                + t * (-1.13520398
                                    + t * (1.48851587 + t * (-0.82215223 + t * 0.17087277)))))))))
            .exp();
    if x >= 0.0 {
        ans
    } else {
        2.0 - ans
    }
}

/// The primitive `ψ(t) = ∫_{−∞}^{t} Φ(s) ds = t·Φ(t) + φ(t)`.
///
/// `ψ(−∞) = 0`, `ψ(t) ≈ t` for large `t`.
pub fn psi(t: f64) -> f64 {
    if t == f64::NEG_INFINITY {
        return 0.0;
    }
    t * normal_cdf(t) + normal_pdf(t)
}

/// Independent Gaussian posterior over the two objectives at a candidate
/// point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BiGaussian {
    /// Mean of objective 0.
    pub mean0: f64,
    /// Standard deviation of objective 0 (must be ≥ 0).
    pub std0: f64,
    /// Mean of objective 1.
    pub mean1: f64,
    /// Standard deviation of objective 1 (must be ≥ 0).
    pub std1: f64,
}

/// Exact expected hypervolume improvement of a candidate with posterior
/// `post`, given the current front and reference point `r` (both
/// objectives minimized).
///
/// Degenerate posteriors (`σ = 0`) are handled by a small floor so the
/// formula remains the deterministic HVI in the limit.
///
/// # Examples
///
/// ```
/// use bofl_mobo::ParetoFront;
/// use bofl_mobo::ehvi::{expected_hypervolume_improvement, BiGaussian};
///
/// let front: ParetoFront = [[2.0, 2.0]].into_iter().collect();
/// let good = BiGaussian { mean0: 1.0, std0: 0.1, mean1: 1.0, std1: 0.1 };
/// let bad = BiGaussian { mean0: 3.0, std0: 0.1, mean1: 3.0, std1: 0.1 };
/// let r = [4.0, 4.0];
/// let e_good = expected_hypervolume_improvement(&front, good, r);
/// let e_bad = expected_hypervolume_improvement(&front, bad, r);
/// assert!(e_good > e_bad);
/// assert!(e_bad >= 0.0);
/// ```
pub fn expected_hypervolume_improvement(front: &ParetoFront, post: BiGaussian, r: [f64; 2]) -> f64 {
    EhviCells::new(front, r).evaluate(post)
}

/// One vertical strip of the improvement region: `z0 ∈ [b_lo, b_hi)` with
/// ceiling `c` on `z1`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Strip {
    b_lo: f64,
    b_hi: f64,
    ceiling: f64,
    /// `b_lo` is bitwise the previous kept strip's `b_hi`, so its `ψ`
    /// term is the one that strip already computed.
    shares_lo: bool,
}

/// The strip decomposition of the EHVI improvement region for a fixed
/// `(front, reference)` pair.
///
/// Building the decomposition walks the front once (`O(n)`); evaluating a
/// candidate posterior against it is then `O(n)` with **no allocation** —
/// the candidate scan in the MBO engine builds this once per batch slot
/// instead of re-filtering the front for every candidate inside
/// [`expected_hypervolume_improvement`]. Adjacent strips share an edge
/// (strip i's lower edge is strip i−1's upper edge), so each edge's `ψ`
/// is evaluated once and reused — about a third fewer `ψ` calls than one
/// `ψ(β_hi) − ψ(β_lo)` pair per strip, with the same values summed in the
/// same order.
///
/// # Examples
///
/// ```
/// use bofl_mobo::ParetoFront;
/// use bofl_mobo::ehvi::{expected_hypervolume_improvement, BiGaussian, EhviCells};
///
/// let front: ParetoFront = [[2.0, 2.0]].into_iter().collect();
/// let r = [4.0, 4.0];
/// let cells = EhviCells::new(&front, r);
/// let post = BiGaussian { mean0: 1.0, std0: 0.1, mean1: 1.0, std1: 0.1 };
/// assert_eq!(
///     cells.evaluate(post),
///     expected_hypervolume_improvement(&front, post, r),
/// );
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct EhviCells {
    strips: Vec<Strip>,
}

impl EhviCells {
    /// Decomposes the improvement region of `(front, r)` into strips.
    pub fn new(front: &ParetoFront, r: [f64; 2]) -> Self {
        // Front points inside the reference box, ascending in objective 0.
        let pts: Vec<[f64; 2]> = front
            .points()
            .iter()
            .copied()
            .filter(|p| p[0] < r[0] && p[1] < r[1])
            .collect();

        // Strip i spans z0 ∈ [b_i, b_{i+1}) with ceiling c_i on z1:
        //   strip 0:   (−∞, p₁.y0)  × (−∞, r1)
        //   strip i:   [pᵢ.y0, pᵢ₊₁.y0) × (−∞, pᵢ.y1)
        //   strip n:   [pₙ.y0, r0)  × (−∞, pₙ.y1)
        let n = pts.len();
        let mut strips = Vec::with_capacity(n + 1);
        for i in 0..=n {
            let b_lo = if i == 0 {
                f64::NEG_INFINITY
            } else {
                pts[i - 1][0]
            };
            let b_hi = if i < n { pts[i][0] } else { r[0] };
            let ceiling = if i == 0 { r[1] } else { pts[i - 1][1] };
            if b_hi <= b_lo {
                continue;
            }
            let shares_lo = strips
                .last()
                .is_some_and(|prev: &Strip| prev.b_hi.to_bits() == b_lo.to_bits());
            strips.push(Strip {
                b_lo,
                b_hi,
                ceiling,
                shares_lo,
            });
        }
        EhviCells { strips }
    }

    /// Exact EHVI of a candidate posterior against the decomposed region.
    pub fn evaluate(&self, post: BiGaussian) -> f64 {
        let s0 = post.std0.max(1e-12);
        let s1 = post.std1.max(1e-12);
        let mut total = 0.0;
        // ψ of the previous strip's upper edge.
        let mut psi_prev_hi = 0.0;
        for strip in &self.strips {
            let psi_lo = if strip.shares_lo {
                psi_prev_hi
            } else if strip.b_lo == f64::NEG_INFINITY {
                psi(f64::NEG_INFINITY)
            } else {
                psi((strip.b_lo - post.mean0) / s0)
            };
            let psi_hi = psi((strip.b_hi - post.mean0) / s0);
            psi_prev_hi = psi_hi;
            let width_term = s0 * (psi_hi - psi_lo);
            let height_term = s1 * psi((strip.ceiling - post.mean1) / s1);
            total += width_term * height_term;
        }
        total.max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hypervolume::hypervolume_improvement;

    #[test]
    fn cdf_and_pdf_sanity() {
        assert!((normal_cdf(0.0) - 0.5).abs() < 1e-7);
        assert!((normal_cdf(1.96) - 0.975).abs() < 1e-3);
        assert!(normal_cdf(-8.0) < 1e-14);
        assert!((normal_pdf(0.0) - 0.39894228).abs() < 1e-7);
        assert!((psi(0.0) - normal_pdf(0.0)).abs() < 1e-12);
        assert_eq!(psi(f64::NEG_INFINITY), 0.0);
        // ψ(t) → t as t → ∞.
        assert!((psi(8.0) - 8.0).abs() < 1e-6);
    }

    #[test]
    fn empty_front_reduces_to_product_of_expectations() {
        // With no front, EHVI = E[(r0−Y0)⁺] · E[(r1−Y1)⁺].
        let post = BiGaussian {
            mean0: 1.0,
            std0: 0.5,
            mean1: 2.0,
            std1: 0.8,
        };
        let r = [3.0, 4.0];
        let got = expected_hypervolume_improvement(&ParetoFront::new(), post, r);
        let e0 = 0.5 * psi((3.0 - 1.0) / 0.5);
        let e1 = 0.8 * psi((4.0 - 2.0) / 0.8);
        assert!((got - e0 * e1).abs() < 1e-9, "{got} vs {}", e0 * e1);
    }

    #[test]
    fn tiny_std_recovers_deterministic_hvi() {
        let front: ParetoFront = [[1.0, 4.0], [2.0, 3.0], [3.0, 1.0]].into_iter().collect();
        let r = [5.0, 5.0];
        for cand in [[1.5, 3.5], [0.5, 4.5], [4.0, 4.0], [2.5, 0.5]] {
            let post = BiGaussian {
                mean0: cand[0],
                std0: 1e-9,
                mean1: cand[1],
                std1: 1e-9,
            };
            let ehvi = expected_hypervolume_improvement(&front, post, r);
            let hvi = hypervolume_improvement(&front, &[cand], r);
            assert!(
                (ehvi - hvi).abs() < 1e-5,
                "cand {cand:?}: ehvi {ehvi} vs hvi {hvi}"
            );
        }
    }

    #[test]
    fn matches_monte_carlo() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let front: ParetoFront = [[1.0, 3.0], [2.0, 2.0], [3.5, 1.0]].into_iter().collect();
        let r = [5.0, 4.5];
        let post = BiGaussian {
            mean0: 1.8,
            std0: 0.6,
            mean1: 1.7,
            std1: 0.5,
        };
        let exact = expected_hypervolume_improvement(&front, post, r);

        let mut rng = StdRng::seed_from_u64(2024);
        let mut normal = || {
            let u1: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
            let u2: f64 = rng.gen();
            (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
        };
        let n = 200_000;
        let mut acc = 0.0;
        for _ in 0..n {
            let y = [
                post.mean0 + post.std0 * normal(),
                post.mean1 + post.std1 * normal(),
            ];
            acc += hypervolume_improvement(&front, &[y], r);
        }
        let mc = acc / n as f64;
        assert!(
            (exact - mc).abs() < 0.02 * (1.0 + mc),
            "exact {exact} vs MC {mc}"
        );
    }

    #[test]
    fn cells_match_direct_evaluation() {
        let front: ParetoFront = [[1.0, 4.0], [2.0, 3.0], [3.0, 1.0]].into_iter().collect();
        let r = [5.0, 5.0];
        let cells = EhviCells::new(&front, r);
        for i in 0..40 {
            let t = i as f64 / 39.0;
            let post = BiGaussian {
                mean0: 0.5 + 4.0 * t,
                std0: 0.1 + t,
                mean1: 4.5 - 4.0 * t,
                std1: 1.1 - t,
            };
            assert_eq!(
                cells.evaluate(post),
                expected_hypervolume_improvement(&front, post, r),
                "cells and direct EHVI must agree bitwise at t={t}"
            );
        }
        // Points outside the reference box contribute no strips.
        let outside: ParetoFront = [[9.0, 9.0]].into_iter().collect();
        let empty_cells = EhviCells::new(&outside, [5.0, 5.0]);
        let free = EhviCells::new(&ParetoFront::new(), [5.0, 5.0]);
        let post = BiGaussian {
            mean0: 2.0,
            std0: 0.5,
            mean1: 2.0,
            std1: 0.5,
        };
        assert_eq!(empty_cells.evaluate(post), free.evaluate(post));
    }

    #[test]
    fn dominated_mean_still_positive_ehvi() {
        // A candidate whose mean is dominated can still improve thanks to
        // posterior uncertainty — EHVI must be positive, just small.
        let front: ParetoFront = [[1.0, 1.0]].into_iter().collect();
        let post = BiGaussian {
            mean0: 2.0,
            std0: 1.0,
            mean1: 2.0,
            std1: 1.0,
        };
        let e = expected_hypervolume_improvement(&front, post, [5.0, 5.0]);
        assert!(e > 0.0);
        let post_certain = BiGaussian {
            std0: 1e-6,
            std1: 1e-6,
            ..post
        };
        let e_certain = expected_hypervolume_improvement(&front, post_certain, [5.0, 5.0]);
        assert!(e_certain < e);
        assert!(e_certain < 1e-6);
    }

    #[test]
    fn ehvi_never_negative() {
        let front: ParetoFront = [[0.0, 0.0]].into_iter().collect();
        let post = BiGaussian {
            mean0: 100.0,
            std0: 0.1,
            mean1: 100.0,
            std1: 0.1,
        };
        assert!(expected_hypervolume_improvement(&front, post, [1.0, 1.0]) >= 0.0);
    }
}
