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
//!
//! # Certified upper bounds for the lazy batch scan
//!
//! The sequential-greedy batch scan ([`crate::greedy_batch`]) skips a
//! candidate in slots 2…K when a certified upper bound on its new EHVI
//! is strictly below the slot's running best. The bound rests on four
//! facts about the exact EHVI and one about its computed value.
//!
//! Write `Φ₀(z) = Φ((z−μ₀)/s₀)`, `G(c) = s₁·ψ((c−μ₁)/s₁) = E[(c−Y₁)⁺]`
//! and `c(z₀)` for the region's ceiling on `z₁` above `z₀` (`r₁` left of
//! the front, then each front point's objective 1). Summing the strips,
//!
//! ```text
//! EHVI = ∫ Φ₀(z₀) · g(z₀) dz₀ = E[H(Y₀)],   g(z) = G(c(z)) for z < r₀ (0 beyond),
//!                                          H(y) = ∫_y^∞ g(z) dz
//! ```
//!
//! 1. **Nondecreasing in `s₁`**: `G(c) = E[(c−Y₁)⁺]` is the mean of a
//!    convex function of a Gaussian, which grows with its spread.
//! 2. **Nondecreasing in `s₀`**: `c(z₀)` is nonincreasing and `G` is
//!    nondecreasing, so `g = G∘c` is nonincreasing and `H` (with
//!    `H′ = −g`) is convex; `E[H(Y₀)]` grows with the spread of `Y₀`.
//! 3. **Nonincreasing as the front gains points**: a new point only
//!    lowers the ceiling `c(z₀)` pointwise, and `G` is nondecreasing.
//! 4. **Lipschitz in the means**: `∂/∂μ₀ = −∫ φ₀(z)/s₀ · g(z) dz` and
//!    `g ≤ G(r₁)`, so `|∂EHVI/∂μ₀| ≤ s₁·ψ((r₁−μ₁)/s₁)`; likewise
//!    `∂G/∂μ₁ = −Φ((c−μ₁)/s₁) ∈ [−1, 0]` gives
//!    `|∂EHVI/∂μ₁| ≤ ∫_{z₀<r₀} Φ₀ = s₀·ψ((r₀−μ₀)/s₀)`.
//!
//! Hence for a *stale* posterior `(μ, s)` under front `F` and a *new* one
//! `(μ′, s′)` under `F′ ⊇ F` with `s′ ≤ s` per objective (both floored
//! at `1e-12` exactly as [`EhviCells::evaluate`] floors them), moving
//! first `s` down and `F` up (facts 1–3), then each mean along a straight
//! path (fact 4, with `ψ` increasing so the smaller mean is the worse
//! case):
//!
//! ```text
//! EHVI(μ′, s′, F′) ≤ EHVI(μ, s, F) + |Δμ₀|·s₁·ψ((r₁ − min μ₁)/s₁)
//!                                  + |Δμ₁|·s₀·ψ((r₀ − min μ₀)/s₀)
//! ```
//!
//! **The computed value.** [`psi`] goes through `normal_cdf`, which is
//! Numerical Recipes' `erfcc` with fractional error below `1.2e-7`
//! everywhere. For `t < 0` that is `|Φ̃(t) − Φ(t)| ≤ 1.2e-7·Φ(t)` and for
//! `t ≥ 0` it is `≤ 1.2e-7·(1 − Φ(t))`; with the Mills-ratio bounds
//! `|t|·Φ(t) ≤ φ(t)` (`t < 0`) and `t·(1 − Φ(t)) ≤ φ(t)` (`t ≥ 0`),
//!
//! ```text
//! |ψ̃(t) − ψ(t)| = |t|·|Φ̃(t) − Φ(t)| ≤ 1.2e-7·φ(t) ≤ 4.8e-8
//! ```
//!
//! `PSI_ERROR` (`δ = 1e-7`) covers that with room for the rounding of
//! `ψ̃`'s arithmetic near `t = 0` (rounding that grows with `|t|` is in
//! the `ρ` term below); the unit tests check it against a
//! series/continued-fraction reference on a dense grid that includes both
//! tails. Each strip `j` of
//! `m` strips contributes `W_j·H_j` with `W_j = s₀·(ψ(β_hi) − ψ(β_lo))`
//! and `H_j = s₁·ψ(γ_j) ≤ s₁·ψ⁺(T₁)`, where `T_i = (r_i − μ_i)/s_i` and
//! `ψ⁺(t) = max(t, 0) + 0.4 + δ ≥ ψ(t) + δ`. The computed `W̃_j` is off
//! by at most `2·s₀·δ` and `H̃_j` by at most `s₁·δ`, and `Σ W_j ≤
//! s₀·ψ(T₀)` (the strips tile `z₀ < r₀`), so
//!
//! ```text
//! |ẽ − EHVI| ≤ err = s₀·s₁·[δ·(2m·ψ⁺(T₁) + ψ⁺(T₀)) + ρ·(m+3)·ψ⁺(T₀)·ψ⁺(T₁)]
//! ```
//!
//! with `m ≤ (front points in the box) + 1`. The `ρ` term
//! (`EhviCells::rounding_bound`) covers the floating-point rounding of
//! the arguments, products and the `m`-term sum, each a few ulps of
//! `s₀·s₁·ψ⁺(T₀)·ψ⁺(T₁)`, and the rounding of the bound itself; `ρ = 1e-12`
//! is about 9000 ulps. The final `max(0, ·)` of `evaluate` only moves
//! the value towards the non-negative exact EHVI.
//!
//! Chaining the two, with `drift` the two mean terms above: `ẽ′ ≤ EHVI′ +
//! err′ ≤ EHVI + drift + err′ ≤ ẽ + err + drift + err′`, which is
//! `EhviCells::upper_bound`. It is `+∞` whenever a premise fails: a σ
//! grew (possible by rounding on the exact GP, and for any surrogate
//! whose fantasies add variance) or an input is non-finite. A purely relative slack would not do:
//! the computed EHVI can rise when only σ shrinks (a unit test shows it),
//! and the rise is a fixed size set by `δ` and the rounding, so it is
//! large relative to a near-zero EHVI.

use crate::ParetoFront;

/// Bound `δ` on the absolute error of [`psi`] against the exact `ψ`.
///
/// The derivation (module doc) gives `1.2e-7·φ(t) ≤ 4.8e-8`; `δ` doubles
/// that to absorb the rounding of `ψ̃`'s own arithmetic.
pub(crate) const PSI_ERROR: f64 = 1e-7;

/// Relative rounding allowance `ρ` of `EhviCells::rounding_bound`:
/// about 9000 ulps of the EHVI's natural scale `s₀·s₁·ψ⁺(T₀)·ψ⁺(T₁)`.
const ROUNDING: f64 = 1e-12;

/// Floor [`EhviCells::evaluate`] applies to each posterior σ.
const STD_FLOOR: f64 = 1e-12;

/// Standard normal probability density function.
pub(crate) fn normal_pdf(t: f64) -> f64 {
    (-0.5 * t * t).exp() / (2.0 * std::f64::consts::PI).sqrt()
}

/// Standard normal cumulative distribution function,
/// `Φ(t) = ½·erfc(−t/√2)` through `erfc`, Numerical Recipes' `erfcc`
/// (fractional error below `1.2e-7`). [`psi`] built on it is within
/// `PSI_ERROR` of the exact `ψ`.
pub(crate) fn normal_cdf(t: f64) -> f64 {
    0.5 * erfc(-t / std::f64::consts::SQRT_2)
}

/// Complementary error function: Numerical Recipes' `erfcc` (Chebyshev
/// fit), fractional error below `1.2e-7` everywhere.
fn erfc(x: f64) -> f64 {
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

/// `ψ⁺(t) = max(t, 0) + 0.4 + δ`, an upper bound on `ψ̃(t)` and on
/// `ψ(t) + δ` (since `ψ(t) ≤ max(t, 0) + φ(0)` and `φ(0) < 0.4`).
fn psi_ceiling(t: f64) -> f64 {
    t.max(0.0) + 0.4 + PSI_ERROR
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
    reference: [f64; 2],
}

/// A candidate's EHVI as one slot of the batch scan computed it, kept so
/// a later slot can bound the candidate's new EHVI without evaluating it
/// (`EhviCells::upper_bound`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct EhviCertificate {
    /// The posterior the value was computed at.
    post: BiGaussian,
    /// The computed value plus its `EhviCells::rounding_bound`: an upper
    /// bound on the exact EHVI at `post` under that slot's front.
    ceiling: f64,
}

impl EhviCertificate {
    /// A certificate that bounds nothing: every
    /// `EhviCells::upper_bound` from it is `+∞`.
    pub(crate) const NONE: EhviCertificate = EhviCertificate {
        post: BiGaussian {
            mean0: 0.0,
            std0: 0.0,
            mean1: 0.0,
            std1: 0.0,
        },
        ceiling: f64::INFINITY,
    };
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
        EhviCells {
            strips,
            reference: r,
        }
    }

    /// Exact EHVI of a candidate posterior against the decomposed region.
    pub fn evaluate(&self, post: BiGaussian) -> f64 {
        let s0 = post.std0.max(STD_FLOOR);
        let s1 = post.std1.max(STD_FLOOR);
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

    /// Bound `err` (module doc) on `|evaluate(post) − EHVI(post)|`, the
    /// distance between the computed and the exact EHVI. NaN when `post`
    /// has a NaN mean.
    pub(crate) fn rounding_bound(&self, post: BiGaussian) -> f64 {
        let s0 = post.std0.max(STD_FLOOR);
        let s1 = post.std1.max(STD_FLOOR);
        let [r0, r1] = self.reference;
        let p0 = psi_ceiling((r0 - post.mean0) / s0);
        let p1 = psi_ceiling((r1 - post.mean1) / s1);
        let m = self.strips.len() as f64;
        s0 * s1 * (PSI_ERROR * (2.0 * m * p1 + p0) + ROUNDING * (m + 3.0) * p0 * p1)
    }

    /// [`EhviCells::evaluate`] plus the certificate a later slot bounds
    /// the same candidate from.
    pub(crate) fn certify(&self, post: BiGaussian) -> (f64, EhviCertificate) {
        let e = self.evaluate(post);
        let ceiling = e + self.rounding_bound(post);
        (e, EhviCertificate { post, ceiling })
    }

    /// Certified upper bound on `self.evaluate(post)` from a certificate
    /// issued by earlier cells over the same reference point and a front
    /// these cells' front dominates at least as much (the batch scan only
    /// ever inserts fantasies):
    ///
    /// ```text
    /// UB = ceiling_stale + err_new + |Δμ₀|·s₁·ψ⁺((r₁ − min μ₁)/s₁)
    ///                              + |Δμ₁|·s₀·ψ⁺((r₀ − min μ₀)/s₀)
    /// ```
    ///
    /// with the stale σs on the drift terms. `+∞` if either σ (floored
    /// as `evaluate` floors it) grew since the certificate, or any input
    /// is non-finite; never NaN. So `UB < best` proves the candidate's
    /// EHVI is below `best` (module doc).
    pub(crate) fn upper_bound(&self, stale: &EhviCertificate, post: BiGaussian) -> f64 {
        let old = stale.post;
        let inputs = [
            post.mean0,
            post.std0,
            post.mean1,
            post.std1,
            old.mean0,
            old.std0,
            old.mean1,
            old.std1,
            stale.ceiling,
        ];
        if inputs.iter().any(|v| !v.is_finite()) {
            return f64::INFINITY;
        }
        let o0 = old.std0.max(STD_FLOOR);
        let o1 = old.std1.max(STD_FLOOR);
        if post.std0.max(STD_FLOOR) > o0 || post.std1.max(STD_FLOOR) > o1 {
            return f64::INFINITY;
        }
        let [r0, r1] = self.reference;
        let drift0 = (post.mean0 - old.mean0).abs()
            * o1
            * psi_ceiling((r1 - post.mean1.min(old.mean1)) / o1);
        let drift1 = (post.mean1 - old.mean1).abs()
            * o0
            * psi_ceiling((r0 - post.mean0.min(old.mean0)) / o0);
        let ub = stale.ceiling + self.rounding_bound(post) + drift0 + drift1;
        if ub.is_nan() {
            f64::INFINITY
        } else {
            ub
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hypervolume::hypervolume_improvement;
    use proptest::prelude::*;

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

    /// High-accuracy `erfc` for the certification tests: the Taylor
    /// series of `erf` for `|x| ≤ 1`, and the Laplace continued fraction
    /// `erfc(x) = e^{−x²}/√π · 1/(x + ½/(x + 1/(x + 3⁄2/(x + …))))`,
    /// evaluated backwards from a fixed depth, beyond.
    fn erfc_reference(x: f64) -> f64 {
        if x < 0.0 {
            return 2.0 - erfc_reference(-x);
        }
        if x <= 1.0 {
            let mut term = x; // (−1)ⁿ x^{2n+1} / n!
            let mut sum = x;
            for n in 1..200 {
                term *= -x * x / n as f64;
                let add = term / (2 * n + 1) as f64;
                sum += add;
                if add.abs() < 1e-18 * sum.abs() {
                    break;
                }
            }
            return 1.0 - 2.0 / std::f64::consts::PI.sqrt() * sum;
        }
        let mut tail = x;
        for k in (1..=600).rev() {
            tail = x + (k as f64 / 2.0) / tail;
        }
        (-x * x).exp() / std::f64::consts::PI.sqrt() / tail
    }

    /// `ψ` from the reference `erfc`.
    fn psi_reference(t: f64) -> f64 {
        t * 0.5 * erfc_reference(-t / std::f64::consts::SQRT_2) + normal_pdf(t)
    }

    #[test]
    fn reference_erfc_matches_known_values() {
        for (x, want) in [
            (0.5, 0.479_500_122_186_953_5),
            (1.0, 0.157_299_207_050_285_13),
            (2.0, 0.004_677_734_981_047_266),
            (2.5, 0.000_406_952_017_444_959),
            (3.0, 2.209_049_699_858_544e-5),
            (5.0, 1.537_459_794_428_035e-12),
            (10.0, 2.088_487_583_762_545e-45),
        ] {
            let got = erfc_reference(x);
            assert!(
                (got - want).abs() <= 1e-14 * want,
                "erfc({x}) = {got}, want {want}"
            );
        }
    }

    /// The two facts the lazy scan's bound rests on: `erfc` is within a
    /// fractional `1.2e-7` of the reference, and `ψ̃` within
    /// `1.2e-7·φ(t) ≤ 4.8e-8 < PSI_ERROR` of the reference `ψ`, on a dense
    /// grid out to both tails.
    #[test]
    fn psi_error_is_within_the_documented_bound() {
        let mut worst_erfc: f64 = 0.0;
        for i in 0..=6000 {
            let x = -6.0 + i as f64 * 0.005; // [−6, 24]
            let want = erfc_reference(x);
            if want > 1e-300 {
                let frac = (erfc(x) - want).abs() / want;
                assert!(frac < 1.2e-7, "erfc({x}): fractional error {frac:e}");
                worst_erfc = worst_erfc.max(frac);
            }
        }
        let mut worst_psi: f64 = 0.0;
        for i in 0..=16_000 {
            let t = -40.0 + i as f64 * 0.005; // [−40, 40]
            let err = (psi(t) - psi_reference(t)).abs();
            let allowed = 1.2e-7 * normal_pdf(t) + 4.0 * f64::EPSILON * (1.0 + t.abs());
            assert!(err <= allowed, "ψ({t}): error {err:e} > {allowed:e}");
            worst_psi = worst_psi.max(err);
        }
        // 4.8e-8 is the derived bound; `PSI_ERROR` (1e-7) sits above it.
        assert!(worst_psi <= 4.8e-8, "{worst_psi:e}");
        // The bounds are tight enough to mean something: the fit really
        // is this far off somewhere.
        assert!(
            worst_erfc > 1e-8 && worst_psi > 1e-9,
            "{worst_erfc:e} {worst_psi:e}"
        );
    }

    fn post(mean0: f64, std0: f64, mean1: f64, std1: f64) -> BiGaussian {
        BiGaussian {
            mean0,
            std0,
            mean1,
            std1,
        }
    }

    #[test]
    fn upper_bound_is_infinite_on_a_failed_premise() {
        let front: ParetoFront = [[1.0, 3.0], [2.0, 2.0], [3.0, 1.0]].into_iter().collect();
        let cells = EhviCells::new(&front, [4.0, 4.0]);
        let base = post(1.5, 0.5, 1.5, 0.5);
        let (_, cert) = cells.certify(base);
        assert!(cells.upper_bound(&cert, base).is_finite());
        // No certificate yet.
        assert_eq!(
            cells.upper_bound(&EhviCertificate::NONE, base),
            f64::INFINITY
        );
        // A σ that grew, also from a floored value.
        for grown in [post(1.5, 0.6, 1.5, 0.5), post(1.5, 0.5, 1.5, 0.6)] {
            assert_eq!(cells.upper_bound(&cert, grown), f64::INFINITY);
        }
        let (_, floored) = cells.certify(post(1.5, 0.0, 1.5, 0.5));
        assert!(cells
            .upper_bound(&floored, post(1.5, 1e-13, 1.5, 0.5))
            .is_finite());
        assert_eq!(
            cells.upper_bound(&floored, post(1.5, 2e-12, 1.5, 0.5)),
            f64::INFINITY
        );
        // Any non-finite input, new or stale, even one `max` would hide.
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for field in 0..4 {
                let mut p = [1.5, 0.4, 1.5, 0.4];
                p[field] = bad;
                let p = post(p[0], p[1], p[2], p[3]);
                assert_eq!(cells.upper_bound(&cert, p), f64::INFINITY, "new {p:?}");
                let (_, stale) = cells.certify(p);
                assert_eq!(
                    cells.upper_bound(&stale, base),
                    f64::INFINITY,
                    "stale {p:?}"
                );
            }
        }
        // A non-finite reference.
        let open = EhviCells::new(&front, [f64::INFINITY, 4.0]);
        let (_, cert) = open.certify(base);
        assert_eq!(open.upper_bound(&cert, base), f64::INFINITY);
    }

    /// `evaluate` does rise under a pure σ shrink: deep inside the
    /// improvement region the exact EHVI barely depends on σ, and the
    /// rounding of `s·ψ̃((c−μ)/s)` moves with `s`. A bound without the
    /// `err` terms would be wrong here.
    #[test]
    fn ehvi_rises_under_tiny_sigma_shrinks_but_not_past_the_bound() {
        let front: ParetoFront = [[1.0, 3.0], [2.0, 2.0], [3.0, 1.0]].into_iter().collect();
        let cells = EhviCells::new(&front, [4.0, 4.0]);
        let mut rises = 0;
        for i in 0..400 {
            let m = 0.1 + i as f64 * 0.002;
            let old = post(m, 0.01 + m * 0.01, 0.9 - m, 0.02);
            let (e, cert) = cells.certify(old);
            for shrink in [1e-9, 1e-12, 1e-15] {
                let new = post(
                    m,
                    old.std0 * (1.0 - shrink),
                    0.9 - m,
                    old.std1 * (1.0 - shrink),
                );
                let e_new = cells.evaluate(new);
                rises += usize::from(e_new > e);
                assert!(e_new <= cells.upper_bound(&cert, new));
            }
        }
        assert!(rises > 0, "the sweep should hit a rounding rise");
    }

    fn arb_front() -> impl Strategy<Value = Vec<[f64; 2]>> {
        proptest::collection::vec((0.01f64..10.0, 0.01f64..10.0), 0..12)
            .prop_map(|v| v.into_iter().map(|(a, b)| [a, b]).collect())
    }

    /// A step size across many magnitudes, zero included.
    fn arb_step() -> impl Strategy<Value = f64> {
        (0usize..4, -16i32..1, 1.0f64..10.0, proptest::bool::ANY).prop_map(|(kind, exp, m, neg)| {
            let mag = if kind == 0 { 0.0 } else { m * 10f64.powi(exp) };
            if neg {
                -mag
            } else {
                mag
            }
        })
    }

    proptest! {
        /// Shrinking σ, inserting a front point and shifting μ never
        /// raise `evaluate` past the certified bound, alone or together;
        /// a grown σ makes the bound infinite.
        #[test]
        fn upper_bound_holds_for_any_later_slot(
            pts in arb_front(),
            r in (2.0f64..11.0, 2.0f64..11.0),
            mean in (-1.0f64..11.0, -1.0f64..11.0),
            stds in (0.0f64..3.0, 0.0f64..3.0),
            shrink in (arb_step(), arb_step()),
            shift in (arb_step(), arb_step()),
            insert in (proptest::bool::ANY, 0.01f64..11.0, 0.01f64..11.0),
        ) {
            let r = [r.0, r.1];
            let front = ParetoFront::from_points(&pts);
            let old = post(mean.0, stds.0, mean.1, stds.1);
            let (_, cert) = EhviCells::new(&front, r).certify(old);
            let mut later = front.clone();
            if insert.0 {
                later.insert([insert.1, insert.2]);
            }
            let cells = EhviCells::new(&later, r);
            let new = post(
                mean.0 + shift.0,
                stds.0 * (1.0 - shrink.0.abs().min(1.0)),
                mean.1 + shift.1,
                stds.1 * (1.0 - shrink.1.abs().min(1.0)),
            );
            let e = cells.evaluate(new);
            let ub = cells.upper_bound(&cert, new);
            prop_assert!(e <= ub, "{e:e} > {ub:e}");
            let grown = post(new.mean0, stds.0 * 1.5 + 1e-11, new.mean1, new.std1);
            prop_assert_eq!(cells.upper_bound(&cert, grown), f64::INFINITY);
        }
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
