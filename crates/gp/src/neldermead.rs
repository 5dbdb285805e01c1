/// Result of a [`NelderMead`] minimization.
#[derive(Debug, Clone, PartialEq)]
pub struct NelderMeadResult {
    /// Best point found.
    pub x: Vec<f64>,
    /// Objective value at `x`.
    pub value: f64,
    /// Number of objective evaluations used.
    pub evaluations: usize,
    /// Whether the simplex converged before the evaluation budget ran out.
    pub converged: bool,
}

/// Derivative-free simplex minimizer (Nelder–Mead, standard coefficients).
///
/// Used to maximize the GP log marginal likelihood over a handful of
/// log-hyperparameters — a small, smooth, gradient-unfriendly problem that
/// Nelder–Mead handles well. Non-finite objective values are treated as
/// `+∞` so the search simply backs away from degenerate regions.
///
/// # Examples
///
/// ```
/// use bofl_gp::NelderMead;
///
/// let rosenbrock = |x: &[f64]| {
///     (1.0 - x[0]).powi(2) + 100.0 * (x[1] - x[0] * x[0]).powi(2)
/// };
/// let res = NelderMead::new().minimize(rosenbrock, &[-1.2, 1.0]);
/// assert!((res.x[0] - 1.0).abs() < 1e-3);
/// assert!((res.x[1] - 1.0).abs() < 1e-3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NelderMead {
    max_evaluations: usize,
}

/// Convergence tolerance on the simplex value spread. A quadratic basin
/// maps value error to the square of position error, so 1e-12 in value is
/// roughly 1e-6 in position.
const TOLERANCE: f64 = 1e-12;

/// Edge length of the initial simplex.
const INITIAL_STEP: f64 = 0.5;

impl NelderMead {
    /// Creates an optimizer with a 2000-evaluation budget, suited to GP
    /// hyperparameter fitting.
    pub fn new() -> Self {
        NelderMead {
            max_evaluations: 2000,
        }
    }

    /// Sets the evaluation budget.
    pub(crate) fn with_max_evaluations(mut self, n: usize) -> Self {
        self.max_evaluations = n;
        self
    }

    /// Minimizes `f` starting from `x0`.
    ///
    /// # Panics
    ///
    /// Panics if `x0` is empty.
    pub fn minimize(&self, mut f: impl FnMut(&[f64]) -> f64, x0: &[f64]) -> NelderMeadResult {
        assert!(!x0.is_empty(), "starting point must be non-empty");
        let n = x0.len();
        let mut evals = 0usize;
        let mut eval = |x: &[f64], evals: &mut usize| -> f64 {
            *evals += 1;
            let v = f(x);
            if v.is_finite() {
                v
            } else {
                f64::INFINITY
            }
        };

        // Initial simplex: x0 plus a step along each axis.
        let mut simplex: Vec<(Vec<f64>, f64)> = Vec::with_capacity(n + 1);
        let v0 = eval(x0, &mut evals);
        simplex.push((x0.to_vec(), v0));
        for i in 0..n {
            let mut x = x0.to_vec();
            x[i] += INITIAL_STEP;
            let v = eval(&x, &mut evals);
            simplex.push((x, v));
        }

        let (alpha, gamma, rho, sigma) = (1.0, 2.0, 0.5, 0.5);
        let mut converged = false;

        while evals < self.max_evaluations {
            simplex.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("values are finite or inf"));
            let best = simplex[0].1;
            let worst = simplex[n].1;
            // Converge only when both the value spread AND the simplex
            // diameter are small: equal values at distinct vertices (e.g.
            // symmetric around a 1-D minimum) must not stop the search.
            let diameter = simplex[1..]
                .iter()
                .flat_map(|(x, _)| x.iter().zip(&simplex[0].0).map(|(a, b)| (a - b).abs()))
                .fold(0.0f64, f64::max);
            let scale = 1.0 + simplex[0].0.iter().fold(0.0f64, |m, v| m.max(v.abs()));
            if (worst - best).abs() <= TOLERANCE * (1.0 + best.abs())
                && diameter <= TOLERANCE.sqrt() * scale
            {
                converged = true;
                break;
            }

            // Centroid of all but the worst.
            let mut centroid = vec![0.0; n];
            for (x, _) in &simplex[..n] {
                for (c, xi) in centroid.iter_mut().zip(x) {
                    *c += xi / n as f64;
                }
            }

            let worst_x = simplex[n].0.clone();
            let reflect: Vec<f64> = centroid
                .iter()
                .zip(&worst_x)
                .map(|(c, w)| c + alpha * (c - w))
                .collect();
            let fr = eval(&reflect, &mut evals);

            if fr < simplex[0].1 {
                // Try expansion.
                let expand: Vec<f64> = centroid
                    .iter()
                    .zip(&worst_x)
                    .map(|(c, w)| c + gamma * (c - w))
                    .collect();
                let fe = eval(&expand, &mut evals);
                simplex[n] = if fe < fr { (expand, fe) } else { (reflect, fr) };
            } else if fr < simplex[n - 1].1 {
                simplex[n] = (reflect, fr);
            } else {
                // Contraction.
                let contract: Vec<f64> = centroid
                    .iter()
                    .zip(&worst_x)
                    .map(|(c, w)| c + rho * (w - c))
                    .collect();
                let fc = eval(&contract, &mut evals);
                if fc < simplex[n].1 {
                    simplex[n] = (contract, fc);
                } else {
                    // Shrink toward the best vertex.
                    let best_x = simplex[0].0.clone();
                    for item in simplex.iter_mut().skip(1) {
                        let x: Vec<f64> = best_x
                            .iter()
                            .zip(&item.0)
                            .map(|(b, xi)| b + sigma * (xi - b))
                            .collect();
                        let v = eval(&x, &mut evals);
                        *item = (x, v);
                    }
                }
            }
        }

        simplex.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("values are finite or inf"));
        let (x, value) = simplex.swap_remove(0);
        NelderMeadResult {
            x,
            value,
            evaluations: evals,
            converged,
        }
    }
}

impl Default for NelderMead {
    fn default() -> Self {
        NelderMead::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimizes_quadratic() {
        let res = NelderMead::new().minimize(
            |x| (x[0] - 3.0).powi(2) + (x[1] + 1.0).powi(2) + 5.0,
            &[0.0, 0.0],
        );
        assert!((res.x[0] - 3.0).abs() < 1e-4);
        assert!((res.x[1] + 1.0).abs() < 1e-4);
        assert!((res.value - 5.0).abs() < 1e-6);
        assert!(res.converged);
    }

    #[test]
    fn minimizes_rosenbrock_2d() {
        let res = NelderMead::new().with_max_evaluations(5000).minimize(
            |x| (1.0 - x[0]).powi(2) + 100.0 * (x[1] - x[0] * x[0]).powi(2),
            &[-1.2, 1.0],
        );
        assert!((res.x[0] - 1.0).abs() < 1e-3, "x0 = {}", res.x[0]);
        assert!((res.x[1] - 1.0).abs() < 1e-3, "x1 = {}", res.x[1]);
    }

    #[test]
    fn handles_infinite_regions() {
        // Objective is infinite left of x = 0; the simplex must retreat.
        let res = NelderMead::new().minimize(
            |x| {
                if x[0] < 0.0 {
                    f64::INFINITY
                } else {
                    (x[0] - 1.0).powi(2)
                }
            },
            &[2.0],
        );
        assert!((res.x[0] - 1.0).abs() < 1e-4);
    }

    #[test]
    fn respects_budget() {
        let res = NelderMead::new()
            .with_max_evaluations(10)
            .minimize(|x| x[0] * x[0], &[100.0]);
        assert!(res.evaluations <= 12); // initial simplex + a step or two
    }

    #[test]
    fn one_dimensional() {
        let res = NelderMead::new().minimize(|x| (x[0] - 0.25).powi(2), &[5.0]);
        assert!((res.x[0] - 0.25).abs() < 1e-5);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn rejects_empty_start() {
        let _ = NelderMead::new().minimize(|_| 0.0, &[]);
    }
}
