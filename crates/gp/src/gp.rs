use crate::{GpError, Matern52, NelderMead, PairTable};
use bofl_linalg::{Cholesky, Matrix, Standardizer};
use std::sync::atomic::{AtomicU64, Ordering};

/// Source of [`GaussianProcess`] identities. Every fit and every
/// fantasy conditioning draws a fresh id, so a [`PredictCache`] can tell
/// "the model my rows describe", "its one-point fantasy" and "anything
/// else" apart. `0` is never issued.
static NEXT_MODEL_ID: AtomicU64 = AtomicU64::new(1);

fn next_model_id() -> u64 {
    NEXT_MODEL_ID.fetch_add(1, Ordering::Relaxed)
}

/// Rows added past the current observation count when a
/// [`PredictCache`] is (re)built, so a batch of fantasies appends in
/// place; a longer chain rebuilds the cache once per overflow.
const CACHE_HEADROOM: usize = 16;

/// Posterior predictive distribution of the latent function at one point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Posterior {
    /// Posterior mean in original output units.
    pub mean: f64,
    /// Posterior variance of the *latent* function (measurement noise not
    /// included), in original output units squared.
    pub variance: f64,
}

impl Posterior {
    /// Posterior standard deviation.
    pub fn std(&self) -> f64 {
        self.variance.max(0.0).sqrt()
    }
}

/// Hyperparameters carried over from a previous fit, used to seed the
/// next one (see [`GpConfig::warm_start`]).
#[derive(Debug, Clone, PartialEq)]
pub struct WarmStart {
    /// Kernel variance (standardized units).
    pub variance: f64,
    /// ARD lengthscales, one per input dimension.
    pub lengthscales: Vec<f64>,
    /// Observation-noise variance (standardized units).
    pub noise: f64,
}

/// Configuration for fitting a [`GaussianProcess`].
#[derive(Debug, Clone, PartialEq)]
pub struct GpConfig {
    /// Number of Nelder–Mead restarts for the MLE fit (0 disables
    /// hyperparameter optimization and keeps heuristic defaults).
    pub restarts: usize,
    /// Evaluation budget per restart.
    pub max_evaluations: usize,
    /// Hyperparameters from a previous fit. When set, they seed the first
    /// Nelder–Mead start (displacing one deterministic start), so a
    /// refit after a few new observations converges in a fraction of the
    /// evaluations; with `restarts: 0` they are adopted verbatim. Invalid
    /// warm starts (wrong dimension, non-finite or non-positive values)
    /// are ignored.
    pub warm_start: Option<WarmStart>,
}

impl Default for GpConfig {
    fn default() -> Self {
        GpConfig {
            restarts: 3,
            max_evaluations: 400,
            warm_start: None,
        }
    }
}

/// Exact Gaussian-process regression with zero prior mean on standardized
/// outputs (equivalently, a constant-mean prior at the data mean — the
/// paper's `m(x) = 0` prior after its own standardization), a Matérn-5/2
/// ARD kernel and fitted Gaussian observation noise.
///
/// Complexity is the textbook `O(n³)` Cholesky; BoFL's observation sets
/// stay well under a couple hundred points (it explores ~3% of a 2100-point
/// space), so this is the right tool.
///
/// # Examples
///
/// ```
/// use bofl_gp::{GaussianProcess, GpConfig};
///
/// # fn main() -> Result<(), bofl_gp::GpError> {
/// let xs = vec![vec![0.0], vec![0.5], vec![1.0]];
/// let ys = vec![1.0, 0.0, 1.0];
/// let gp = GaussianProcess::fit(&xs, &ys, GpConfig::default())?;
/// // The posterior interpolates near the observations…
/// assert!((gp.predict(&[0.0])?.mean - 1.0).abs() < 0.2);
/// // …and is more certain at observed points than between them.
/// assert!(gp.predict(&[0.0])?.variance <= gp.predict(&[0.25])?.variance + 1e-9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct GaussianProcess {
    xs: Vec<Vec<f64>>,
    ys_std: Vec<f64>,
    y_transform: Standardizer,
    kernel: Matern52,
    noise_variance: f64,
    chol: Cholesky,
    alpha: Vec<f64>,
    dim: usize,
    /// Identity of this posterior (see [`PredictCache`]); a clone keeps
    /// it, since it is the same posterior.
    id: u64,
    /// Id of the model this one was conditioned from, `0` for a fit.
    parent: u64,
}

/// Per-candidate scan state a chunk of queries carries along a
/// Kriging-believer fantasy chain (`GaussianProcess::predict_batch_cached`).
///
/// For each query `c` it keeps the kernel row `k*(c)`, the half-solve
/// `v = L⁻¹k*` and the running `Σ vᵢ²`, one flat buffer of
/// `queries × stride` per vector. Conditioning appends one bordered row
/// to the Cholesky factor and one training point, and leaves every
/// earlier row, point and hyperparameter as it was, so moving the cache
/// one fantasy down the chain costs one kernel evaluation and one
/// forward-substitution row per query instead of `n` evaluations and an
/// `O(n²)` solve.
///
/// The cache is tagged with the id of the model its rows describe and a
/// copy of the query coordinates. It is reused only by that model, and
/// extended only by that model's one-point fantasy on the same queries;
/// any other model — a fresh fit, other hyperparameters, fewer
/// observations, a sibling fantasy — or other queries rebuild it from
/// scratch. A default (empty) cache always rebuilds.
#[derive(Debug, Default)]
pub struct PredictCache {
    /// Id of the model the rows describe; `0` when empty or invalidated.
    model: u64,
    /// Flattened coordinates of the queries the rows were built for.
    queries: Vec<f64>,
    /// Observations reflected in each row.
    n: usize,
    /// Row capacity per query.
    stride: usize,
    k: Vec<f64>,
    v: Vec<f64>,
    sumsq: Vec<f64>,
}

impl PredictCache {
    /// `true` if the rows were built for exactly these query points.
    fn holds_queries(&self, queries: &[Vec<f64>]) -> bool {
        let mut flat = self.queries.iter();
        queries
            .iter()
            .flatten()
            .all(|q| flat.next().is_some_and(|c| c.to_bits() == q.to_bits()))
            && flat.next().is_none()
    }

    /// Drops all rows and sizes the buffers for `queries` at `n`
    /// observations plus headroom.
    fn rebuild(&mut self, queries: &[Vec<f64>], n: usize) {
        let m = queries.len();
        self.model = 0;
        self.queries.clear();
        self.queries.extend(queries.iter().flatten());
        self.n = 0;
        self.stride = n + CACHE_HEADROOM;
        self.k.clear();
        self.k.resize(m * self.stride, 0.0);
        self.v.clear();
        self.v.resize(m * self.stride, 0.0);
        self.sumsq.clear();
        self.sumsq.resize(m, 0.0);
    }
}

impl GaussianProcess {
    /// Fits a GP to observations `(xs[i], ys[i])`.
    ///
    /// Outputs are standardized internally; hyperparameters (kernel
    /// variance, ARD lengthscales and observation noise) are chosen by
    /// multi-start Nelder–Mead on the log marginal likelihood.
    ///
    /// # Errors
    ///
    /// Returns [`GpError::NoData`] for empty input,
    /// [`GpError::DimensionMismatch`] for ragged/mismatched inputs,
    /// [`GpError::NonFinite`] if any coordinate or target is NaN/infinite,
    /// and [`GpError::Linalg`] if the final Gram matrix cannot be factored.
    pub fn fit(xs: &[Vec<f64>], ys: &[f64], config: GpConfig) -> Result<Self, GpError> {
        if xs.is_empty() {
            return Err(GpError::NoData);
        }
        if xs.len() != ys.len() {
            return Err(GpError::DimensionMismatch {
                detail: format!("{} inputs but {} targets", xs.len(), ys.len()),
            });
        }
        let dim = xs[0].len();
        if dim == 0 {
            return Err(GpError::DimensionMismatch {
                detail: "points must have at least one dimension".into(),
            });
        }
        if xs.iter().any(|x| x.len() != dim) {
            return Err(GpError::DimensionMismatch {
                detail: "ragged input points".into(),
            });
        }
        if xs.iter().flatten().any(|v| !v.is_finite()) || ys.iter().any(|v| !v.is_finite()) {
            return Err(GpError::NonFinite);
        }

        let y_transform = Standardizer::fit(ys).map_err(GpError::from)?;
        let ys_std: Vec<f64> = ys.iter().map(|&y| y_transform.apply(y)).collect();

        // A warm start is only usable if it matches this problem's shape
        // and is numerically sane.
        let warm = config.warm_start.as_ref().filter(|w| {
            w.lengthscales.len() == dim
                && w.variance.is_finite()
                && w.variance > 0.0
                && w.noise.is_finite()
                && w.noise > 0.0
                && w.lengthscales.iter().all(|l| l.is_finite() && *l > 0.0)
        });

        let (variance, lengthscales, noise) = if config.restarts == 0 || xs.len() < 3 {
            match warm {
                Some(w) => (w.variance, w.lengthscales.clone(), w.noise.max(1e-9)),
                None => Self::default_hyperparameters(dim),
            }
        } else {
            Self::optimize_hyperparameters(xs, &ys_std, &config, dim, warm)
        };

        let kernel = Matern52::new(variance, &lengthscales);
        let (chol, alpha) = Self::build_posterior(xs, &ys_std, &kernel, noise)?;

        Ok(GaussianProcess {
            xs: xs.to_vec(),
            ys_std,
            y_transform,
            kernel,
            noise_variance: noise,
            chol,
            alpha,
            dim,
            id: next_model_id(),
            parent: 0,
        })
    }

    /// Heuristic hyperparameters on standardized data (inputs are
    /// unit-cube coordinates in BoFL), used when no fit runs or every
    /// start fails.
    fn default_hyperparameters(dim: usize) -> (f64, Vec<f64>, f64) {
        (1.0, vec![0.3; dim], 1e-3)
    }

    /// Builds the Gram Cholesky and the weight vector `α = K⁻¹ y`.
    fn build_posterior(
        xs: &[Vec<f64>],
        ys_std: &[f64],
        kernel: &Matern52,
        noise: f64,
    ) -> Result<(Cholesky, Vec<f64>), GpError> {
        let n = xs.len();
        let mut gram = Matrix::zeros(n, n);
        PairTable::new(xs).fill_gram_lower(
            &mut gram,
            kernel.variance(),
            kernel.lengthscales(),
            noise,
        );
        let chol = Cholesky::factor(&gram)?;
        let alpha = chol.solve(ys_std)?;
        Ok((chol, alpha))
    }

    /// Negated log marginal likelihood `½ yᵀα + ½ log|K| + ½ n ln 2π` from
    /// the Gram factor and `α = K⁻¹y`.
    fn neg_log_likelihood(chol: &Cholesky, alpha: &[f64], ys_std: &[f64]) -> f64 {
        let data_fit: f64 = ys_std.iter().zip(alpha).map(|(y, a)| y * a).sum();
        let n = ys_std.len() as f64;
        0.5 * data_fit + 0.5 * chol.log_det() + 0.5 * n * (2.0 * std::f64::consts::PI).ln()
    }

    fn optimize_hyperparameters(
        xs: &[Vec<f64>],
        ys_std: &[f64],
        config: &GpConfig,
        dim: usize,
        warm: Option<&WarmStart>,
    ) -> (f64, Vec<f64>, f64) {
        let n_params = dim + 2;
        let n = xs.len();

        // The pair differences, the Gram buffer and the lengthscales are
        // built once for the whole optimization; each likelihood
        // evaluation overwrites them in place instead of allocating.
        let mut pairs = PairTable::new(xs);
        let mut gram = Matrix::zeros(n, n);
        let mut ls = vec![0.0; dim];
        let mut objective = |theta: &[f64]| -> f64 {
            // theta = [log σ², log ℓ₁…ℓ_d, log σ_n²]
            let variance = theta[0].exp();
            for (l, log_l) in ls.iter_mut().zip(&theta[1..=dim]) {
                *l = log_l.exp();
            }
            let noise = theta[dim + 1].exp();
            if !(1e-8..=1e4).contains(&variance)
                || ls.iter().any(|l| !(1e-4..=1e3).contains(l))
                || !(1e-9..=1.0).contains(&noise)
            {
                return f64::INFINITY;
            }
            pairs.fill_gram_lower(&mut gram, variance, &ls, noise);
            let Ok(chol) = Cholesky::factor(&gram) else {
                return f64::INFINITY;
            };
            let Ok(alpha) = chol.solve(ys_std) else {
                return f64::INFINITY;
            };
            Self::neg_log_likelihood(&chol, &alpha, ys_std)
        };

        // The warm start (when valid) displaces the first deterministic
        // start, so a 1-restart refit is seeded at the previous optimum.
        let total_starts = config.restarts.max(1);
        let mut starts: Vec<Vec<f64>> = Vec::with_capacity(total_starts);
        if let Some(w) = warm {
            let mut s = vec![0.0; n_params];
            s[0] = w.variance.clamp(1e-8, 1e4).ln();
            for (slot, l) in s[1..=dim].iter_mut().zip(&w.lengthscales) {
                *slot = l.clamp(1e-4, 1e3).ln();
            }
            s[dim + 1] = w.noise.clamp(1e-9, 1.0).ln();
            starts.push(s);
        }
        let mut r = 0;
        while starts.len() < total_starts {
            // Deterministic spread of starting points: vary the
            // lengthscale scale per restart.
            let ls0 = 0.1 * 3f64.powi(r); // 0.1, 0.3, 0.9, …
            let mut s = vec![0.0; n_params];
            s[0] = 0.0; // log σ² = 0 (standardized outputs)
            for v in s.iter_mut().take(dim + 1).skip(1) {
                *v = ls0.ln();
            }
            s[dim + 1] = (1e-3f64).ln();
            starts.push(s);
            r += 1;
        }

        let mut best: Option<(f64, Vec<f64>)> = None;
        let nm = NelderMead::new().with_max_evaluations(config.max_evaluations);
        for s in starts {
            let res = nm.minimize(&mut objective, &s);
            if res.value.is_finite() && best.as_ref().is_none_or(|(v, _)| res.value < *v) {
                best = Some((res.value, res.x));
            }
        }

        match best {
            Some((_, theta)) => {
                let variance = theta[0].exp();
                let ls: Vec<f64> = theta[1..=dim].iter().map(|v| v.exp()).collect();
                (variance, ls, theta[dim + 1].exp().max(1e-9))
            }
            None => Self::default_hyperparameters(dim),
        }
    }

    /// Number of observations the posterior is conditioned on.
    pub(crate) fn len(&self) -> usize {
        self.xs.len()
    }

    /// Input dimensionality.
    pub(crate) fn dim(&self) -> usize {
        self.dim
    }

    /// The fitted kernel.
    pub fn kernel(&self) -> &Matern52 {
        &self.kernel
    }

    /// The fitted observation-noise variance (standardized units).
    pub fn noise_variance(&self) -> f64 {
        self.noise_variance
    }

    /// Posterior predictive distribution at `x`.
    ///
    /// # Errors
    ///
    /// Returns [`GpError::DimensionMismatch`] if `x` has the wrong
    /// dimension and [`GpError::NonFinite`] if it contains NaN/infinities.
    pub fn predict(&self, x: &[f64]) -> Result<Posterior, GpError> {
        self.validate_query(x)?;
        let mut k_star = vec![0.0; self.xs.len()];
        self.kernel.row_into(&self.xs, x, &mut k_star);
        let mean_std: f64 = k_star.iter().zip(&self.alpha).map(|(k, a)| k * a).sum();
        let v = self.chol.solve_half(&k_star)?;
        Ok(self.posterior(mean_std, v.iter().map(|vi| vi * vi).sum::<f64>()))
    }

    /// Posterior predictive distributions at a batch of query points.
    ///
    /// Equivalent to calling [`GaussianProcess::predict`] per query, but
    /// validates once and fills one flat scratch buffer for the whole
    /// batch, so scanning a large candidate set does not allocate per
    /// point. It is `GaussianProcess::predict_batch_cached` with a
    /// fresh cache.
    ///
    /// # Errors
    ///
    /// Same conditions as [`GaussianProcess::predict`]; validation covers
    /// the whole batch before any prediction is computed.
    pub fn predict_batch(&self, queries: &[Vec<f64>]) -> Result<Vec<Posterior>, GpError> {
        self.predict_batch_cached(queries, &mut PredictCache::default())
    }

    /// [`GaussianProcess::predict_batch`] that carries its per-query
    /// state in `cache` from one model of a fantasy chain to the next.
    ///
    /// When `cache` holds rows for this model's parent (the model
    /// [`GaussianProcess::condition_on`] was called on) over the same
    /// queries, each query costs one kernel evaluation, one
    /// forward-substitution row ([`Cholesky::solve_half_from`]) and the
    /// `O(n)` mean dot; for this model itself, only the mean dot. Any
    /// other cache is rebuilt at the cost of a from-scratch prediction.
    ///
    /// The result is bitwise identical to a fresh cache's (that is, to
    /// [`GaussianProcess::predict_batch`]): each `vᵢ` is
    /// the same `dot_kernel` call over the same row prefix, `Σ vᵢ²`
    /// continues the same left-to-right fold, and the mean is the same
    /// `k*·α` expression (α changes entirely with every fantasy, so it
    /// is recomputed, not cached).
    ///
    /// # Errors
    ///
    /// Same conditions as [`GaussianProcess::predict_batch`]. A failed
    /// solve leaves the cache invalidated, so the next call rebuilds it.
    pub(crate) fn predict_batch_cached(
        &self,
        queries: &[Vec<f64>],
        cache: &mut PredictCache,
    ) -> Result<Vec<Posterior>, GpError> {
        queries.iter().try_for_each(|x| self.validate_query(x))?;
        let n = self.xs.len();
        let reusable = cache.model != 0 && cache.holds_queries(queries);
        let from = if reusable && cache.model == self.id && cache.n == n {
            n
        } else if reusable && cache.model == self.parent && cache.n + 1 == n && n <= cache.stride {
            cache.n
        } else {
            cache.rebuild(queries, n);
            0
        };
        // Rows are half-updated until the loop finishes.
        cache.model = 0;
        let stride = cache.stride;
        let mut out = Vec::with_capacity(queries.len());
        for (c, x) in queries.iter().enumerate() {
            let row = c * stride..c * stride + n;
            let k_star = &mut cache.k[row.clone()];
            self.kernel
                .row_into(&self.xs[from..], x, &mut k_star[from..]);
            let mean_std: f64 = k_star.iter().zip(&self.alpha).map(|(k, a)| k * a).sum();
            let v = &mut cache.v[row];
            self.chol.solve_half_from(k_star, v, from)?;
            // Same association order as `predict` (a left-to-right fold),
            // so a fresh cache agrees with scalar prediction bitwise and
            // continuing the fold from the cached prefix sum adds the
            // terms in the same order.
            let sumsq = if from == 0 {
                v.iter().map(|vi| vi * vi).sum::<f64>()
            } else {
                v[from..]
                    .iter()
                    .fold(cache.sumsq[c], |acc, vi| acc + vi * vi)
            };
            cache.sumsq[c] = sumsq;
            out.push(self.posterior(mean_std, sumsq));
        }
        cache.n = n;
        cache.model = self.id;
        Ok(out)
    }

    /// Rejects a query of the wrong dimension or with non-finite
    /// coordinates.
    fn validate_query(&self, x: &[f64]) -> Result<(), GpError> {
        if x.len() != self.dim {
            return Err(GpError::DimensionMismatch {
                detail: format!("query dim {} vs model dim {}", x.len(), self.dim),
            });
        }
        if x.iter().any(|v| !v.is_finite()) {
            return Err(GpError::NonFinite);
        }
        Ok(())
    }

    /// Posterior in output units from the standardized mean `k*·α` and
    /// the quadratic form `‖L⁻¹k*‖²`.
    fn posterior(&self, mean_std: f64, sumsq: f64) -> Posterior {
        let var_std = (self.kernel.variance() - sumsq).max(0.0);
        Posterior {
            mean: self.y_transform.invert(mean_std),
            variance: var_std * self.y_transform.scale() * self.y_transform.scale(),
        }
    }

    /// Returns a new GP conditioned on one additional *fantasized*
    /// observation `(x, y)` without re-optimizing hyperparameters — the
    /// "Kriging believer" step of the paper's sequential-greedy batch
    /// selection (§4.3 step 2).
    ///
    /// Cost is `O(n²)`: the existing Cholesky factor is extended by one
    /// bordered row ([`Cholesky::extend`]) and the weight vector re-solved
    /// against it, so fantasizing `k` points in sequence costs `O(k·n²)`
    /// rather than the `O(k·n³)` of refactoring from scratch each step.
    ///
    /// # Errors
    ///
    /// Same conditions as [`GaussianProcess::predict`], plus
    /// [`GpError::Linalg`] if the extended Gram matrix cannot be factored.
    pub fn condition_on(&self, x: &[f64], y: f64) -> Result<GaussianProcess, GpError> {
        self.validate_query(x)?;
        if !y.is_finite() {
            return Err(GpError::NonFinite);
        }
        let mut k_star = vec![0.0; self.xs.len()];
        self.kernel.row_into(&self.xs, x, &mut k_star);
        let border_diag = self.kernel.eval(x, x) + self.noise_variance;
        let chol = self.chol.extend(&k_star, border_diag)?;
        let mut xs = self.xs.clone();
        xs.push(x.to_vec());
        let mut ys_std = self.ys_std.clone();
        ys_std.push(self.y_transform.apply(y));
        let alpha = chol.solve(&ys_std)?;
        Ok(GaussianProcess {
            xs,
            ys_std,
            y_transform: self.y_transform,
            kernel: self.kernel.clone(),
            noise_variance: self.noise_variance,
            chol,
            alpha,
            dim: self.dim,
            id: next_model_id(),
            parent: self.id,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Log marginal likelihood of the training data under the fitted
    /// hyperparameters.
    fn log_marginal_likelihood(gp: &GaussianProcess) -> f64 {
        match GaussianProcess::build_posterior(&gp.xs, &gp.ys_std, &gp.kernel, gp.noise_variance) {
            Ok((chol, alpha)) => -GaussianProcess::neg_log_likelihood(&chol, &alpha, &gp.ys_std),
            Err(_) => f64::NEG_INFINITY,
        }
    }

    fn grid_1d(n: usize) -> Vec<Vec<f64>> {
        (0..n).map(|i| vec![i as f64 / (n - 1) as f64]).collect()
    }

    #[test]
    fn interpolates_smooth_function() {
        let xs = grid_1d(10);
        let ys: Vec<f64> = xs.iter().map(|x| (4.0 * x[0]).sin() + 2.0).collect();
        let gp = GaussianProcess::fit(&xs, &ys, GpConfig::default()).unwrap();
        for (x, y) in xs.iter().zip(&ys) {
            let p = gp.predict(x).unwrap();
            assert!((p.mean - y).abs() < 0.05, "at {x:?}: {} vs {}", p.mean, y);
        }
        // Interior prediction.
        let p = gp.predict(&[0.275]).unwrap();
        assert!((p.mean - ((4.0 * 0.275f64).sin() + 2.0)).abs() < 0.1);
    }

    #[test]
    fn variance_shrinks_at_observations() {
        let xs = grid_1d(6);
        let ys: Vec<f64> = xs.iter().map(|x| x[0] * x[0]).collect();
        let gp = GaussianProcess::fit(&xs, &ys, GpConfig::default()).unwrap();
        let at_obs = gp.predict(&xs[2]).unwrap().variance;
        let between = gp.predict(&[0.5 / 5.0 + 1.5 / 5.0]).unwrap().variance;
        let far = gp.predict(&[3.0]).unwrap().variance;
        assert!(at_obs <= between + 1e-12);
        assert!(between < far);
    }

    #[test]
    fn reverts_to_prior_far_away() {
        let xs = grid_1d(5);
        let ys = vec![10.0, 11.0, 10.5, 10.2, 10.8];
        let gp = GaussianProcess::fit(&xs, &ys, GpConfig::default()).unwrap();
        let p = gp.predict(&[50.0]).unwrap();
        // Zero-mean prior on standardized outputs → reverts to data mean.
        let data_mean = ys.iter().sum::<f64>() / ys.len() as f64;
        assert!((p.mean - data_mean).abs() < 0.5);
    }

    #[test]
    fn condition_on_pins_the_fantasy() {
        let xs = grid_1d(5);
        let ys: Vec<f64> = xs.iter().map(|x| x[0]).collect();
        let gp = GaussianProcess::fit(&xs, &ys, GpConfig::default()).unwrap();
        let before = gp.predict(&[0.55]).unwrap();
        let gp2 = gp.condition_on(&[0.55], 3.0).unwrap();
        assert_eq!(gp2.len(), gp.len() + 1);
        let p = gp2.predict(&[0.55]).unwrap();
        // The fantasy value (3.0) conflicts with the nearby observation at
        // x = 0.5 (y = 0.5), so the posterior compromises — but it must
        // move substantially toward the fantasy and become more certain.
        assert!(
            p.mean > before.mean + 0.5,
            "fantasy should pull the mean up: {} -> {}",
            before.mean,
            p.mean
        );
        assert!(p.variance < before.variance + 1e-12);
    }

    #[test]
    fn clone_preserves_predictions() {
        let xs = grid_1d(5);
        let ys: Vec<f64> = xs.iter().map(|x| x[0].cos()).collect();
        let gp = GaussianProcess::fit(&xs, &ys, GpConfig::default()).unwrap();
        let gp2 = gp.clone();
        let a = gp.predict(&[0.3]).unwrap();
        let b = gp2.predict(&[0.3]).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn input_validation() {
        assert!(matches!(
            GaussianProcess::fit(&[], &[], GpConfig::default()).unwrap_err(),
            GpError::NoData
        ));
        let xs = vec![vec![0.0], vec![1.0]];
        assert!(matches!(
            GaussianProcess::fit(&xs, &[1.0], GpConfig::default()).unwrap_err(),
            GpError::DimensionMismatch { .. }
        ));
        let ragged = vec![vec![0.0], vec![1.0, 2.0]];
        assert!(matches!(
            GaussianProcess::fit(&ragged, &[1.0, 2.0], GpConfig::default()).unwrap_err(),
            GpError::DimensionMismatch { .. }
        ));
        assert!(matches!(
            GaussianProcess::fit(&xs, &[1.0, f64::NAN], GpConfig::default()).unwrap_err(),
            GpError::NonFinite
        ));
        let gp = GaussianProcess::fit(&xs, &[1.0, 2.0], GpConfig::default()).unwrap();
        assert!(gp.predict(&[0.0, 1.0]).is_err());
        assert!(gp.predict(&[f64::INFINITY]).is_err());
        assert!(gp.condition_on(&[0.5], f64::NAN).is_err());
    }

    #[test]
    fn mle_beats_bad_defaults() {
        // A fast-varying function: MLE should pick a short lengthscale and
        // yield a higher marginal likelihood than a fixed long one.
        let xs = grid_1d(15);
        let ys: Vec<f64> = xs.iter().map(|x| (20.0 * x[0]).sin()).collect();
        let fitted = GaussianProcess::fit(&xs, &ys, GpConfig::default()).unwrap();
        let fixed = GaussianProcess::fit(
            &xs,
            &ys,
            GpConfig {
                restarts: 0,
                ..GpConfig::default()
            },
        )
        .unwrap();
        assert!(log_marginal_likelihood(&fitted) >= log_marginal_likelihood(&fixed) - 1e-6);
        assert!(fitted.kernel().lengthscales()[0] < 0.3);
    }

    #[test]
    fn multi_dim_inputs() {
        // f(x) = x₀ + 2 x₁ on the unit square.
        let mut xs = Vec::new();
        for i in 0..5 {
            for j in 0..5 {
                xs.push(vec![i as f64 / 4.0, j as f64 / 4.0]);
            }
        }
        let ys: Vec<f64> = xs.iter().map(|x| x[0] + 2.0 * x[1]).collect();
        let gp = GaussianProcess::fit(&xs, &ys, GpConfig::default()).unwrap();
        let p = gp.predict(&[0.6, 0.4]).unwrap();
        assert!((p.mean - 1.4).abs() < 0.1, "{}", p.mean);
        assert_eq!(gp.dim(), 2);
        assert_eq!(gp.len(), 25);
    }

    #[test]
    fn constant_targets_do_not_crash() {
        let xs = grid_1d(4);
        let ys = vec![5.0; 4];
        let gp = GaussianProcess::fit(&xs, &ys, GpConfig::default()).unwrap();
        let p = gp.predict(&[0.5]).unwrap();
        assert!((p.mean - 5.0).abs() < 1e-6);
    }

    #[test]
    fn single_observation() {
        let gp = GaussianProcess::fit(&[vec![0.5]], &[2.0], GpConfig::default()).unwrap();
        let p = gp.predict(&[0.5]).unwrap();
        assert!((p.mean - 2.0).abs() < 1e-6);
    }

    #[test]
    fn predict_batch_matches_predict() {
        let xs = grid_1d(8);
        let ys: Vec<f64> = xs.iter().map(|x| (3.0 * x[0]).cos()).collect();
        let gp = GaussianProcess::fit(&xs, &ys, GpConfig::default()).unwrap();
        let queries: Vec<Vec<f64>> = (0..30).map(|i| vec![i as f64 / 29.0]).collect();
        let batch = gp.predict_batch(&queries).unwrap();
        assert_eq!(batch.len(), queries.len());
        for (q, b) in queries.iter().zip(&batch) {
            let p = gp.predict(q).unwrap();
            assert_eq!(p, *b, "batch and scalar prediction diverge at {q:?}");
        }
        // Batch validation covers every query before computing anything.
        assert!(gp.predict_batch(&[vec![0.1], vec![0.1, 0.2]]).is_err());
        assert!(gp.predict_batch(&[vec![f64::NAN]]).is_err());
        assert!(gp.predict_batch(&[]).unwrap().is_empty());
    }

    #[test]
    fn condition_on_matches_from_scratch_posterior() {
        // The incremental (bordered-Cholesky) conditioning must agree with
        // refitting the posterior from scratch at fixed hyperparameters.
        let xs = grid_1d(7);
        let ys: Vec<f64> = xs.iter().map(|x| (5.0 * x[0]).sin() + x[0]).collect();
        let gp = GaussianProcess::fit(&xs, &ys, GpConfig::default()).unwrap();
        let inc = gp.condition_on(&[0.42], 1.7).unwrap();

        let mut xs2 = xs.clone();
        xs2.push(vec![0.42]);
        let mut ys_std2 = gp.ys_std.clone();
        ys_std2.push(gp.y_transform.apply(1.7));
        let (chol, alpha) =
            GaussianProcess::build_posterior(&xs2, &ys_std2, &gp.kernel, gp.noise_variance)
                .unwrap();
        for (a, b) in inc.alpha.iter().zip(&alpha) {
            assert!((a - b).abs() < 1e-8, "alpha diverged: {a} vs {b}");
        }
        assert!((inc.chol.log_det() - chol.log_det()).abs() < 1e-8);
        for q in [0.0, 0.25, 0.42, 0.77, 1.0] {
            let scratch = GaussianProcess {
                xs: xs2.clone(),
                ys_std: ys_std2.clone(),
                y_transform: gp.y_transform,
                kernel: gp.kernel.clone(),
                noise_variance: gp.noise_variance,
                chol: chol.clone(),
                alpha: alpha.clone(),
                dim: 1,
                id: next_model_id(),
                parent: 0,
            };
            let pi = inc.predict(&[q]).unwrap();
            let ps = scratch.predict(&[q]).unwrap();
            assert!((pi.mean - ps.mean).abs() < 1e-8);
            assert!((pi.variance - ps.variance).abs() < 1e-8);
        }
    }

    #[test]
    fn warm_start_reproduces_full_fit_quality() {
        let xs = grid_1d(12);
        let ys: Vec<f64> = xs.iter().map(|x| (8.0 * x[0]).sin()).collect();
        let full = GaussianProcess::fit(&xs, &ys, GpConfig::default()).unwrap();
        let warm = WarmStart {
            variance: full.kernel().variance(),
            lengthscales: full.kernel().lengthscales().to_vec(),
            noise: full.noise_variance(),
        };
        // A 1-restart warm refit on slightly grown data must match the
        // likelihood a full multi-start fit achieves (within slack).
        let mut xs2 = xs.clone();
        xs2.push(vec![0.43]);
        let mut ys2 = ys.clone();
        ys2.push((8.0f64 * 0.43).sin());
        let warm_fit = GaussianProcess::fit(
            &xs2,
            &ys2,
            GpConfig {
                restarts: 1,
                warm_start: Some(warm),
                ..GpConfig::default()
            },
        )
        .unwrap();
        let full2 = GaussianProcess::fit(&xs2, &ys2, GpConfig::default()).unwrap();
        assert!(
            log_marginal_likelihood(&warm_fit) >= log_marginal_likelihood(&full2) - 0.5,
            "warm {} vs full {}",
            log_marginal_likelihood(&warm_fit),
            log_marginal_likelihood(&full2)
        );
    }

    #[test]
    fn invalid_warm_start_is_ignored() {
        let xs = grid_1d(6);
        let ys: Vec<f64> = xs.iter().map(|x| x[0]).collect();
        for bad in [
            WarmStart {
                variance: f64::NAN,
                lengthscales: vec![0.3],
                noise: 1e-3,
            },
            WarmStart {
                variance: 1.0,
                lengthscales: vec![0.3, 0.3], // wrong dimension
                noise: 1e-3,
            },
            WarmStart {
                variance: 1.0,
                lengthscales: vec![-0.3],
                noise: 1e-3,
            },
        ] {
            let gp = GaussianProcess::fit(
                &xs,
                &ys,
                GpConfig {
                    restarts: 1,
                    warm_start: Some(bad),
                    ..GpConfig::default()
                },
            )
            .unwrap();
            assert!(gp.predict(&[0.5]).unwrap().mean.is_finite());
        }
    }

    #[test]
    fn warm_start_with_zero_restarts_adopts_hypers() {
        let xs = grid_1d(6);
        let ys: Vec<f64> = xs.iter().map(|x| x[0] * 2.0).collect();
        let warm = WarmStart {
            variance: 2.5,
            lengthscales: vec![0.17],
            noise: 3e-3,
        };
        let gp = GaussianProcess::fit(
            &xs,
            &ys,
            GpConfig {
                restarts: 0,
                warm_start: Some(warm.clone()),
                ..GpConfig::default()
            },
        )
        .unwrap();
        assert_eq!(gp.kernel().variance(), warm.variance);
        assert_eq!(gp.kernel().lengthscales(), warm.lengthscales.as_slice());
        assert_eq!(gp.noise_variance(), warm.noise);
    }
}
