use crate::{GpError, Posterior, PredictCache, WarmStart};

/// Object-safe seam over the surrogate models the MBO engine can drive:
/// the exact [`crate::GaussianProcess`], and any test double that needs
/// to steer the engine's batch scan.
///
/// The engine only ever needs four capabilities — point prediction, batch
/// prediction with shared scratch (optionally carried along a fantasy
/// chain in a [`PredictCache`]), Kriging-believer conditioning on a
/// fantasized observation, and reading back the fitted hyperparameters to
/// warm-start the next fit — so that is the whole trait. Conditioning
/// returns a boxed trait object because the fantasy chain must stay
/// polymorphic inside the sequential-greedy batch loop.
pub trait SurrogateModel: std::fmt::Debug + Send + Sync {
    /// Posterior predictive distribution at `x`.
    ///
    /// # Errors
    ///
    /// [`GpError::DimensionMismatch`] for a wrong-dimension query and
    /// [`GpError::NonFinite`] for NaN/infinite coordinates.
    fn predict(&self, x: &[f64]) -> Result<Posterior, GpError>;

    /// Posterior predictive distributions at a batch of query points,
    /// bitwise identical to per-point [`SurrogateModel::predict`] calls.
    ///
    /// # Errors
    ///
    /// Same conditions as [`SurrogateModel::predict`]; the whole batch is
    /// validated before anything is computed.
    fn predict_batch(&self, queries: &[Vec<f64>]) -> Result<Vec<Posterior>, GpError>;

    /// [`SurrogateModel::predict_batch`] over queries that are scanned
    /// again after each fantasy of a Kriging-believer chain, with `cache`
    /// carrying per-query state from one model of the chain to the next.
    /// Bitwise identical to `predict_batch` for any cache contents: a
    /// cache built for a model outside this one's chain is rebuilt, never
    /// reused.
    ///
    /// The default ignores the cache (a model with no per-query state to
    /// carry); the exact GP overrides it with the incremental scan of
    /// `GaussianProcess::predict_batch_cached`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`SurrogateModel::predict_batch`].
    fn predict_batch_cached(
        &self,
        queries: &[Vec<f64>],
        cache: &mut PredictCache,
    ) -> Result<Vec<Posterior>, GpError> {
        let _ = cache;
        self.predict_batch(queries)
    }

    /// Returns a new surrogate conditioned on one additional fantasized
    /// observation `(x, y)` at fixed hyperparameters (the Kriging-believer
    /// step of the paper's sequential-greedy batch selection).
    ///
    /// # Errors
    ///
    /// Same validation as [`SurrogateModel::predict`], plus
    /// [`GpError::Linalg`] if the updated posterior cannot be formed.
    fn condition_on_boxed(&self, x: &[f64], y: f64) -> Result<Box<dyn SurrogateModel>, GpError>;

    /// Number of observations the posterior is conditioned on.
    fn len(&self) -> usize;

    /// `true` if there are no observations (cannot occur for a fitted
    /// surrogate; provided for API completeness).
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Input dimensionality.
    fn dim(&self) -> usize;

    /// The fitted hyperparameters (standardized units), in the shape the
    /// engine's warm-start cache consumes.
    fn hyperparameters(&self) -> WarmStart;
}

impl SurrogateModel for crate::GaussianProcess {
    fn predict(&self, x: &[f64]) -> Result<Posterior, GpError> {
        crate::GaussianProcess::predict(self, x)
    }

    fn predict_batch(&self, queries: &[Vec<f64>]) -> Result<Vec<Posterior>, GpError> {
        crate::GaussianProcess::predict_batch(self, queries)
    }

    fn predict_batch_cached(
        &self,
        queries: &[Vec<f64>],
        cache: &mut PredictCache,
    ) -> Result<Vec<Posterior>, GpError> {
        crate::GaussianProcess::predict_batch_cached(self, queries, cache)
    }

    fn condition_on_boxed(&self, x: &[f64], y: f64) -> Result<Box<dyn SurrogateModel>, GpError> {
        Ok(Box::new(self.condition_on(x, y)?))
    }

    fn len(&self) -> usize {
        crate::GaussianProcess::len(self)
    }

    fn dim(&self) -> usize {
        crate::GaussianProcess::dim(self)
    }

    fn hyperparameters(&self) -> WarmStart {
        WarmStart {
            variance: self.kernel().variance(),
            lengthscales: self.kernel().lengthscales().to_vec(),
            noise: self.noise_variance(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GaussianProcess, GpConfig};

    #[test]
    fn gp_behind_the_trait_matches_inherent_calls() {
        let xs: Vec<Vec<f64>> = (0..8).map(|i| vec![i as f64 / 7.0]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| (4.0 * x[0]).sin()).collect();
        let gp = GaussianProcess::fit(&xs, &ys, GpConfig::default()).unwrap();
        let dynamic: &dyn SurrogateModel = &gp;
        assert_eq!(dynamic.len(), 8);
        assert_eq!(dynamic.dim(), 1);
        assert!(!dynamic.is_empty());
        let q = [0.37];
        assert_eq!(dynamic.predict(&q).unwrap(), gp.predict(&q).unwrap());
        let batch = dynamic.predict_batch(&[q.to_vec()]).unwrap();
        assert_eq!(batch[0], gp.predict(&q).unwrap());
        let mut cache = PredictCache::default();
        assert_eq!(
            dynamic
                .predict_batch_cached(&[q.to_vec()], &mut cache)
                .unwrap(),
            batch
        );
        let hypers = dynamic.hyperparameters();
        assert_eq!(hypers.variance, gp.kernel().variance());
        assert_eq!(hypers.noise, gp.noise_variance());

        let fantasy = dynamic.condition_on_boxed(&q, 0.5).unwrap();
        let direct = gp.condition_on(&q, 0.5).unwrap();
        assert_eq!(fantasy.len(), 9);
        assert_eq!(
            fantasy.predict(&[0.8]).unwrap(),
            direct.predict(&[0.8]).unwrap()
        );
    }
}
