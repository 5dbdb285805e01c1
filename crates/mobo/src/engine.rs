use crate::ehvi::{BiGaussian, EhviCells, EhviCertificate};
use crate::hypervolume::hypervolume;
use crate::{MoboError, ParetoFront};
use bofl_gp::{GaussianProcess, GpConfig, PredictCache, SurrogateModel, WarmStart};
use bofl_linalg::drain_tasks;
use std::collections::HashSet;
use std::time::{Duration, Instant};

/// Candidate scans smaller than this always run on the calling thread:
/// below it the per-candidate work cannot amortize thread spawning.
const MIN_PARALLEL_SCAN: usize = 64;

/// Hard cap on scan workers when `scan_workers == 0` (auto).
const MAX_AUTO_WORKERS: usize = 8;

/// Relative padding added to the worst observed objectives when the
/// reference point is derived automatically.
const REFERENCE_PADDING: f64 = 0.05;

/// The boxed per-objective surrogate pair [`MoboEngine::fit_surrogates`]
/// hands to the suggestion loop.
type SurrogatePair = (Box<dyn SurrogateModel>, Box<dyn SurrogateModel>);

/// A running argmax `(index, value)` over a scan, `None` before the
/// first offer.
type ScanBest = Option<(usize, f64)>;

/// One pick of a sequential-greedy batch ([`greedy_batch`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pick {
    /// Index into the candidate set.
    pub index: usize,
    /// The candidate's EHVI in the slot that picked it.
    pub ehvi: f64,
    /// The candidate's posterior in that slot; its means are the
    /// Kriging-believer fantasy the later slots condition on.
    pub posterior: BiGaussian,
}

/// One objective's fitted surrogate and the warm cache to store once the
/// fit is accepted.
type FitOutcome = Result<(Box<dyn SurrogateModel>, WarmCache), MoboError>;

/// One evaluated point: input coordinates (unit-cube scaled) and the two
/// measured objective values `(objective 0, objective 1)` — in BoFL,
/// `(energy per minibatch, latency per minibatch)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Observation {
    /// Input coordinates.
    pub point: Vec<f64>,
    /// Measured objective values, both minimized.
    pub objectives: [f64; 2],
}

impl Observation {
    /// Creates an observation.
    pub fn new(point: Vec<f64>, objectives: [f64; 2]) -> Self {
        Observation { point, objectives }
    }

    /// `true` iff all coordinates and objectives are finite.
    pub(crate) fn is_finite(&self) -> bool {
        self.point.iter().all(|v| v.is_finite()) && self.objectives.iter().all(|v| v.is_finite())
    }
}

/// The paper's MBO stopping condition (§4.3): stop once at least
/// `min_evaluations` configurations have been explored *and* the relative
/// hypervolume increase of the latest round fell below `hvi_threshold`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StoppingRule {
    /// Minimum number of explored configurations (the paper uses ≈3% of
    /// the configuration space).
    pub min_evaluations: usize,
    /// Relative hypervolume-increase threshold (the paper uses 1%).
    pub hvi_threshold: f64,
}

impl Default for StoppingRule {
    fn default() -> Self {
        StoppingRule {
            min_evaluations: 60,
            hvi_threshold: 0.01,
        }
    }
}

/// Configuration of the MBO engine.
#[derive(Debug, Clone, PartialEq)]
pub struct MoboConfig {
    /// Surrogate-model configuration (one GP per objective; the paper
    /// uses independent Matérn-5/2 GPs).
    pub gp: GpConfig,
    /// Stopping rule parameters.
    pub stopping: StoppingRule,
    /// Full multi-start hyperparameter refits run on the first fit and
    /// whenever at least this many observations arrived since the last
    /// full refit. In between, fits warm-start from the cached optimum
    /// with a single Nelder–Mead restart ([`bofl_gp::GpConfig::warm_start`]).
    /// `0` behaves like `1` (every fit is a full refit).
    pub refit_every: usize,
    /// Worker threads for the per-slot candidate scan in
    /// [`MoboEngine::suggest`], the calling thread included (both the
    /// scan and the fit run on [`bofl_linalg::drain_tasks`]). `0` picks
    /// `min(available_parallelism, 8)`. The suggestion batch is
    /// byte-identical at any worker count.
    ///
    /// The same count decides the surrogate fit: when it resolves to at
    /// least 2, the two objectives fit side by side on the caller and one
    /// scoped thread, so a fit uses at most 2 threads. The scan is idle
    /// during the fit, so the thread budget is unchanged. Each objective
    /// keeps its own warm cache and refit schedule, so the fitted models
    /// are the same either way.
    pub scan_workers: usize,
}

impl Default for MoboConfig {
    fn default() -> Self {
        MoboConfig {
            gp: GpConfig::default(),
            stopping: StoppingRule::default(),
            refit_every: 8,
            scan_workers: 0,
        }
    }
}

/// Cached hyperparameter optimum from the previous surrogate fit of one
/// objective, plus the bookkeeping that drives the refit schedule.
#[derive(Debug, Clone)]
struct WarmCache {
    hypers: WarmStart,
    /// Observation count at the most recent *full* multi-start fit.
    full_fit_len: usize,
}

/// The multi-objective Bayesian optimization engine (the paper's "MBO
/// engine", §5.2 module 5).
///
/// Lifecycle per Pareto-construction round:
///
/// 1. [`MoboEngine::observe`] every `(configuration, T̂, Ê)` measured in
///    the previous training round;
/// 2. [`MoboEngine::suggest`] a batch of `K` candidates for the next
///    round — this fits the two GPs and runs sequential-greedy EHVI with
///    Kriging-believer fantasies (§4.3 "Batch Selection Strategy");
/// 3. [`MoboEngine::record_round`] to append the current hypervolume to
///    the stopping-rule history, and [`MoboEngine::should_stop`] to test
///    the §4.3 stopping condition.
#[derive(Debug, Clone)]
pub struct MoboEngine {
    config: MoboConfig,
    observations: Vec<Observation>,
    dim: Option<usize>,
    reference: Option<[f64; 2]>,
    hv_history: Vec<f64>,
    last_suggest_duration: Option<Duration>,
    /// Per-objective warm-start cache (hyperparameters of the last fit).
    warm: [Option<WarmCache>; 2],
}

impl MoboEngine {
    /// Creates an engine with the given configuration.
    pub fn new(config: MoboConfig) -> Self {
        MoboEngine {
            config,
            observations: Vec::new(),
            dim: None,
            reference: None,
            hv_history: Vec::new(),
            last_suggest_duration: None,
            warm: [None, None],
        }
    }

    /// Records one evaluated configuration.
    ///
    /// # Errors
    ///
    /// Returns [`MoboError::NonFinite`] for NaN/infinite values and
    /// [`MoboError::DimensionMismatch`] if the point dimension differs
    /// from previous observations.
    pub fn observe(&mut self, obs: Observation) -> Result<(), MoboError> {
        if !obs.is_finite() {
            return Err(MoboError::NonFinite);
        }
        match self.dim {
            None => self.dim = Some(obs.point.len()),
            Some(d) if d != obs.point.len() => {
                return Err(MoboError::DimensionMismatch {
                    expected: d,
                    got: obs.point.len(),
                })
            }
            _ => {}
        }
        self.observations.push(obs);
        Ok(())
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.observations.len()
    }

    /// `true` if no observations have been recorded.
    pub fn is_empty(&self) -> bool {
        self.observations.is_empty()
    }

    /// Pins the reference point explicitly (the paper derives it from the
    /// worst phase-1 observations and then keeps it fixed).
    pub fn set_reference(&mut self, r: [f64; 2]) {
        self.reference = Some(r);
    }

    /// The reference point: the pinned one if set, otherwise the worst
    /// observed value per objective padded by 5%.
    ///
    /// Returns `None` when there are no observations and no pinned point.
    pub(crate) fn reference(&self) -> Option<[f64; 2]> {
        if let Some(r) = self.reference {
            return Some(r);
        }
        if self.observations.is_empty() {
            return None;
        }
        let pad = 1.0 + REFERENCE_PADDING;
        let mut worst = [f64::NEG_INFINITY; 2];
        for o in &self.observations {
            worst[0] = worst[0].max(o.objectives[0]);
            worst[1] = worst[1].max(o.objectives[1]);
        }
        Some([worst[0] * pad, worst[1] * pad])
    }

    /// The Pareto front of all observations (objective space).
    pub(crate) fn pareto_front(&self) -> ParetoFront {
        self.observations.iter().map(|o| o.objectives).collect()
    }

    /// The dominated hypervolume of the current front under the current
    /// reference point (zero when unmeasurable).
    pub(crate) fn hypervolume(&self) -> f64 {
        match self.reference() {
            Some(r) => hypervolume(&self.pareto_front(), r),
            None => 0.0,
        }
    }

    /// Appends the current hypervolume to the stopping-rule history. Call
    /// once per Pareto-construction round.
    pub fn record_round(&mut self) {
        let hv = self.hypervolume();
        self.hv_history.push(hv);
    }

    /// The paper's stopping condition (§4.3): enough configurations
    /// explored *and* the last recorded relative hypervolume increase is
    /// below the threshold.
    pub fn should_stop(&self) -> bool {
        if self.observations.len() < self.config.stopping.min_evaluations {
            return false;
        }
        let h = &self.hv_history;
        if h.len() < 2 {
            return false;
        }
        let prev = h[h.len() - 2];
        let cur = h[h.len() - 1];
        if prev <= 0.0 {
            return false;
        }
        (cur - prev) / prev < self.config.stopping.hvi_threshold
    }

    /// Wall-clock duration of the most recent [`MoboEngine::suggest`]
    /// call (used by the Fig. 13 overhead experiment).
    pub fn last_suggest_duration(&self) -> Option<Duration> {
        self.last_suggest_duration
    }

    /// Proposes a batch of `k` candidates (as indices into `candidates`)
    /// by sequential-greedy EHVI with fantasized observations.
    ///
    /// Candidates that exactly match an already-observed or
    /// already-chosen point are skipped. Fewer than `k` indices are
    /// returned only when the candidate set is exhausted.
    ///
    /// # Errors
    ///
    /// Returns [`MoboError::NotEnoughObservations`] with fewer than 4
    /// observations, [`MoboError::NoCandidates`] for an empty candidate
    /// set, [`MoboError::DimensionMismatch`]/[`MoboError::NonFinite`] for
    /// malformed candidates, and [`MoboError::Gp`] if surrogate fitting
    /// fails.
    pub fn suggest(&mut self, k: usize, candidates: &[Vec<f64>]) -> Result<Vec<usize>, MoboError> {
        let start = Instant::now();
        let r = self.validate_suggest_inputs(candidates)?;

        let surrogates = self.fit_surrogates()?;
        let observed: HashSet<Vec<u64>> = self
            .observations
            .iter()
            .map(|o| hash_point(&o.point))
            .collect();
        let eligible: Vec<bool> = candidates
            .iter()
            .map(|c| !observed.contains(&hash_point(c)))
            .collect();
        let mut front = self.pareto_front();
        let picks = greedy_batch(
            surrogates,
            &mut front,
            r,
            candidates,
            &eligible,
            k,
            self.resolved_workers(),
        )?;
        self.last_suggest_duration = Some(start.elapsed());
        Ok(picks.iter().map(|p| p.index).collect())
    }

    /// Ablation variant of [`MoboEngine::suggest`]: scores every candidate
    /// by single-point EHVI *once* and returns the top `k` — no
    /// Kriging-believer fantasizing between picks. Cheaper, but the batch
    /// tends to cluster around one region of the front (the effect the
    /// paper's sequential-greedy strategy exists to avoid).
    ///
    /// # Errors
    ///
    /// Same conditions as [`MoboEngine::suggest`].
    pub fn suggest_no_fantasy(
        &mut self,
        k: usize,
        candidates: &[Vec<f64>],
    ) -> Result<Vec<usize>, MoboError> {
        let start = Instant::now();
        let r = self.validate_suggest_inputs(candidates)?;

        let (gp0, gp1) = self.fit_surrogates()?;
        let front = self.pareto_front();
        let cells = EhviCells::new(&front, r);
        let observed: HashSet<Vec<u64>> = self
            .observations
            .iter()
            .map(|o| hash_point(&o.point))
            .collect();

        let p0 = gp0.predict_batch(candidates)?;
        let p1 = gp1.predict_batch(candidates)?;
        let mut scored: Vec<(usize, f64)> = Vec::new();
        for (i, c) in candidates.iter().enumerate() {
            if observed.contains(&hash_point(c)) {
                continue;
            }
            let post = BiGaussian {
                mean0: p0[i].mean,
                std0: p0[i].std(),
                mean1: p1[i].mean,
                std1: p1[i].std(),
            };
            scored.push((i, cells.evaluate(post)));
        }
        scored.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("EHVI values are finite"));
        scored.truncate(k);
        self.last_suggest_duration = Some(start.elapsed());
        Ok(scored.into_iter().map(|(i, _)| i).collect())
    }

    /// Shared validation prologue of [`MoboEngine::suggest`] and
    /// [`MoboEngine::suggest_no_fantasy`]. Returns the reference point.
    fn validate_suggest_inputs(&self, candidates: &[Vec<f64>]) -> Result<[f64; 2], MoboError> {
        if candidates.is_empty() {
            return Err(MoboError::NoCandidates);
        }
        let need = 4;
        if self.observations.len() < need {
            return Err(MoboError::NotEnoughObservations {
                have: self.observations.len(),
                need,
            });
        }
        let dim = self.dim.expect("observations imply a dimension");
        for c in candidates {
            if c.len() != dim {
                return Err(MoboError::DimensionMismatch {
                    expected: dim,
                    got: c.len(),
                });
            }
            if c.iter().any(|v| !v.is_finite()) {
                return Err(MoboError::NonFinite);
            }
        }
        Ok(self.reference().expect("observations imply a reference"))
    }

    /// Fits both objective surrogates, warm-starting from the cached
    /// hyperparameter optimum per the refit schedule: the first fit and
    /// any fit at least `refit_every` observations after the last full
    /// refit run the configured multi-start search; fits in between seed
    /// Nelder–Mead from the previous optimum with a single restart.
    ///
    /// The two fits are independent — each reads only its own warm
    /// cache — so they are two [`drain_tasks`] tasks on
    /// [`MoboConfig::scan_workers`] workers (in parallel when it resolves
    /// to at least 2). Caches are stored as the serial order would leave
    /// them: an error in objective 0 is returned first and stores
    /// neither.
    fn fit_surrogates(&mut self) -> Result<SurrogatePair, MoboError> {
        let xs: Vec<Vec<f64>> = self.observations.iter().map(|o| o.point.clone()).collect();
        let y0: Vec<f64> = self.observations.iter().map(|o| o.objectives[0]).collect();
        let y1: Vec<f64> = self.observations.iter().map(|o| o.objectives[1]).collect();
        let fit =
            |obj: usize, ys: &[f64]| fit_objective(&self.config, self.warm[obj].as_ref(), &xs, ys);
        let mut fits = [None, None];
        let tasks = fits.iter_mut().zip([&y0, &y1]).enumerate().collect();
        drain_tasks(
            self.resolved_workers(),
            tasks,
            || (),
            |(), (obj, (slot, ys))| *slot = Some(fit(obj, ys)),
        );
        let [fit0, fit1] = fits.map(|fit| fit.expect("drain_tasks runs every task"));
        let (gp0, cache0) = fit0?;
        self.warm[0] = Some(cache0);
        let (gp1, cache1) = fit1?;
        self.warm[1] = Some(cache1);
        Ok((gp0, gp1))
    }

    /// The configured scan worker count, `min(available_parallelism, 8)`
    /// when `scan_workers == 0`.
    fn resolved_workers(&self) -> usize {
        match self.config.scan_workers {
            0 => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .min(MAX_AUTO_WORKERS),
            w => w,
        }
    }
}

/// Fits objective `obj`'s surrogate from its warm cache `warm` (see
/// [`MoboEngine::fit_surrogates`]) and returns it with the cache entry to
/// store. Pure in its inputs, so the two objectives can fit on separate
/// threads.
fn fit_objective(
    config: &MoboConfig,
    warm: Option<&WarmCache>,
    xs: &[Vec<f64>],
    ys: &[f64],
) -> FitOutcome {
    let n = xs.len();
    let mut cfg = config.gp.clone();
    let mut full_fit_len = n;
    if let Some(cache) = warm {
        cfg.warm_start = Some(cache.hypers.clone());
        if n < cache.full_fit_len + config.refit_every.max(1) {
            // Warm path: seed from the previous optimum, one restart.
            cfg.restarts = cfg.restarts.min(1);
            full_fit_len = cache.full_fit_len;
        }
    }
    let gp = GaussianProcess::fit(xs, ys, cfg)?;
    let cache = WarmCache {
        hypers: gp.hyperparameters(),
        full_fit_len,
    };
    Ok((Box::new(gp), cache))
}

/// Sequential-greedy EHVI batch selection with Kriging-believer
/// fantasies (§4.3 "Batch Selection Strategy"), the scan behind
/// [`MoboEngine::suggest`].
///
/// Each of up to `k` slots picks the eligible (`eligible[i]`, one flag
/// per candidate), not yet picked candidate with the largest EHVI
/// against `front` and reference `r` (the smallest index on a tie), then
/// conditions both `surrogates` on the pick's posterior means and
/// inserts them into `front`. Fewer than `k` picks come back only when
/// the eligible candidates run out. On return `front` holds every
/// fantasy.
///
/// Every slot updates each candidate's posterior through
/// [`SurrogateModel::predict_batch_cached`], split into one contiguous
/// chunk per worker (`workers` threads counting the caller, clamped to
/// `1..=` the candidate count; scans under 64 candidates stay on the
/// caller), one [`drain_tasks`] task per chunk. The chunking is
/// the same in every slot, so each chunk's [`PredictCache`] pair follows
/// its model's fantasy chain: on the exact GP, slot 1 pays the full `O(n²)`
/// prediction per candidate and every later slot one kernel evaluation,
/// one forward-substitution row and the mean dot.
///
/// Slot 1 evaluates every candidate's EHVI. Later slots are lazy: a
/// candidate keeps the `EhviCertificate` of the last slot that
/// evaluated it, and the slot evaluates it again only when the certified
/// `EhviCells::upper_bound` on its new EHVI reaches the running best.
/// Candidates whose bound is `+∞` (no certificate yet, a σ that grew, a
/// non-finite input) are evaluated in the parallel chunks; then, on the
/// caller, the largest finite bound is evaluated first and every other
/// candidate in index order whose bound is not strictly below the best
/// so far. A skipped candidate's EHVI is provably below the slot's
/// best, so it can neither be the argmax nor tie with it: the picks,
/// their posteriors and the fantasies are those of scoring every
/// candidate in every slot, at any worker count.
///
/// # Errors
///
/// [`MoboError::Gp`] if a prediction or a fantasy conditioning fails.
pub fn greedy_batch(
    surrogates: SurrogatePair,
    front: &mut ParetoFront,
    r: [f64; 2],
    candidates: &[Vec<f64>],
    eligible: &[bool],
    k: usize,
    workers: usize,
) -> Result<Vec<Pick>, MoboError> {
    let (mut gp0, mut gp1) = surrogates;
    let n = candidates.len();
    assert_eq!(eligible.len(), n, "one eligibility flag per candidate");
    let workers = if n < MIN_PARALLEL_SCAN {
        1
    } else {
        workers.clamp(1, n)
    };
    // One cache pair per scan chunk, carried across the slots.
    let mut caches: Vec<(PredictCache, PredictCache)> =
        (0..workers).map(|_| Default::default()).collect();
    let mut open = eligible.to_vec();
    let mut scan = vec![ScanEntry::NEW; n];
    let mut picks = Vec::with_capacity(k);
    for _ in 0..k {
        let cells = EhviCells::new(front, r);
        let Some((i, ehvi)) = scan_slot(
            gp0.as_ref(),
            gp1.as_ref(),
            &cells,
            candidates,
            &open,
            &mut scan,
            &mut caches,
        )?
        else {
            break; // candidate set exhausted
        };
        let post = scan[i].post;
        picks.push(Pick {
            index: i,
            ehvi,
            posterior: post,
        });
        open[i] = false;
        // Kriging believer: fantasize the posterior mean as the
        // observation and condition both models on it (§4.3 step 2).
        // Conditioning extends the exact posterior in O(n²) (Cholesky
        // append), so the whole batch avoids a refit per pick.
        gp0 = gp0.condition_on_boxed(&candidates[i], post.mean0)?;
        gp1 = gp1.condition_on_boxed(&candidates[i], post.mean1)?;
        front.insert([post.mean0, post.mean1]);
    }
    Ok(picks)
}

/// One candidate's state in the batch scan.
#[derive(Debug, Clone, Copy)]
struct ScanEntry {
    /// Posterior under the current slot's models.
    post: BiGaussian,
    /// From the last slot that evaluated the candidate.
    cert: EhviCertificate,
    /// Upper bound on the current slot's EHVI: `+∞` means evaluated in
    /// the parallel pass, `−∞` not open.
    bound: f64,
}

impl ScanEntry {
    const NEW: ScanEntry = ScanEntry {
        post: BiGaussian {
            mean0: 0.0,
            std0: 0.0,
            mean1: 0.0,
            std1: 0.0,
        },
        cert: EhviCertificate::NONE,
        bound: f64::INFINITY,
    };

    /// Evaluates the EHVI at the current posterior and renews the
    /// certificate.
    fn evaluate(&mut self, cells: &EhviCells) -> f64 {
        let (e, cert) = cells.certify(self.post);
        self.cert = cert;
        e
    }
}

/// Offers `(i, v)` to a running argmax (largest value, then smallest
/// index).
fn offer(best: &mut ScanBest, i: usize, v: f64) {
    if best.is_none_or(|(bi, bv)| v > bv || (v == bv && i < bi)) {
        *best = Some((i, v));
    }
}

/// One slot of [`greedy_batch`]: updates every posterior and bound in
/// parallel chunks, one per cache pair (evaluating the candidates whose
/// bound is `+∞`; results merge in chunk order), then
/// finishes the lazy argmax on the caller. Returns `None` when no
/// candidate is open.
fn scan_slot(
    gp0: &dyn SurrogateModel,
    gp1: &dyn SurrogateModel,
    cells: &EhviCells,
    candidates: &[Vec<f64>],
    open: &[bool],
    scan: &mut [ScanEntry],
    caches: &mut [(PredictCache, PredictCache)],
) -> Result<ScanBest, MoboError> {
    // Per chunk: the argmax of the evaluated candidates, and the open
    // candidate with the largest finite bound.
    let scan_chunk = |lo: usize,
                      entries: &mut [ScanEntry],
                      (c0, c1): &mut (PredictCache, PredictCache)|
     -> Result<(ScanBest, ScanBest), MoboError> {
        let queries = &candidates[lo..lo + entries.len()];
        let p0 = gp0.predict_batch_cached(queries, c0)?;
        let p1 = gp1.predict_batch_cached(queries, c1)?;
        let mut best = None;
        let mut top = None;
        for (off, ((a, b), entry)) in p0.iter().zip(&p1).zip(entries).enumerate() {
            let i = lo + off;
            entry.post = BiGaussian {
                mean0: a.mean,
                std0: a.std(),
                mean1: b.mean,
                std1: b.std(),
            };
            if !open[i] {
                entry.bound = f64::NEG_INFINITY;
                continue;
            }
            entry.bound = cells.upper_bound(&entry.cert, entry.post);
            if entry.bound == f64::INFINITY {
                offer(&mut best, i, entry.evaluate(cells));
            } else {
                offer(&mut top, i, entry.bound);
            }
        }
        Ok((best, top))
    };

    // One task per chunk: its entries, its cache pair and its result slot.
    let chunk = scan.len().div_ceil(caches.len().max(1)).max(1);
    let mut chunk_results: Vec<Result<(ScanBest, ScanBest), MoboError>> =
        caches.iter().map(|_| Ok((None, None))).collect();
    let tasks: Vec<_> = scan
        .chunks_mut(chunk)
        .zip(caches.iter_mut())
        .zip(chunk_results.iter_mut())
        .enumerate()
        .collect();
    drain_tasks(
        tasks.len(),
        tasks,
        || (),
        |(), (w, ((entries, pair), slot))| *slot = scan_chunk(w * chunk, entries, pair),
    );

    let mut best = None;
    let mut top = None;
    for res in chunk_results {
        let (chunk_best, chunk_top) = res?;
        if let Some((i, e)) = chunk_best {
            offer(&mut best, i, e);
        }
        if let Some((i, b)) = chunk_top {
            offer(&mut top, i, b);
        }
    }

    // Lazy pass: the largest finite bound first (it is usually the
    // winner, so the running best starts high), then every other
    // candidate whose bound is not strictly below the running best.
    if let Some((j, _)) = top {
        for i in std::iter::once(j).chain((0..scan.len()).filter(|&i| i != j)) {
            let entry = &mut scan[i];
            if entry.bound.is_finite() && best.is_none_or(|(_, be)| entry.bound >= be) {
                let e = entry.evaluate(cells);
                offer(&mut best, i, e);
            }
        }
    }
    Ok(best)
}

/// Bit-exact hash key for a point (used to dedup candidates vs
/// observations; exact match is the right semantics on a fixed grid).
fn hash_point(p: &[f64]) -> Vec<u64> {
    p.iter().map(|v| v.to_bits()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy biobjective problem on [0,1]: f0(x) = x², f1(x) = (1−x)².
    /// The whole segment is Pareto-optimal; EHVI should prefer unexplored
    /// gaps over re-sampling near known points.
    fn toy_observe(engine: &mut MoboEngine, xs: &[f64]) {
        for &x in xs {
            engine
                .observe(Observation::new(vec![x], [x * x, (1.0 - x) * (1.0 - x)]))
                .unwrap();
        }
    }

    #[test]
    fn observe_validates() {
        let mut e = MoboEngine::new(MoboConfig::default());
        assert!(e
            .observe(Observation::new(vec![f64::NAN], [0.0, 0.0]))
            .is_err());
        e.observe(Observation::new(vec![0.5], [1.0, 1.0])).unwrap();
        let err = e
            .observe(Observation::new(vec![0.5, 0.5], [1.0, 1.0]))
            .unwrap_err();
        assert!(matches!(err, MoboError::DimensionMismatch { .. }));
        assert_eq!(e.len(), 1);
        assert!(!e.is_empty());
    }

    #[test]
    fn reference_is_padded_worst() {
        let mut e = MoboEngine::new(MoboConfig::default());
        assert_eq!(e.reference(), None);
        toy_observe(&mut e, &[0.0, 1.0]);
        let r = e.reference().unwrap();
        assert!((r[0] - 1.05).abs() < 1e-12);
        assert!((r[1] - 1.05).abs() < 1e-12);
        e.set_reference([9.0, 9.0]);
        assert_eq!(e.reference(), Some([9.0, 9.0]));
    }

    #[test]
    fn suggest_requires_observations_and_candidates() {
        let mut e = MoboEngine::new(MoboConfig::default());
        toy_observe(&mut e, &[0.2]);
        assert!(matches!(
            e.suggest(1, &[vec![0.1]]).unwrap_err(),
            MoboError::NotEnoughObservations { .. }
        ));
        toy_observe(&mut e, &[0.4, 0.6, 0.8]);
        assert!(matches!(
            e.suggest(1, &[]).unwrap_err(),
            MoboError::NoCandidates
        ));
        assert!(matches!(
            e.suggest(1, &[vec![0.1, 0.2]]).unwrap_err(),
            MoboError::DimensionMismatch { .. }
        ));
    }

    #[test]
    fn suggest_prefers_gap_over_duplicates() {
        let mut e = MoboEngine::new(MoboConfig::default());
        // Observe everything except the region around 0.5.
        toy_observe(&mut e, &[0.0, 0.1, 0.2, 0.8, 0.9, 1.0]);
        let candidates: Vec<Vec<f64>> = (0..=20).map(|i| vec![i as f64 / 20.0]).collect();
        let picked = e.suggest(3, &candidates).unwrap();
        assert_eq!(picked.len(), 3);
        // At least one pick should land in the unexplored middle.
        assert!(
            picked.iter().any(|&i| {
                let x = candidates[i][0];
                (0.3..=0.7).contains(&x)
            }),
            "picks {picked:?} should probe the gap"
        );
        assert!(e.last_suggest_duration().is_some());
    }

    #[test]
    fn suggest_never_repeats_observed_points() {
        let mut e = MoboEngine::new(MoboConfig::default());
        toy_observe(&mut e, &[0.0, 0.25, 0.5, 0.75, 1.0]);
        let candidates: Vec<Vec<f64>> = (0..=4).map(|i| vec![i as f64 / 4.0]).collect();
        // Every candidate is already observed → nothing to suggest.
        let picked = e.suggest(3, &candidates).unwrap();
        assert!(picked.is_empty());
    }

    #[test]
    fn batch_is_unique() {
        let mut e = MoboEngine::new(MoboConfig::default());
        toy_observe(&mut e, &[0.0, 0.5, 1.0, 0.3]);
        let candidates: Vec<Vec<f64>> = (0..=50).map(|i| vec![i as f64 / 50.0]).collect();
        let picked = e.suggest(5, &candidates).unwrap();
        let mut dedup = picked.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), picked.len());
    }

    #[test]
    fn no_fantasy_batch_is_valid_but_clusters() {
        let mut e = MoboEngine::new(MoboConfig::default());
        toy_observe(&mut e, &[0.0, 0.2, 0.8, 1.0]);
        let candidates: Vec<Vec<f64>> = (0..=40).map(|i| vec![i as f64 / 40.0]).collect();
        let no_fantasy = e.suggest_no_fantasy(4, &candidates).unwrap();
        assert_eq!(no_fantasy.len(), 4);
        let mut dedup = no_fantasy.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 4, "picks must be distinct candidates");
        // The fantasized batch should spread at least as widely as the
        // non-fantasized one (that is its purpose).
        let fantasy = e.suggest(4, &candidates).unwrap();
        let spread = |idx: &[usize]| {
            let xs: Vec<f64> = idx.iter().map(|&i| candidates[i][0]).collect();
            xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
                - xs.iter().cloned().fold(f64::INFINITY, f64::min)
        };
        assert!(spread(&fantasy) + 1e-9 >= spread(&no_fantasy) * 0.5);
    }

    #[test]
    fn stopping_rule_progression() {
        let cfg = MoboConfig {
            stopping: StoppingRule {
                min_evaluations: 4,
                hvi_threshold: 0.01,
            },
            ..MoboConfig::default()
        };
        let mut e = MoboEngine::new(cfg);
        toy_observe(&mut e, &[0.0, 1.0]);
        e.set_reference([2.0, 2.0]);
        e.record_round();
        assert!(!e.should_stop(), "not enough evaluations yet");
        // Add points that substantially grow the hypervolume.
        toy_observe(&mut e, &[0.5]);
        e.record_round();
        assert!(!e.should_stop(), "hv still growing");
        toy_observe(&mut e, &[0.4, 0.6]);
        e.record_round();
        // Now add a duplicate-ish point: hv barely changes.
        toy_observe(&mut e, &[0.4001]);
        e.record_round();
        assert!(e.should_stop(), "hv plateaued with enough evaluations");
    }

    #[test]
    fn pareto_indices_match_front() {
        let mut e = MoboEngine::new(MoboConfig::default());
        e.observe(Observation::new(vec![0.1], [1.0, 5.0])).unwrap();
        e.observe(Observation::new(vec![0.2], [2.0, 2.0])).unwrap();
        e.observe(Observation::new(vec![0.3], [3.0, 3.0])).unwrap(); // dominated
        e.observe(Observation::new(vec![0.4], [5.0, 1.0])).unwrap();
        assert_eq!(e.pareto_front().len(), 3);
    }

    /// Past 128 observations, where an approximate surrogate once took
    /// over, `suggest` still scans the exact GPs: a fresh engine's batch
    /// is the one `greedy_batch` picks over `GaussianProcess::fit`
    /// surrogates of the same data, at 1 and 2 scan workers alike.
    #[test]
    fn suggest_scans_exact_gps_past_128_observations() {
        let gp = GpConfig {
            restarts: 1,
            max_evaluations: 40,
            ..GpConfig::default()
        };
        let xs: Vec<f64> = (0..130).map(|i| i as f64 / 129.0).collect();
        let points: Vec<Vec<f64>> = xs.iter().map(|&x| vec![x]).collect();
        let candidates: Vec<Vec<f64>> = (0..100).map(|i| vec![(i as f64 + 0.5) / 100.0]).collect();
        let mut batches = Vec::new();
        for scan_workers in [1, 2] {
            let mut e = MoboEngine::new(MoboConfig {
                gp: gp.clone(),
                scan_workers,
                ..MoboConfig::default()
            });
            toy_observe(&mut e, &xs);
            let fit = |obj: usize| -> Box<dyn SurrogateModel> {
                let ys: Vec<f64> = e.observations.iter().map(|o| o.objectives[obj]).collect();
                Box::new(GaussianProcess::fit(&points, &ys, gp.clone()).unwrap())
            };
            let want = greedy_batch(
                (fit(0), fit(1)),
                &mut e.pareto_front(),
                e.reference().unwrap(),
                &candidates,
                &vec![true; candidates.len()],
                4,
                scan_workers,
            )
            .unwrap();
            let got = e.suggest(4, &candidates).unwrap();
            assert_eq!(got, want.iter().map(|p| p.index).collect::<Vec<_>>());
            batches.push(got);
        }
        assert_eq!(batches[0], batches[1], "worker count changed the batch");
    }

    #[test]
    fn hypervolume_grows_with_better_points() {
        let mut e = MoboEngine::new(MoboConfig::default());
        e.set_reference([10.0, 10.0]);
        e.observe(Observation::new(vec![0.5], [5.0, 5.0])).unwrap();
        let h1 = e.hypervolume();
        e.observe(Observation::new(vec![0.6], [2.0, 2.0])).unwrap();
        let h2 = e.hypervolume();
        assert!(h2 > h1);
    }
}
