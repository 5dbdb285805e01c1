//! Property-based tests for Pareto/hypervolume/EHVI invariants, and the
//! lazy batch scan against the exhaustive one.

use bofl_gp::{GaussianProcess, GpConfig, GpError, Posterior, SurrogateModel, WarmStart};
use bofl_mobo::ehvi::{expected_hypervolume_improvement, psi, BiGaussian, EhviCells};
use bofl_mobo::hypervolume::{hypervolume, hypervolume_improvement};
use bofl_mobo::pareto::dominates;
use bofl_mobo::{
    greedy_batch, pareto_front_indices, MoboConfig, MoboEngine, Observation, ParetoFront, Pick,
    SobolSequence,
};
use proptest::prelude::*;

fn points(n: std::ops::Range<usize>) -> impl Strategy<Value = Vec<[f64; 2]>> {
    proptest::collection::vec((0.01f64..10.0, 0.01f64..10.0), n)
        .prop_map(|v| v.into_iter().map(|(a, b)| [a, b]).collect())
}

/// The per-strip EHVI formula as it stood before adjacent strips shared
/// their edge's `ψ`: every strip evaluates `ψ(β_hi) − ψ(β_lo)` itself.
/// Kept verbatim as the bitwise reference for [`EhviCells::evaluate`].
fn ehvi_per_strip(front: &ParetoFront, post: BiGaussian, r: [f64; 2]) -> f64 {
    let pts: Vec<[f64; 2]> = front
        .points()
        .iter()
        .copied()
        .filter(|p| p[0] < r[0] && p[1] < r[1])
        .collect();
    let n = pts.len();
    let s0 = post.std0.max(1e-12);
    let s1 = post.std1.max(1e-12);
    let mut total = 0.0;
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
        let beta_hi = (b_hi - post.mean0) / s0;
        let beta_lo = if b_lo == f64::NEG_INFINITY {
            f64::NEG_INFINITY
        } else {
            (b_lo - post.mean0) / s0
        };
        let width_term = s0 * (psi(beta_hi) - psi(beta_lo));
        let height_term = s1 * psi((ceiling - post.mean1) / s1);
        total += width_term * height_term;
    }
    total.max(0.0)
}

proptest! {
    /// Sharing each strip edge's `ψ` with the neighbouring strip changes
    /// no bit of the EHVI. Fronts are built from inputs with repeated
    /// objective-0 values (a front keeps at most one of each, so the
    /// others must vanish without leaving a strip behind), points
    /// outside the reference box, and posteriors down to σ = 0.
    #[test]
    fn shared_strip_edges_match_the_per_strip_formula(
        pts in points(0..14),
        repeats in proptest::collection::vec((0usize..14, 0.01f64..10.0), 0..4),
        r in (2.0f64..9.0, 2.0f64..9.0),
        mean in (-1.0f64..11.0, -1.0f64..11.0),
        stds in (0.0f64..2.0, 0.0f64..2.0),
        tiny in 0usize..4,
    ) {
        let mut pts = pts;
        for &(i, y1) in &repeats {
            if let Some(&p) = pts.get(i) {
                pts.push([p[0], y1]);
            }
        }
        let front = ParetoFront::from_points(&pts);
        let r = [r.0, r.1];
        let scale = [1.0, 1e-9, 1e-13, 0.0][tiny];
        let post = BiGaussian {
            mean0: mean.0,
            std0: stds.0 * scale,
            mean1: mean.1,
            std1: stds.1,
        };
        let expect = ehvi_per_strip(&front, post, r).to_bits();
        prop_assert_eq!(EhviCells::new(&front, r).evaluate(post).to_bits(), expect);
        prop_assert_eq!(expected_hypervolume_improvement(&front, post, r).to_bits(), expect);
    }

    /// Dominance is a strict partial order: irreflexive, asymmetric,
    /// transitive.
    #[test]
    fn dominance_is_strict_partial_order(
        a in (0.0f64..10.0, 0.0f64..10.0),
        b in (0.0f64..10.0, 0.0f64..10.0),
        c in (0.0f64..10.0, 0.0f64..10.0),
    ) {
        let (a, b, c) = ([a.0, a.1], [b.0, b.1], [c.0, c.1]);
        prop_assert!(!dominates(a, a));
        prop_assert!(!(dominates(a, b) && dominates(b, a)));
        if dominates(a, b) && dominates(b, c) {
            prop_assert!(dominates(a, c));
        }
    }

    /// No member of the extracted front is dominated by any input point.
    #[test]
    fn front_members_are_nondominated(pts in points(1..30)) {
        let front_idx = pareto_front_indices(&pts);
        prop_assert!(!front_idx.is_empty());
        for &i in &front_idx {
            for &p in &pts {
                prop_assert!(!dominates(p, pts[i]));
            }
        }
        // Every non-front point is dominated by someone.
        for (i, &p) in pts.iter().enumerate() {
            if !front_idx.contains(&i) {
                prop_assert!(pts.iter().any(|&q| dominates(q, p)));
            }
        }
    }

    /// Incremental insertion and batch extraction agree on the value set.
    #[test]
    fn incremental_equals_batch(pts in points(1..25)) {
        let front = ParetoFront::from_points(&pts);
        let mut batch: Vec<[f64; 2]> = pareto_front_indices(&pts)
            .into_iter().map(|i| pts[i]).collect();
        batch.sort_by(|a, b| a.partial_cmp(b).unwrap());
        batch.dedup();
        let mut inc: Vec<[f64; 2]> = front.iter().collect();
        inc.sort_by(|a, b| a.partial_cmp(b).unwrap());
        prop_assert_eq!(inc, batch);
    }

    /// Hypervolume is monotone under point insertion and bounded by the
    /// reference box volume.
    #[test]
    fn hypervolume_monotone_and_bounded(pts in points(1..20)) {
        let r = [11.0, 11.0];
        let mut front = ParetoFront::new();
        let mut last = 0.0;
        for &p in &pts {
            front.insert(p);
            let hv = hypervolume(&front, r);
            prop_assert!(hv + 1e-9 >= last);
            prop_assert!(hv <= 11.0 * 11.0);
            last = hv;
        }
    }

    /// HVI of a dominated-or-equal point is exactly zero; of a
    /// non-dominated point inside the box it is strictly positive.
    #[test]
    fn hvi_sign_matches_dominance(pts in points(1..15), q in (0.01f64..10.0, 0.01f64..10.0)) {
        let r = [10.5, 10.5];
        let front = ParetoFront::from_points(&pts);
        let q = [q.0, q.1];
        let hvi = hypervolume_improvement(&front, &[q], r);
        if front.dominated(q) {
            prop_assert!(hvi.abs() < 1e-12);
        } else {
            prop_assert!(hvi > 0.0, "non-dominated point must improve: {q:?}");
        }
    }

    /// EHVI is non-negative and increases when the candidate's means
    /// improve (both objectives shifted down).
    #[test]
    fn ehvi_nonnegative_and_monotone(
        pts in points(1..10),
        mean in (1.0f64..9.0, 1.0f64..9.0),
        stds in (0.05f64..1.0, 0.05f64..1.0),
        shift in 0.1f64..2.0,
    ) {
        let r = [12.0, 12.0];
        let front = ParetoFront::from_points(&pts);
        let post = BiGaussian { mean0: mean.0, std0: stds.0, mean1: mean.1, std1: stds.1 };
        let better = BiGaussian { mean0: mean.0 - shift, mean1: mean.1 - shift, ..post };
        let e = expected_hypervolume_improvement(&front, post, r);
        let eb = expected_hypervolume_improvement(&front, better, r);
        prop_assert!(e >= 0.0);
        prop_assert!(eb + 1e-12 >= e, "shifting means down must not reduce EHVI ({e} -> {eb})");
    }

    /// The parallel candidate scan is deterministic: `suggest` returns a
    /// byte-identical batch whether the scan runs on one worker or eight
    /// (the candidate count exceeds the serial-scan threshold, so the
    /// eight-worker run genuinely takes the scoped-thread path).
    #[test]
    fn suggest_is_identical_across_worker_counts(
        ys in proptest::collection::vec(0.02f64..0.98, 5..10),
        n_cand in 80usize..200,
    ) {
        let mut batches = Vec::new();
        for workers in [1usize, 8] {
            let mut engine = MoboEngine::new(MoboConfig {
                scan_workers: workers,
                ..MoboConfig::default()
            });
            for &x in &ys {
                engine
                    .observe(Observation::new(vec![x], [x * x, (1.0 - x) * (1.0 - x)]))
                    .unwrap();
            }
            let candidates: Vec<Vec<f64>> = (0..n_cand)
                .map(|i| vec![i as f64 / (n_cand - 1) as f64])
                .collect();
            batches.push(engine.suggest(8, &candidates).unwrap());
        }
        prop_assert_eq!(&batches[0], &batches[1]);
    }

    /// Sobol points remain within the unit cube for any dimension and
    /// prefix length.
    #[test]
    fn sobol_in_unit_cube(dim in 1usize..=8, n in 1usize..200) {
        let mut s = SobolSequence::new(dim);
        for _ in 0..n {
            let p = s.next_point();
            prop_assert_eq!(p.len(), dim);
            prop_assert!(p.iter().all(|&v| (0.0..1.0).contains(&v)));
        }
    }
}

/// The batch scan [`greedy_batch`] replaced, kept as its reference: every
/// slot predicts every candidate from scratch and evaluates every open
/// candidate's EHVI, keeping the largest (the smallest index on a tie).
fn exhaustive_batch(
    surrogates: (Box<dyn SurrogateModel>, Box<dyn SurrogateModel>),
    front: &mut ParetoFront,
    r: [f64; 2],
    candidates: &[Vec<f64>],
    eligible: &[bool],
    k: usize,
) -> Vec<Pick> {
    let (mut gp0, mut gp1) = surrogates;
    let mut open = eligible.to_vec();
    let mut picks: Vec<Pick> = Vec::new();
    for _ in 0..k {
        let cells = EhviCells::new(front, r);
        let p0 = gp0.predict_batch(candidates).unwrap();
        let p1 = gp1.predict_batch(candidates).unwrap();
        let mut best: Option<Pick> = None;
        for (i, (a, b)) in p0.iter().zip(&p1).enumerate() {
            if !open[i] {
                continue;
            }
            let posterior = BiGaussian {
                mean0: a.mean,
                std0: a.std(),
                mean1: b.mean,
                std1: b.std(),
            };
            let ehvi = cells.evaluate(posterior);
            if best.as_ref().is_none_or(|b| ehvi > b.ehvi) {
                best = Some(Pick {
                    index: i,
                    ehvi,
                    posterior,
                });
            }
        }
        let Some(pick) = best else { break };
        open[pick.index] = false;
        let x = &candidates[pick.index];
        gp0 = gp0.condition_on_boxed(x, pick.posterior.mean0).unwrap();
        gp1 = gp1.condition_on_boxed(x, pick.posterior.mean1).unwrap();
        front.insert([pick.posterior.mean0, pick.posterior.mean1]);
        picks.push(pick);
    }
    picks
}

/// Bit patterns of a batch: index, EHVI and posterior of every pick.
fn pick_bits(picks: &[Pick]) -> Vec<(usize, [u64; 5])> {
    picks
        .iter()
        .map(|p| {
            let g = p.posterior;
            let bits = [p.ehvi, g.mean0, g.std0, g.mean1, g.std1].map(f64::to_bits);
            (p.index, bits)
        })
        .collect()
}

fn front_bits(front: &ParetoFront) -> Vec<[u64; 2]> {
    front.iter().map(|p| p.map(f64::to_bits)).collect()
}

/// Which surrogate a lazy-vs-exhaustive case runs on.
#[derive(Debug, Clone, Copy)]
enum Surrogate {
    /// Exact GP, noise fitted.
    Exact,
    /// Exact GP's variance and lengthscales with the noise set to 1e-9
    /// (near-interpolating fantasies).
    Interpolating,
    /// Exact GP whose later fantasies grow some candidates' σ.
    SigmaGrows,
    /// Exact GP whose later fantasies lower some candidates' means.
    MeanDrifts,
    /// Exact GP with NaN means in slot 1 for some candidates.
    NanFirst,
}

/// A surrogate whose posteriors are rewritten by `script(depth, x, p)`,
/// `depth` being the number of fantasies conditioned on so far. Lets a
/// test break the premises of the lazy scan's bound on purpose.
#[derive(Debug)]
struct Scripted {
    inner: Box<dyn SurrogateModel>,
    depth: usize,
    script: fn(usize, &[f64], Posterior) -> Posterior,
}

impl SurrogateModel for Scripted {
    fn predict(&self, x: &[f64]) -> Result<Posterior, GpError> {
        Ok((self.script)(self.depth, x, self.inner.predict(x)?))
    }

    fn predict_batch(&self, queries: &[Vec<f64>]) -> Result<Vec<Posterior>, GpError> {
        queries.iter().map(|x| self.predict(x)).collect()
    }

    fn condition_on_boxed(&self, x: &[f64], y: f64) -> Result<Box<dyn SurrogateModel>, GpError> {
        Ok(Box::new(Scripted {
            inner: self.inner.condition_on_boxed(x, y)?,
            depth: self.depth + 1,
            script: self.script,
        }))
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn hyperparameters(&self) -> WarmStart {
        self.inner.hyperparameters()
    }
}

fn sigma_grows(depth: usize, x: &[f64], p: Posterior) -> Posterior {
    if depth > 0 && x[0] < 0.4 {
        Posterior {
            variance: p.variance * (1.0 + depth as f64) + 1e-4,
            ..p
        }
    } else {
        p
    }
}

fn mean_drifts(depth: usize, x: &[f64], p: Posterior) -> Posterior {
    if depth > 0 && x[1] > 0.5 {
        Posterior {
            mean: p.mean - 0.03 * depth as f64,
            ..p
        }
    } else {
        p
    }
}

fn nan_first(depth: usize, x: &[f64], p: Posterior) -> Posterior {
    if depth == 0 && x[0] + x[1] < 0.8 {
        Posterior {
            mean: f64::NAN,
            ..p
        }
    } else {
        p
    }
}

/// Two conflicting smooth objectives over the unit square.
fn objectives(x: &[f64]) -> [f64; 2] {
    [
        1.0 + (x[0] - 0.2).powi(2) + 0.5 * (x[1] - 0.7).powi(2) + 0.1 * (5.0 * x[1]).sin(),
        1.0 + (1.0 - x[0]).powi(2) + 0.3 * x[0] * x[1],
    ]
}

/// The surrogate pair for `kind` fitted on `xs`.
fn surrogates(
    kind: Surrogate,
    xs: &[Vec<f64>],
) -> (Box<dyn SurrogateModel>, Box<dyn SurrogateModel>) {
    let fit = |obj: usize| -> Box<dyn SurrogateModel> {
        let ys: Vec<f64> = xs.iter().map(|x| objectives(x)[obj]).collect();
        let gp = || {
            let config = GpConfig {
                restarts: 1,
                max_evaluations: 80,
                ..GpConfig::default()
            };
            GaussianProcess::fit(xs, &ys, config).unwrap()
        };
        let scripted = |script| -> Box<dyn SurrogateModel> {
            Box::new(Scripted {
                inner: Box::new(gp()),
                depth: 0,
                script,
            })
        };
        match kind {
            Surrogate::Exact => Box::new(gp()),
            Surrogate::Interpolating => {
                let exact = gp();
                let config = GpConfig {
                    restarts: 0,
                    warm_start: Some(WarmStart {
                        noise: 1e-9,
                        ..exact.hyperparameters()
                    }),
                    ..GpConfig::default()
                };
                Box::new(GaussianProcess::fit(xs, &ys, config).unwrap())
            }
            Surrogate::SigmaGrows => scripted(sigma_grows),
            Surrogate::MeanDrifts => scripted(mean_drifts),
            Surrogate::NanFirst => scripted(nan_first),
        }
    };
    (fit(0), fit(1))
}

/// Checks the lazy scan at 1, 2 and 3 workers against the exhaustive
/// one: the same picks, EHVIs and posteriors bit for bit, and the same
/// final front.
fn assert_lazy_matches_exhaustive(
    kind: Surrogate,
    xs: &[Vec<f64>],
    candidates: &[Vec<f64>],
    eligible: &[bool],
    k: usize,
) -> Result<(), TestCaseError> {
    let r = [3.0, 3.0];
    let start: ParetoFront = xs.iter().map(|x| objectives(x)).collect();
    let mut want_front = start.clone();
    let want = exhaustive_batch(
        surrogates(kind, xs),
        &mut want_front,
        r,
        candidates,
        eligible,
        k,
    );
    let open = eligible.iter().filter(|&&e| e).count();
    prop_assert_eq!(want.len(), k.min(open));
    for workers in [1usize, 2, 3] {
        let mut front = start.clone();
        let got = greedy_batch(
            surrogates(kind, xs),
            &mut front,
            r,
            candidates,
            eligible,
            k,
            workers,
        )
        .unwrap();
        prop_assert!(
            pick_bits(&got) == pick_bits(&want),
            "{kind:?} at {workers} workers: {got:?} vs {want:?}"
        );
        prop_assert_eq!(front_bits(&front), front_bits(&want_front));
    }
    Ok(())
}

/// Candidates on a 1/12 grid (so duplicates occur), with some exact
/// copies appended, an eligibility mask and the observed points.
fn arb_scan(
    n_cand: std::ops::Range<usize>,
) -> impl Strategy<Value = (Vec<Vec<f64>>, Vec<Vec<f64>>, Vec<bool>)> {
    let cell = 0usize..13;
    (
        proptest::collection::vec((cell.clone(), cell.clone()), 6..12),
        proptest::collection::vec((cell.clone(), cell), n_cand),
        proptest::collection::vec(0usize..1000, 0..6),
        proptest::collection::vec(0usize..100, 0..200),
    )
        .prop_map(|(obs, cand, dups, masked)| {
            let at = |(i, j): (usize, usize)| vec![i as f64 / 12.0, j as f64 / 12.0];
            let mut xs: Vec<Vec<f64>> = Vec::new();
            for p in obs.into_iter().map(at) {
                if !xs.contains(&p) {
                    xs.push(p);
                }
            }
            let mut candidates: Vec<Vec<f64>> = cand.into_iter().map(at).collect();
            for d in dups {
                candidates.push(candidates[d % candidates.len()].clone());
            }
            let eligible = (0..candidates.len())
                .map(|i| !masked.contains(&(i % 100)) && !xs.contains(&candidates[i]))
                .collect();
            (xs, candidates, eligible)
        })
}

proptest! {
    /// Large scans (past the parallel threshold) on every surrogate
    /// kind, including ones that grow σ, drift means or feed NaN means:
    /// the lazy scan picks exactly what the exhaustive scan picks.
    #[test]
    fn lazy_scan_matches_exhaustive_scan(
        (xs, candidates, eligible) in arb_scan(64..160),
        kind in 0usize..5,
        k in 1usize..10,
    ) {
        let kind = [
            Surrogate::Exact,
            Surrogate::Interpolating,
            Surrogate::SigmaGrows,
            Surrogate::MeanDrifts,
            Surrogate::NanFirst,
        ][kind];
        assert_lazy_matches_exhaustive(kind, &xs, &candidates, &eligible, k)?;
    }

    /// Small scans (serial, under the parallel threshold) with a batch
    /// size at or past the eligible count, so the scan runs dry.
    #[test]
    fn lazy_scan_matches_exhaustive_scan_until_exhausted(
        (xs, candidates, eligible) in arb_scan(4..40),
        kind in 0usize..3,
        extra in 0usize..3,
    ) {
        let kind = [Surrogate::Exact, Surrogate::Interpolating, Surrogate::MeanDrifts][kind];
        let k = eligible.iter().filter(|&&e| e).count() + extra;
        assert_lazy_matches_exhaustive(kind, &xs, &candidates, &eligible, k)?;
    }
}

/// Exact ties: every candidate appears three times, so each slot's best
/// EHVI is shared by copies and the smallest index must win, at every
/// worker count.
#[test]
fn lazy_scan_breaks_exact_ties_by_index() {
    let xs: Vec<Vec<f64>> = (0..8)
        .map(|i| vec![i as f64 / 7.0, (i * 3 % 8) as f64 / 7.0])
        .collect();
    let base: Vec<Vec<f64>> = (0..30)
        .map(|i| vec![(i % 6) as f64 / 5.5 + 0.01, (i / 6) as f64 / 4.5 + 0.02])
        .collect();
    let candidates: Vec<Vec<f64>> = base.iter().cycle().take(90).cloned().collect();
    let eligible = vec![true; candidates.len()];
    for kind in [Surrogate::Exact, Surrogate::Interpolating] {
        let mut front: ParetoFront = xs.iter().map(|x| objectives(x)).collect();
        let picks = exhaustive_batch(
            surrogates(kind, &xs),
            &mut front,
            [3.0, 3.0],
            &candidates,
            &eligible,
            6,
        );
        assert!(picks[0].index < 30, "the first copy wins a tie");
        assert_lazy_matches_exhaustive(kind, &xs, &candidates, &eligible, 6).unwrap();
    }
}
