//! Property-based tests for Pareto/hypervolume/EHVI invariants.

use bofl_mobo::ehvi::{expected_hypervolume_improvement, psi, BiGaussian, EhviCells};
use bofl_mobo::hypervolume::{hypervolume, hypervolume_improvement};
use bofl_mobo::pareto::dominates;
use bofl_mobo::{
    pareto_front_indices, MoboConfig, MoboEngine, Observation, ParetoFront, SobolSequence,
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
