//! Property-based tests: the profile solver against brute-force
//! enumeration on small instances and against its LP relaxation on
//! instances of the sizes BoFL plans.

use bofl_ilp::{solve_profile, ConfigCost, ProfileError};
use proptest::prelude::*;

/// The energy of the cheapest deadline-meeting split of `jobs` over
/// `costs`, by trying every composition; `None` if none fits.
fn brute_force(costs: &[ConfigCost], jobs: u64, deadline_s: f64) -> Option<f64> {
    fn recurse(
        costs: &[ConfigCost],
        counts: &mut Vec<u64>,
        left: u64,
        deadline_s: f64,
        best: &mut Option<f64>,
    ) {
        if counts.len() + 1 == costs.len() {
            counts.push(left);
            // Summed in candidate order, as the solver's profile is.
            let sum = |f: fn(&ConfigCost) -> f64| -> f64 {
                costs
                    .iter()
                    .zip(&*counts)
                    .map(|(c, &n)| f(c) * n as f64)
                    .sum()
            };
            let (energy, latency) = (sum(|c| c.energy_j), sum(|c| c.latency_s));
            if latency <= deadline_s && best.is_none_or(|e| energy < e) {
                *best = Some(energy);
            }
            counts.pop();
            return;
        }
        for n in 0..=left {
            counts.push(n);
            recurse(costs, counts, left - n, deadline_s, best);
            counts.pop();
        }
    }
    let mut best = None;
    recurse(costs, &mut Vec::new(), jobs, deadline_s, &mut best);
    best
}

/// The LP relaxation's optimum over `n ≥ 0`, `Σ n = W`, `Σ n·T ≤ D`, and
/// the cheapest integer point among the roundings of its vertices; `None`
/// if even the fastest candidate misses the deadline. With two rows, every
/// vertex runs all jobs at one candidate or mixes two with the deadline
/// row tight. Rounding a mix's slower count down and giving the rest to
/// the faster candidate keeps the deadline, so each rounding is a feasible
/// integer plan.
fn relaxation(costs: &[ConfigCost], jobs: u64, deadline_s: f64) -> Option<(f64, f64)> {
    let w = jobs as f64;
    let mut best: Option<(f64, f64)> = None;
    let mut offer = |lp: f64, int: f64| {
        best = Some(best.map_or((lp, int), |(l, i)| (l.min(lp), i.min(int))));
    };
    for a in costs {
        if w * a.latency_s <= deadline_s {
            offer(w * a.energy_j, w * a.energy_j);
        }
        for b in costs.iter().filter(|b| b.latency_s > a.latency_s) {
            // `a` is the faster candidate, `b` takes `slow` of the jobs.
            let slow = (deadline_s - w * a.latency_s) / (b.latency_s - a.latency_s);
            if slow > 0.0 && slow < w {
                let lp = (w - slow) * a.energy_j + slow * b.energy_j;
                let floor = slow.floor();
                offer(lp, (w - floor) * a.energy_j + floor * b.energy_j);
            }
        }
    }
    best
}

proptest! {
    /// On every instance small enough to enumerate (K ≤ 5, W ≤ 12) the
    /// solver schedules exactly `W` jobs, meets the deadline and matches
    /// the brute-force optimum's energy, or agrees that nothing fits. Each
    /// case sweeps eight deadlines over one candidate set.
    #[test]
    fn profile_invariants(
        costs in proptest::collection::vec((0.05f64..1.0, 0.5f64..5.0), 1..6),
        jobs in 1u64..13,
        slacks in proptest::collection::vec(-0.1f64..1.1, 8),
    ) {
        let costs: Vec<ConfigCost> = costs
            .into_iter()
            .map(|(latency_s, energy_j)| ConfigCost { latency_s, energy_j })
            .collect();
        let fastest = costs.iter().map(|c| c.latency_s).fold(f64::INFINITY, f64::min);
        let slowest = costs.iter().map(|c| c.latency_s).fold(0.0, f64::max);
        for slack in slacks {
            // Slack below 0 is infeasible; above 1 the deadline is loose.
            let deadline = jobs as f64 * (fastest + slack * (slowest - fastest));
            match (solve_profile(&costs, jobs, deadline), brute_force(&costs, jobs, deadline)) {
                (Ok(p), Some(energy)) => {
                    prop_assert_eq!(p.total_jobs(), jobs);
                    prop_assert!(p.latency_s <= deadline, "{} > {deadline}", p.latency_s);
                    prop_assert!(
                        (p.energy_j - energy).abs() <= 1e-9,
                        "solver {} J vs brute force {energy} J",
                        p.energy_j
                    );
                }
                (Err(ProfileError::Infeasible { .. }), None) => {}
                (got, want) => prop_assert!(false, "solver {got:?} vs brute force {want:?}"),
            }
        }
    }

    /// On instances of the sizes BoFL plans (K ≤ 40, W ≤ 200), the
    /// solver's energy is never below its LP relaxation and never above
    /// the best rounding of the relaxation's vertices; it schedules exactly
    /// `W` jobs within the deadline, or reports `Infeasible` exactly when
    /// the relaxation is. An LP point within `1e-6` of integral is accepted
    /// as its rounding, so energy and latency may each miss by that much
    /// per candidate.
    #[test]
    fn ilp_respects_relaxation_bound(
        costs in proptest::collection::vec((0.05f64..1.0, 0.5f64..5.0), 1..41),
        jobs in 1u64..201,
        slack in -0.1f64..1.1,
    ) {
        let costs: Vec<ConfigCost> = costs
            .into_iter()
            .map(|(latency_s, energy_j)| ConfigCost { latency_s, energy_j })
            .collect();
        let fastest = costs.iter().map(|c| c.latency_s).fold(f64::INFINITY, f64::min);
        let slowest = costs.iter().map(|c| c.latency_s).fold(0.0, f64::max);
        let dearest = costs.iter().map(|c| c.energy_j).fold(0.0, f64::max);
        let deadline = jobs as f64 * (fastest + slack * (slowest - fastest));
        let rounding = costs.len() as f64 * 1e-6;
        match (solve_profile(&costs, jobs, deadline), relaxation(&costs, jobs, deadline)) {
            (Ok(p), Some((lp, int))) => {
                prop_assert_eq!(p.total_jobs(), jobs);
                prop_assert!(
                    p.latency_s <= deadline + rounding * slowest,
                    "{} > {deadline}",
                    p.latency_s
                );
                let tol = 1e-9 * int + rounding * dearest;
                prop_assert!(p.energy_j >= lp - tol, "solver {} J beat its relaxation {lp} J", p.energy_j);
                prop_assert!(p.energy_j <= int + tol, "solver {} J above a rounding's {int} J", p.energy_j);
            }
            (Err(ProfileError::Infeasible { .. }), None) => {}
            (got, want) => prop_assert!(false, "solver {got:?} vs relaxation {want:?}"),
        }
    }
}
