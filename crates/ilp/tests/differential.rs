//! Differential test: `solve_profile` against a reference that re-sorts
//! the candidates on every fill.
//!
//! The reference below is the solver as it was before each λ-interval's
//! fill order was cached: every fill builds the keys `E_k + λ·T_k`, sorts
//! them (`total_cmp`, ties by index) and returns fresh counts. Node order,
//! branching, tolerances and summation orders are the same, so the plans
//! and the errors must be identical, not merely equally cheap.
//!
//! Instances have the sizes BoFL plans (K ≤ 40, W ≤ 200). Half the
//! candidates come from a coarse grid, so duplicate `(T, E)` pairs, equal
//! energies and equal latencies (tied keys and repeated breakpoints) are
//! common. Deadlines sweep from infeasible to slack, hit some all-at-one
//! candidate latencies exactly, and include `+∞` and NaN.

use bofl_ilp::{solve_profile, ConfigCost, ProfileError};
use proptest::prelude::*;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

mod reference {
    use super::*;

    const INT_TOL: f64 = 1e-6;
    const PRUNE_TOL: f64 = 1e-9;
    const IMPROVE_TOL: f64 = 1e-12;
    const MAX_NODES: usize = 50_000;

    /// The plan's counts, or the solver's error.
    pub fn solve(
        costs: &[ConfigCost],
        jobs: u64,
        deadline_s: f64,
    ) -> Result<Vec<u64>, ProfileError> {
        if costs.is_empty() || jobs == 0 {
            return Err(ProfileError::NoCandidates);
        }
        for (i, c) in costs.iter().enumerate() {
            let valid = |v: f64| v.is_finite() && v > 0.0;
            if !valid(c.latency_s) || !valid(c.energy_j) {
                return Err(ProfileError::InvalidCost { index: i });
            }
        }
        if deadline_s.is_nan() {
            return Err(ProfileError::InvalidDeadline);
        }
        Problem::new(costs, jobs, deadline_s).search()
    }

    struct Problem<'a> {
        costs: &'a [ConfigCost],
        jobs: u64,
        deadline_s: f64,
        breakpoints: Vec<f64>,
    }

    struct Node {
        bound: f64,
        lo: Vec<u64>,
        hi: Vec<u64>,
    }

    impl PartialEq for Node {
        fn eq(&self, other: &Self) -> bool {
            self.bound == other.bound
        }
    }
    impl Eq for Node {}
    impl PartialOrd for Node {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for Node {
        fn cmp(&self, other: &Self) -> Ordering {
            other
                .bound
                .partial_cmp(&self.bound)
                .unwrap_or(Ordering::Equal)
        }
    }

    impl<'a> Problem<'a> {
        fn new(costs: &'a [ConfigCost], jobs: u64, deadline_s: f64) -> Self {
            let mut breakpoints = Vec::new();
            for (i, a) in costs.iter().enumerate() {
                for b in &costs[i + 1..] {
                    let lambda = (a.energy_j - b.energy_j) / (b.latency_s - a.latency_s);
                    if lambda > 0.0 && lambda.is_finite() {
                        breakpoints.push(lambda);
                    }
                }
            }
            breakpoints.sort_unstable_by(f64::total_cmp);
            breakpoints.dedup();
            Problem {
                costs,
                jobs,
                deadline_s,
                breakpoints,
            }
        }

        fn search(&self) -> Result<Vec<u64>, ProfileError> {
            let k = self.costs.len();
            let mut heap = BinaryHeap::new();
            heap.push(Node {
                bound: f64::NEG_INFINITY,
                lo: vec![0; k],
                hi: vec![self.jobs; k],
            });
            // The incumbent's counts and energy.
            let mut incumbent: Option<(Vec<u64>, f64)> = None;
            let mut nodes = 0usize;
            while let Some(node) = heap.pop() {
                if nodes >= MAX_NODES {
                    break;
                }
                nodes += 1;
                let beaten = |bound: f64, inc: &Option<(Vec<u64>, f64)>| {
                    inc.as_ref().is_some_and(|best| bound >= best.1 - PRUNE_TOL)
                };
                if beaten(node.bound, &incumbent) {
                    continue;
                }
                let Some((lp, lp_energy)) = self.relax(&node.lo, &node.hi) else {
                    continue;
                };
                if beaten(lp_energy, &incumbent) {
                    continue;
                }
                let frac = |v: f64| (v - v.round()).abs();
                let branch = (0..k).filter(|&i| frac(lp[i]) > INT_TOL).max_by(|&a, &b| {
                    frac(lp[a])
                        .partial_cmp(&frac(lp[b]))
                        .unwrap_or(Ordering::Equal)
                });
                match branch {
                    None => {
                        let counts: Vec<u64> = lp.iter().map(|v| v.round() as u64).collect();
                        let energy_j: f64 = self
                            .costs
                            .iter()
                            .zip(&counts)
                            .map(|(c, &n)| c.energy_j * n as f64)
                            .sum();
                        if incumbent
                            .as_ref()
                            .is_none_or(|best| energy_j < best.1 - IMPROVE_TOL)
                        {
                            incumbent = Some((counts, energy_j));
                        }
                    }
                    Some(i) => {
                        let v = lp[i];
                        let mut hi = node.hi.clone();
                        hi[i] = v.floor() as u64;
                        heap.push(Node {
                            bound: lp_energy,
                            lo: node.lo.clone(),
                            hi,
                        });
                        let mut lo = node.lo;
                        lo[i] = v.ceil() as u64;
                        heap.push(Node {
                            bound: lp_energy,
                            lo,
                            hi: node.hi,
                        });
                    }
                }
            }
            match incumbent {
                Some((counts, _)) => Ok(counts),
                None if nodes >= MAX_NODES => Err(ProfileError::BudgetExhausted),
                None => {
                    let fastest = self
                        .costs
                        .iter()
                        .map(|c| c.latency_s)
                        .fold(f64::INFINITY, f64::min);
                    Err(ProfileError::Infeasible {
                        best_latency_s: fastest * self.jobs as f64,
                        deadline_s: self.deadline_s,
                    })
                }
            }
        }

        fn relax(&self, lo: &[u64], hi: &[u64]) -> Option<(Vec<f64>, f64)> {
            let total = |bounds: &[u64]| bounds.iter().fold(0u64, |s, &n| s.saturating_add(n));
            if total(lo) > self.jobs || total(hi) < self.jobs {
                return None;
            }
            let fill = |interval: usize| self.fill(self.inside(interval), lo, hi);
            let (mut first, mut past) = (0, self.breakpoints.len() + 1);
            while first < past {
                let mid = (first + past) / 2;
                if fill(mid).1 > self.deadline_s {
                    first = mid + 1;
                } else {
                    past = mid;
                }
            }
            if first > self.breakpoints.len() {
                return None;
            }
            let (right, right_s) = fill(first);
            let counts: Vec<f64> = if first == 0 {
                right.iter().map(|&n| n as f64).collect()
            } else {
                let (left, left_s) = fill(first - 1);
                let theta = (left_s - self.deadline_s) / (left_s - right_s);
                left.iter()
                    .zip(&right)
                    .map(|(&l, &r)| l as f64 + theta * (r as f64 - l as f64))
                    .collect()
            };
            let energy_j = self
                .costs
                .iter()
                .zip(&counts)
                .map(|(c, n)| c.energy_j * n)
                .sum();
            Some((counts, energy_j))
        }

        fn inside(&self, interval: usize) -> f64 {
            let b = &self.breakpoints;
            match (interval.checked_sub(1).map(|j| b[j]), b.get(interval)) {
                (None, None) => 1.0,
                (None, Some(&upper)) => upper / 2.0,
                (Some(lower), None) => lower * 2.0,
                (Some(lower), Some(&upper)) => (lower + upper) / 2.0,
            }
        }

        fn fill(&self, lambda: f64, lo: &[u64], hi: &[u64]) -> (Vec<u64>, f64) {
            let mut order: Vec<(f64, usize)> = self
                .costs
                .iter()
                .enumerate()
                .map(|(i, c)| (c.energy_j + lambda * c.latency_s, i))
                .collect();
            order.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            let mut counts = lo.to_vec();
            let mut left = self.jobs - lo.iter().sum::<u64>();
            for (_, i) in order {
                let take = left.min(hi[i] - lo[i]);
                counts[i] += take;
                left -= take;
            }
            let latency_s = self
                .costs
                .iter()
                .zip(&counts)
                .map(|(c, &n)| c.latency_s * n as f64)
                .sum();
            (counts, latency_s)
        }
    }
}

/// A candidate from a 8 × 6 grid of latencies and energies when `grid`,
/// else drawn freely.
fn candidate((grid, a, b, latency_s, energy_j): (bool, u8, u8, f64, f64)) -> ConfigCost {
    if grid {
        ConfigCost {
            latency_s: 0.05 * f64::from(1 + a),
            energy_j: 0.5 * f64::from(1 + b),
        }
    } else {
        ConfigCost {
            latency_s,
            energy_j,
        }
    }
}

proptest! {
    /// Identical counts, or identical errors, on every deadline of the
    /// sweep.
    #[test]
    fn cached_orders_plan_as_the_per_fill_sort(
        raw in proptest::collection::vec(
            (0u8..2, 0u8..8, 0u8..6, 0.05f64..1.0, 0.5f64..5.0),
            1..41,
        ),
        jobs in 0u64..201,
        slacks in proptest::collection::vec(-0.1f64..1.1, 6),
        exact in 0usize..40,
    ) {
        let costs: Vec<ConfigCost> = raw
            .into_iter()
            .map(|(grid, a, b, t, e)| candidate((grid == 1, a, b, t, e)))
            .collect();
        let fastest = costs.iter().map(|c| c.latency_s).fold(f64::INFINITY, f64::min);
        let slowest = costs.iter().map(|c| c.latency_s).fold(0.0, f64::max);
        let w = jobs as f64;
        let mut deadlines: Vec<f64> = slacks
            .iter()
            .map(|s| w * (fastest + s * (slowest - fastest)))
            .collect();
        // Every job at one candidate: a fill's latency, met exactly.
        deadlines.push(w * costs[exact % costs.len()].latency_s);
        deadlines.push(w * fastest);
        deadlines.extend([f64::INFINITY, f64::NAN]);
        for deadline in deadlines {
            let got = solve_profile(&costs, jobs, deadline).map(|p| p.counts);
            let want = reference::solve(&costs, jobs, deadline);
            prop_assert_eq!(got, want);
        }
    }
}

/// Many copies of one candidate plus a few others: every key ties with
/// its copies, so only the index tie-break orders the fill.
#[test]
fn duplicates_fill_in_index_order() {
    let cc = |latency_s, energy_j| ConfigCost {
        latency_s,
        energy_j,
    };
    let mut costs = vec![cc(0.3, 2.0); 12];
    costs.insert(5, cc(0.1, 4.0));
    costs.push(cc(0.2, 3.0));
    costs.push(cc(0.6, 1.0));
    for jobs in [1, 7, 40, 200] {
        for share in [0.0, 0.2, 0.45, 0.7, 1.0] {
            let deadline = jobs as f64 * (0.1 + share * 0.5);
            assert_eq!(
                solve_profile(&costs, jobs, deadline).map(|p| p.counts),
                reference::solve(&costs, jobs, deadline),
                "W = {jobs}, deadline {deadline}"
            );
        }
    }
}
