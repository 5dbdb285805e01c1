//! The BoFL exploitation problem (paper §4.4): distribute a round's `W`
//! jobs over the Pareto-optimal configurations to minimize energy under
//! the round deadline — Eqn. (1) restricted to the approximated Pareto
//! set, an integer linear program:
//!
//! ```text
//! min   Σ_k n_k · E_k
//! s.t.  Σ_k n_k · T_k ≤ deadline
//!       Σ_k n_k       = W
//!       n_k ∈ ℤ≥0
//! ```
//!
//! [`solve_profile`] solves it exactly with a best-first branch-and-bound
//! whose node bound is the LP relaxation over the node's box
//! `lo ≤ n ≤ hi`, solved in closed form. Dualizing the deadline row with a
//! multiplier `λ ≥ 0` leaves `min Σ (E_k + λ·T_k)·n_k` over the box and
//! `Σ n_k = W`, which a greedy fill in key order solves with integral
//! counts. The fill's latency falls as `λ` grows, and the order only
//! changes where two keys swap, so a binary search over those pairwise
//! breakpoints finds the optimal `λ*`. The LP optimum then mixes the fills
//! on either side of `λ*` so that the deadline row is met exactly.

use std::cell::OnceCell;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::error::Error;
use std::fmt;

/// Integrality tolerance: an LP count within this distance of an integer
/// counts as integral, and an LP point whose counts all are is accepted as
/// its rounding. The rounding is not re-checked against the deadline row,
/// so an accepted plan can exceed the deadline by a few `INT_TOL` jobs'
/// latency.
const INT_TOL: f64 = 1e-6;

/// Bound prune: a node whose LP bound is not below the incumbent's energy
/// by more than this cannot improve on it and is dropped.
const PRUNE_TOL: f64 = 1e-9;

/// Incumbent improvement: an integral point replaces the incumbent only if
/// its energy is lower by more than this.
const IMPROVE_TOL: f64 = 1e-12;

/// Nodes the search may pop before it stops with its incumbent.
const MAX_NODES: usize = 50_000;

/// Per-job cost of one candidate configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConfigCost {
    /// Per-job latency, seconds.
    pub latency_s: f64,
    /// Per-job energy, joules.
    pub energy_j: f64,
}

/// The chosen job mix: `counts[k]` jobs run at candidate `k`.
#[derive(Debug, Clone, PartialEq)]
pub struct Profile {
    /// Jobs per candidate, summing to `W`.
    pub counts: Vec<u64>,
    /// Total energy of the profile, joules.
    pub energy_j: f64,
    /// Total latency of the profile, seconds.
    pub latency_s: f64,
}

impl Profile {
    /// Total number of jobs in the profile.
    pub fn total_jobs(&self) -> u64 {
        self.counts.iter().sum()
    }
}

/// Error returned by the profile solver.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ProfileError {
    /// No candidates were supplied.
    NoCandidates,
    /// A candidate had a non-positive or non-finite cost.
    InvalidCost {
        /// Index of the offending candidate.
        index: usize,
    },
    /// The deadline was NaN.
    InvalidDeadline,
    /// Even the fastest mix cannot meet the deadline.
    Infeasible {
        /// The latency of the fastest possible schedule.
        best_latency_s: f64,
        /// The deadline that could not be met.
        deadline_s: f64,
    },
    /// The branch-and-bound node budget ran out before proving optimality.
    BudgetExhausted,
}

impl fmt::Display for ProfileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProfileError::NoCandidates => write!(f, "candidate set must not be empty"),
            ProfileError::InvalidCost { index } => {
                write!(f, "candidate {index} has a non-positive or non-finite cost")
            }
            ProfileError::InvalidDeadline => write!(f, "deadline must not be NaN"),
            ProfileError::Infeasible {
                best_latency_s,
                deadline_s,
            } => write!(
                f,
                "deadline {deadline_s:.2} s unreachable (fastest schedule takes {best_latency_s:.2} s)"
            ),
            ProfileError::BudgetExhausted => {
                write!(f, "branch-and-bound budget exhausted before optimality")
            }
        }
    }
}

impl Error for ProfileError {}

fn validate(candidates: &[ConfigCost], jobs: u64, deadline_s: f64) -> Result<(), ProfileError> {
    if candidates.is_empty() || jobs == 0 {
        return Err(ProfileError::NoCandidates);
    }
    for (i, c) in candidates.iter().enumerate() {
        let valid = |v: f64| v.is_finite() && v > 0.0;
        if !valid(c.latency_s) || !valid(c.energy_j) {
            return Err(ProfileError::InvalidCost { index: i });
        }
    }
    if deadline_s.is_nan() {
        return Err(ProfileError::InvalidDeadline);
    }
    Ok(())
}

fn profile_from_counts(candidates: &[ConfigCost], counts: Vec<u64>) -> Profile {
    let energy_j = candidates
        .iter()
        .zip(&counts)
        .map(|(c, &n)| c.energy_j * n as f64)
        .sum();
    let latency_s = candidates
        .iter()
        .zip(&counts)
        .map(|(c, &n)| c.latency_s * n as f64)
        .sum();
    Profile {
        counts,
        energy_j,
        latency_s,
    }
}

/// Solves the exploitation ILP exactly with branch-and-bound.
///
/// With an infinite deadline the result is the cheapest unconstrained
/// plan: every job at the lowest-energy candidate.
///
/// # Errors
///
/// Returns [`ProfileError::InvalidDeadline`] for a NaN deadline,
/// [`ProfileError::Infeasible`] when even running every job at the fastest
/// candidate misses the deadline, and [`ProfileError::BudgetExhausted`] in
/// the (pathological) case the node budget runs out without a plan.
///
/// # Examples
///
/// ```
/// use bofl_ilp::{solve_profile, ConfigCost};
///
/// let candidates = [
///     ConfigCost { latency_s: 0.2, energy_j: 4.0 },  // fast, hungry
///     ConfigCost { latency_s: 0.4, energy_j: 3.0 },  // slow, frugal
/// ];
/// // 10 jobs, deadline 3 s: run as many slow jobs as fit.
/// let p = solve_profile(&candidates, 10, 3.0)?;
/// assert_eq!(p.total_jobs(), 10);
/// assert!(p.latency_s <= 3.0);
/// assert_eq!(p.counts, vec![5, 5]); // 5·0.2 + 5·0.4 = 3.0 exactly
/// # Ok::<(), bofl_ilp::ProfileError>(())
/// ```
pub fn solve_profile(
    candidates: &[ConfigCost],
    jobs: u64,
    deadline_s: f64,
) -> Result<Profile, ProfileError> {
    validate(candidates, jobs, deadline_s)?;
    Problem::new(candidates, jobs, deadline_s).search()
}

/// The ILP's data plus the `λ` values where two candidates swap places in
/// the `E_k + λ·T_k` order, sorted and distinct, and each λ-interval's
/// fill order once a node has asked for it. The order depends on the
/// interval alone, never on a node's box, so one solve orders each
/// interval at most once.
struct Problem<'a> {
    costs: &'a [ConfigCost],
    jobs: u64,
    deadline_s: f64,
    breakpoints: Vec<f64>,
    orders: Vec<OnceCell<Box<[usize]>>>,
}

/// Buffers reused by every node's relaxation: the binary search's probe,
/// its latest fills on either side of `λ*`, and the LP counts.
struct Scratch {
    probe: Vec<u64>,
    left: Vec<u64>,
    right: Vec<u64>,
    counts: Vec<f64>,
}

/// A search node: the box `lo ≤ n ≤ hi` plus the bound it was queued with
/// (its parent's LP energy).
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
        // BinaryHeap is a max-heap; the *lowest* bound pops first.
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
                // Keys E + λ·T of a and b are equal at this λ; it is a
                // breakpoint only when positive (a faster one costs more).
                let lambda = (a.energy_j - b.energy_j) / (b.latency_s - a.latency_s);
                if lambda > 0.0 && lambda.is_finite() {
                    breakpoints.push(lambda);
                }
            }
        }
        breakpoints.sort_unstable_by(f64::total_cmp);
        breakpoints.dedup();
        let orders = (0..=breakpoints.len()).map(|_| OnceCell::new()).collect();
        Problem {
            costs,
            jobs,
            deadline_s,
            breakpoints,
            orders,
        }
    }

    /// Best-first search on the LP bound, branching on the most
    /// fractional count. When the node budget runs out, the incumbent so
    /// far is the answer.
    fn search(&self) -> Result<Profile, ProfileError> {
        let k = self.costs.len();
        let mut heap = BinaryHeap::new();
        heap.push(Node {
            bound: f64::NEG_INFINITY,
            lo: vec![0; k],
            hi: vec![self.jobs; k],
        });
        let mut scratch = Scratch {
            probe: vec![0; k],
            left: vec![0; k],
            right: vec![0; k],
            counts: vec![0.0; k],
        };
        let mut incumbent: Option<Profile> = None;
        let mut nodes = 0usize;
        while let Some(node) = heap.pop() {
            if nodes >= MAX_NODES {
                break;
            }
            nodes += 1;
            let beaten = |bound: f64, inc: &Option<Profile>| {
                inc.as_ref()
                    .is_some_and(|best| bound >= best.energy_j - PRUNE_TOL)
            };
            if beaten(node.bound, &incumbent) {
                continue;
            }
            let Some(energy_j) = self.relax(&node.lo, &node.hi, &mut scratch) else {
                continue;
            };
            if beaten(energy_j, &incumbent) {
                continue;
            }
            let lp = &scratch.counts;
            let frac = |v: f64| (v - v.round()).abs();
            let branch = (0..k).filter(|&i| frac(lp[i]) > INT_TOL).max_by(|&a, &b| {
                frac(lp[a])
                    .partial_cmp(&frac(lp[b]))
                    .unwrap_or(Ordering::Equal)
            });
            match branch {
                None => {
                    let counts = lp.iter().map(|v| v.round() as u64).collect();
                    let found = profile_from_counts(self.costs, counts);
                    if incumbent
                        .as_ref()
                        .is_none_or(|best| found.energy_j < best.energy_j - IMPROVE_TOL)
                    {
                        incumbent = Some(found);
                    }
                }
                Some(i) => {
                    let v = lp[i];
                    let mut hi = node.hi.clone();
                    hi[i] = v.floor() as u64;
                    heap.push(Node {
                        bound: energy_j,
                        lo: node.lo.clone(),
                        hi,
                    });
                    let mut lo = node.lo;
                    lo[i] = v.ceil() as u64;
                    heap.push(Node {
                        bound: energy_j,
                        lo,
                        hi: node.hi,
                    });
                }
            }
        }
        match incumbent {
            Some(profile) => Ok(profile),
            None if nodes >= MAX_NODES => Err(ProfileError::BudgetExhausted),
            None => {
                // The root LP is infeasible: even all-fastest misses.
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

    /// The LP relaxation over the box `lo ≤ n ≤ hi`: its energy, with its
    /// counts left in `scratch.counts`, or `None` when the box holds no
    /// point that meets both rows.
    fn relax(&self, lo: &[u64], hi: &[u64], scratch: &mut Scratch) -> Option<f64> {
        let total = |bounds: &[u64]| bounds.iter().fold(0u64, |s, &n| s.saturating_add(n));
        let lo_total = total(lo);
        if lo_total > self.jobs || total(hi) < self.jobs {
            return None;
        }
        let free = self.jobs - lo_total;
        // Interval `i` of λ runs from breakpoint `i − 1` to breakpoint `i`
        // (from 0, to ∞ at the ends). The fill is the same across an
        // interval and its latency falls from one interval to the next, so
        // find the first interval whose fill meets the deadline.
        let (mut first, mut past) = (0, self.breakpoints.len() + 1);
        let (mut left_s, mut right_s) = (f64::NAN, f64::NAN);
        let Scratch {
            probe,
            left,
            right,
            counts,
        } = scratch;
        let mut near = None;
        while first < past {
            let mid = (first + past) / 2;
            let probe_s = self.fill(self.order(mid, near), lo, hi, free, probe);
            near = Some(mid);
            // Keep the latest fill on each side: when the search ends they
            // are the fills of intervals `first − 1` (the last miss) and
            // `first` (the last hit).
            if probe_s > self.deadline_s {
                first = mid + 1;
                std::mem::swap(probe, left);
                left_s = probe_s;
            } else {
                past = mid;
                std::mem::swap(probe, right);
                right_s = probe_s;
            }
        }
        if first > self.breakpoints.len() {
            return None;
        }
        if first == 0 {
            // The deadline row is slack: the unconstrained fill is optimal.
            for (c, &r) in counts.iter_mut().zip(right.iter()) {
                *c = r as f64;
            }
        } else {
            // λ* is the breakpoint between the two fills; both minimize
            // the Lagrangian there, so the mix that meets the deadline
            // exactly is the LP optimum.
            let theta = (left_s - self.deadline_s) / (left_s - right_s);
            for ((c, &l), &r) in counts.iter_mut().zip(left.iter()).zip(right.iter()) {
                *c = l as f64 + theta * (r as f64 - l as f64);
            }
        }
        Some(
            self.costs
                .iter()
                .zip(counts.iter())
                .map(|(c, n)| c.energy_j * n)
                .sum(),
        )
    }

    /// A `λ` strictly inside interval `i`, where no two keys tie.
    fn inside(&self, interval: usize) -> f64 {
        let b = &self.breakpoints;
        match (interval.checked_sub(1).map(|j| b[j]), b.get(interval)) {
            (None, None) => 1.0,
            (None, Some(&upper)) => upper / 2.0,
            (Some(lower), None) => lower * 2.0,
            (Some(lower), Some(&upper)) => (lower + upper) / 2.0,
        }
    }

    /// Candidate indices in order of `E_k + λ·T_k` for a `λ` inside
    /// `interval`, cheapest first, computed on the interval's first use:
    /// an insertion sort that starts from interval `near`'s order when that
    /// one is known. Two intervals' orders differ only in the pairs whose
    /// breakpoints lie between them, so few candidates move. The result is
    /// the one sorted order of the keys, ties by index.
    fn order(&self, interval: usize, near: Option<usize>) -> &[usize] {
        self.orders[interval].get_or_init(|| {
            let lambda = self.inside(interval);
            let key = |i: usize| self.costs[i].energy_j + lambda * self.costs[i].latency_s;
            // Equal keys (duplicate candidates) fill in index order.
            let before = |a: usize, b: usize| key(a).total_cmp(&key(b)).then(a.cmp(&b)).is_lt();
            let mut order = match near.and_then(|n| self.orders[n].get()) {
                Some(near) => near.clone(),
                None => (0..self.costs.len()).collect(),
            };
            for j in 1..order.len() {
                let mut i = j;
                while i > 0 && before(order[i], order[i - 1]) {
                    order.swap(i, i - 1);
                    i -= 1;
                }
            }
            order
        })
    }

    /// Fills the `free` jobs above the lower bounds into the box in
    /// `order`, writing the counts into `counts`. Returns their total
    /// latency.
    fn fill(&self, order: &[usize], lo: &[u64], hi: &[u64], free: u64, counts: &mut [u64]) -> f64 {
        counts.copy_from_slice(lo);
        let mut left = free;
        for &i in order {
            if left == 0 {
                break;
            }
            let take = left.min(hi[i] - lo[i]);
            counts[i] += take;
            left -= take;
        }
        self.costs
            .iter()
            .zip(counts.iter())
            .map(|(c, &n)| c.latency_s * n as f64)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cc(latency_s: f64, energy_j: f64) -> ConfigCost {
        ConfigCost {
            latency_s,
            energy_j,
        }
    }

    #[test]
    fn loose_deadline_picks_cheapest() {
        let cands = [cc(0.2, 4.0), cc(0.4, 3.0), cc(0.5, 3.5)];
        let p = solve_profile(&cands, 10, 100.0).unwrap();
        assert_eq!(p.counts, vec![0, 10, 0]);
        assert!((p.energy_j - 30.0).abs() < 1e-9);
    }

    #[test]
    fn tight_deadline_forces_fastest() {
        let cands = [cc(0.2, 4.0), cc(0.4, 3.0)];
        let p = solve_profile(&cands, 10, 2.0).unwrap();
        assert_eq!(p.counts, vec![10, 0]);
        assert!((p.latency_s - 2.0).abs() < 1e-9);
    }

    #[test]
    fn intermediate_deadline_mixes() {
        let cands = [cc(0.2, 4.0), cc(0.4, 3.0)];
        let p = solve_profile(&cands, 10, 3.0).unwrap();
        assert_eq!(p.total_jobs(), 10);
        assert!(p.latency_s <= 3.0 + 1e-9);
        // 5 fast + 5 slow is the unique optimum.
        assert_eq!(p.counts, vec![5, 5]);
        assert!((p.energy_j - 35.0).abs() < 1e-9);
    }

    #[test]
    fn three_way_mix_beats_every_pair() {
        // One job at each candidate costs 20 J in 6 s. Every mix of two
        // candidates misses 6 s or costs at least 21 J (three jobs at
        // (2, 7)), so a solver that only mixes pairs is not exact.
        let cands = [cc(1.0, 10.0), cc(2.0, 7.0), cc(3.0, 3.0)];
        let p = solve_profile(&cands, 3, 6.0).unwrap();
        assert_eq!(p.counts, vec![1, 1, 1]);
        assert!((p.energy_j - 20.0).abs() < 1e-9);
    }

    #[test]
    fn infeasible_deadline_errors() {
        let cands = [cc(0.5, 1.0)];
        let err = solve_profile(&cands, 10, 4.0).unwrap_err();
        match err {
            ProfileError::Infeasible {
                best_latency_s,
                deadline_s,
            } => {
                assert!((best_latency_s - 5.0).abs() < 1e-9);
                assert_eq!(deadline_s, 4.0);
            }
            other => panic!("{other}"),
        }
    }

    #[test]
    fn nan_deadline_is_a_typed_error() {
        let cands = [cc(0.2, 4.0), cc(0.4, 3.0)];
        assert_eq!(
            solve_profile(&cands, 10, f64::NAN).unwrap_err(),
            ProfileError::InvalidDeadline
        );
    }

    #[test]
    fn infinite_deadline_runs_everything_cheapest() {
        let cands = [cc(0.2, 4.0), cc(0.4, 3.0), cc(0.5, 3.5)];
        let p = solve_profile(&cands, 10, f64::INFINITY).unwrap();
        assert_eq!(p.counts, vec![0, 10, 0]);
        assert!((p.energy_j - 30.0).abs() < 1e-9);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(matches!(
            solve_profile(&[], 10, 1.0).unwrap_err(),
            ProfileError::NoCandidates
        ));
        assert!(matches!(
            solve_profile(&[cc(0.1, 1.0)], 0, 1.0).unwrap_err(),
            ProfileError::NoCandidates
        ));
        assert!(matches!(
            solve_profile(&[cc(-0.1, 1.0)], 5, 1.0).unwrap_err(),
            ProfileError::InvalidCost { index: 0 }
        ));
        assert!(matches!(
            solve_profile(&[cc(0.1, f64::NAN)], 5, 1.0).unwrap_err(),
            ProfileError::InvalidCost { index: 0 }
        ));
    }

    #[test]
    fn single_candidate_trivial() {
        let p = solve_profile(&[cc(0.3, 2.0)], 7, 3.0).unwrap();
        assert_eq!(p.counts, vec![7]);
        assert!((p.energy_j - 14.0).abs() < 1e-9);
    }

    #[test]
    fn display_messages() {
        let e = ProfileError::Infeasible {
            best_latency_s: 5.0,
            deadline_s: 4.0,
        };
        assert!(e.to_string().contains("unreachable"));
        assert!(ProfileError::NoCandidates.to_string().contains("empty"));
        assert!(ProfileError::InvalidDeadline.to_string().contains("NaN"));
    }
}
