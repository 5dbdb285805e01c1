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

use crate::simplex::{Constraint, LpProblem, Relation};
use crate::{solve_ilp, IlpOutcome};
use std::error::Error;
use std::fmt;

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

/// Error returned by the profile solvers.
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

fn validate(candidates: &[ConfigCost], jobs: u64) -> Result<(), ProfileError> {
    if candidates.is_empty() || jobs == 0 {
        return Err(ProfileError::NoCandidates);
    }
    for (i, c) in candidates.iter().enumerate() {
        let valid = |v: f64| v.is_finite() && v > 0.0;
        if !valid(c.latency_s) || !valid(c.energy_j) {
            return Err(ProfileError::InvalidCost { index: i });
        }
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
/// # Errors
///
/// Returns [`ProfileError::Infeasible`] when even running every job at the
/// fastest candidate misses the deadline, and
/// [`ProfileError::BudgetExhausted`] in the (pathological) case the node
/// budget runs out.
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
    validate(candidates, jobs)?;
    let fastest = candidates
        .iter()
        .map(|c| c.latency_s)
        .fold(f64::INFINITY, f64::min);
    if fastest * jobs as f64 > deadline_s + 1e-9 {
        return Err(ProfileError::Infeasible {
            best_latency_s: fastest * jobs as f64,
            deadline_s,
        });
    }

    let k = candidates.len();
    let lp = LpProblem {
        objective: candidates.iter().map(|c| c.energy_j).collect(),
        constraints: vec![
            Constraint {
                coeffs: candidates.iter().map(|c| c.latency_s).collect(),
                rel: Relation::Le,
                rhs: deadline_s,
            },
            Constraint {
                coeffs: vec![1.0; k],
                rel: Relation::Eq,
                rhs: jobs as f64,
            },
        ],
    };
    match solve_ilp(&lp, 50_000) {
        IlpOutcome::Optimal(s) => {
            let counts: Vec<u64> = s.x.iter().map(|&v| v.max(0) as u64).collect();
            debug_assert_eq!(counts.iter().sum::<u64>(), jobs);
            Ok(profile_from_counts(candidates, counts))
        }
        IlpOutcome::BudgetExhausted(Some(s)) => {
            let counts: Vec<u64> = s.x.iter().map(|&v| v.max(0) as u64).collect();
            Ok(profile_from_counts(candidates, counts))
        }
        IlpOutcome::BudgetExhausted(None) => Err(ProfileError::BudgetExhausted),
        IlpOutcome::Infeasible => Err(ProfileError::Infeasible {
            best_latency_s: fastest * jobs as f64,
            deadline_s,
        }),
        IlpOutcome::Unbounded => {
            unreachable!("profile ILP is bounded: counts sum to a constant")
        }
    }
}

/// Fast two-configuration heuristic: because the LP relaxation has two
/// constraints, its basic optimum mixes at most two candidates; this
/// solver enumerates all pairs with integer splits and returns the best.
/// Used as an ablation baseline against the exact ILP (they agree on the
/// vast majority of instances).
///
/// # Errors
///
/// Same conditions as [`solve_profile`].
pub fn solve_profile_pairs(
    candidates: &[ConfigCost],
    jobs: u64,
    deadline_s: f64,
) -> Result<Profile, ProfileError> {
    validate(candidates, jobs)?;
    let k = candidates.len();
    let w = jobs as f64;

    let mut best: Option<(f64, usize, usize, u64)> = None; // energy, i, j, n_i
    for i in 0..k {
        for j in 0..k {
            // n at candidate i, (jobs − n) at candidate j. Feasibility:
            // n·T_i + (W−n)·T_j ≤ D.
            let (ti, tj) = (candidates[i].latency_s, candidates[j].latency_s);
            let (ei, ej) = (candidates[i].energy_j, candidates[j].energy_j);
            // Energy = n·(E_i − E_j) + W·E_j: linear in n, so the optimum
            // is at a feasibility boundary.
            let slack = deadline_s - w * tj;
            let n_max_f = if (ti - tj).abs() < 1e-15 {
                if slack >= -1e-9 {
                    w
                } else {
                    -1.0
                }
            } else if ti > tj {
                slack / (ti - tj) // upper bound on n
            } else {
                w // moving jobs to the faster i only helps feasibility
            };
            if n_max_f < -1e-9 && ti >= tj {
                continue; // infeasible for this ordered pair
            }
            let candidates_n: Vec<u64> = if ei < ej {
                // More of i is better: push n as high as feasible.
                vec![n_max_f.min(w).max(0.0).floor() as u64]
            } else {
                // More of j is better: n as low as feasibility allows.
                let n_min_f = if ti < tj {
                    ((w * tj - deadline_s) / (tj - ti)).max(0.0)
                } else {
                    0.0
                };
                vec![n_min_f.min(w).ceil() as u64]
            };
            for n in candidates_n {
                let n = n.min(jobs);
                let lat = n as f64 * ti + (w - n as f64) * tj;
                if lat > deadline_s + 1e-9 {
                    continue;
                }
                let energy = n as f64 * ei + (w - n as f64) * ej;
                if best.is_none_or(|(be, ..)| energy < be) {
                    best = Some((energy, i, j, n));
                }
            }
        }
    }

    match best {
        Some((_, i, j, n)) => {
            let mut counts = vec![0u64; k];
            counts[i] += n;
            counts[j] += jobs - n;
            Ok(profile_from_counts(candidates, counts))
        }
        None => {
            let fastest = candidates
                .iter()
                .map(|c| c.latency_s)
                .fold(f64::INFINITY, f64::min);
            Err(ProfileError::Infeasible {
                best_latency_s: fastest * w,
                deadline_s,
            })
        }
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
    fn pairs_heuristic_matches_ilp_on_small_instances() {
        // Deterministic pseudo-random Pareto-ish candidate sets.
        let mut state = 0xDEADBEEFu64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) % 1000) as f64 / 1000.0
        };
        for trial in 0..30 {
            let k = 2 + (trial % 4);
            let mut cands: Vec<ConfigCost> = (0..k)
                .map(|_| cc(0.1 + 0.4 * next(), 2.0 + 4.0 * next()))
                .collect();
            // Make them Pareto-ish: sort by latency, enforce decreasing
            // energy so there is a real trade-off.
            cands.sort_by(|a, b| a.latency_s.partial_cmp(&b.latency_s).unwrap());
            for i in 1..cands.len() {
                if cands[i].energy_j >= cands[i - 1].energy_j {
                    cands[i].energy_j = cands[i - 1].energy_j * 0.9;
                }
            }
            let jobs = 12;
            let fastest = cands[0].latency_s;
            let slowest = cands.last().unwrap().latency_s;
            let deadline = fastest * jobs as f64 + (slowest - fastest) * jobs as f64 * next();
            let exact = solve_profile(&cands, jobs, deadline).unwrap();
            let pairs = solve_profile_pairs(&cands, jobs, deadline).unwrap();
            assert!(exact.latency_s <= deadline + 1e-9);
            assert!(pairs.latency_s <= deadline + 1e-9);
            assert!(
                exact.energy_j <= pairs.energy_j + 1e-6,
                "ILP must not be worse: {} vs {}",
                exact.energy_j,
                pairs.energy_j
            );
            // On 2-constraint instances the pair heuristic is near-exact.
            assert!(
                pairs.energy_j <= exact.energy_j * 1.02 + 1e-9,
                "pair heuristic too far off: {} vs {}",
                pairs.energy_j,
                exact.energy_j
            );
        }
    }

    #[test]
    fn single_candidate_trivial() {
        let p = solve_profile(&[cc(0.3, 2.0)], 7, 3.0).unwrap();
        assert_eq!(p.counts, vec![7]);
        assert!((p.energy_j - 14.0).abs() < 1e-9);
        let p2 = solve_profile_pairs(&[cc(0.3, 2.0)], 7, 3.0).unwrap();
        assert_eq!(p2.counts, vec![7]);
    }

    #[test]
    fn display_messages() {
        let e = ProfileError::Infeasible {
            best_latency_s: 5.0,
            deadline_s: 4.0,
        };
        assert!(e.to_string().contains("unreachable"));
        assert!(ProfileError::NoCandidates.to_string().contains("empty"));
    }
}
