//! Dense two-phase primal simplex with Bland's anti-cycling rule.
//!
//! Sized for BoFL's LP relaxations: a few dozen variables (one per Pareto
//! configuration) and a handful of constraints. No sparsity, no revised
//! simplex — a plain tableau is faster to verify and more than fast enough
//! (the paper reports Gurobi solving the same problems "within 20 ms";
//! this solver does them in microseconds).

const EPS: f64 = 1e-9;

/// Constraint sense.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Relation {
    /// `coeffs · x ≤ rhs`
    Le,
    /// `coeffs · x = rhs`
    Eq,
    /// `coeffs · x ≥ rhs`
    Ge,
}

/// One linear constraint over non-negative variables.
#[derive(Debug, Clone, PartialEq)]
pub struct Constraint {
    /// Coefficients, one per structural variable.
    pub coeffs: Vec<f64>,
    /// Constraint sense.
    pub rel: Relation,
    /// Right-hand side.
    pub rhs: f64,
}

/// A linear program `min objective · x` subject to `constraints`, with
/// `x ≥ 0`.
#[derive(Debug, Clone, PartialEq)]
pub struct LpProblem {
    /// Objective coefficients (minimized).
    pub objective: Vec<f64>,
    /// Constraint rows.
    pub constraints: Vec<Constraint>,
}

/// An optimal LP solution.
#[derive(Debug, Clone, PartialEq)]
pub struct LpSolution {
    /// Optimal structural variable values.
    pub x: Vec<f64>,
    /// Optimal objective value.
    pub objective: f64,
}

/// The outcome of solving an LP.
#[derive(Debug, Clone, PartialEq)]
pub enum LpOutcome {
    /// An optimum was found.
    Optimal(LpSolution),
    /// No feasible point exists.
    Infeasible,
    /// The objective is unbounded below on the feasible region.
    Unbounded,
}

struct Tableau {
    /// rows × cols coefficient matrix; last column is the RHS.
    a: Vec<Vec<f64>>,
    /// Reduced-cost row (last entry = −objective value).
    cost: Vec<f64>,
    /// Basis variable per row.
    basis: Vec<usize>,
    n_cols: usize,
}

impl Tableau {
    fn pivot(&mut self, row: usize, col: usize) {
        let piv = self.a[row][col];
        debug_assert!(piv.abs() > EPS, "pivot too small");
        for v in self.a[row].iter_mut() {
            *v /= piv;
        }
        let pivot_row = self.a[row].clone();
        for (r, arow) in self.a.iter_mut().enumerate() {
            if r == row {
                continue;
            }
            let factor = arow[col];
            if factor.abs() > 0.0 {
                for (v, p) in arow.iter_mut().zip(&pivot_row) {
                    *v -= factor * p;
                }
            }
        }
        let cfactor = self.cost[col];
        if cfactor.abs() > 0.0 {
            for (v, p) in self.cost.iter_mut().zip(&pivot_row) {
                *v -= cfactor * p;
            }
        }
        self.basis[row] = col;
    }

    /// Runs the simplex loop until optimal or unbounded. `allowed` limits
    /// the columns that may enter the basis.
    fn iterate(&mut self, allowed: &[bool]) -> Result<(), ()> {
        let rhs_col = self.n_cols;
        loop {
            // Bland's rule: smallest-index column with negative reduced cost.
            let entering = (0..self.n_cols).find(|&j| allowed[j] && self.cost[j] < -EPS);
            let Some(col) = entering else {
                return Ok(());
            };
            // Ratio test (Bland tie-break on basis index).
            let mut best: Option<(f64, usize, usize)> = None; // ratio, basis var, row
            for (r, arow) in self.a.iter().enumerate() {
                if arow[col] > EPS {
                    let ratio = arow[rhs_col] / arow[col];
                    let key = (ratio, self.basis[r]);
                    if best.is_none_or(|(br, bb, _)| key < (br, bb)) {
                        best = Some((ratio, self.basis[r], r));
                    }
                }
            }
            let Some((_, _, row)) = best else {
                return Err(()); // unbounded
            };
            self.pivot(row, col);
        }
    }
}

/// Solves a linear program with the two-phase simplex method.
///
/// Variables are implicitly non-negative. Returns
/// [`LpOutcome::Infeasible`] when phase 1 cannot drive the artificial
/// variables to zero and [`LpOutcome::Unbounded`] when phase 2 detects an
/// unbounded ray.
///
/// # Panics
///
/// Panics if a constraint row's coefficient count differs from the
/// objective length, or any coefficient is non-finite.
pub fn solve_lp(lp: &LpProblem) -> LpOutcome {
    let n = lp.objective.len();
    assert!(
        lp.objective.iter().all(|v| v.is_finite()),
        "objective must be finite"
    );
    for c in &lp.constraints {
        assert_eq!(c.coeffs.len(), n, "constraint arity mismatch");
        assert!(
            c.coeffs.iter().all(|v| v.is_finite()) && c.rhs.is_finite(),
            "constraints must be finite"
        );
    }
    let m = lp.constraints.len();

    // Normalize rows to rhs ≥ 0.
    let rows: Vec<Constraint> = lp
        .constraints
        .iter()
        .map(|c| {
            if c.rhs < 0.0 {
                Constraint {
                    coeffs: c.coeffs.iter().map(|v| -v).collect(),
                    rel: match c.rel {
                        Relation::Le => Relation::Ge,
                        Relation::Eq => Relation::Eq,
                        Relation::Ge => Relation::Le,
                    },
                    rhs: -c.rhs,
                }
            } else {
                c.clone()
            }
        })
        .collect();

    // Column layout: structural | slack/surplus | artificial | rhs.
    let n_slack = rows
        .iter()
        .filter(|c| matches!(c.rel, Relation::Le | Relation::Ge))
        .count();
    let n_art = rows
        .iter()
        .filter(|c| matches!(c.rel, Relation::Eq | Relation::Ge))
        .count();
    let n_cols = n + n_slack + n_art;

    let mut a = vec![vec![0.0; n_cols + 1]; m];
    let mut basis = vec![usize::MAX; m];
    let mut art_cols = Vec::with_capacity(n_art);
    let mut next_slack = n;
    let mut next_art = n + n_slack;

    for (r, c) in rows.iter().enumerate() {
        a[r][..n].copy_from_slice(&c.coeffs);
        a[r][n_cols] = c.rhs;
        match c.rel {
            Relation::Le => {
                a[r][next_slack] = 1.0;
                basis[r] = next_slack;
                next_slack += 1;
            }
            Relation::Ge => {
                a[r][next_slack] = -1.0;
                next_slack += 1;
                a[r][next_art] = 1.0;
                basis[r] = next_art;
                art_cols.push(next_art);
                next_art += 1;
            }
            Relation::Eq => {
                a[r][next_art] = 1.0;
                basis[r] = next_art;
                art_cols.push(next_art);
                next_art += 1;
            }
        }
    }

    let mut t = Tableau {
        a,
        cost: vec![0.0; n_cols + 1],
        basis,
        n_cols,
    };

    // ----- Phase 1: minimize the sum of artificial variables -----
    if n_art > 0 {
        for &c in &art_cols {
            t.cost[c] = 1.0;
        }
        // Reduce costs with respect to the artificial basis.
        for r in 0..m {
            if art_cols.contains(&t.basis[r]) {
                let row = t.a[r].clone();
                for (v, p) in t.cost.iter_mut().zip(&row) {
                    *v -= p;
                }
            }
        }
        let allowed = vec![true; n_cols];
        if t.iterate(&allowed).is_err() {
            // Phase 1 objective is bounded below by 0; unbounded here
            // means numerical trouble — report infeasible conservatively.
            return LpOutcome::Infeasible;
        }
        let phase1_obj = -t.cost[n_cols];
        if phase1_obj > 1e-7 {
            return LpOutcome::Infeasible;
        }
        // Drive any artificial still in the basis out (degenerate at 0).
        for r in 0..m {
            if art_cols.contains(&t.basis[r]) {
                if let Some(col) = (0..n + n_slack).find(|&j| t.a[r][j].abs() > EPS) {
                    t.pivot(r, col);
                }
                // If no pivot column exists the row is redundant (all
                // zeros); it can stay with the artificial basic at zero.
            }
        }
    }

    // ----- Phase 2: original objective -----
    t.cost = vec![0.0; n_cols + 1];
    t.cost[..n].copy_from_slice(&lp.objective);
    // Reduce with respect to the current basis.
    for r in 0..m {
        let b = t.basis[r];
        let coeff = t.cost[b];
        if coeff.abs() > 0.0 {
            let row = t.a[r].clone();
            for (v, p) in t.cost.iter_mut().zip(&row) {
                *v -= coeff * p;
            }
        }
    }
    let mut allowed = vec![true; n_cols];
    for &c in &art_cols {
        allowed[c] = false;
    }
    if t.iterate(&allowed).is_err() {
        return LpOutcome::Unbounded;
    }

    let mut x = vec![0.0; n];
    for (r, &b) in t.basis.iter().enumerate() {
        if b < n {
            x[b] = t.a[r][n_cols].max(0.0);
        }
    }
    let objective: f64 = lp.objective.iter().zip(&x).map(|(c, v)| c * v).sum();
    LpOutcome::Optimal(LpSolution { x, objective })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn optimal(lp: &LpProblem) -> LpSolution {
        match solve_lp(lp) {
            LpOutcome::Optimal(s) => s,
            other => panic!("expected optimal, got {other:?}"),
        }
    }

    #[test]
    fn textbook_maximization() {
        // max 3x + 5y s.t. x ≤ 4, 2y ≤ 12, 3x + 2y ≤ 18 → (2, 6), obj 36.
        let lp = LpProblem {
            objective: vec![-3.0, -5.0],
            constraints: vec![
                Constraint {
                    coeffs: vec![1.0, 0.0],
                    rel: Relation::Le,
                    rhs: 4.0,
                },
                Constraint {
                    coeffs: vec![0.0, 2.0],
                    rel: Relation::Le,
                    rhs: 12.0,
                },
                Constraint {
                    coeffs: vec![3.0, 2.0],
                    rel: Relation::Le,
                    rhs: 18.0,
                },
            ],
        };
        let s = optimal(&lp);
        assert!((s.x[0] - 2.0).abs() < 1e-9);
        assert!((s.x[1] - 6.0).abs() < 1e-9);
        assert!((s.objective + 36.0).abs() < 1e-9);
    }

    #[test]
    fn equality_constraints() {
        // min x + 2y s.t. x + y = 10, x ≤ 4 → (4, 6), obj 16.
        let lp = LpProblem {
            objective: vec![1.0, 2.0],
            constraints: vec![
                Constraint {
                    coeffs: vec![1.0, 1.0],
                    rel: Relation::Eq,
                    rhs: 10.0,
                },
                Constraint {
                    coeffs: vec![1.0, 0.0],
                    rel: Relation::Le,
                    rhs: 4.0,
                },
            ],
        };
        let s = optimal(&lp);
        assert!((s.x[0] - 4.0).abs() < 1e-9);
        assert!((s.x[1] - 6.0).abs() < 1e-9);
        assert!((s.objective - 16.0).abs() < 1e-9);
    }

    #[test]
    fn ge_constraints() {
        // min 2x + 3y s.t. x + y ≥ 5, x ≥ 1 → (5, 0), obj 10.
        let lp = LpProblem {
            objective: vec![2.0, 3.0],
            constraints: vec![
                Constraint {
                    coeffs: vec![1.0, 1.0],
                    rel: Relation::Ge,
                    rhs: 5.0,
                },
                Constraint {
                    coeffs: vec![1.0, 0.0],
                    rel: Relation::Ge,
                    rhs: 1.0,
                },
            ],
        };
        let s = optimal(&lp);
        assert!((s.objective - 10.0).abs() < 1e-9, "{:?}", s);
    }

    #[test]
    fn detects_infeasible() {
        // x ≤ 1 and x ≥ 2 simultaneously.
        let lp = LpProblem {
            objective: vec![1.0],
            constraints: vec![
                Constraint {
                    coeffs: vec![1.0],
                    rel: Relation::Le,
                    rhs: 1.0,
                },
                Constraint {
                    coeffs: vec![1.0],
                    rel: Relation::Ge,
                    rhs: 2.0,
                },
            ],
        };
        assert_eq!(solve_lp(&lp), LpOutcome::Infeasible);
    }

    #[test]
    fn detects_unbounded() {
        // min −x with only x ≥ 0 → unbounded.
        let lp = LpProblem {
            objective: vec![-1.0],
            constraints: vec![Constraint {
                coeffs: vec![1.0],
                rel: Relation::Ge,
                rhs: 0.0,
            }],
        };
        assert_eq!(solve_lp(&lp), LpOutcome::Unbounded);
    }

    #[test]
    fn negative_rhs_normalized() {
        // −x ≤ −3  ⇔  x ≥ 3; min x → 3.
        let lp = LpProblem {
            objective: vec![1.0],
            constraints: vec![Constraint {
                coeffs: vec![-1.0],
                rel: Relation::Le,
                rhs: -3.0,
            }],
        };
        let s = optimal(&lp);
        assert!((s.x[0] - 3.0).abs() < 1e-9);
    }

    #[test]
    fn degenerate_cycling_does_not_hang() {
        // The classic Beale cycling example (cycles without Bland's rule).
        let lp = LpProblem {
            objective: vec![-0.75, 150.0, -0.02, 6.0],
            constraints: vec![
                Constraint {
                    coeffs: vec![0.25, -60.0, -0.04, 9.0],
                    rel: Relation::Le,
                    rhs: 0.0,
                },
                Constraint {
                    coeffs: vec![0.5, -90.0, -0.02, 3.0],
                    rel: Relation::Le,
                    rhs: 0.0,
                },
                Constraint {
                    coeffs: vec![0.0, 0.0, 1.0, 0.0],
                    rel: Relation::Le,
                    rhs: 1.0,
                },
            ],
        };
        let s = optimal(&lp);
        assert!((s.objective + 0.05).abs() < 1e-9, "obj {}", s.objective);
    }

    #[test]
    fn zero_variable_problem_edge() {
        // A trivial feasibility check with equality met by x = 5.
        let lp = LpProblem {
            objective: vec![0.0],
            constraints: vec![Constraint {
                coeffs: vec![1.0],
                rel: Relation::Eq,
                rhs: 5.0,
            }],
        };
        let s = optimal(&lp);
        assert!((s.x[0] - 5.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn rejects_ragged_constraints() {
        let lp = LpProblem {
            objective: vec![1.0, 1.0],
            constraints: vec![Constraint {
                coeffs: vec![1.0],
                rel: Relation::Le,
                rhs: 1.0,
            }],
        };
        let _ = solve_lp(&lp);
    }
}
