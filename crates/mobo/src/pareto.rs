//! Pareto dominance and front maintenance in the 2-D minimization setting
//! of the paper's §3.2.
//!
//! A point `a` *dominates* `b` iff `a` is no worse in both objectives and
//! strictly better in at least one. The *Pareto front* of a set is the
//! subset of non-dominated points.

/// `true` iff objective vector `a` Pareto-dominates `b` (both minimized).
///
/// # Examples
///
/// ```
/// use bofl_mobo::pareto::dominates;
///
/// assert!(dominates([1.0, 2.0], [2.0, 2.0]));
/// assert!(!dominates([1.0, 2.0], [1.0, 2.0])); // equal points
/// assert!(!dominates([1.0, 3.0], [2.0, 2.0])); // trade-off
/// ```
pub fn dominates(a: [f64; 2], b: [f64; 2]) -> bool {
    a[0] <= b[0] && a[1] <= b[1] && (a[0] < b[0] || a[1] < b[1])
}

/// Indices of the Pareto-optimal elements of `points` (both objectives
/// minimized). Duplicated non-dominated values are all retained.
///
/// # Examples
///
/// ```
/// use bofl_mobo::pareto_front_indices;
///
/// let pts = [[1.0, 4.0], [2.0, 2.0], [3.0, 3.0], [4.0, 1.0]];
/// assert_eq!(pareto_front_indices(&pts), vec![0, 1, 3]);
/// ```
pub fn pareto_front_indices(points: &[[f64; 2]]) -> Vec<usize> {
    (0..points.len())
        .filter(|&i| {
            !points
                .iter()
                .enumerate()
                .any(|(j, &p)| j != i && dominates(p, points[i]))
        })
        .collect()
}

/// An incrementally maintained 2-D Pareto front (minimization).
///
/// Points are kept sorted ascending by the first objective (and therefore
/// strictly descending by the second). Inserting a dominated point is a
/// no-op; inserting a dominating point evicts everything it dominates.
///
/// # Examples
///
/// ```
/// use bofl_mobo::ParetoFront;
///
/// let mut front = ParetoFront::new();
/// assert!(front.insert([2.0, 2.0]));
/// assert!(front.insert([1.0, 3.0]));  // trade-off: kept
/// assert!(!front.insert([3.0, 3.0])); // dominated: rejected
/// assert!(front.insert([0.5, 0.5]));  // dominates everything: evicts
/// assert_eq!(front.len(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ParetoFront {
    // Invariant: sorted ascending by [0], strictly descending by [1],
    // mutually non-dominated.
    points: Vec<[f64; 2]>,
}

impl ParetoFront {
    /// Creates an empty front.
    pub fn new() -> Self {
        ParetoFront { points: Vec::new() }
    }

    /// Builds a front from arbitrary points, discarding dominated ones.
    pub fn from_points(points: &[[f64; 2]]) -> Self {
        let mut front = ParetoFront::new();
        for &p in points {
            front.insert(p);
        }
        front
    }

    /// Inserts a point; returns `true` if it joined the front (i.e. it was
    /// not dominated by, nor equal to, an existing member).
    ///
    /// # Panics
    ///
    /// Panics if either coordinate is NaN.
    pub fn insert(&mut self, p: [f64; 2]) -> bool {
        assert!(
            !p[0].is_nan() && !p[1].is_nan(),
            "pareto front points must not be NaN"
        );
        if self.points.iter().any(|&q| dominates(q, p) || q == p) {
            return false;
        }
        self.points.retain(|&q| !dominates(p, q));
        let pos = self
            .points
            .partition_point(|&q| (q[0], q[1]) < (p[0], p[1]));
        self.points.insert(pos, p);
        true
    }

    /// `true` iff `p` is dominated by (or equal to) a member of the front.
    pub fn dominated(&self, p: [f64; 2]) -> bool {
        self.points.iter().any(|&q| dominates(q, p) || q == p)
    }

    /// Number of points on the front.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// `true` if the front has no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The points, sorted ascending by the first objective.
    pub fn points(&self) -> &[[f64; 2]] {
        &self.points
    }

    /// Iterates over the points in sorted order.
    pub fn iter(&self) -> impl Iterator<Item = [f64; 2]> + '_ {
        self.points.iter().copied()
    }
}

impl FromIterator<[f64; 2]> for ParetoFront {
    fn from_iter<I: IntoIterator<Item = [f64; 2]>>(iter: I) -> Self {
        let mut front = ParetoFront::new();
        for p in iter {
            front.insert(p);
        }
        front
    }
}

impl Extend<[f64; 2]> for ParetoFront {
    fn extend<I: IntoIterator<Item = [f64; 2]>>(&mut self, iter: I) {
        for p in iter {
            self.insert(p);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dominance_definition_matches_paper() {
        // §3.2: a ≺ b iff E(a) ≤ E(b) and T(a) ≤ T(b), with at least one
        // strict.
        assert!(dominates([1.0, 1.0], [1.0, 2.0]));
        assert!(dominates([1.0, 1.0], [2.0, 1.0]));
        assert!(dominates([1.0, 1.0], [2.0, 2.0]));
        assert!(!dominates([1.0, 1.0], [1.0, 1.0]));
        assert!(!dominates([0.5, 3.0], [1.0, 1.0]));
    }

    #[test]
    fn front_indices_on_known_set() {
        let pts = [
            [0.18, 5.0],
            [0.30, 3.5],
            [0.25, 4.0],
            [0.20, 4.9],
            [0.30, 3.6], // dominated by [0.30, 3.5]
            [0.18, 5.2], // dominated by [0.18, 5.0]
        ];
        assert_eq!(pareto_front_indices(&pts), vec![0, 1, 2, 3]);
    }

    #[test]
    fn incremental_front_matches_batch() {
        let pts = [
            [3.0, 1.0],
            [1.0, 3.0],
            [2.0, 2.0],
            [2.5, 2.5],
            [0.5, 4.0],
            [3.0, 1.0], // duplicate
        ];
        let front = ParetoFront::from_points(&pts);
        let batch: Vec<[f64; 2]> = pareto_front_indices(&pts)
            .into_iter()
            .map(|i| pts[i])
            .collect();
        // The incremental front rejects exact duplicates, the batch keeps
        // them; dedup before comparing.
        let mut batch_dedup = batch.clone();
        batch_dedup.sort_by(|a, b| a.partial_cmp(b).unwrap());
        batch_dedup.dedup();
        let mut got: Vec<[f64; 2]> = front.iter().collect();
        got.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(got, batch_dedup);
    }

    #[test]
    fn sorted_invariant_holds() {
        let mut front = ParetoFront::new();
        for p in [[5.0, 1.0], [1.0, 5.0], [3.0, 3.0], [2.0, 4.0], [4.0, 2.0]] {
            front.insert(p);
        }
        let pts = front.points();
        assert!(pts.windows(2).all(|w| w[0][0] < w[1][0]));
        assert!(pts.windows(2).all(|w| w[0][1] > w[1][1]));
        assert_eq!(front.len(), 5);
    }

    #[test]
    fn eviction_on_dominating_insert() {
        let mut front: ParetoFront = [[2.0, 2.0], [1.0, 3.0], [3.0, 1.0]].into_iter().collect();
        assert_eq!(front.len(), 3);
        assert!(front.insert([0.0, 0.0]));
        assert_eq!(front.len(), 1);
        assert!(front.dominated([0.5, 0.5]));
        assert!(!front.dominated([-1.0, 5.0]));
    }

    #[test]
    fn extend_works() {
        let mut front = ParetoFront::new();
        front.extend([[1.0, 2.0], [2.0, 1.0]]);
        assert_eq!(front.len(), 2);
    }

    #[test]
    #[should_panic(expected = "must not be NaN")]
    fn rejects_nan() {
        ParetoFront::new().insert([f64::NAN, 0.0]);
    }

    #[test]
    fn empty_front_behaviour() {
        let front = ParetoFront::new();
        assert!(front.is_empty());
        assert!(!front.dominated([1.0, 1.0]));
        assert_eq!(front.points(), &[] as &[[f64; 2]]);
    }
}
