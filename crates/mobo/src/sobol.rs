//! A Sobol low-discrepancy sequence for up to 8 dimensions.
//!
//! The paper's safe-random-exploration phase samples its starting points
//! "uniformly distributed over X, using a quasi-random number generator"
//! (§4.2). Sobol sequences are the standard choice: they fill the unit
//! cube far more evenly than i.i.d. uniforms at the tiny sample counts
//! BoFL uses (~1% of a 2100-point grid ≈ 21 points).
//!
//! Direction numbers are the Joe–Kuo `new-joe-kuo-6` values for the first
//! 8 dimensions, generated with the standard Gray-code construction.

/// Primitive-polynomial parameters `(s, a, m...)` for dimensions 2..=8
/// (dimension 1 is the van der Corput sequence).
const JOE_KUO: &[(u32, u32, &[u32])] = &[
    (1, 0, &[1]),
    (2, 1, &[1, 3]),
    (3, 1, &[1, 3, 1]),
    (3, 2, &[1, 1, 1]),
    (4, 1, &[1, 1, 3, 3]),
    (4, 4, &[1, 3, 5, 13]),
    (5, 2, &[1, 1, 5, 5, 17]),
];

const BITS: u32 = 32;

/// A Sobol sequence generator over the unit hypercube `[0, 1)ᵈ`.
///
/// # Examples
///
/// ```
/// use bofl_mobo::SobolSequence;
///
/// let mut sobol = SobolSequence::new(3);
/// let first: Vec<Vec<f64>> = (0..4).map(|_| sobol.next_point()).collect();
/// assert_eq!(first[0], vec![0.0, 0.0, 0.0]);
/// assert_eq!(first[1], vec![0.5, 0.5, 0.5]);
/// // Every coordinate stays in [0, 1).
/// assert!(first.iter().flatten().all(|&v| (0.0..1.0).contains(&v)));
/// ```
#[derive(Debug, Clone)]
pub struct SobolSequence {
    // direction[d][j]: direction number j for dimension d, scaled by 2^32.
    direction: Vec<[u32; BITS as usize]>,
    state: Vec<u32>,
    index: u64,
}

impl SobolSequence {
    /// Creates a generator of `dim`-dimensional points.
    ///
    /// # Panics
    ///
    /// Panics if `dim` is zero or exceeds 8 (the table size).
    pub fn new(dim: usize) -> Self {
        assert!(dim >= 1, "dimension must be at least 1");
        assert!(dim <= 8, "at most 8 dimensions are supported");
        let mut direction = Vec::with_capacity(dim);

        // Dimension 1: van der Corput, v_j = 2^(32−j).
        let mut v = [0u32; BITS as usize];
        for (j, vj) in v.iter_mut().enumerate() {
            *vj = 1 << (BITS - 1 - j as u32);
        }
        direction.push(v);

        for d in 1..dim {
            let (s, a, m_init) = JOE_KUO[d - 1];
            let s = s as usize;
            let mut m = vec![0u32; BITS as usize];
            m[..s].copy_from_slice(&m_init[..s]);
            for j in s..BITS as usize {
                // Recurrence: m_j = 2a₁ m_{j−1} ⊕ 4a₂ m_{j−2} ⊕ …
                //             ⊕ 2^s m_{j−s} ⊕ m_{j−s}
                let mut val = m[j - s] ^ (m[j - s] << s);
                for k in 1..s {
                    let a_k = (a >> (s - 1 - k)) & 1;
                    if a_k == 1 {
                        val ^= m[j - k] << k;
                    }
                }
                m[j] = val;
            }
            let mut v = [0u32; BITS as usize];
            for (j, vj) in v.iter_mut().enumerate() {
                *vj = m[j] << (BITS - 1 - j as u32);
            }
            direction.push(v);
        }

        SobolSequence {
            direction,
            state: vec![0; dim],
            index: 0,
        }
    }

    /// Generates the next point of the sequence (Gray-code order).
    pub fn next_point(&mut self) -> Vec<f64> {
        let point: Vec<f64> = self
            .state
            .iter()
            .map(|&s| f64::from(s) / 2f64.powi(BITS as i32))
            .collect();
        // Gray-code update: flip the direction number of the lowest zero
        // bit of the index.
        let c = self.index.trailing_ones() as usize;
        let c = c.min(BITS as usize - 1);
        for (st, dir) in self.state.iter_mut().zip(&self.direction) {
            *st ^= dir[c];
        }
        self.index += 1;
        point
    }
}

impl Iterator for SobolSequence {
    type Item = Vec<f64>;

    fn next(&mut self) -> Option<Vec<f64>> {
        Some(self.next_point())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_points_match_reference() {
        // The canonical start of the 2-D Sobol sequence.
        let pts: Vec<Vec<f64>> = SobolSequence::new(2).take(8).collect();
        let expect: [[f64; 2]; 8] = [
            [0.0, 0.0],
            [0.5, 0.5],
            [0.75, 0.25],
            [0.25, 0.75],
            [0.375, 0.375],
            [0.875, 0.875],
            [0.625, 0.125],
            [0.125, 0.625],
        ];
        for (got, want) in pts.iter().zip(&expect) {
            assert!((got[0] - want[0]).abs() < 1e-12, "{got:?} vs {want:?}");
            assert!((got[1] - want[1]).abs() < 1e-12, "{got:?} vs {want:?}");
        }
    }

    #[test]
    fn points_in_unit_cube() {
        let mut s = SobolSequence::new(8);
        for _ in 0..1000 {
            let p = s.next_point();
            assert_eq!(p.len(), 8);
            assert!(p.iter().all(|&v| (0.0..1.0).contains(&v)));
        }
    }

    #[test]
    fn low_discrepancy_beats_worst_case() {
        // In 1000 points of a 3-D Sobol sequence, each octant must contain
        // close to 125 points (within 15%), which i.i.d. uniforms only
        // achieve with luck.
        let mut s = SobolSequence::new(3);
        let mut counts = [0usize; 8];
        for _ in 0..1000 {
            let p = s.next_point();
            let idx = (usize::from(p[0] >= 0.5) << 2)
                | (usize::from(p[1] >= 0.5) << 1)
                | usize::from(p[2] >= 0.5);
            counts[idx] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                (106..=144).contains(&c),
                "octant {i} has {c} points, expected ≈125"
            );
        }
    }

    #[test]
    fn no_duplicate_points_in_prefix() {
        let mut pts: Vec<Vec<f64>> = SobolSequence::new(3).take(256).collect();
        pts.sort_by(|a, b| a.partial_cmp(b).unwrap());
        pts.dedup();
        assert_eq!(pts.len(), 256);
    }

    #[test]
    fn iterator_interface() {
        let s = SobolSequence::new(1);
        let v: Vec<Vec<f64>> = s.take(3).collect();
        assert_eq!(v.len(), 3);
        assert_eq!(v[1], vec![0.5]);
    }

    #[test]
    #[should_panic(expected = "at most 8 dimensions")]
    fn rejects_high_dim() {
        let _ = SobolSequence::new(9);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn rejects_zero_dim() {
        let _ = SobolSequence::new(0);
    }
}
