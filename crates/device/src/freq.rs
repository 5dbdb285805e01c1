/// An operational frequency in megahertz.
///
/// A newtype (C-NEWTYPE) so CPU/GPU/memory frequencies cannot be confused
/// with plain integers or with each other's raw values in arithmetic; the
/// unit is fixed to MHz because that is the granularity of the Jetson sysfs
/// interface.
///
/// # Examples
///
/// ```
/// use bofl_device::FreqMHz;
///
/// let f = FreqMHz::new(1377);
/// assert_eq!(f.as_ghz(), 1.377);
/// assert!(FreqMHz::new(2265) > f);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FreqMHz(u32);

impl FreqMHz {
    /// Creates a frequency from a MHz value.
    ///
    /// # Panics
    ///
    /// Panics if `mhz` is zero — a 0 MHz clock is never a valid DVFS state.
    pub fn new(mhz: u32) -> Self {
        assert!(mhz > 0, "frequency must be positive");
        FreqMHz(mhz)
    }

    /// The raw MHz value.
    pub fn as_mhz(self) -> u32 {
        self.0
    }

    /// The frequency in GHz.
    pub fn as_ghz(self) -> f64 {
        f64::from(self.0) / 1000.0
    }

    /// The frequency in Hz.
    pub(crate) fn as_hz(self) -> f64 {
        f64::from(self.0) * 1e6
    }
}

impl std::fmt::Display for FreqMHz {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} MHz", self.0)
    }
}

impl From<FreqMHz> for u32 {
    fn from(f: FreqMHz) -> u32 {
        f.0
    }
}

/// An ordered table of the discrete frequencies one hardware unit supports.
///
/// Jetson boards only accept frequencies from a fixed OPP (operating
/// performance point) table; this type mirrors that. Entries are strictly
/// increasing.
///
/// # Examples
///
/// ```
/// use bofl_device::FreqTable;
///
/// let t = FreqTable::linspace_mhz(420, 2265, 25); // the AGX CPU table
/// assert_eq!(t.len(), 25);
/// assert_eq!(t.min().as_mhz(), 420);
/// assert_eq!(t.max().as_mhz(), 2265);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FreqTable {
    steps: Vec<FreqMHz>,
}

impl FreqTable {
    /// Builds a table from explicit MHz steps.
    ///
    /// # Panics
    ///
    /// Panics if `steps` is empty or not strictly increasing.
    pub fn from_mhz(steps: &[u32]) -> Self {
        assert!(!steps.is_empty(), "frequency table must not be empty");
        assert!(
            steps.windows(2).all(|w| w[0] < w[1]),
            "frequency table must be strictly increasing"
        );
        FreqTable {
            steps: steps.iter().map(|&s| FreqMHz::new(s)).collect(),
        }
    }

    /// Builds an evenly spaced table of `n` steps from `lo` to `hi` MHz
    /// inclusive (rounded to whole MHz).
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` or `hi <= lo`.
    pub fn linspace_mhz(lo: u32, hi: u32, n: usize) -> Self {
        assert!(n >= 2, "need at least two steps");
        assert!(hi > lo, "hi must exceed lo");
        let steps: Vec<u32> = (0..n)
            .map(|i| {
                let t = i as f64 / (n - 1) as f64;
                (f64::from(lo) + t * f64::from(hi - lo)).round() as u32
            })
            .collect();
        FreqTable::from_mhz(&steps)
    }

    /// Number of steps.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// `false` always (the table is guaranteed non-empty), provided for
    /// API completeness.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// The lowest frequency.
    pub fn min(&self) -> FreqMHz {
        self.steps[0]
    }

    /// The highest frequency.
    pub fn max(&self) -> FreqMHz {
        *self.steps.last().expect("table is non-empty")
    }

    /// The frequency at position `i`.
    ///
    /// Returns `None` if `i` is out of range.
    pub fn get(&self, i: usize) -> Option<FreqMHz> {
        self.steps.get(i).copied()
    }

    /// Position of `f` in the table, if present.
    pub fn position(&self, f: FreqMHz) -> Option<usize> {
        self.steps.iter().position(|&s| s == f)
    }

    /// The table entry closest to `f` (ties resolve to the lower step).
    pub(crate) fn nearest(&self, f: FreqMHz) -> FreqMHz {
        *self
            .steps
            .iter()
            .min_by_key(|s| {
                let d = s.as_mhz().abs_diff(f.as_mhz());
                (d, s.as_mhz())
            })
            .expect("table is non-empty")
    }

    /// Iterates over the steps in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = FreqMHz> + '_ {
        self.steps.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn freq_basics() {
        let f = FreqMHz::new(1500);
        assert_eq!(f.as_mhz(), 1500);
        assert_eq!(f.as_ghz(), 1.5);
        assert_eq!(f.as_hz(), 1.5e9);
        assert_eq!(u32::from(f), 1500);
        assert_eq!(f.to_string(), "1500 MHz");
    }

    #[test]
    #[should_panic(expected = "frequency must be positive")]
    fn zero_freq_rejected() {
        let _ = FreqMHz::new(0);
    }

    #[test]
    fn table_from_mhz() {
        let t = FreqTable::from_mhz(&[100, 200, 300]);
        assert_eq!(t.len(), 3);
        assert_eq!(t.min().as_mhz(), 100);
        assert_eq!(t.max().as_mhz(), 300);
        assert_eq!(t.get(1), Some(FreqMHz::new(200)));
        assert_eq!(t.get(3), None);
        assert_eq!(t.position(FreqMHz::new(200)), Some(1));
        assert_eq!(t.position(FreqMHz::new(250)), None);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn table_rejects_unsorted() {
        let _ = FreqTable::from_mhz(&[200, 100]);
    }

    #[test]
    #[should_panic(expected = "must not be empty")]
    fn table_rejects_empty() {
        let _ = FreqTable::from_mhz(&[]);
    }

    #[test]
    fn linspace_endpoints() {
        let t = FreqTable::linspace_mhz(420, 2265, 25);
        assert_eq!(t.len(), 25);
        assert_eq!(t.min().as_mhz(), 420);
        assert_eq!(t.max().as_mhz(), 2265);
    }

    #[test]
    fn nearest_rounds() {
        let t = FreqTable::from_mhz(&[100, 200, 300]);
        assert_eq!(t.nearest(FreqMHz::new(149)).as_mhz(), 100);
        assert_eq!(t.nearest(FreqMHz::new(151)).as_mhz(), 200);
        assert_eq!(t.nearest(FreqMHz::new(150)).as_mhz(), 100); // tie → lower
        assert_eq!(t.nearest(FreqMHz::new(999)).as_mhz(), 300);
    }

    #[test]
    fn iter_is_increasing() {
        let t = FreqTable::linspace_mhz(100, 1000, 7);
        let v: Vec<u32> = t.iter().map(|f| f.as_mhz()).collect();
        assert!(v.windows(2).all(|w| w[0] < w[1]));
    }
}
