use crate::{FreqMHz, FreqTable};

/// One DVFS configuration: the operational frequencies of CPU, GPU and
/// memory controller (the paper's `x ∈ X = F_CPU × F_GPU × F_MC`).
///
/// # Examples
///
/// ```
/// use bofl_device::{DvfsConfig, FreqMHz};
///
/// let x = DvfsConfig::new(
///     FreqMHz::new(2265),
///     FreqMHz::new(1377),
///     FreqMHz::new(2133),
/// );
/// assert_eq!(x.cpu.as_mhz(), 2265);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DvfsConfig {
    /// CPU cluster frequency.
    pub cpu: FreqMHz,
    /// GPU core frequency.
    pub gpu: FreqMHz,
    /// Memory-controller (EMC) frequency.
    pub mem: FreqMHz,
}

impl DvfsConfig {
    /// Creates a configuration from the three unit frequencies.
    pub fn new(cpu: FreqMHz, gpu: FreqMHz, mem: FreqMHz) -> Self {
        DvfsConfig { cpu, gpu, mem }
    }

    /// The configuration as normalized coordinates in `[0, 1]³` relative to
    /// a [`ConfigSpace`] — the input representation used by the GP
    /// surrogate.
    pub fn to_unit_cube(self, space: &ConfigSpace) -> [f64; 3] {
        let norm = |f: FreqMHz, t: &FreqTable| {
            let lo = t.min().as_mhz() as f64;
            let hi = t.max().as_mhz() as f64;
            (f.as_mhz() as f64 - lo) / (hi - lo)
        };
        [
            norm(self.cpu, space.cpu_table()),
            norm(self.gpu, space.gpu_table()),
            norm(self.mem, space.mem_table()),
        ]
    }
}

impl std::fmt::Display for DvfsConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "(cpu {}, gpu {}, mem {})",
            self.cpu.as_mhz(),
            self.gpu.as_mhz(),
            self.mem.as_mhz()
        )
    }
}

/// Index of a configuration within a [`ConfigSpace`] grid (row-major over
/// CPU, GPU, MEM axes).
///
/// A newtype so grid indices cannot be mixed up with job counts or round
/// numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ConfigIndex(pub usize);

impl std::fmt::Display for ConfigIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// The full discrete DVFS configuration space of a device: the cartesian
/// product of the three per-unit frequency tables.
///
/// # Examples
///
/// ```
/// use bofl_device::{ConfigSpace, FreqTable};
///
/// let space = ConfigSpace::new(
///     FreqTable::linspace_mhz(420, 2265, 25),
///     FreqTable::linspace_mhz(114, 1377, 14),
///     FreqTable::linspace_mhz(204, 2133, 6),
/// );
/// assert_eq!(space.len(), 2100); // the AGX grid of the paper's Table 1
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigSpace {
    cpu: FreqTable,
    gpu: FreqTable,
    mem: FreqTable,
}

impl ConfigSpace {
    /// Creates a configuration space from the three unit tables.
    pub fn new(cpu: FreqTable, gpu: FreqTable, mem: FreqTable) -> Self {
        ConfigSpace { cpu, gpu, mem }
    }

    /// Total number of unique configurations `|F_CPU|·|F_GPU|·|F_MC|`.
    pub fn len(&self) -> usize {
        self.cpu.len() * self.gpu.len() * self.mem.len()
    }

    /// `false` always (tables are non-empty); for API completeness.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The CPU frequency table.
    pub fn cpu_table(&self) -> &FreqTable {
        &self.cpu
    }

    /// The GPU frequency table.
    pub fn gpu_table(&self) -> &FreqTable {
        &self.gpu
    }

    /// The memory-controller frequency table.
    pub fn mem_table(&self) -> &FreqTable {
        &self.mem
    }

    /// The guardian configuration `x_max` with every unit at its highest
    /// frequency (paper §4.2).
    pub fn x_max(&self) -> DvfsConfig {
        DvfsConfig::new(self.cpu.max(), self.gpu.max(), self.mem.max())
    }

    /// The configuration with every unit at its lowest frequency.
    pub fn x_min(&self) -> DvfsConfig {
        DvfsConfig::new(self.cpu.min(), self.gpu.min(), self.mem.min())
    }

    /// The configuration at a grid index, or `None` if out of range.
    pub fn get(&self, index: ConfigIndex) -> Option<DvfsConfig> {
        let i = index.0;
        if i >= self.len() {
            return None;
        }
        let (ng, nm) = (self.gpu.len(), self.mem.len());
        let ci = i / (ng * nm);
        let gi = (i / nm) % ng;
        let mi = i % nm;
        Some(DvfsConfig::new(
            self.cpu.get(ci)?,
            self.gpu.get(gi)?,
            self.mem.get(mi)?,
        ))
    }

    /// The grid index of a configuration, or `None` if any axis value is
    /// not in its table.
    pub fn index_of(&self, x: DvfsConfig) -> Option<ConfigIndex> {
        let ci = self.cpu.position(x.cpu)?;
        let gi = self.gpu.position(x.gpu)?;
        let mi = self.mem.position(x.mem)?;
        Some(ConfigIndex(
            ci * self.gpu.len() * self.mem.len() + gi * self.mem.len() + mi,
        ))
    }

    /// `true` iff `x` lies exactly on the grid.
    pub fn contains(&self, x: DvfsConfig) -> bool {
        self.index_of(x).is_some()
    }

    /// Snaps an arbitrary configuration to the nearest grid point per axis.
    pub fn snap(&self, x: DvfsConfig) -> DvfsConfig {
        DvfsConfig::new(
            self.cpu.nearest(x.cpu),
            self.gpu.nearest(x.gpu),
            self.mem.nearest(x.mem),
        )
    }

    /// Maps unit-cube coordinates `[0,1]³` to the nearest grid
    /// configuration (inverse of [`DvfsConfig::to_unit_cube`], up to
    /// snapping).
    pub fn from_unit_cube(&self, u: [f64; 3]) -> DvfsConfig {
        let pick = |t: &FreqTable, v: f64| {
            let v = v.clamp(0.0, 1.0);
            let lo = t.min().as_mhz() as f64;
            let hi = t.max().as_mhz() as f64;
            t.nearest(FreqMHz::new((lo + v * (hi - lo)).round().max(1.0) as u32))
        };
        DvfsConfig::new(
            pick(&self.cpu, u[0]),
            pick(&self.gpu, u[1]),
            pick(&self.mem, u[2]),
        )
    }

    /// Iterates over every configuration in grid order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            space: self,
            next: 0,
        }
    }
}

/// Iterator over all configurations of a [`ConfigSpace`] (see
/// [`ConfigSpace::iter`]).
#[derive(Debug)]
pub struct Iter<'a> {
    space: &'a ConfigSpace,
    next: usize,
}

impl Iterator for Iter<'_> {
    type Item = DvfsConfig;

    fn next(&mut self) -> Option<DvfsConfig> {
        let x = self.space.get(ConfigIndex(self.next))?;
        self.next += 1;
        Some(x)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.space.len().saturating_sub(self.next);
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for Iter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_space() -> ConfigSpace {
        ConfigSpace::new(
            FreqTable::from_mhz(&[100, 200]),
            FreqTable::from_mhz(&[300, 400, 500]),
            FreqTable::from_mhz(&[600, 700]),
        )
    }

    #[test]
    fn len_is_product() {
        assert_eq!(small_space().len(), 12);
        assert!(!small_space().is_empty());
    }

    #[test]
    fn index_roundtrip_all() {
        let s = small_space();
        for i in 0..s.len() {
            let x = s.get(ConfigIndex(i)).unwrap();
            assert_eq!(s.index_of(x), Some(ConfigIndex(i)));
        }
        assert_eq!(s.get(ConfigIndex(12)), None);
    }

    #[test]
    fn iter_covers_space_uniquely() {
        let s = small_space();
        let all: Vec<DvfsConfig> = s.iter().collect();
        assert_eq!(all.len(), 12);
        let mut dedup = all.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), 12);
        assert_eq!(s.iter().len(), 12);
    }

    #[test]
    fn x_max_and_min() {
        let s = small_space();
        let xmax = s.x_max();
        assert_eq!(
            (xmax.cpu.as_mhz(), xmax.gpu.as_mhz(), xmax.mem.as_mhz()),
            (200, 500, 700)
        );
        let xmin = s.x_min();
        assert_eq!(
            (xmin.cpu.as_mhz(), xmin.gpu.as_mhz(), xmin.mem.as_mhz()),
            (100, 300, 600)
        );
        assert!(s.contains(xmax));
    }

    #[test]
    fn snap_off_grid() {
        let s = small_space();
        let x = DvfsConfig::new(FreqMHz::new(140), FreqMHz::new(444), FreqMHz::new(900));
        let snapped = s.snap(x);
        assert_eq!(snapped.cpu.as_mhz(), 100);
        assert_eq!(snapped.gpu.as_mhz(), 400);
        assert_eq!(snapped.mem.as_mhz(), 700);
        assert!(s.contains(snapped));
        assert!(!s.contains(x));
    }

    #[test]
    fn unit_cube_roundtrip() {
        let s = small_space();
        for x in s.iter() {
            let u = x.to_unit_cube(&s);
            assert!(u.iter().all(|&v| (0.0..=1.0).contains(&v)));
            assert_eq!(s.from_unit_cube(u), x);
        }
    }

    #[test]
    fn paper_grid_sizes() {
        // Table 1: AGX 25×14×6 = 2100, TX2 12×13×6 = 936.
        let agx = ConfigSpace::new(
            FreqTable::linspace_mhz(420, 2265, 25),
            FreqTable::linspace_mhz(114, 1377, 14),
            FreqTable::linspace_mhz(204, 2133, 6),
        );
        assert_eq!(agx.len(), 2100);
        let tx2 = ConfigSpace::new(
            FreqTable::linspace_mhz(345, 2035, 12),
            FreqTable::linspace_mhz(114, 1300, 13),
            FreqTable::linspace_mhz(408, 1866, 6),
        );
        assert_eq!(tx2.len(), 936);
    }

    #[test]
    fn display_formats() {
        let x = small_space().x_max();
        let s = x.to_string();
        assert!(s.contains("cpu 200"));
        assert_eq!(ConfigIndex(7).to_string(), "#7");
    }
}
