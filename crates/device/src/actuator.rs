use crate::{ConfigSpace, DvfsConfig};
use std::error::Error;
use std::fmt;

/// Error returned by DVFS actuation.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ActuatorError {
    /// The requested configuration is not on the device's frequency grid.
    OffGrid {
        /// The rejected configuration.
        requested: DvfsConfig,
    },
}

impl fmt::Display for ActuatorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ActuatorError::OffGrid { requested } => {
                write!(f, "configuration {requested} is not on the device grid")
            }
        }
    }
}

impl Error for ActuatorError {}

/// Abstraction over the mechanism that applies DVFS configurations.
///
/// On real Jetson hardware this is implemented by writing MHz values into
/// sysfs files such as `/sys/devices/*/devfreq/*/min_freq`; in the
/// reproduction [`SimulatedActuator`] models the same interface including
/// the (small) latency of a frequency transition. BoFL's DVFS controller
/// (`bofl::controller`) only speaks this trait, so it would drive real
/// sysfs hardware unchanged.
pub trait DvfsActuator {
    /// Applies a configuration, returning the transition latency in
    /// seconds (zero when the configuration is unchanged).
    ///
    /// # Errors
    ///
    /// Returns [`ActuatorError::OffGrid`] if `x` is not a valid grid point
    /// for this device.
    fn apply(&mut self, x: DvfsConfig) -> Result<f64, ActuatorError>;

    /// The currently applied configuration.
    fn current(&self) -> DvfsConfig;

    /// Renders the sysfs write operations that would realize `x` on real
    /// hardware (diagnostic; mirrors the paper's §5.2 footnote 6).
    fn sysfs_script(&self, x: DvfsConfig) -> String {
        format!(
            "echo {} > /sys/devices/system/cpu/cpufreq/policy0/scaling_max_freq\n\
             echo {} > /sys/devices/gpu.0/devfreq/17000000.gv11b/max_freq\n\
             echo {} > /sys/kernel/debug/bpmp/debug/clk/emc/rate\n",
            x.cpu.as_mhz() as u64 * 1000,
            x.gpu.as_mhz() as u64 * 1_000_000,
            x.mem.as_mhz() as u64 * 1_000_000,
        )
    }
}

/// Software model of the Jetson DVFS knobs.
///
/// Frequency transitions on Jetson boards take on the order of a
/// millisecond (regulator settling plus OPP table switch); the simulated
/// actuator charges `transition_latency_s` whenever any axis changes.
///
/// # Examples
///
/// ```
/// use bofl_device::{ConfigSpace, DvfsActuator, FreqTable, SimulatedActuator};
///
/// let space = ConfigSpace::new(
///     FreqTable::from_mhz(&[400, 800]),
///     FreqTable::from_mhz(&[100, 200]),
///     FreqTable::from_mhz(&[600, 1200]),
/// );
/// let mut act = SimulatedActuator::new(space.clone(), 0.001);
/// let dt = act.apply(space.x_max())?;
/// assert!(dt > 0.0); // switched away from x_min
/// assert_eq!(act.apply(space.x_max())?, 0.0); // no-op switch is free
/// # Ok::<(), bofl_device::ActuatorError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SimulatedActuator {
    space: ConfigSpace,
    current: DvfsConfig,
    transition_latency_s: f64,
}

impl SimulatedActuator {
    /// Creates an actuator starting at the space's minimum configuration
    /// (the state a power-conscious device boots into).
    ///
    /// # Panics
    ///
    /// Panics if `transition_latency_s` is negative or non-finite.
    pub fn new(space: ConfigSpace, transition_latency_s: f64) -> Self {
        assert!(
            transition_latency_s.is_finite() && transition_latency_s >= 0.0,
            "transition latency must be a non-negative finite number"
        );
        let current = space.x_min();
        SimulatedActuator {
            space,
            current,
            transition_latency_s,
        }
    }
}

impl DvfsActuator for SimulatedActuator {
    fn apply(&mut self, x: DvfsConfig) -> Result<f64, ActuatorError> {
        if !self.space.contains(x) {
            return Err(ActuatorError::OffGrid { requested: x });
        }
        if x == self.current {
            return Ok(0.0);
        }
        self.current = x;
        Ok(self.transition_latency_s)
    }

    fn current(&self) -> DvfsConfig {
        self.current
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FreqMHz, FreqTable};

    fn space() -> ConfigSpace {
        ConfigSpace::new(
            FreqTable::from_mhz(&[400, 800]),
            FreqTable::from_mhz(&[100, 200]),
            FreqTable::from_mhz(&[600, 1200]),
        )
    }

    #[test]
    fn starts_at_min() {
        let act = SimulatedActuator::new(space(), 0.001);
        assert_eq!(act.current(), space().x_min());
    }

    #[test]
    fn transitions_cost_time_once() {
        let mut act = SimulatedActuator::new(space(), 0.002);
        let xmax = space().x_max();
        assert_eq!(act.apply(xmax).unwrap(), 0.002);
        assert_eq!(act.apply(xmax).unwrap(), 0.0);
        assert_eq!(act.current(), xmax);
    }

    #[test]
    fn rejects_off_grid() {
        let mut act = SimulatedActuator::new(space(), 0.0);
        let bad = DvfsConfig::new(FreqMHz::new(555), FreqMHz::new(100), FreqMHz::new(600));
        let err = act.apply(bad).unwrap_err();
        assert!(matches!(err, ActuatorError::OffGrid { .. }));
        assert!(err.to_string().contains("555"));
    }

    #[test]
    fn sysfs_script_mentions_frequencies() {
        let act = SimulatedActuator::new(space(), 0.0);
        let s = act.sysfs_script(space().x_max());
        assert!(s.contains("800000")); // CPU kHz
        assert!(s.contains("200000000")); // GPU Hz
        assert!(s.contains("1200000000")); // EMC Hz
    }
}
