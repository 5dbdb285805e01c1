/// A virtual monotonic clock for the simulated device.
///
/// All simulation time in the reproduction is virtual: jobs "take"
/// `T(x)` seconds by advancing this clock, so a 100-round FL experiment
/// that would occupy hours of wall-clock time on real hardware completes in
/// milliseconds. The clock is deliberately *not* shared or thread-safe —
/// each simulated device owns one.
///
/// # Examples
///
/// ```
/// use bofl_device::VirtualClock;
///
/// let mut clock = VirtualClock::new();
/// clock.advance(1.5);
/// clock.advance(0.25);
/// assert_eq!(clock.now_s(), 1.75);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct VirtualClock {
    now_s: f64,
}

impl VirtualClock {
    /// Creates a clock at time zero.
    pub fn new() -> Self {
        VirtualClock { now_s: 0.0 }
    }

    /// Current virtual time in seconds since clock creation.
    pub fn now_s(&self) -> f64 {
        self.now_s
    }

    /// Advances the clock by `dt` seconds.
    ///
    /// # Panics
    ///
    /// Panics if `dt` is negative or non-finite — virtual time is
    /// monotonic by construction.
    pub fn advance(&mut self, dt_s: f64) {
        assert!(
            dt_s.is_finite() && dt_s >= 0.0,
            "clock must advance by a non-negative finite duration, got {dt_s}"
        );
        self.now_s += dt_s;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advances_monotonically() {
        let mut c = VirtualClock::new();
        assert_eq!(c.now_s(), 0.0);
        c.advance(2.0);
        c.advance(0.0);
        assert_eq!(c.now_s(), 2.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn rejects_negative_steps() {
        VirtualClock::new().advance(-1.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn rejects_nan_steps() {
        VirtualClock::new().advance(f64::NAN);
    }
}
