/// The ground-truth cost of running one minibatch job under a DVFS
/// configuration: per-minibatch latency `T(x)` in seconds and energy
/// `E(x)` in joules (the paper's two objective functions, §3.1).
///
/// # Examples
///
/// ```
/// use bofl_device::JobCost;
///
/// let a = JobCost { latency_s: 0.20, energy_j: 4.0 };
/// let b = JobCost { latency_s: 0.25, energy_j: 5.0 };
/// assert!(a.dominates(&b));
/// assert!(!b.dominates(&a));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobCost {
    /// Execution latency per minibatch, seconds.
    pub latency_s: f64,
    /// Energy consumed per minibatch, joules.
    pub energy_j: f64,
}

impl JobCost {
    /// Pareto dominance in the (energy, latency) space, using the paper's
    /// §3.2 definition: `a` dominates `b` iff `a` is no worse in both
    /// objectives and strictly better in at least one.
    pub fn dominates(&self, other: &JobCost) -> bool {
        let no_worse = self.energy_j <= other.energy_j && self.latency_s <= other.latency_s;
        let better = self.energy_j < other.energy_j || self.latency_s < other.latency_s;
        no_worse && better
    }

    /// Average power over the job, watts.
    pub fn average_power_w(&self) -> f64 {
        if self.latency_s > 0.0 {
            self.energy_j / self.latency_s
        } else {
            0.0
        }
    }
}

impl std::fmt::Display for JobCost {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.4} s / {:.3} J", self.latency_s, self.energy_j)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dominance_is_strict() {
        let a = JobCost {
            latency_s: 1.0,
            energy_j: 1.0,
        };
        // Equal points never dominate each other.
        assert!(!a.dominates(&a));
        // Strictly better in one axis, equal in the other → dominates.
        let b = JobCost {
            latency_s: 1.0,
            energy_j: 2.0,
        };
        assert!(a.dominates(&b));
        assert!(!b.dominates(&a));
        // Trade-off points are incomparable.
        let c = JobCost {
            latency_s: 0.5,
            energy_j: 2.0,
        };
        assert!(!a.dominates(&c));
        assert!(!c.dominates(&a));
    }

    #[test]
    fn helpers() {
        let a = JobCost {
            latency_s: 0.5,
            energy_j: 10.0,
        };
        assert_eq!(a.average_power_w(), 20.0);
        assert!(a.to_string().contains("10.000 J"));
        let z = JobCost {
            latency_s: 0.0,
            energy_j: 1.0,
        };
        assert_eq!(z.average_power_w(), 0.0);
    }
}
