//! Heterogeneous fleet generation: sampling per-client device profiles
//! from the testbed models.
//!
//! A production FL population is never a row of identical dev boards: it
//! mixes hardware generations, and two units of the *same* board differ in
//! thermal headroom, case design and background load. The generator models
//! that as a deterministic function of `(fleet seed, client id)`: each
//! client gets a device kind (AGX or TX2) and its own latency-jitter /
//! DVFS-transition-latency perturbation on top of the testbed baseline.

use bofl_device::Device;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Which testbed board a sampled client runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceKind {
    /// NVIDIA Jetson AGX Xavier (the paper's high-end board).
    JetsonAgx,
    /// NVIDIA Jetson TX2 (the paper's low-end board).
    JetsonTx2,
}

impl DeviceKind {
    /// Instantiates the baseline testbed device for this kind.
    pub(crate) fn baseline(&self) -> Device {
        match self {
            DeviceKind::JetsonAgx => Device::jetson_agx(),
            DeviceKind::JetsonTx2 => Device::jetson_tx2(),
        }
    }

    /// Nominal energy one full FL round costs on this board at `x_max`,
    /// joules — the coarse per-class baseline the million-client scale
    /// simulator uses instead of instantiating a device model per client
    /// (the AGX finishes faster at higher power; the TX2 runs longer and
    /// spends more in total, matching the testbed profiles).
    pub(crate) fn nominal_round_energy_j(&self) -> f64 {
        match self {
            DeviceKind::JetsonAgx => 95.0,
            DeviceKind::JetsonTx2 => 140.0,
        }
    }
}

impl std::fmt::Display for DeviceKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeviceKind::JetsonAgx => write!(f, "AGX"),
            DeviceKind::JetsonTx2 => write!(f, "TX2"),
        }
    }
}

/// One sampled client: its board and its unit-level perturbations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClientProfile {
    /// Client id within the fleet.
    pub id: usize,
    /// The board this client runs on.
    pub kind: DeviceKind,
    /// Per-job relative latency jitter (thermal/interference noise).
    pub latency_jitter: f64,
    /// Multiplier on the board's baseline DVFS transition latency
    /// (governor/firmware variation between units).
    pub transition_scale: f64,
}

impl ClientProfile {
    /// Builds the concrete [`Device`] for this profile.
    pub(crate) fn device(&self) -> Device {
        let base = self.kind.baseline();
        let transition = base.transition_latency_s() * self.transition_scale;
        base.with_latency_jitter(self.latency_jitter)
            .with_transition_latency_s(transition)
    }
}

/// A recipe for a heterogeneous fleet. Every quantity a client's hardware
/// derives from is a pure function of `(seed, id)`, so a spec with the
/// same seed always generates the same fleet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetSpec {
    /// Number of clients to generate.
    pub num_clients: usize,
    /// Fraction of clients on the AGX board (the rest get TX2).
    pub agx_fraction: f64,
    /// Range `[lo, hi]` the per-client latency jitter is drawn from.
    pub jitter_range: (f64, f64),
    /// Half-width of the transition-latency perturbation: each client's
    /// scale is drawn from `[1 − w, 1 + w]`.
    pub transition_spread: f64,
    /// Fleet seed. Fully determines every profile.
    pub seed: u64,
}

impl FleetSpec {
    /// A 50/50 AGX/TX2 fleet with moderate unit-level variation — the
    /// default heterogeneous population.
    pub fn mixed(num_clients: usize, seed: u64) -> Self {
        FleetSpec {
            num_clients,
            agx_fraction: 0.5,
            jitter_range: (0.01, 0.06),
            transition_spread: 0.25,
            seed,
        }
    }

    /// An all-AGX fleet (homogeneous hardware, still unit-level jitter).
    pub fn uniform_agx(num_clients: usize, seed: u64) -> Self {
        FleetSpec {
            agx_fraction: 1.0,
            ..FleetSpec::mixed(num_clients, seed)
        }
    }

    /// The deterministic profile of client `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id >= num_clients`.
    pub fn profile(&self, id: usize) -> ClientProfile {
        assert!(id < self.num_clients, "client {id} outside fleet");
        let mut rng = StdRng::seed_from_u64(
            self.seed ^ (id as u64).wrapping_mul(0xD6E8_FEB8_6659_FD93) ^ 0xF1EE7,
        );
        let kind = if rng.gen::<f64>() < self.agx_fraction {
            DeviceKind::JetsonAgx
        } else {
            DeviceKind::JetsonTx2
        };
        let (lo, hi) = self.jitter_range;
        let latency_jitter = lo + (hi - lo) * rng.gen::<f64>();
        let w = self.transition_spread;
        let transition_scale = 1.0 - w + 2.0 * w * rng.gen::<f64>();
        ClientProfile {
            id,
            kind,
            latency_jitter,
            transition_scale,
        }
    }

    /// Builds the concrete device for client `id` — drop-in for
    /// `FederationBuilder::device_factory`:
    ///
    /// ```
    /// use bofl_fleet::FleetSpec;
    /// use bofl_fl::{Federation, FederationConfig};
    ///
    /// let spec = FleetSpec::mixed(8, 42);
    /// let config = FederationConfig {
    ///     num_clients: spec.num_clients,
    ///     rounds: 1,
    ///     ..FederationConfig::default()
    /// };
    /// let sim = Federation::builder(config)
    ///     .device_factory(move |id| spec.device(id))
    ///     .build();
    /// assert_eq!(sim.num_clients(), 8);
    /// ```
    pub fn device(&self, id: usize) -> Device {
        self.profile(id).device()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// All profiles, in id order.
    fn profiles(spec: &FleetSpec) -> Vec<ClientProfile> {
        (0..spec.num_clients).map(|id| spec.profile(id)).collect()
    }

    #[test]
    fn profiles_are_deterministic() {
        let spec = FleetSpec::mixed(32, 99);
        assert_eq!(profiles(&spec), profiles(&FleetSpec::mixed(32, 99)));
        // A different seed reshuffles the fleet.
        assert_ne!(profiles(&spec), profiles(&FleetSpec::mixed(32, 100)));
    }

    #[test]
    fn mixed_fleet_contains_both_boards() {
        let agx = profiles(&FleetSpec::mixed(64, 7))
            .iter()
            .filter(|p| p.kind == DeviceKind::JetsonAgx)
            .count();
        assert!(agx > 10 && agx < 54, "roughly balanced mix, got {agx}/64");
    }

    #[test]
    fn uniform_agx_is_all_agx() {
        assert!(profiles(&FleetSpec::uniform_agx(16, 3))
            .iter()
            .all(|p| p.kind == DeviceKind::JetsonAgx));
    }

    #[test]
    fn perturbations_stay_in_spec_ranges() {
        let spec = FleetSpec::mixed(100, 5);
        for p in profiles(&spec) {
            assert!((0.01..=0.06).contains(&p.latency_jitter));
            assert!((0.75..=1.25).contains(&p.transition_scale));
        }
    }

    #[test]
    fn device_applies_profile() {
        let spec = FleetSpec::mixed(4, 11);
        let p = spec.profile(2);
        let d = spec.device(2);
        assert_eq!(d.latency_jitter(), p.latency_jitter);
        let base = p.kind.baseline();
        let expect = base.transition_latency_s() * p.transition_scale;
        assert!((d.transition_latency_s() - expect).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "outside fleet")]
    fn rejects_out_of_range_id() {
        let _ = FleetSpec::mixed(4, 0).profile(4);
    }
}
