//! Golden pins on the simulated power sensor: exact hashes of the bits
//! of seeded sweeps of `PowerSensor::measure_energy` and
//! `Device::run_job`. The values were recorded with the plain libm
//! Box–Muller reading (`ln`, `cos` and `f64::round` on every sample) and
//! the `OnlineStats` mean, so a faster sensor kernel that moves a single
//! reading — and hence a single measured energy — fails here loudly.
//!
//! The sweeps cover the default spec over the range of powers and job
//! lengths the presets produce, noiseless and very noisy specs, and a
//! 1 nW quantum with powers up to 1 GW, so that the quantized value
//! `power / quantum` crosses 2^51 and 2^52 (where every double is a
//! multiple of ½, then an integer).

use bofl_device::{ConfigIndex, Device, PowerSensor, SensorSpec};
use bofl_workload::{FlTask, TaskKind, Testbed};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// FNV-1a over little-endian `u64` words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn feed(&mut self, word: u64) {
        for b in word.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x1000_0000_01b3);
        }
    }
}

/// Hash of `calls` energies measured by `sensor`, with each call's
/// `(true_w, duration_s)` drawn by `params` from its own stream.
fn sweep_hash(
    sensor: PowerSensor,
    calls: usize,
    mut params: impl FnMut(&mut StdRng) -> (f64, f64),
) -> u64 {
    let mut param_rng = StdRng::seed_from_u64(0x5e_2502);
    let mut rng = StdRng::seed_from_u64(2022);
    let mut hash = Fnv::new();
    for _ in 0..calls {
        let (true_w, duration_s) = params(&mut param_rng);
        hash.feed(
            sensor
                .measure_energy(true_w, duration_s, &mut rng)
                .to_bits(),
        );
    }
    // The stream position pins the number of draws as well.
    hash.feed(rng.gen::<u64>());
    hash.0
}

#[test]
fn default_sensor_sweep_matches_the_pinned_hash() {
    let hash = sweep_hash(PowerSensor::default(), 300_000, |r| {
        (0.5 + 60.0 * r.gen::<f64>(), 2.0 * r.gen::<f64>())
    });
    assert_eq!(hash, 0x0bc3_806d_ff47_fdb5);
}

#[test]
fn noiseless_and_noisy_specs_match_the_pinned_hashes() {
    let with_noise = |relative_noise| {
        PowerSensor::new(SensorSpec {
            relative_noise,
            ..SensorSpec::default()
        })
    };
    // Signed powers exercise the rounding of negative readings too.
    let params = |r: &mut StdRng| {
        let sign = if r.gen::<bool>() { 1.0 } else { -1.0 };
        (sign * 60.0 * r.gen::<f64>(), 0.2 * r.gen::<f64>())
    };
    assert_eq!(
        sweep_hash(with_noise(0.0), 50_000, params),
        0x4c81_574b_833e_90e7
    );
    assert_eq!(
        sweep_hash(with_noise(0.5), 50_000, params),
        0x12c1_fb7d_55ac_0c29
    );
}

#[test]
fn nanowatt_quantum_past_two_to_the_52_matches_the_pinned_hash() {
    let sensor = PowerSensor::new(SensorSpec {
        quantum_w: 1e-9,
        ..SensorSpec::default()
    });
    // Log-uniform powers in [1 mW, 1 GW): power / quantum spans 1e6–1e18.
    let hash = sweep_hash(sensor, 50_000, |r| {
        (
            10f64.powf(-3.0 + 12.0 * r.gen::<f64>()),
            0.1 * r.gen::<f64>(),
        )
    });
    assert_eq!(hash, 0x68e7_407e_1eb1_a957);
}

#[test]
fn run_job_on_both_presets_matches_the_pinned_hashes() {
    let job_hash = |device: Device, testbed: Testbed| {
        let mut pick = StdRng::seed_from_u64(0x000c_0f16);
        let mut rng = StdRng::seed_from_u64(7);
        let mut hash = Fnv::new();
        for kind in TaskKind::all() {
            let task = FlTask::preset(kind, testbed);
            for _ in 0..2000 {
                let i = pick.gen_index(0, device.config_space().len());
                let x = device.config_space().get(ConfigIndex(i)).unwrap();
                let cost = device.run_job(&task, x, &mut rng);
                hash.feed(cost.latency_s.to_bits());
                hash.feed(cost.energy_j.to_bits());
            }
        }
        hash.0
    };
    assert_eq!(
        job_hash(Device::jetson_agx(), Testbed::JetsonAgx),
        0xaa5e_49c0_9a45_fc38
    );
    assert_eq!(
        job_hash(Device::jetson_tx2(), Testbed::JetsonTx2),
        0x53cb_c992_d1df_8a7e
    );
}
