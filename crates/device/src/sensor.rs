use bofl_linalg::OnlineStats;
use rand::Rng;

/// Static characteristics of the simulated INA3221 power monitor.
///
/// The real sensor reports bus voltage × shunt current at a bounded sample
/// rate, with quantization from its ADC and electrical noise. BoFL's
/// "reference measurement duration" τ (paper §4.2) exists precisely because
/// a single short job gives noisy energy readings — this simulated sensor
/// reproduces that effect so the τ-averaging code path is genuinely
/// exercised.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SensorSpec {
    /// Sampling period in seconds (INA3221 continuous mode ≈ 1–2 ms
    /// per channel pair; we use the effective sysfs polling period).
    pub sample_period_s: f64,
    /// Relative standard deviation of multiplicative Gaussian read noise.
    pub relative_noise: f64,
    /// Power quantization step in watts (ADC LSB after conversion).
    pub quantum_w: f64,
}

impl Default for SensorSpec {
    fn default() -> Self {
        SensorSpec {
            sample_period_s: 0.005,
            relative_noise: 0.02,
            quantum_w: 0.025,
        }
    }
}

/// A simulated power sensor: integrates true power into measured energy
/// with sampling, quantization and noise.
///
/// # Examples
///
/// ```
/// use bofl_device::{PowerSensor, SensorSpec};
/// use rand::SeedableRng;
///
/// let sensor = PowerSensor::new(SensorSpec::default());
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// // Measure a 0.5 s interval at a constant 20 W: expect ≈ 10 J.
/// let e = sensor.measure_energy(20.0, 0.5, &mut rng);
/// assert!((e - 10.0).abs() < 1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerSensor {
    spec: SensorSpec,
}

impl PowerSensor {
    /// Creates a sensor with the given characteristics.
    ///
    /// # Panics
    ///
    /// Panics if the sample period or quantum is non-positive, or the
    /// noise level is negative.
    pub fn new(spec: SensorSpec) -> Self {
        assert!(spec.sample_period_s > 0.0, "sample period must be > 0");
        assert!(spec.quantum_w > 0.0, "quantum must be > 0");
        assert!(spec.relative_noise >= 0.0, "noise must be >= 0");
        PowerSensor { spec }
    }

    /// The sensor characteristics.
    pub fn spec(&self) -> SensorSpec {
        self.spec
    }

    /// Takes one instantaneous power reading of a true power `true_w`.
    pub fn read_power(&self, true_w: f64, rng: &mut impl Rng) -> f64 {
        let noisy = true_w * (1.0 + self.spec.relative_noise * standard_normal(rng));
        // ADC quantization.
        (noisy / self.spec.quantum_w).round() * self.spec.quantum_w
    }

    /// Measures the energy of an interval of `duration_s` seconds during
    /// which the true average power is `true_w`, by integrating sampled
    /// readings. Short intervals see relatively larger error because fewer
    /// samples average the noise — the effect BoFL's τ guards against.
    pub fn measure_energy(&self, true_w: f64, duration_s: f64, rng: &mut impl Rng) -> f64 {
        assert!(duration_s >= 0.0, "duration must be non-negative");
        if duration_s == 0.0 {
            return 0.0;
        }
        let n_samples = (duration_s / self.spec.sample_period_s).floor().max(1.0) as u64;
        let mut stats = OnlineStats::new();
        for _ in 0..n_samples {
            stats.push(self.read_power(true_w, rng));
        }
        debug_assert!(stats.count() == n_samples);
        stats.mean() * duration_s
    }

    /// Relative 1-σ error expected for an energy measurement over
    /// `duration_s` (noise shrinks with √samples; quantization adds a
    /// floor). Useful for clients that want to pick τ analytically.
    pub fn expected_relative_error(&self, true_w: f64, duration_s: f64) -> f64 {
        if duration_s <= 0.0 || true_w <= 0.0 {
            return f64::INFINITY;
        }
        let n = (duration_s / self.spec.sample_period_s).floor().max(1.0);
        let noise_term = self.spec.relative_noise / n.sqrt();
        let quant_term = self.spec.quantum_w / (2.0 * true_w * n.sqrt());
        noise_term + quant_term
    }
}

impl Default for PowerSensor {
    fn default() -> Self {
        PowerSensor::new(SensorSpec::default())
    }
}

/// Standard normal sample via Box–Muller (keeps `rand_distr` out of the
/// dependency tree).
fn standard_normal(rng: &mut impl Rng) -> f64 {
    loop {
        let u1: f64 = rng.gen::<f64>();
        let u2: f64 = rng.gen::<f64>();
        if u1 > f64::MIN_POSITIVE {
            return (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn energy_unbiased_over_long_interval() {
        let sensor = PowerSensor::default();
        let mut rng = StdRng::seed_from_u64(42);
        let mut total = 0.0;
        let trials = 50;
        for _ in 0..trials {
            total += sensor.measure_energy(20.0, 5.0, &mut rng);
        }
        let mean = total / trials as f64;
        assert!(
            (mean - 100.0).abs() < 0.5,
            "mean energy {mean} should be ≈ 100 J"
        );
    }

    #[test]
    fn short_measurements_are_noisier() {
        let sensor = PowerSensor::default();
        let mut rng = StdRng::seed_from_u64(1);
        let rel_err = |dur: f64, rng: &mut StdRng| {
            let mut sq = 0.0;
            let trials = 200;
            for _ in 0..trials {
                let e = sensor.measure_energy(10.0, dur, rng);
                let rel = (e - 10.0 * dur) / (10.0 * dur);
                sq += rel * rel;
            }
            (sq / trials as f64).sqrt()
        };
        let short = rel_err(0.01, &mut rng); // 2 samples
        let long = rel_err(2.0, &mut rng); // 400 samples
        assert!(
            short > 3.0 * long,
            "short-interval error {short} should exceed long-interval error {long}"
        );
    }

    #[test]
    fn expected_error_decreases_with_duration() {
        let sensor = PowerSensor::default();
        let e1 = sensor.expected_relative_error(15.0, 0.1);
        let e2 = sensor.expected_relative_error(15.0, 5.0);
        assert!(e1 > e2);
        assert_eq!(sensor.expected_relative_error(15.0, 0.0), f64::INFINITY);
    }

    #[test]
    fn zero_duration_measures_zero() {
        let sensor = PowerSensor::default();
        let mut rng = StdRng::seed_from_u64(3);
        assert_eq!(sensor.measure_energy(10.0, 0.0, &mut rng), 0.0);
    }

    #[test]
    fn quantization_applies() {
        let spec = SensorSpec {
            sample_period_s: 0.001,
            relative_noise: 0.0,
            quantum_w: 0.5,
        };
        let sensor = PowerSensor::new(spec);
        let mut rng = StdRng::seed_from_u64(9);
        // 10.2 W quantizes to 10.0 W exactly with no noise.
        let p = sensor.read_power(10.2, &mut rng);
        assert_eq!(p, 10.0);
    }

    #[test]
    #[should_panic(expected = "sample period must be > 0")]
    fn rejects_bad_spec() {
        let _ = PowerSensor::new(SensorSpec {
            sample_period_s: 0.0,
            ..SensorSpec::default()
        });
    }

    #[test]
    fn standard_normal_moments() {
        let mut rng = StdRng::seed_from_u64(1234);
        let n = 20_000;
        let mut sum = 0.0;
        let mut sq = 0.0;
        for _ in 0..n {
            let z = standard_normal(&mut rng);
            sum += z;
            sq += z * z;
        }
        let mean = sum / n as f64;
        let var = sq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }
}
