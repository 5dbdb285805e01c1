//! The simulated INA3221 power sensor and its per-sample reading kernel.
//!
//! One reading of a true power `w` is the Box–Muller draw
//! `z = √(−2·ln u₁)·cos(τ·u₂)` on a uniform pair `(u₁, u₂)`, the noisy
//! power `w·(1 + σ·z)` and its ADC quantization
//! `round(w·(1 + σ·z)/q)·q` (`f64::round`, ties away from zero). An
//! energy measurement folds ~`duration / period` readings into a running
//! mean, so the reading is the sensor's whole cost; libm's `ln` and `cos`
//! and the `f64::round` libcall are most of it.
//!
//! # A certified fast reading
//!
//! [`fast_normal`] computes `z̃`, a branch-free approximation of `z`, and
//! [`Reader::read`] from it `ỹ = (w/q)·(1 + σ·z̃)`. It keeps `rint(ỹ)·q`
//! (with the sign of `ỹ` on a zero) unless `ỹ` is non-finite,
//! `|ỹ| ≥ 2⁵¹`, `|ỹ| ≤ δ` or `ỹ` lies within `δ` of a half-integer; then
//! it recomputes the reading with the libm expression ([`box_muller`]).
//! Every reading is therefore bit-identical to the libm one, provided `|ỹ − y| ≤ δ` for the libm value `y`: `round` is
//! constant between consecutive half-integers, the `rint` of a value that
//! is not a half-integer is its `round`, and a zero takes the sign of the
//! value, which `|ỹ| > δ` fixes. The rest of this section proves the
//! bound. Write `u = 2⁻⁵³` and take `u₁ ∈ (2⁻¹⁰²², 1)` (the rejection
//! loop's range) and `u₂ ∈ [0, 1)`.
//!
//! **Assumption.** libm's `ln` and `cos` return their argument's value to
//! within `2⁻⁴⁰` relative (glibc's are within 1 ulp, `2⁻⁵²`).
//!
//! **`ln u₁`.** Split `u₁ = 2ᵉ·m` by its bits with
//! `m ∈ [√½, √2)` (to the double nearest `√½`), so
//! `ln u₁ = e·ln 2 + 2·atanh(s)` with `s = (m − 1)/(m + 1)`,
//! `|s| ≤ 3 − 2√2`, `s² ≤ 0.02944`. [`fast_ln`] sums the atanh series
//! through `s⁹`; the omitted tail, whose terms all share one sign, is at
//! most `s¹⁰/(11·(1 − s²)) ≤ 2.08e-9` of the sum. `m − 1` is exact (Sterbenz)
//! and the other roundings add < `20u` relative. The two terms never
//! cancel: for `e ≠ 0`, `|e·ln 2| ≥ ln 2 ≥ 2·|ln m|`. So `L̃ = L·(1 + ρ)`
//! with `|ρ| ≤ 2.1e-9`, and libm's `L` is within `2⁻⁴⁰` relative of
//! `ln u₁`.
//!
//! **The radius.** `−2L` is exact and `sqrt` is correctly rounded, so the
//! two radii `√(−2L)` differ by at most `R·1.06e-9`, where
//! `R = √(−2·ln u₁) < √(2044·ln 2) < 37.65`.
//!
//! **`cos(τ·u₂)`.** [`fast_cos_tau`] rounds `4u₂` to the nearest integer
//! `k` (adding and subtracting `1.5·2⁵²`), so `f = u₂ − k/4` is exact
//! (Sterbenz again) with `|f| ≤ ⅛` and `cos(2πu₂) = cos(kπ/2 + 2πf)`:
//! `cos a`, `−sin a`, `−cos a` or `sin a` for `k mod 4 = 0, 1, 2, 3`,
//! with `a = τ·f`, `|a| ≤ π/4`. The quadrant's function is picked and its
//! sign flipped with bit masks. The Taylor polynomials through `a⁸` (cos)
//! and `a⁹` (sin) are alternating series with decreasing terms, so they
//! are off by at most `(π/4)¹⁰/10! ≤ 2.47e-8`. The rounding of `a`
//! (`≤ 2e-16`), of the polynomials (`≤ 2e-15`) and of libm's argument
//! `τ·u₂` (`≤ 1e-15`, `cos` being 1-Lipschitz), plus libm's `2⁻⁴⁰`,
//! bring the two cosines within `ε_c = 2.48e-8`.
//!
//! **`z`.** With both products rounded,
//! `|z̃ − z| ≤ R·1.06e-9·(1 + ε_c) + R·(1 + 1.1e-9)·ε_c + 2u·R
//! ≤ R·2.6e-8 < 9.8e-7`. `Z_ERROR` (`2e-6`) doubles that.
//!
//! **`y`.** Both `y = fl(fl(w·fl(1 + fl(σ·z)))/q)` and
//! `ỹ = fl(fl(w/q)·fl(1 + fl(σ·z̃)))` take four roundings, so each is
//! within `4.01u·|w/q|·(1 + σ·|z|)` of the exact `(w/q)·(1 + σ·z)` at its
//! own `z`, and the exact values differ by `|w/q|·σ·|z̃ − z|`. With
//! `|z|, |z̃| < Z_MAX = 38`,
//!
//! ```text
//! |ỹ − y| ≤ δ = |w/q|·(σ·Z_ERROR + 2·Y_ROUNDING·(1 + σ·Z_MAX)),   Y_ROUNDING = 1e-15 ≥ 4.01u
//! ```
//!
//! whose constants leave more than a factor of 2 for the rounding of `δ`
//! itself. These rounding bounds are relative, so they need every
//! product and quotient to stay in the normal range. [`Reader::new`]
//! therefore sets `δ = +∞` unless `|w|`, `q` and `|w/q|` lie in
//! `[2⁻⁹⁰⁰, 2⁹⁰⁰]`. Inside that range, `fl(1 + a)` is 0 or at least `2⁻⁵³`
//! in magnitude (it is exact for `a ∈ [−2, −½]`), and the fast path
//! needs `|ỹ| < 2⁵¹`, so every intermediate value lies between `2⁻⁹⁵³`
//! and `2⁹⁵³`, or is 0, or is non-finite and fails the checks. (The
//! noise term `σ·z` may underflow; that moves `1 + σ·z` by at most
//! `2⁻¹⁰⁷⁴`, far below the rounding of the sum.) A non-finite `δ`, from
//! an overflowing noise term, fails every comparison, so such a reading
//! always takes the libm path. At the default spec and 20 W, `δ ≈ 3e-5`: one reading in
//! ~15 000 falls back.
//!
//! [`PowerSensor::measure_energy`] draws a block of up to 16 pairs in
//! stream order, computes their `z̃` in one branch-free loop (which the
//! compiler vectorizes), then folds the block's readings into the mean
//! with the unchanged update `mean += (x − mean)/n`.
//!
//! The unit tests check `|z̃ − z| ≤ R·2.6e-8` on a dense grid that
//! includes `u₁` near `2⁻¹⁰²²`, `2⁻⁵³` and 1 and `u₂` at the quadrant
//! edges, and every reading and energy against the libm reference.

use rand::Rng;
use std::f64::consts::{LN_2, TAU};

/// Bound on `|z̃ − z|` between the fast and the libm Box–Muller value
/// (module doc: the derivation gives `9.8e-7`).
const Z_ERROR: f64 = 2e-6;

/// Bound on `|z|` and `|z̃|`: `√(−2·ln 2⁻¹⁰²²) < 37.65`.
const Z_MAX: f64 = 38.0;

/// Relative rounding allowance of one computed `w·(1 + σ·z)/q`
/// (`4.01u` needed).
const Y_ROUNDING: f64 = 1e-15;

/// `1.5·2⁵²`: adding and subtracting it rounds any `|x| < 2⁵¹` to the
/// nearest integer.
const RINT_SHIFT: f64 = 6_755_399_441_055_744.0;

/// `2⁵¹`, the fast path's bound on `|ỹ|`, below which `RINT_SHIFT`
/// rounds exactly.
const RINT_LIMIT: f64 = 2_251_799_813_685_248.0;

/// `2⁻⁹⁰⁰` and `2⁹⁰⁰`: the fast path needs `|w|`, `q` and `|w/q|` in
/// this range, so that no product or quotient of either computation of
/// `y` leaves the normal range (module doc).
const NORMAL_RANGE: std::ops::RangeInclusive<f64> =
    f64::from_bits((1023 - 900) << 52)..=f64::from_bits((1023 + 900) << 52);

/// Readings drawn before they are folded into the mean.
const BLOCK: usize = 16;

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

    /// Measures the energy of an interval of `duration_s` seconds during
    /// which the true average power is `true_w`, by integrating sampled
    /// readings. Short intervals see relatively larger error because fewer
    /// samples average the noise — the effect BoFL's τ guards against.
    ///
    /// # Panics
    ///
    /// Panics if `duration_s` is negative, infinite or NaN.
    pub fn measure_energy(&self, true_w: f64, duration_s: f64, rng: &mut impl Rng) -> f64 {
        assert!(
            duration_s.is_finite() && duration_s >= 0.0,
            "duration must be finite and non-negative"
        );
        if duration_s == 0.0 {
            return 0.0;
        }
        let n_samples = (duration_s / self.spec.sample_period_s).floor().max(1.0) as u64;
        let reader = Reader::new(&self.spec, true_w);
        // Lanes past a short block's end keep stale (valid) pairs; the
        // fold never reads them.
        let mut u1s = [0.5; BLOCK];
        let mut u2s = [0.5; BLOCK];
        let mut zs = [0.0; BLOCK];
        let mut n = 0u64;
        let mut mean = 0.0;
        while n < n_samples {
            let len = (n_samples - n).min(BLOCK as u64) as usize;
            for (u1, u2) in u1s[..len].iter_mut().zip(&mut u2s[..len]) {
                (*u1, *u2) = uniform_pair(rng);
            }
            // Branch-free over the whole block, so it vectorizes.
            for ((z, &u1), &u2) in zs.iter_mut().zip(&u1s).zip(&u2s) {
                *z = fast_normal(u1, u2);
            }
            for ((&z, &u1), &u2) in zs[..len].iter().zip(&u1s).zip(&u2s) {
                n += 1;
                mean += (reader.read(z, u1, u2) - mean) / n as f64;
            }
        }
        mean * duration_s
    }
}

impl Default for PowerSensor {
    fn default() -> Self {
        PowerSensor::new(SensorSpec::default())
    }
}

/// Readings of one true power under one spec, with the fast path's
/// fallback margin `δ` (module doc).
#[derive(Debug, Clone, Copy)]
struct Reader {
    true_w: f64,
    noise: f64,
    quantum: f64,
    /// `true_w / quantum`.
    scale: f64,
    delta: f64,
}

impl Reader {
    fn new(spec: &SensorSpec, true_w: f64) -> Self {
        let noise = spec.relative_noise;
        let scale = true_w / spec.quantum_w;
        let delta = if [true_w, spec.quantum_w, scale]
            .iter()
            .all(|x| NORMAL_RANGE.contains(&x.abs()))
        {
            scale.abs() * (noise * Z_ERROR + 2.0 * Y_ROUNDING * (1.0 + noise * Z_MAX))
        } else {
            f64::INFINITY
        };
        Reader {
            true_w,
            noise,
            quantum: spec.quantum_w,
            scale,
            delta,
        }
    }

    /// The quantized reading of the uniform pair `(u1, u2)` whose
    /// [`fast_normal`] value is `z`, bit-identical to [`Reader::exact`].
    #[inline(always)]
    fn read(&self, z: f64, u1: f64, u2: f64) -> f64 {
        let y = self.scale * (1.0 + self.noise * z);
        let r = (y + RINT_SHIFT) - RINT_SHIFT;
        let size = y.abs();
        if 0.5 - (y - r).abs() > self.delta && size > self.delta && size < RINT_LIMIT {
            r.copysign(y) * self.quantum
        } else {
            self.exact(u1, u2)
        }
    }

    /// The reading with libm's `ln`, `cos` and `f64::round`.
    #[cold]
    #[inline(never)]
    fn exact(&self, u1: f64, u2: f64) -> f64 {
        let noisy = self.true_w * (1.0 + self.noise * box_muller(u1, u2));
        // ADC quantization.
        (noisy / self.quantum).round() * self.quantum
    }
}

/// Draws Box–Muller's uniform pair, redrawing both while `u1` is not a
/// positive normal number.
#[inline(always)]
fn uniform_pair(rng: &mut impl Rng) -> (f64, f64) {
    loop {
        let u1: f64 = rng.gen::<f64>();
        let u2: f64 = rng.gen::<f64>();
        if u1 > f64::MIN_POSITIVE {
            return (u1, u2);
        }
    }
}

/// Box–Muller's standard normal value of the pair `(u1, u2)`, with libm.
fn box_muller(u1: f64, u2: f64) -> f64 {
    (-2.0 * u1.ln()).sqrt() * (TAU * u2).cos()
}

/// Standard normal sample via Box–Muller (keeps `rand_distr` out of the
/// dependency tree).
pub(crate) fn standard_normal(rng: &mut impl Rng) -> f64 {
    let (u1, u2) = uniform_pair(rng);
    box_muller(u1, u2)
}

/// [`box_muller`] to within `Z_ERROR`, without libm (module doc).
#[inline(always)]
fn fast_normal(u1: f64, u2: f64) -> f64 {
    (-2.0 * fast_ln(u1)).sqrt() * fast_cos_tau(u2)
}

/// `ln x` to within `2.1e-9` relative, for a positive normal `x`.
#[inline(always)]
fn fast_ln(x: f64) -> f64 {
    const SQRT_HALF_BITS: u64 = 0x3fe6_a09e_667f_3bcd;
    const EXPONENT: u64 = 0xfff0_0000_0000_0000;
    let bits = x.to_bits();
    // The top 12 bits of `offset` hold, in two's complement, the
    // exponent `e` that puts the mantissa `m` in [√½, √2).
    let offset = bits.wrapping_sub(SQRT_HALF_BITS);
    let m = f64::from_bits(bits.wrapping_sub(offset & EXPONENT));
    let e = ((offset as i64) >> 52) as f64;
    let s = (m - 1.0) / (m + 1.0);
    let s2 = s * s;
    let p = (((s2 * (1.0 / 9.0) + 1.0 / 7.0) * s2 + 1.0 / 5.0) * s2 + 1.0 / 3.0) * s2 + 1.0;
    e * LN_2 + 2.0 * s * p
}

/// `cos(τ·x)` to within `2.48e-8` for `x ∈ [0, 1)`.
#[inline(always)]
fn fast_cos_tau(x: f64) -> f64 {
    let shifted = 4.0 * x + RINT_SHIFT;
    let k = shifted.to_bits();
    let a = TAU * (x - 0.25 * (shifted - RINT_SHIFT));
    let a2 = a * a;
    let cos = (((a2 * (1.0 / 40_320.0) - 1.0 / 720.0) * a2 + 1.0 / 24.0) * a2 - 0.5) * a2 + 1.0;
    let sin = ((((a2 * (1.0 / 362_880.0) - 1.0 / 5040.0) * a2 + 1.0 / 120.0) * a2 - 1.0 / 6.0)
        * a2
        + 1.0)
        * a;
    // Quadrant k mod 4: sin for odd k, negated for k ≡ 1, 2.
    let odd = (k & 1).wrapping_neg();
    let bits = (cos.to_bits() & !odd) | (sin.to_bits() & odd);
    f64::from_bits(bits ^ ((k.wrapping_add(1) & 2) << 62))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// One instantaneous reading of a true power `true_w`, through the
    /// same reader `measure_energy` folds.
    fn read_power(sensor: &PowerSensor, true_w: f64, rng: &mut impl Rng) -> f64 {
        let (u1, u2) = uniform_pair(rng);
        Reader::new(&sensor.spec, true_w).read(fast_normal(u1, u2), u1, u2)
    }

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
    fn zero_duration_measures_zero() {
        let sensor = PowerSensor::default();
        let mut rng = StdRng::seed_from_u64(3);
        assert_eq!(sensor.measure_energy(10.0, 0.0, &mut rng), 0.0);
    }

    #[test]
    #[should_panic(expected = "duration must be finite and non-negative")]
    fn rejects_infinite_duration() {
        let mut rng = StdRng::seed_from_u64(3);
        let _ = PowerSensor::default().measure_energy(10.0, f64::INFINITY, &mut rng);
    }

    #[test]
    #[should_panic(expected = "duration must be finite and non-negative")]
    fn rejects_nan_duration() {
        let mut rng = StdRng::seed_from_u64(3);
        let _ = PowerSensor::default().measure_energy(10.0, f64::NAN, &mut rng);
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
        let p = read_power(&sensor, 10.2, &mut rng);
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

    /// One reading as the sensor took it before the fast path: libm
    /// Box–Muller, then `f64::round`.
    fn reference_reading(spec: &SensorSpec, true_w: f64, rng: &mut StdRng) -> f64 {
        let noisy = true_w * (1.0 + spec.relative_noise * standard_normal(rng));
        (noisy / spec.quantum_w).round() * spec.quantum_w
    }

    /// The energy as the sensor measured it before the fast path: one
    /// reference reading per sample folded by Welford's mean update.
    fn reference_energy(spec: &SensorSpec, true_w: f64, duration_s: f64, rng: &mut StdRng) -> f64 {
        if duration_s == 0.0 {
            return 0.0;
        }
        let n_samples = (duration_s / spec.sample_period_s).floor().max(1.0) as u64;
        let mut mean = 0.0;
        for n in 1..=n_samples {
            let x = reference_reading(spec, true_w, rng);
            let delta = x - mean;
            mean += delta / n as f64;
        }
        mean * duration_s
    }

    /// Bits of `a` and `b` are equal (and say which if not).
    fn same_bits(a: f64, b: f64) -> Result<(), TestCaseError> {
        prop_assert!(a.to_bits() == b.to_bits(), "{a:e} vs {b:e}");
        Ok(())
    }

    /// Ulps `2⁻⁵³` from `x`, for steps along the uniform grid.
    fn grid_step(x: f64, steps: i64) -> f64 {
        x + steps as f64 * (1.0 / (1u64 << 53) as f64)
    }

    proptest! {
        /// Every energy and reading matches the libm reference drawn from
        /// a clone of the generator, and both leave the stream at the same
        /// point — across random specs, signed, zero and NaN powers, and
        /// durations of zero, below one period and up to 400 periods.
        #[test]
        fn kernel_matches_the_libm_reference(
            seed in 0u64..u64::MAX,
            period in 0.0005f64..0.02,
            noise_pick in 0u8..4,
            noise in 0.0f64..0.6,
            log_quantum in -9.0f64..0.0,
            power_pick in 0u8..10,
            power in -60.0f64..60.0,
            span in 0.0f64..1.0,
            duration_pick in 0u8..4,
        ) {
            let spec = SensorSpec {
                sample_period_s: period,
                relative_noise: if noise_pick == 0 { 0.0 } else { noise },
                quantum_w: 10f64.powf(log_quantum),
            };
            let true_w = match power_pick {
                0 => 0.0,
                1 => -0.0,
                2 => f64::NAN,
                3 => power * 1e12,
                // Outside the fast path's normal range: every reading
                // falls back.
                4 => power * 1e-280,
                5 => power * 1e290,
                _ => power,
            };
            let duration_s = match duration_pick {
                0 => 0.0,
                1 => span * period,
                _ => span * 400.0 * period,
            };
            let sensor = PowerSensor::new(spec);
            let mut rng = StdRng::seed_from_u64(seed);
            let mut reference = rng.clone();
            same_bits(
                sensor.measure_energy(true_w, duration_s, &mut rng),
                reference_energy(&spec, true_w, duration_s, &mut reference),
            )?;
            for _ in 0..8 {
                same_bits(
                    read_power(&sensor, true_w, &mut rng),
                    reference_reading(&spec, true_w, &mut reference),
                )?;
            }
            prop_assert_eq!(rng.gen::<u64>(), reference.gen::<u64>());
        }
    }

    #[test]
    fn exact_ties_round_away_from_zero_through_the_fallback() {
        let sensor = PowerSensor::new(SensorSpec {
            relative_noise: 0.0,
            ..SensorSpec::default()
        });
        // The double just above 10.0125 W is 400.5 quanta exactly.
        let true_w = f64::from_bits(10.0125f64.to_bits() + 1);
        assert_eq!(true_w / 0.025, 400.5);
        let mut rng = StdRng::seed_from_u64(11);
        for sign in [1.0, -1.0] {
            let want = sign * 401.0 * 0.025;
            assert_eq!(read_power(&sensor, sign * true_w, &mut rng), want);
            assert_eq!(
                sensor.measure_energy(sign * true_w, 0.005, &mut rng),
                want * 0.005
            );
        }
    }

    /// Powers chosen so that a half-integer lies between the fast and the
    /// libm value of the first reading: only the fallback keeps it exact.
    #[test]
    fn readings_straddling_a_half_integer_match_libm() {
        let spec = SensorSpec::default();
        let sensor = PowerSensor::new(spec);
        let mut straddles = 0;
        for seed in 0..2000 {
            let rng = StdRng::seed_from_u64(seed);
            let (u1, u2) = uniform_pair(&mut rng.clone());
            let (fast, libm) = (fast_normal(u1, u2), box_muller(u1, u2));
            if fast == libm {
                continue;
            }
            // w·(1 + σ·z)/q = 400.5 at the midpoint of the two z.
            let z = 0.5 * (fast + libm);
            let true_w = 400.5 * spec.quantum_w / (1.0 + spec.relative_noise * z);
            let y = |z: f64| true_w * (1.0 + spec.relative_noise * z) / spec.quantum_w;
            if (y(fast) < 400.5) != (y(libm) < 400.5) {
                straddles += 1;
            }
            let mut reference = rng.clone();
            assert_eq!(
                read_power(&sensor, true_w, &mut rng.clone()),
                reference_reading(&spec, true_w, &mut reference),
                "seed {seed}"
            );
            let mut reference = rng.clone();
            assert_eq!(
                sensor.measure_energy(true_w, 0.005, &mut rng.clone()),
                reference_energy(&spec, true_w, 0.005, &mut reference),
                "seed {seed}"
            );
        }
        assert!(straddles > 500, "only {straddles} straddling readings");
    }

    /// The proved bound `|z̃ − z| ≤ R·2.6e-8` and `Z_ERROR`, on a dense
    /// grid with `u₁` near `2⁻¹⁰²²`, `2⁻⁵³` and 1 and `u₂` at every
    /// quadrant edge.
    #[test]
    fn fast_normal_is_within_the_proved_bound() {
        let mut u1s: Vec<f64> = (1..=4000).map(|i| i as f64 / 4001.0).collect();
        for i in 0..64 {
            u1s.push(f64::MIN_POSITIVE * (2.0 + i as f64));
            u1s.push(grid_step(0.0, 1 + i));
            u1s.push(grid_step(1.0, -1 - i));
            u1s.push(2f64.powi(-(i as i32) * 16));
            u1s.push(std::f64::consts::FRAC_1_SQRT_2 * (1.0 + (i - 32) as f64 * 1e-16));
        }
        u1s.retain(|&u| u > f64::MIN_POSITIVE && u < 1.0);
        let mut u2s: Vec<f64> = (0..2000).map(|i| i as f64 / 2000.0).collect();
        for edge in 0..=8 {
            for steps in -3..=3 {
                let u = grid_step(edge as f64 / 8.0, steps);
                if (0.0..1.0).contains(&u) {
                    u2s.push(u);
                }
            }
        }
        let mut worst: f64 = 0.0;
        for &u1 in &u1s {
            let radius = (-2.0 * u1.ln()).sqrt();
            for &u2 in &u2s {
                let err = (fast_normal(u1, u2) - box_muller(u1, u2)).abs();
                assert!(
                    err <= radius * 2.6e-8 + 1e-15,
                    "u1 {u1:e} u2 {u2:e}: error {err:e}"
                );
                worst = worst.max(err);
            }
        }
        assert!(worst <= Z_ERROR, "worst error {worst:e}");
    }
}
