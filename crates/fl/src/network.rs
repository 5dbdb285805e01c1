//! Network modeling and bandwidth estimation: the paper's footnote-3
//! extension.
//!
//! The paper assumes the server hands out *training* deadlines. Real FL
//! servers (e.g. the Google system the paper cites) often specify a
//! *reporting* deadline instead — the time by which the server must have
//! *received* the update, which includes the model upload. Footnote 3
//! says BoFL "can be easily extended to work well with a network
//! bandwidth measurement module that can infer its training deadlines from
//! the reporting deadlines"; this module is that extension:
//!
//! - [`NetworkModel`] — a simulated wireless uplink (lognormal-ish
//!   bandwidth around a nominal rate, e.g. 4G LTE ≈ 5 Mbps in the
//!   paper's §6.5 example);
//! - `BandwidthEstimator` — an EWMA over observed transfer rates with a
//!   conservative quantile, exactly what a client needs to subtract a safe
//!   upload-time estimate from a reporting deadline;
//! - [`ReportingDeadline`] — the conversion itself.

use rand::Rng;

/// A simulated client uplink.
///
/// Bandwidth for each transfer is drawn as
/// `nominal × exp(σ·Z − σ²/2)` (mean-preserving lognormal), so transfers
/// vary the way congested wireless links do.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkModel {
    /// Nominal uplink bandwidth, bytes per second.
    pub nominal_bps: f64,
    /// Lognormal σ of per-transfer variation.
    pub sigma: f64,
    /// Fixed per-transfer latency (connection setup, TLS), seconds.
    pub setup_latency_s: f64,
}

impl NetworkModel {
    /// A 4G LTE-ish uplink: 5 Mbps nominal (the paper's §6.5 example:
    /// "sending and receiving \[a\] ResNet50 model may take
    /// 51.2 Mb / 5 Mbps = 10.2 s"), moderate variation.
    pub fn lte() -> Self {
        NetworkModel {
            nominal_bps: 5.0e6 / 8.0,
            sigma: 0.3,
            setup_latency_s: 0.15,
        }
    }

    /// A home Wi-Fi uplink: 40 Mbps nominal, low variation.
    pub fn wifi() -> Self {
        NetworkModel {
            nominal_bps: 40.0e6 / 8.0,
            sigma: 0.15,
            setup_latency_s: 0.05,
        }
    }

    /// Simulates one upload of `bytes`, returning
    /// `(duration_s, achieved_bps)`.
    pub fn transfer(&self, bytes: f64, rng: &mut impl Rng) -> (f64, f64) {
        assert!(bytes >= 0.0 && bytes.is_finite(), "bytes must be finite");
        let z = standard_normal(rng);
        let raw = self.nominal_bps * (self.sigma * z - 0.5 * self.sigma * self.sigma).exp();
        debug_assert!(raw.is_finite(), "bandwidth draw must be finite");
        // Floor the draw at a small fraction of nominal: a pathological σ
        // or an extreme tail Z could otherwise underflow toward zero and
        // turn one transfer into an effectively infinite duration.
        let bw = raw.max(self.nominal_bps * 1e-4);
        let duration = self.setup_latency_s + bytes / bw;
        (duration, bw)
    }

    /// Expected upload duration at nominal bandwidth (no variation).
    pub(crate) fn nominal_duration_s(&self, bytes: f64) -> f64 {
        self.setup_latency_s + bytes / self.nominal_bps
    }
}

/// An exponentially weighted bandwidth estimator with a pessimism factor.
///
/// Clients feed in `(bytes, duration)` of every completed transfer; the
/// estimator tracks a smoothed rate and answers "how long should I budget
/// to upload `n` bytes?" with a configurable safety factor, so the
/// inferred training deadline errs toward finishing early.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct BandwidthEstimator {
    alpha: f64,
    pessimism: f64,
    estimate_bps: Option<f64>,
    variance: f64,
}

impl BandwidthEstimator {
    /// Creates an estimator.
    ///
    /// `alpha` is the EWMA weight of the newest sample (0 < α ≤ 1);
    /// `pessimism` ≥ 0 is how many smoothed standard deviations to
    /// subtract when budgeting (1–2 is typical).
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is outside `(0, 1]` or `pessimism < 0`.
    pub(crate) fn new(alpha: f64, pessimism: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0, 1]");
        assert!(pessimism >= 0.0, "pessimism must be non-negative");
        BandwidthEstimator {
            alpha,
            pessimism,
            estimate_bps: None,
            variance: 0.0,
        }
    }

    /// Records one completed transfer.
    ///
    /// # Panics
    ///
    /// Panics on non-positive bytes or duration.
    pub(crate) fn observe(&mut self, bytes: f64, duration_s: f64) {
        assert!(bytes > 0.0 && bytes.is_finite(), "bytes must be positive");
        assert!(
            duration_s > 0.0 && duration_s.is_finite(),
            "duration must be positive"
        );
        let rate = bytes / duration_s;
        match self.estimate_bps {
            None => {
                self.estimate_bps = Some(rate);
                self.variance = 0.0;
            }
            Some(est) => {
                let delta = rate - est;
                let new_est = est + self.alpha * delta;
                self.variance = (1.0 - self.alpha) * (self.variance + self.alpha * delta * delta);
                self.estimate_bps = Some(new_est);
            }
        }
    }

    /// The smoothed bandwidth estimate, if any transfer has been seen.
    pub(crate) fn estimate_bps(&self) -> Option<f64> {
        self.estimate_bps
    }

    /// A conservative (pessimism-adjusted) bandwidth for budgeting.
    ///
    /// Two safeguards compose: subtract `pessimism` smoothed standard
    /// deviations, and *always* keep at least a 25% relative margin —
    /// early in a session the EWMA variance is still near zero (a single
    /// observation has no spread), and without the floor the very first
    /// upload would be budgeted with no headroom at all.
    pub(crate) fn conservative_bps(&self) -> Option<f64> {
        self.estimate_bps.map(|est| {
            let std = self.variance.sqrt();
            (est - self.pessimism * std).min(est * 0.75).max(est * 0.1)
        })
    }

    /// Time to budget for uploading `bytes`, or `None` before the first
    /// observation.
    pub(crate) fn budget_upload_s(&self, bytes: f64) -> Option<f64> {
        self.conservative_bps().map(|bw| bytes / bw)
    }
}

impl Default for BandwidthEstimator {
    fn default() -> Self {
        BandwidthEstimator::new(0.3, 1.5)
    }
}

/// Bounded deterministic retry for lost model uploads.
///
/// A transient upload failure (cellular handoff, a dropped TCP stream)
/// does not have to waste the whole round: while reporting budget remains,
/// the client backs off exponentially and tries again. The backoff is
/// jittered — synchronized retries from many clients would just collide
/// again — but the jitter is drawn from a caller-supplied seed, so the
/// exact same retry schedule replays on any thread or worker count (the
/// event-driven engine feeds a per-`(client, round)` seed).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total upload attempts allowed, including the first (`1` = never
    /// retry, the legacy behavior).
    pub max_attempts: u32,
    /// Backoff before the first retry, seconds.
    pub base_backoff_s: f64,
    /// Multiplier applied to the backoff after every failed retry.
    pub backoff_multiplier: f64,
    /// Fraction of each backoff randomized symmetrically around its
    /// nominal value (`0.25` → ±25%).
    pub jitter: f64,
}

impl RetryPolicy {
    /// No retries: a failed upload is simply lost (legacy behavior).
    pub fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            base_backoff_s: 0.0,
            backoff_multiplier: 1.0,
            jitter: 0.0,
        }
    }

    /// The recovery default: up to 3 attempts, 0.5 s initial backoff
    /// doubling each time, ±25% jitter.
    pub fn recovery() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base_backoff_s: 0.5,
            backoff_multiplier: 2.0,
            jitter: 0.25,
        }
    }

    /// The backoff before retry number `retry` (1-based), jittered
    /// deterministically from `seed`. Pure: the same arguments always
    /// yield the same delay.
    ///
    /// # Panics
    ///
    /// Panics if `retry == 0` (there is no backoff before the first
    /// attempt).
    pub fn backoff_s(&self, retry: u32, seed: u64) -> f64 {
        assert!(retry > 0, "backoff precedes a retry, not the first attempt");
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let nominal = self.base_backoff_s * self.backoff_multiplier.powi(retry as i32 - 1);
        let mut rng =
            StdRng::seed_from_u64(seed ^ (retry as u64).wrapping_mul(0x2545_F491_4F6C_DD1D));
        let u: f64 = rng.gen::<f64>();
        nominal * (1.0 + self.jitter * (2.0 * u - 1.0))
    }
}

impl Default for RetryPolicy {
    /// [`RetryPolicy::none`] — retrying is opt-in so existing traces are
    /// untouched.
    fn default() -> Self {
        RetryPolicy::none()
    }
}

/// A server-assigned *reporting* deadline plus the conversion to the
/// training deadline BoFL consumes (paper footnote 3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReportingDeadline {
    /// Seconds from round start by which the server must have *received*
    /// the update.
    pub reporting_s: f64,
}

impl ReportingDeadline {
    /// Creates a reporting deadline.
    ///
    /// # Panics
    ///
    /// Panics if the deadline is non-positive or non-finite.
    pub fn new(reporting_s: f64) -> Self {
        assert!(
            reporting_s.is_finite() && reporting_s > 0.0,
            "reporting deadline must be positive"
        );
        ReportingDeadline { reporting_s }
    }

    /// Infers the training deadline: the reporting deadline minus the
    /// budgeted upload time for `upload_bytes`, floored at
    /// `min_training_s` (so a pathological bandwidth estimate cannot
    /// produce an infeasible zero-length training window — the client
    /// would rather risk a late upload than certainly train nothing).
    pub(crate) fn training_deadline_s(
        &self,
        estimator: &BandwidthEstimator,
        upload_bytes: f64,
        min_training_s: f64,
    ) -> f64 {
        let upload = estimator.budget_upload_s(upload_bytes).unwrap_or(0.0);
        (self.reporting_s - upload).max(min_training_s)
    }
}

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
    fn lte_resnet_upload_matches_paper_example() {
        // §6.5: ResNet50 (51.2 Mb) over 5 Mbps ≈ 10.2 s plus setup.
        let net = NetworkModel::lte();
        let bytes = 51.2e6 / 8.0;
        let d = net.nominal_duration_s(bytes);
        assert!((10.0..11.0).contains(&d), "nominal upload {d:.1} s");
    }

    #[test]
    fn transfers_vary_but_average_out() {
        let net = NetworkModel::lte();
        let mut rng = StdRng::seed_from_u64(8);
        let bytes = 1.0e7;
        let mut total_bw = 0.0;
        let n = 3000;
        for _ in 0..n {
            let (d, bw) = net.transfer(bytes, &mut rng);
            assert!(d > net.setup_latency_s);
            total_bw += bw;
        }
        let mean_bw = total_bw / n as f64;
        assert!(
            (mean_bw / net.nominal_bps - 1.0).abs() < 0.05,
            "mean bandwidth {mean_bw:.0} vs nominal {:.0}",
            net.nominal_bps
        );
    }

    #[test]
    fn transfer_bandwidth_is_floored_above_zero() {
        // An absurd σ makes the lognormal tail collapse toward zero; the
        // floor keeps every draw positive and every duration finite.
        let net = NetworkModel {
            nominal_bps: 1.0e6,
            sigma: 40.0,
            setup_latency_s: 0.1,
        };
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..2000 {
            let (d, bw) = net.transfer(1.0e6, &mut rng);
            assert!(bw >= net.nominal_bps * 1e-4, "bandwidth {bw} under floor");
            assert!(d.is_finite() && d > 0.0, "duration {d} not finite");
        }
    }

    #[test]
    fn estimator_converges_to_true_rate() {
        let mut est = BandwidthEstimator::new(0.3, 0.0);
        assert_eq!(est.estimate_bps(), None);
        assert_eq!(est.budget_upload_s(100.0), None);
        for _ in 0..50 {
            est.observe(1000.0, 2.0); // 500 B/s
        }
        let e = est.estimate_bps().unwrap();
        assert!((e - 500.0).abs() < 1.0);
        // Budgeting keeps the 25% relative margin: 1000 B at a
        // conservative 0.75 × 500 B/s takes 2.67 s.
        assert!((est.budget_upload_s(1000.0).unwrap() - 1000.0 / 375.0).abs() < 0.01);
    }

    #[test]
    fn pessimism_budgets_more_time() {
        let mut optimist = BandwidthEstimator::new(0.3, 0.0);
        let mut pessimist = BandwidthEstimator::new(0.3, 2.0);
        // Alternating fast/slow transfers create variance.
        for i in 0..40 {
            let rate = if i % 2 == 0 { 400.0 } else { 600.0 };
            optimist.observe(rate, 1.0);
            pessimist.observe(rate, 1.0);
        }
        let t_opt = optimist.budget_upload_s(1000.0).unwrap();
        let t_pes = pessimist.budget_upload_s(1000.0).unwrap();
        assert!(
            t_pes > t_opt,
            "pessimistic budget {t_pes:.2} must exceed optimistic {t_opt:.2}"
        );
    }

    #[test]
    fn reporting_deadline_conversion() {
        let mut est = BandwidthEstimator::new(0.5, 0.0);
        est.observe(5.0e6, 10.0); // 0.5 MB/s
        let rd = ReportingDeadline::new(60.0);
        // Uploading 5 MB at the conservative 0.75 × 0.5 MB/s rate budgets
        // ≈13.3 s → training window ≈46.7 s.
        let t = rd.training_deadline_s(&est, 5.0e6, 5.0);
        assert!(
            (t - (60.0 - 5.0e6 / 375_000.0)).abs() < 0.5,
            "training deadline {t:.1}"
        );
        // The floor protects against absurd estimates.
        let t_floor = rd.training_deadline_s(&est, 1.0e9, 12.0);
        assert_eq!(t_floor, 12.0);
        // Without observations, the full window is used.
        let blank = BandwidthEstimator::default();
        assert_eq!(rd.training_deadline_s(&blank, 5.0e6, 5.0), 60.0);
    }

    #[test]
    #[should_panic(expected = "alpha must be in (0, 1]")]
    fn estimator_validates_alpha() {
        let _ = BandwidthEstimator::new(0.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "reporting deadline must be positive")]
    fn reporting_deadline_validates() {
        let _ = ReportingDeadline::new(0.0);
    }

    #[test]
    fn retry_backoff_grows_and_is_deterministic() {
        let p = RetryPolicy::recovery();
        let b1 = p.backoff_s(1, 42);
        let b2 = p.backoff_s(2, 42);
        // Jitter is bounded by ±25%, so doubling dominates it.
        assert!(b2 > b1, "backoff must grow: {b1} -> {b2}");
        assert!((0.375..=0.625).contains(&b1), "jittered base {b1}");
        // Pure in (retry, seed); different seeds jitter differently.
        assert_eq!(b1, p.backoff_s(1, 42));
        assert_ne!(b1, p.backoff_s(1, 43));
    }

    #[test]
    #[should_panic(expected = "backoff precedes a retry")]
    fn retry_backoff_rejects_attempt_zero() {
        let _ = RetryPolicy::recovery().backoff_s(0, 1);
    }
}
