//! Server-side liveness tracking: per-client heartbeat deadlines with
//! seeded jitter.
//!
//! Once a client enters `Reporting`, the server arms two timers measured
//! against the round's training deadline `D`:
//!
//! - **suspect** at `t0 + D · suspect_factor` (jittered) — the report is
//!   overdue; the client transitions `Reporting → Suspected` and the
//!   journal records a `liveness_suspect`.
//! - **expire** a further `D · expire_factor` (jittered) later — the
//!   client is declared dead for the round (`Suspected → Dropped`,
//!   `liveness_expired`). An update arriving between the two heals the
//!   client (`Suspected → Reporting`, `liveness_heal`) and is accepted
//!   normally.
//!
//! The jitter is the same backoff discipline as
//! [`bofl_fl::network::RetryPolicy`]: symmetric around the nominal value,
//! drawn from a per-`(round, client)` seed via
//! [`bofl_fleet::fault::stream_seed`], so every engine and worker count
//! agrees on every deadline — and synchronized timeout storms cannot
//! happen, because no two clients share a deadline exactly.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use bofl_fleet::fault::stream_seed;

const SUSPECT_SALT: u64 = 0x11FE_55ED_0000_0001;
const EXPIRE_SALT: u64 = 0x11FE_55ED_0000_0002;

/// When the server starts doubting a silent client, and when it gives up.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LivenessPolicy {
    seed: u64,
    suspect_factor: f64,
    expire_factor: f64,
    jitter: f64,
    armed: bool,
}

impl LivenessPolicy {
    /// No liveness tracking (the default): clients are never suspected
    /// and the engine behaves exactly as before this layer existed.
    pub(crate) fn none() -> Self {
        LivenessPolicy {
            seed: 0,
            suspect_factor: f64::INFINITY,
            expire_factor: f64::INFINITY,
            jitter: 0.0,
            armed: false,
        }
    }

    /// The recovery default: suspect at 1.25× the round deadline, expire
    /// half a deadline later, ±10% jitter.
    pub fn recovery(seed: u64) -> Self {
        LivenessPolicy::new(seed, 1.25, 0.5, 0.1)
    }

    /// A custom policy.
    ///
    /// # Panics
    ///
    /// Panics unless `suspect_factor >= 1`, `expire_factor > 0`, and
    /// `jitter` is in `[0, 1)` — a suspect deadline inside the training
    /// window would suspect clients that are merely still training.
    pub fn new(seed: u64, suspect_factor: f64, expire_factor: f64, jitter: f64) -> Self {
        assert!(
            suspect_factor >= 1.0 && suspect_factor.is_finite(),
            "suspect factor must be >= 1"
        );
        assert!(
            expire_factor > 0.0 && expire_factor.is_finite(),
            "expire factor must be positive"
        );
        assert!((0.0..1.0).contains(&jitter), "jitter must be in [0, 1)");
        LivenessPolicy {
            seed,
            suspect_factor,
            expire_factor,
            jitter,
            armed: true,
        }
    }

    /// Whether liveness tracking is disabled.
    pub(crate) fn is_none(&self) -> bool {
        !self.armed
    }

    fn jittered(&self, nominal: f64, round: usize, client: usize, salt: u64) -> f64 {
        if self.jitter == 0.0 {
            return nominal;
        }
        let mut rng = StdRng::seed_from_u64(stream_seed(self.seed, round, client, salt));
        let u: f64 = rng.gen::<f64>();
        nominal * (1.0 + self.jitter * (2.0 * u - 1.0))
    }

    /// When the server suspects `client` in `round`, in seconds after the
    /// round start, for a round with training deadline `deadline_s`.
    pub(crate) fn suspect_deadline_s(&self, deadline_s: f64, round: usize, client: usize) -> f64 {
        self.jittered(
            deadline_s * self.suspect_factor,
            round,
            client,
            SUSPECT_SALT,
        )
    }

    /// When the server declares `client` dead in `round`, in seconds
    /// after the round start. Always strictly after the suspect deadline.
    pub(crate) fn expire_deadline_s(&self, deadline_s: f64, round: usize, client: usize) -> f64 {
        self.suspect_deadline_s(deadline_s, round, client)
            + self.jittered(deadline_s * self.expire_factor, round, client, EXPIRE_SALT)
    }
}

impl Default for LivenessPolicy {
    /// No liveness tracking: liveness is opt-in so existing journals are
    /// untouched.
    fn default() -> Self {
        LivenessPolicy::none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_unarmed_and_recovery_is_armed() {
        assert!(LivenessPolicy::none().is_none());
        assert!(LivenessPolicy::default().is_none());
        assert!(!LivenessPolicy::recovery(1).is_none());
    }

    #[test]
    fn deadlines_are_ordered_jittered_and_deterministic() {
        let p = LivenessPolicy::recovery(42);
        for client in 0..20 {
            let sus = p.suspect_deadline_s(10.0, 3, client);
            let exp = p.expire_deadline_s(10.0, 3, client);
            // Nominal 12.5 ± 10%, then +5.0 ± 10%.
            assert!((11.25..=13.75).contains(&sus), "suspect {sus}");
            assert!(exp > sus, "expire {exp} must follow suspect {sus}");
            assert!((exp - sus) >= 4.5 && (exp - sus) <= 5.5);
            assert_eq!(sus, p.suspect_deadline_s(10.0, 3, client));
        }
        // Different clients jitter differently.
        let a = p.suspect_deadline_s(10.0, 0, 1);
        let b = p.suspect_deadline_s(10.0, 0, 2);
        assert_ne!(a, b);
    }

    #[test]
    fn zero_jitter_hits_the_nominal_deadline() {
        let p = LivenessPolicy::new(0, 1.5, 0.25, 0.0);
        assert_eq!(p.suspect_deadline_s(8.0, 0, 0), 12.0);
        assert_eq!(p.expire_deadline_s(8.0, 0, 0), 14.0);
    }

    #[test]
    #[should_panic(expected = "suspect factor must be >= 1")]
    fn rejects_suspecting_inside_the_training_window() {
        let _ = LivenessPolicy::new(0, 0.5, 0.5, 0.1);
    }
}
