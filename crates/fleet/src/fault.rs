//! Deterministic fault injection for fleet simulations.
//!
//! Real federated deployments lose clients mid-round (battery, churn),
//! see transient stragglers (thermal throttling, co-located load) and drop
//! uploads (cellular handoff). A [`FaultPlan`] models all three as
//! independent per-`(round, client)` events drawn from a dedicated seed,
//! so the exact same faults fire regardless of worker count or scheduling
//! order — a hard requirement of the event-driven engine's determinism
//! contract.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The shared stream-seed discipline: every deterministic draw in the
/// fault/chaos family derives its RNG seed from the same XOR mix of
/// `(seed, round, client)` plus a stream-distinguishing `salt` (0 for the
/// primary fault stream). Pure in its arguments, so any engine on any
/// thread agrees on every draw; exposed so sibling plans (chaos
/// transports, liveness jitter) extend the discipline instead of
/// inventing their own.
pub fn stream_seed(seed: u64, round: usize, client_id: usize, salt: u64) -> u64 {
    seed ^ (round as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ client_term(client_id) ^ salt
}

/// The client's share of [`stream_seed`]. XOR is associative, so
/// `stream_seed(seed, round, id, salt)` equals
/// `stream_seed(seed, round, 0, salt) ^ client_term(id)`: a scan over many
/// clients in one round mixes the round part once.
pub(crate) fn client_term(client_id: usize) -> u64 {
    (client_id as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
}

/// The splitmix64 finalizer: turns an XOR mix such as [`stream_seed`]'s
/// into well-distributed bits. The sampler, the stochastic quantizer and
/// the scale simulation's synthetic draws all finish with it.
pub(crate) fn splitmix64(mut h: u64) -> u64 {
    h = h.wrapping_add(0x9E37_79B9_7F4A_7C15);
    h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^ (h >> 31)
}

/// The faults injected into one client's round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultDraw {
    /// The client vanished mid-round; its update is never received.
    pub dropped: bool,
    /// Duration multiplier for a transient slowdown (`1.0` = healthy).
    pub straggler_factor: f64,
    /// Training finished but the upload was lost.
    pub upload_failed: bool,
}

impl FaultDraw {
    /// A draw with no faults.
    pub(crate) fn healthy() -> Self {
        FaultDraw {
            dropped: false,
            straggler_factor: 1.0,
            upload_failed: false,
        }
    }
}

/// A client's churn standing in one round, derived from the plan's
/// departure draws (pure in `(round, client)`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChurnStatus {
    /// In the fleet, as usual.
    Present,
    /// In the fleet at round start but leaving mid-round: any update it
    /// was producing is lost, and it is absent from the next round on.
    Departing,
    /// Out of the fleet entirely (not selectable, trains nothing).
    Absent,
    /// Rejoining the fleet this round after an absence.
    Arriving,
}

/// Probabilities and magnitudes of injected faults, plus the seed that
/// makes every draw a pure function of `(round, client)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    dropout_probability: f64,
    straggler_probability: f64,
    straggler_slowdown: (f64, f64),
    upload_failure_probability: f64,
    churn_departure_probability: f64,
    churn_absence_rounds: usize,
}

impl FaultPlan {
    /// A plan that injects nothing (the default for healthy fleets).
    pub fn none() -> Self {
        FaultPlan {
            seed: 0,
            dropout_probability: 0.0,
            straggler_probability: 0.0,
            straggler_slowdown: (1.0, 1.0),
            upload_failure_probability: 0.0,
            churn_departure_probability: 0.0,
            churn_absence_rounds: 0,
        }
    }

    /// Starts a plan with the given fault seed and no faults enabled.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..FaultPlan::none()
        }
    }

    /// Sets the per-round client dropout probability.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    #[must_use]
    pub fn with_dropout(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability must be in [0, 1]");
        self.dropout_probability = p;
        self
    }

    /// Sets the transient-straggler probability and the slowdown range
    /// `[lo, hi]` a straggling round's duration is multiplied by.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]` or the range is not `1 ≤ lo ≤ hi`.
    #[must_use]
    pub fn with_stragglers(mut self, p: f64, slowdown: (f64, f64)) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability must be in [0, 1]");
        assert!(
            1.0 <= slowdown.0 && slowdown.0 <= slowdown.1 && slowdown.1.is_finite(),
            "slowdown range must satisfy 1 <= lo <= hi"
        );
        self.straggler_probability = p;
        self.straggler_slowdown = slowdown;
        self
    }

    /// Sets the probability that a completed round's upload is lost.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    #[must_use]
    pub fn with_upload_failures(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability must be in [0, 1]");
        self.upload_failure_probability = p;
        self
    }

    /// Enables client churn: each round a present client departs with
    /// probability `p`, stays away for `absence_rounds` further rounds,
    /// and then rejoins. Departures happen *mid-round* — a selected
    /// client that departs still burns energy but its update is lost.
    /// Only the event-driven engine acts on churn; the barrier engine has
    /// no way to express a client that is simply not there.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    #[must_use]
    pub fn with_churn(mut self, p: f64, absence_rounds: usize) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability must be in [0, 1]");
        self.churn_departure_probability = p;
        self.churn_absence_rounds = absence_rounds;
        self
    }

    /// Whether this plan can ever churn a client in or out.
    pub(crate) fn has_churn(&self) -> bool {
        self.churn_departure_probability > 0.0
    }

    /// Whether this plan can ever inject a fault.
    pub(crate) fn is_none(&self) -> bool {
        self.dropout_probability == 0.0
            && self.straggler_probability == 0.0
            && self.upload_failure_probability == 0.0
    }

    /// The raw churn-departure draw for `(round, client)` — whether a
    /// client that is present in `round` decides to leave during it.
    /// Pure in its arguments; uses a stream independent of
    /// [`FaultPlan::draw`] so enabling churn never re-rolls the other
    /// faults.
    fn departure_draw(&self, round: usize, client_id: usize) -> bool {
        if self.churn_departure_probability == 0.0 {
            return false;
        }
        let mut rng = StdRng::seed_from_u64(stream_seed(
            self.seed,
            round,
            client_id,
            0xC0_FF_EE_15_BA_D5_EE_D5,
        ));
        rng.gen::<f64>() < self.churn_departure_probability
    }

    /// The client's churn standing in `round`, replaying the departure
    /// draws from round 0 — a pure function of `(round, client)`, so every
    /// engine and worker count agrees on who is in the fleet when.
    pub fn churn_status(&self, round: usize, client_id: usize) -> ChurnStatus {
        if !self.has_churn() {
            return ChurnStatus::Present;
        }
        // First round the client is present again after its last departure
        // (0 = never departed).
        let mut absent_until = 0usize;
        for r in 0..=round {
            if r < absent_until {
                if r == round {
                    return ChurnStatus::Absent;
                }
                continue;
            }
            let arrived = absent_until != 0 && r == absent_until;
            if self.departure_draw(r, client_id) {
                if r == round {
                    return ChurnStatus::Departing;
                }
                absent_until = r + 1 + self.churn_absence_rounds;
            } else if r == round {
                return if arrived {
                    ChurnStatus::Arriving
                } else {
                    ChurnStatus::Present
                };
            }
        }
        unreachable!("the loop classifies `round` before exiting")
    }

    /// Draws the faults for one `(round, client)` pair. Pure: the same
    /// arguments always yield the same draw, on any thread.
    pub fn draw(&self, round: usize, client_id: usize) -> FaultDraw {
        if self.is_none() {
            return FaultDraw::healthy();
        }
        let mut rng = StdRng::seed_from_u64(stream_seed(self.seed, round, client_id, 0));
        let dropped = rng.gen::<f64>() < self.dropout_probability;
        let straggler = rng.gen::<f64>() < self.straggler_probability;
        let (lo, hi) = self.straggler_slowdown;
        let straggler_factor = if straggler {
            lo + (hi - lo) * rng.gen::<f64>()
        } else {
            1.0
        };
        let upload_failed = rng.gen::<f64>() < self.upload_failure_probability;
        FaultDraw {
            dropped,
            straggler_factor,
            upload_failed,
        }
    }

    /// Whether upload `attempt` (1-based) for this `(round, client)` pair
    /// fails. Attempt 1 is exactly [`FaultPlan::draw`]'s `upload_failed`
    /// — the retry machinery extends the original fault stream instead of
    /// re-rolling it, so enabling retries never changes which first
    /// attempts fail. Later attempts are independent draws at the same
    /// failure probability, pure in `(round, client, attempt)`.
    pub fn upload_attempt_failed(&self, round: usize, client_id: usize, attempt: u32) -> bool {
        assert!(attempt >= 1, "upload attempts are 1-based");
        if attempt == 1 {
            return self.draw(round, client_id).upload_failed;
        }
        if self.upload_failure_probability == 0.0 {
            return false;
        }
        let mut rng = StdRng::seed_from_u64(stream_seed(
            self.seed,
            round,
            client_id,
            (attempt as u64).wrapping_mul(0xD6E8_FEB8_6659_FD93),
        ));
        rng.gen::<f64>() < self.upload_failure_probability
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_plan_is_always_healthy() {
        let plan = FaultPlan::none();
        assert!(plan.is_none());
        for round in 0..5 {
            for client in 0..5 {
                assert_eq!(plan.draw(round, client), FaultDraw::healthy());
            }
        }
    }

    #[test]
    fn draws_are_deterministic_per_round_and_client() {
        let plan = FaultPlan::new(7)
            .with_dropout(0.3)
            .with_stragglers(0.4, (1.5, 3.0))
            .with_upload_failures(0.2);
        let a = plan.draw(3, 11);
        let b = plan.draw(3, 11);
        assert_eq!(a, b);
        // Different coordinates give an independent draw stream.
        let other = plan.draw(4, 11);
        let another = plan.draw(3, 12);
        // (Not all need differ, but across a grid *some* must.)
        let grid: Vec<FaultDraw> = (0..20).map(|c| plan.draw(0, c)).collect();
        assert!(grid.iter().any(|d| d.dropped) && grid.iter().any(|d| !d.dropped));
        let _ = (other, another);
    }

    #[test]
    fn certain_dropout_always_drops() {
        let plan = FaultPlan::new(1).with_dropout(1.0);
        assert!((0..50).all(|c| plan.draw(0, c).dropped));
    }

    #[test]
    fn straggler_factor_stays_in_range() {
        let plan = FaultPlan::new(2).with_stragglers(1.0, (2.0, 4.0));
        for c in 0..50 {
            let f = plan.draw(0, c).straggler_factor;
            assert!((2.0..=4.0).contains(&f), "factor {f} out of range");
        }
    }

    #[test]
    fn upload_attempts_extend_the_fault_stream() {
        let plan = FaultPlan::new(11).with_upload_failures(0.5);
        for client in 0..20 {
            // Attempt 1 must agree with the original draw, so turning on
            // retries cannot change which first attempts fail.
            assert_eq!(
                plan.upload_attempt_failed(0, client, 1),
                plan.draw(0, client).upload_failed
            );
            // Later attempts are pure in (round, client, attempt).
            assert_eq!(
                plan.upload_attempt_failed(0, client, 2),
                plan.upload_attempt_failed(0, client, 2)
            );
        }
        // At p = 0.5 some second attempts must succeed and some fail.
        let seconds: Vec<bool> = (0..40)
            .map(|c| plan.upload_attempt_failed(0, c, 2))
            .collect();
        assert!(seconds.iter().any(|&f| f) && seconds.iter().any(|&f| !f));
        // A plan without upload faults never fails a retry either.
        assert!(!FaultPlan::none().upload_attempt_failed(0, 0, 3));
    }

    #[test]
    #[should_panic(expected = "upload attempts are 1-based")]
    fn rejects_zeroth_upload_attempt() {
        let _ = FaultPlan::new(0).upload_attempt_failed(0, 0, 0);
    }

    #[test]
    #[should_panic(expected = "probability must be in [0, 1]")]
    fn rejects_bad_probability() {
        let _ = FaultPlan::new(0).with_dropout(1.5);
    }

    #[test]
    fn churnless_plans_keep_everyone_present() {
        let plan = FaultPlan::new(3).with_dropout(0.5);
        assert!(!plan.has_churn());
        for round in 0..6 {
            for client in 0..6 {
                assert_eq!(plan.churn_status(round, client), ChurnStatus::Present);
            }
        }
    }

    #[test]
    fn certain_churn_cycles_depart_absent_arrive() {
        // p = 1: depart in round 0, sit out rounds 1–2, and depart again
        // the moment the client is back (arrival and departure can
        // coincide; the departure wins the classification).
        let plan = FaultPlan::new(4).with_churn(1.0, 2);
        assert_eq!(plan.churn_status(0, 7), ChurnStatus::Departing);
        assert_eq!(plan.churn_status(1, 7), ChurnStatus::Absent);
        assert_eq!(plan.churn_status(2, 7), ChurnStatus::Absent);
        assert_eq!(plan.churn_status(3, 7), ChurnStatus::Departing);
    }

    #[test]
    fn churn_statuses_are_deterministic_and_mixed() {
        let plan = FaultPlan::new(11).with_churn(0.3, 1);
        for round in 0..8 {
            for client in 0..10 {
                assert_eq!(
                    plan.churn_status(round, client),
                    plan.churn_status(round, client)
                );
            }
        }
        let statuses: Vec<ChurnStatus> = (0..30).map(|c| plan.churn_status(3, c)).collect();
        assert!(statuses.iter().any(|s| *s != ChurnStatus::Present));
        assert!(statuses.contains(&ChurnStatus::Present));
        // Enabling churn must not re-roll the classic fault draws.
        let base = FaultPlan::new(11).with_dropout(0.4);
        let churned = FaultPlan::new(11).with_dropout(0.4).with_churn(0.3, 1);
        for c in 0..20 {
            assert_eq!(base.draw(2, c), churned.draw(2, c));
        }
    }

    #[test]
    #[should_panic(expected = "slowdown range")]
    fn rejects_speedup_slowdown() {
        let _ = FaultPlan::new(0).with_stragglers(0.5, (0.5, 2.0));
    }
}
