//! Adversarial wire faults: [`ChaosPlan`] + [`ChaosTransport`].
//!
//! A [`ChaosTransport`] decorates any inner [`Transport`] and injects
//! delay, drop, duplication, reordering and network partitions into the
//! deliveries the inner carrier produced. Every injection is drawn from a
//! seeded plan with the same stream discipline as
//! [`bofl_fleet::fault::FaultPlan`]: pure in `(seed, round, client)` with
//! a per-fault-family salt (see [`bofl_fleet::fault::stream_seed`]), so
//! the exact same chaos fires regardless of the inner transport's lane
//! count or the OS scheduler — chaos is adversarial, never flaky.
//!
//! Fault semantics, per original envelope:
//!
//! - **drop** — the message (and any would-be duplicates) never arrives.
//! - **partition** — the client's uplink is cut from round start for a
//!   seeded duration; messages sent before it heals are held and arrive
//!   at heal time (a partition outliving the round turns into a late or
//!   lost update — the engine's liveness layer decides which).
//! - **delay** — an extra uplink transfer drawn from a
//!   [`NetworkModel`] is added to the arrival time.
//! - **duplicate** — a second copy arrives shortly after the first; the
//!   control plane's state machine makes redelivery a no-op.
//! - **reorder** — a jitter draw perturbs the arrival time so messages
//!   overtake each other; the stats count actual send-order inversions.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use bofl_fl::network::NetworkModel;
use bofl_fleet::fault::stream_seed;

use crate::transport::{
    count_reordered, sort_deliveries, Carried, Delivery, Envelope, Transport, VirtualTransport,
};

const DROP_SALT: u64 = 0xC4A0_5D80_9000_0001;
const DELAY_SALT: u64 = 0xC4A0_5DE1_A700_0002;
const DUP_SALT: u64 = 0xC4A0_5D09_0000_0003;
const REORDER_SALT: u64 = 0xC4A0_502D_E200_0004;
const PARTITION_SALT: u64 = 0xC4A0_59A2_7000_0005;

/// Probabilities and magnitudes of injected wire faults, plus the seed
/// that makes every draw a pure function of `(round, client)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosPlan {
    seed: u64,
    drop_probability: f64,
    delay_probability: f64,
    delay_model: NetworkModel,
    delay_bytes: f64,
    duplicate_probability: f64,
    reorder_probability: f64,
    reorder_jitter_s: f64,
    partition_probability: f64,
    partition_window_s: (f64, f64),
}

impl ChaosPlan {
    /// A plan that injects nothing.
    pub fn none() -> Self {
        ChaosPlan {
            seed: 0,
            drop_probability: 0.0,
            delay_probability: 0.0,
            delay_model: NetworkModel::lte(),
            delay_bytes: 0.0,
            duplicate_probability: 0.0,
            reorder_probability: 0.0,
            reorder_jitter_s: 0.0,
            partition_probability: 0.0,
            partition_window_s: (0.0, 0.0),
        }
    }

    /// Starts a plan with the given chaos seed and no faults enabled.
    pub fn new(seed: u64) -> Self {
        ChaosPlan {
            seed,
            ..ChaosPlan::none()
        }
    }

    /// Sets the per-message drop probability.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    #[must_use]
    pub fn with_drops(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability must be in [0, 1]");
        self.drop_probability = p;
        self
    }

    /// Sets the per-message delay probability; a delayed message pays one
    /// extra uplink transfer of `bytes` drawn from `model`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]` or `bytes` is negative/non-finite.
    #[must_use]
    pub fn with_delays(mut self, p: f64, model: NetworkModel, bytes: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability must be in [0, 1]");
        assert!(bytes >= 0.0 && bytes.is_finite(), "bytes must be finite");
        self.delay_probability = p;
        self.delay_model = model;
        self.delay_bytes = bytes;
        self
    }

    /// Sets the per-message duplication probability.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    #[must_use]
    pub fn with_duplicates(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability must be in [0, 1]");
        self.duplicate_probability = p;
        self
    }

    /// Sets the per-message reorder probability and the arrival jitter
    /// (uniform in `[0, jitter_s)`) a reordered message receives.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]` or `jitter_s` is
    /// negative/non-finite.
    #[must_use]
    pub fn with_reordering(mut self, p: f64, jitter_s: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability must be in [0, 1]");
        assert!(
            jitter_s >= 0.0 && jitter_s.is_finite(),
            "jitter must be finite and non-negative"
        );
        self.reorder_probability = p;
        self.reorder_jitter_s = jitter_s;
        self
    }

    /// Sets the per-`(round, client)` partition probability and the
    /// `[lo_s, hi_s]` window the partition's duration is drawn from
    /// (measured from round start).
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]` or the window is not
    /// `0 ≤ lo ≤ hi < ∞`.
    #[must_use]
    pub fn with_partitions(mut self, p: f64, window_s: (f64, f64)) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability must be in [0, 1]");
        assert!(
            0.0 <= window_s.0 && window_s.0 <= window_s.1 && window_s.1.is_finite(),
            "partition window must satisfy 0 <= lo <= hi"
        );
        self.partition_probability = p;
        self.partition_window_s = window_s;
        self
    }

    /// Whether this plan can ever inject a fault.
    pub(crate) fn is_none(&self) -> bool {
        self.drop_probability == 0.0
            && self.delay_probability == 0.0
            && self.duplicate_probability == 0.0
            && self.reorder_probability == 0.0
            && self.partition_probability == 0.0
    }

    fn chance(&self, round: usize, client: usize, salt: u64, p: f64) -> (bool, StdRng) {
        let mut rng = StdRng::seed_from_u64(stream_seed(self.seed, round, client, salt));
        let hit = p > 0.0 && rng.gen::<f64>() < p;
        (hit, rng)
    }

    /// Whether the message from `client` in `round` is dropped outright.
    pub(crate) fn drops(&self, round: usize, client: usize) -> bool {
        self.chance(round, client, DROP_SALT, self.drop_probability)
            .0
    }

    /// The partition healing time for `(round, client)` measured from
    /// round start: `None` when the client is not partitioned this round.
    pub(crate) fn partition_heal_s(&self, round: usize, client: usize) -> Option<f64> {
        let (hit, mut rng) = self.chance(round, client, PARTITION_SALT, self.partition_probability);
        if !hit {
            return None;
        }
        let (lo, hi) = self.partition_window_s;
        Some(lo + (hi - lo) * rng.gen::<f64>())
    }

    /// The extra uplink delay for `(round, client)`: `None` when the
    /// message is not delayed.
    pub(crate) fn delay_s(&self, round: usize, client: usize) -> Option<f64> {
        let (hit, mut rng) = self.chance(round, client, DELAY_SALT, self.delay_probability);
        if !hit {
            return None;
        }
        let (duration, _bw) = self.delay_model.transfer(self.delay_bytes, &mut rng);
        Some(duration)
    }

    /// The reorder jitter for `(round, client)`: `None` when the message
    /// is not jittered.
    pub(crate) fn reorder_jitter(&self, round: usize, client: usize) -> Option<f64> {
        let (hit, mut rng) = self.chance(round, client, REORDER_SALT, self.reorder_probability);
        if !hit {
            return None;
        }
        Some(rng.gen::<f64>() * self.reorder_jitter_s)
    }

    /// The duplicate lag for `(round, client)`: `None` when no duplicate
    /// copy is injected, otherwise how long after the original the copy
    /// arrives (always > 0 so the copy never ties the original).
    pub(crate) fn duplicate_lag_s(&self, round: usize, client: usize) -> Option<f64> {
        let (hit, mut rng) = self.chance(round, client, DUP_SALT, self.duplicate_probability);
        if !hit {
            return None;
        }
        Some(0.01 + 0.1 * rng.gen::<f64>())
    }
}

impl Default for ChaosPlan {
    fn default() -> Self {
        ChaosPlan::none()
    }
}

/// A decorator that applies a [`ChaosPlan`] to whatever an inner
/// [`Transport`] delivers.
#[derive(Debug, Clone)]
pub struct ChaosTransport {
    inner: Box<dyn Transport>,
    plan: ChaosPlan,
    label: String,
}

impl ChaosTransport {
    /// Wraps `inner` with the given plan.
    pub fn new(inner: Box<dyn Transport>, plan: ChaosPlan) -> Self {
        let label = format!("chaos({})", inner.label());
        ChaosTransport { inner, plan, label }
    }

    /// Chaos over the identity carrier.
    pub fn over_virtual(plan: ChaosPlan) -> Self {
        ChaosTransport::new(Box::new(VirtualTransport), plan)
    }
}

impl Transport for ChaosTransport {
    fn label(&self) -> &str {
        &self.label
    }

    fn carry(&mut self, round: usize, t0_s: f64, messages: &[Envelope]) -> Carried {
        let inner = self.inner.carry(round, t0_s, messages);
        if self.plan.is_none() {
            return inner;
        }
        let mut stats = inner.stats;
        let mut out: Vec<Delivery> = Vec::with_capacity(inner.deliveries.len());
        for d in inner.deliveries {
            // Decorate originals only; an inner transport that already
            // duplicates would pass its copies through untouched.
            if d.copy > 0 {
                out.push(d);
                continue;
            }
            let id = d.client_id;
            if self.plan.drops(round, id) {
                stats.dropped += 1;
                continue;
            }
            let mut t = d.t_arrive_s;
            if let Some(heal) = self.plan.partition_heal_s(round, id) {
                let heals_at = t0_s + heal;
                if d.t_send_s < heals_at {
                    t = t.max(heals_at);
                    stats.partition_held += 1;
                }
            }
            if let Some(delay) = self.plan.delay_s(round, id) {
                t += delay;
                stats.delayed += 1;
            }
            if let Some(jitter) = self.plan.reorder_jitter(round, id) {
                t += jitter;
            }
            let delivered = Delivery { t_arrive_s: t, ..d };
            if let Some(lag) = self.plan.duplicate_lag_s(round, id) {
                out.push(Delivery {
                    t_arrive_s: t + lag,
                    copy: d.copy + 1,
                    ..d
                });
                stats.duplicated += 1;
            }
            out.push(delivered);
        }
        sort_deliveries(&mut out);
        stats.reordered = count_reordered(&out);
        Carried {
            deliveries: out,
            stats,
        }
    }

    fn clone_box(&self) -> Box<dyn Transport> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::socket::SocketTransport;

    fn envelopes(n: usize) -> Vec<Envelope> {
        (0..n)
            .map(|id| Envelope {
                round: 2,
                client_id: id,
                t_send_s: 100.0 + id as f64,
            })
            .collect()
    }

    #[test]
    fn empty_plan_is_a_passthrough() {
        let msgs = envelopes(5);
        let plain = VirtualTransport.carry(2, 90.0, &msgs);
        let chaotic = ChaosTransport::over_virtual(ChaosPlan::none()).carry(2, 90.0, &msgs);
        assert_eq!(plain, chaotic);
        assert!(ChaosPlan::none().is_none());
        assert!(!ChaosPlan::new(1).with_drops(0.1).is_none());
    }

    #[test]
    fn chaos_is_deterministic_and_independent_of_the_inner_transport() {
        let msgs = envelopes(24);
        let plan = ChaosPlan::new(7)
            .with_drops(0.2)
            .with_delays(0.3, NetworkModel::lte(), 1.0e6)
            .with_duplicates(0.2)
            .with_reordering(0.4, 5.0)
            .with_partitions(0.1, (5.0, 30.0));
        let a = ChaosTransport::over_virtual(plan).carry(2, 90.0, &msgs);
        let b = ChaosTransport::over_virtual(plan).carry(2, 90.0, &msgs);
        assert_eq!(a, b);
        for lanes in [1, 2, 8] {
            let c = ChaosTransport::new(Box::new(SocketTransport::in_process(lanes)), plan)
                .carry(2, 90.0, &msgs);
            assert_eq!(a, c, "lanes = {lanes}");
        }
        // At these probabilities some fault of every armed family fires.
        assert!(a.stats.dropped > 0);
        assert!(a.stats.delayed > 0);
        assert!(a.stats.duplicated > 0);
        assert_eq!(
            a.deliveries.iter().filter(|d| d.copy == 0).count(),
            a.stats.sent - a.stats.dropped
        );
    }

    #[test]
    fn certain_drops_lose_everything() {
        let msgs = envelopes(6);
        let carried =
            ChaosTransport::over_virtual(ChaosPlan::new(1).with_drops(1.0)).carry(0, 0.0, &msgs);
        assert!(carried.deliveries.is_empty());
        assert_eq!(carried.stats.dropped, 6);
        assert_eq!(carried.stats.sent, 6);
    }

    #[test]
    fn partitions_hold_messages_until_heal_time() {
        let plan = ChaosPlan::new(9).with_partitions(1.0, (50.0, 60.0));
        let msgs = envelopes(8); // sent at 100..108, round start 90
        let carried = ChaosTransport::over_virtual(plan).carry(2, 90.0, &msgs);
        assert_eq!(carried.stats.partition_held, 8);
        for d in &carried.deliveries {
            let heal = plan.partition_heal_s(2, d.client_id).unwrap();
            assert!((50.0..=60.0).contains(&heal));
            assert_eq!(d.t_arrive_s, d.t_send_s.max(90.0 + heal));
        }
        // A message sent after the heal passes through unheld.
        let late_sender = [Envelope {
            round: 2,
            client_id: 0,
            t_send_s: 90.0 + 61.0,
        }];
        let carried = ChaosTransport::over_virtual(plan).carry(2, 90.0, &late_sender);
        assert_eq!(carried.stats.partition_held, 0);
        assert_eq!(carried.deliveries[0].t_arrive_s, 151.0);
    }

    #[test]
    fn duplicates_arrive_after_their_original() {
        let msgs = envelopes(10);
        let carried = ChaosTransport::over_virtual(ChaosPlan::new(3).with_duplicates(1.0))
            .carry(0, 0.0, &msgs);
        assert_eq!(carried.stats.duplicated, 10);
        assert_eq!(carried.deliveries.len(), 20);
        for d in carried.deliveries.iter().filter(|d| d.copy == 1) {
            let original = carried
                .deliveries
                .iter()
                .find(|o| o.client_id == d.client_id && o.copy == 0)
                .unwrap();
            assert!(d.t_arrive_s > original.t_arrive_s);
        }
    }

    #[test]
    fn reordering_counts_send_order_inversions() {
        // Heavy jitter on close-together sends must invert some pairs.
        let msgs: Vec<Envelope> = (0..16)
            .map(|id| Envelope {
                round: 0,
                client_id: id,
                t_send_s: 10.0 + 0.1 * id as f64,
            })
            .collect();
        let carried = ChaosTransport::over_virtual(ChaosPlan::new(5).with_reordering(1.0, 20.0))
            .carry(0, 0.0, &msgs);
        assert!(carried.stats.reordered > 0);
        assert_eq!(carried.stats.dropped, 0);
    }
}
