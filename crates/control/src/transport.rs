//! The [`Transport`] seam: how finished updates travel from clients to
//! the server.
//!
//! The event-driven engine used to *assume* delivery: a finished update
//! arrived at exactly its virtual send time. This module turns that
//! assumption into a trait so the wire becomes pluggable:
//!
//! - [`VirtualTransport`] — the identity carrier. Every message arrives
//!   at its send time; byte-identical to the pre-transport engine.
//! - [`crate::socket::SocketTransport`] — the same contract carried over
//!   real localhost TCP lanes. Lanes race on the OS scheduler, but
//!   arrival *times* are virtual, so sorting the collected deliveries
//!   restores the deterministic timeline: with zero faults the journal is
//!   byte-identical to [`VirtualTransport`] at any lane count.
//! - [`crate::chaos::ChaosTransport`] — a decorator over either of the
//!   above that injects seeded delay, drop, duplication, reordering and
//!   partitions.
//!
//! # The contract
//!
//! [`Transport::carry`] receives one round's outgoing [`Envelope`]s and
//! returns [`Carried`]: the surviving [`Delivery`] records **sorted by
//! `(t_arrive_s, client_id, copy)`** plus [`WireStats`] totals. A carrier
//! may drop messages (absent from the output), delay them
//! (`t_arrive_s > t_send_s`), or duplicate them (`copy > 0`), but must
//! never invent a client that did not send, and must be a pure function
//! of `(round, t0_s, messages)` plus its own seeded configuration —
//! thread scheduling must not leak into the output.

/// One update leaving a client, stamped with its virtual send time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Envelope {
    /// Federation round the update belongs to.
    pub round: usize,
    /// The sending client.
    pub client_id: usize,
    /// Virtual send time, simulated seconds since the run began
    /// (training finish plus any retry backoff).
    pub t_send_s: f64,
}

/// One update arriving at the server.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Delivery {
    /// The sending client.
    pub client_id: usize,
    /// When the client sent it.
    pub t_send_s: f64,
    /// When the server receives it (`>= t_send_s`).
    pub t_arrive_s: f64,
    /// Duplicate index: `0` is the original, `1..` are injected copies.
    pub copy: u32,
}

/// What the wire did to one round's messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WireStats {
    /// Envelopes handed to the carrier.
    pub sent: usize,
    /// Envelopes lost outright (no copy arrived).
    pub dropped: usize,
    /// Envelopes that arrived later than they were sent.
    pub delayed: usize,
    /// Extra copies injected beyond the originals.
    pub duplicated: usize,
    /// Original deliveries overtaken on the wire: a message sent strictly
    /// later arrived strictly earlier.
    pub reordered: usize,
    /// Envelopes held back by an unhealed partition at send time.
    pub partition_held: usize,
    /// Simulated application bytes actually put on the wire (compressed
    /// encoding; `0` when the engine has no compressor armed).
    pub bytes_on_wire: u64,
    /// Bytes the same payloads would have cost as dense f64 updates.
    pub bytes_raw: u64,
}

impl WireStats {
    /// Element-wise accumulate (for multi-round totals).
    pub(crate) fn merge(&mut self, other: &WireStats) {
        self.sent += other.sent;
        self.dropped += other.dropped;
        self.delayed += other.delayed;
        self.duplicated += other.duplicated;
        self.reordered += other.reordered;
        self.partition_held += other.partition_held;
        self.bytes_on_wire += other.bytes_on_wire;
        self.bytes_raw += other.bytes_raw;
    }
}

/// The result of carrying one round's messages.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Carried {
    /// Surviving deliveries, sorted by `(t_arrive_s, client_id, copy)`.
    pub deliveries: Vec<Delivery>,
    /// What happened on the wire.
    pub stats: WireStats,
}

/// A carrier of one round's updates from clients to the server.
///
/// Implementations must be deterministic: the same `(round, t0_s,
/// messages)` on any thread, any machine, any number of internal lanes
/// must produce the same [`Carried`].
pub trait Transport: Send {
    /// Short human-readable name (shows up in debug output).
    fn label(&self) -> &str;

    /// Carry `messages` sent during the round that started at `t0_s`.
    /// The returned deliveries must be sorted by
    /// `(t_arrive_s, client_id, copy)`.
    fn carry(&mut self, round: usize, t0_s: f64, messages: &[Envelope]) -> Carried;

    /// Clone into a box (object-safe `Clone`).
    fn clone_box(&self) -> Box<dyn Transport>;
}

impl Clone for Box<dyn Transport> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

impl std::fmt::Debug for Box<dyn Transport> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Transport({})", self.label())
    }
}

/// Sort deliveries into the canonical `(t_arrive_s, client_id, copy)`
/// order every carrier must return.
pub fn sort_deliveries(deliveries: &mut [Delivery]) {
    deliveries.sort_by(|a, b| {
        a.t_arrive_s
            .total_cmp(&b.t_arrive_s)
            .then_with(|| a.client_id.cmp(&b.client_id))
            .then_with(|| a.copy.cmp(&b.copy))
    });
}

/// Count original (`copy == 0`) deliveries overtaken on the wire: a
/// message sent strictly later arrived strictly earlier. Quadratic, but
/// cohorts are small and the count is only bookkeeping.
pub(crate) fn count_reordered(deliveries: &[Delivery]) -> usize {
    let originals: Vec<&Delivery> = deliveries.iter().filter(|d| d.copy == 0).collect();
    originals
        .iter()
        .filter(|d| {
            originals
                .iter()
                .any(|e| e.t_send_s > d.t_send_s && e.t_arrive_s < d.t_arrive_s)
        })
        .count()
}

/// The identity carrier: every message arrives exactly when it was sent.
/// This is the pre-transport engine's behavior, kept as the default so
/// existing journals stay byte-identical.
#[derive(Debug, Clone, Copy, Default)]
pub struct VirtualTransport;

impl Transport for VirtualTransport {
    fn label(&self) -> &str {
        "virtual"
    }

    fn carry(&mut self, _round: usize, _t0_s: f64, messages: &[Envelope]) -> Carried {
        let mut deliveries: Vec<Delivery> = messages
            .iter()
            .map(|m| Delivery {
                client_id: m.client_id,
                t_send_s: m.t_send_s,
                t_arrive_s: m.t_send_s,
                copy: 0,
            })
            .collect();
        sort_deliveries(&mut deliveries);
        Carried {
            deliveries,
            stats: WireStats {
                sent: messages.len(),
                ..WireStats::default()
            },
        }
    }

    fn clone_box(&self) -> Box<dyn Transport> {
        Box::new(*self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn envelopes() -> Vec<Envelope> {
        (0..7)
            .map(|id| Envelope {
                round: 0,
                client_id: id,
                t_send_s: 10.0 + (7 - id) as f64, // reverse send order
            })
            .collect()
    }

    #[test]
    fn virtual_transport_is_the_identity() {
        let msgs = envelopes();
        let carried = VirtualTransport.carry(0, 0.0, &msgs);
        assert_eq!(carried.stats.sent, 7);
        assert_eq!(carried.stats.dropped, 0);
        assert_eq!(carried.deliveries.len(), 7);
        for d in &carried.deliveries {
            assert_eq!(d.t_arrive_s, d.t_send_s);
            assert_eq!(d.copy, 0);
        }
        // Canonical order: ascending arrival time.
        let times: Vec<f64> = carried.deliveries.iter().map(|d| d.t_arrive_s).collect();
        let mut sorted = times.clone();
        sorted.sort_by(f64::total_cmp);
        assert_eq!(times, sorted);
    }

    #[test]
    fn reorder_count_sees_send_order_inversions() {
        let mut deliveries = vec![
            Delivery {
                client_id: 0,
                t_send_s: 1.0,
                t_arrive_s: 5.0,
                copy: 0,
            },
            Delivery {
                client_id: 1,
                t_send_s: 2.0,
                t_arrive_s: 3.0,
                copy: 0,
            },
            Delivery {
                client_id: 2,
                t_send_s: 4.0,
                t_arrive_s: 6.0,
                copy: 1, // copies never count
            },
        ];
        sort_deliveries(&mut deliveries);
        // Client 0 was overtaken by client 1.
        assert_eq!(count_reordered(&deliveries), 1);
    }

    #[test]
    fn wire_stats_merge_accumulates() {
        let mut total = WireStats::default();
        total.merge(&WireStats {
            sent: 5,
            dropped: 1,
            delayed: 2,
            duplicated: 1,
            reordered: 1,
            partition_held: 1,
            bytes_on_wire: 100,
            bytes_raw: 800,
        });
        total.merge(&WireStats {
            sent: 3,
            ..WireStats::default()
        });
        assert_eq!(total.sent, 8);
        assert_eq!(total.dropped, 1);
        assert_eq!(total.delayed, 2);
        assert_eq!(total.bytes_on_wire, 100);
        assert_eq!(total.bytes_raw, 800);
    }
}
