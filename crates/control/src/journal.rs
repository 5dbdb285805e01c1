//! The bounded event journal.
//!
//! Every successful transition the control plane applies is appended
//! here as an [`EventEntry`]: a monotonically increasing sequence
//! number, the round, the client, the `(from, to)` edge, a semantic
//! [`EventCause`], and a *virtual* timestamp in simulated seconds. The
//! ring is bounded — old entries are evicted once `capacity` is reached —
//! but sequence numbers never reset, so a reader can always tell whether
//! (and how much of) the prefix was evicted.
//!
//! Timestamps are virtual, derived from simulated training durations and
//! retry backoff, never from the wall clock. That is what makes the
//! journal byte-identical across worker counts: the OS scheduler decides
//! when a worker thread *computes* an outcome, but not when the modelled
//! update would have *arrived*.

use std::collections::VecDeque;
use std::io;
use std::path::Path;

use crate::state::ClientState;

/// The journal ring's capacity: comfortably holds several hundred rounds
/// of a mid-size cohort before eviction begins (the WAL keeps the rest).
pub(crate) const DEFAULT_JOURNAL_CAPACITY: usize = 65_536;

/// Why a transition happened — the semantic tag alongside the raw
/// `(from, to)` edge, so exports stay interpretable without cross-
/// referencing engine internals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum EventCause {
    /// Churn: the client rejoined the fleet.
    ChurnArrival = 0,
    /// Churn: the client left the fleet.
    ChurnDeparture = 1,
    /// The server invited the client into the round.
    Selection = 2,
    /// Training began.
    RoundStart = 3,
    /// The deadline guardian escalated the remaining jobs mid-round.
    GuardianEscalation = 4,
    /// The controller quarantined contaminated observations.
    ObservationQuarantine = 5,
    /// Local training finished; the update entered the uplink.
    TrainingComplete = 6,
    /// The update arrived on the first upload attempt.
    UploadDelivered = 7,
    /// The update arrived after at least one upload retry.
    UploadRecovered = 8,
    /// The server's own dropout draw removed the client pre-round.
    ServerDropout = 9,
    /// The fault plan's dropout draw removed the client mid-round.
    FaultDropout = 10,
    /// Training overran the round deadline.
    DeadlineMiss = 11,
    /// Every upload attempt within the retry budget failed.
    UploadFailure = 12,
    /// The update arrived after the round had closed on its quorum.
    RoundClosed = 13,
    /// End-of-round housekeeping returned the client to the pool.
    RoundReset = 14,
    /// The liveness tracker's heartbeat deadline lapsed with the report
    /// still outstanding.
    LivenessSuspect = 15,
    /// A suspected client's update arrived after all (delayed packet or
    /// healed partition).
    LivenessHeal = 16,
    /// A suspected client stayed silent past its expiry deadline and was
    /// declared dead for the round.
    LivenessExpired = 17,
    /// The transport lost the update outright (chaos drop or a partition
    /// that outlived the round) and no liveness tracker was armed to
    /// notice earlier.
    TransportLoss = 18,
    /// The client's aggregator shard closed the round under its local
    /// quorum — the client's reset carries the shard's distress signal so
    /// an operator can localize *where* in the tree the cohort starved.
    ShardQuorumShortfall = 19,
}

impl EventCause {
    /// Every cause, in discriminant order (for exhaustive table tests and
    /// binary decoding).
    pub const ALL: [EventCause; 20] = [
        EventCause::ChurnArrival,
        EventCause::ChurnDeparture,
        EventCause::Selection,
        EventCause::RoundStart,
        EventCause::GuardianEscalation,
        EventCause::ObservationQuarantine,
        EventCause::TrainingComplete,
        EventCause::UploadDelivered,
        EventCause::UploadRecovered,
        EventCause::ServerDropout,
        EventCause::FaultDropout,
        EventCause::DeadlineMiss,
        EventCause::UploadFailure,
        EventCause::RoundClosed,
        EventCause::RoundReset,
        EventCause::LivenessSuspect,
        EventCause::LivenessHeal,
        EventCause::LivenessExpired,
        EventCause::TransportLoss,
        EventCause::ShardQuorumShortfall,
    ];

    /// The cause with discriminant `b`, if any — the inverse of `as u8`,
    /// used when decoding binary journal records (the WAL).
    pub(crate) fn from_u8(b: u8) -> Option<EventCause> {
        EventCause::ALL.get(b as usize).copied()
    }

    /// Stable lowercase name (journal CSV/JSONL vocabulary).
    pub(crate) fn as_str(&self) -> &'static str {
        match self {
            EventCause::ChurnArrival => "churn_arrival",
            EventCause::ChurnDeparture => "churn_departure",
            EventCause::Selection => "selection",
            EventCause::RoundStart => "round_start",
            EventCause::GuardianEscalation => "guardian_escalation",
            EventCause::ObservationQuarantine => "observation_quarantine",
            EventCause::TrainingComplete => "training_complete",
            EventCause::UploadDelivered => "upload_delivered",
            EventCause::UploadRecovered => "upload_recovered",
            EventCause::ServerDropout => "server_dropout",
            EventCause::FaultDropout => "fault_dropout",
            EventCause::DeadlineMiss => "deadline_miss",
            EventCause::UploadFailure => "upload_failure",
            EventCause::RoundClosed => "round_closed",
            EventCause::RoundReset => "round_reset",
            EventCause::LivenessSuspect => "liveness_suspect",
            EventCause::LivenessHeal => "liveness_heal",
            EventCause::LivenessExpired => "liveness_expired",
            EventCause::TransportLoss => "transport_loss",
            EventCause::ShardQuorumShortfall => "shard_quorum_shortfall",
        }
    }
}

impl std::fmt::Display for EventCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One round's journalled entries counted by [`EventCause`]; index it
/// with a cause. Built by [`EventJournal::cause_counts`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CauseCounts([usize; EventCause::ALL.len()]);

impl std::ops::Index<EventCause> for CauseCounts {
    type Output = usize;

    fn index(&self, cause: EventCause) -> &usize {
        &self.0[cause as usize]
    }
}

/// One journalled transition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EventEntry {
    /// Monotonic sequence number; survives ring eviction.
    pub seq: u64,
    /// Federation round the transition belongs to.
    pub round: u32,
    /// Client id.
    pub client: u32,
    /// State before the transition.
    pub from: ClientState,
    /// State after the transition.
    pub to: ClientState,
    /// Semantic reason for the transition.
    pub cause: EventCause,
    /// Virtual timestamp, simulated seconds since the run began.
    pub t_s: f64,
}

impl EventEntry {
    /// The entry as one CSV row (no trailing newline).
    pub(crate) fn to_csv_row(self) -> String {
        format!(
            "{},{},{},{},{},{},{:.6}",
            self.seq,
            self.round,
            self.client,
            self.from.as_str(),
            self.to.as_str(),
            self.cause.as_str(),
            self.t_s
        )
    }

    /// The entry as one JSON object (no trailing newline). Hand-rolled:
    /// every field is numeric or from a fixed lowercase vocabulary, so
    /// no escaping is needed.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"seq\":{},\"round\":{},\"client\":{},\"from\":\"{}\",\"to\":\"{}\",\"cause\":\"{}\",\"t_s\":{:.6}}}",
            self.seq,
            self.round,
            self.client,
            self.from.as_str(),
            self.to.as_str(),
            self.cause.as_str(),
            self.t_s
        )
    }
}

/// How a round ended: the quorum bookkeeping the server consults when it
/// decides whether the global step is usable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundClose {
    /// The round that closed.
    pub round: u32,
    /// Virtual close time (seconds since the run began).
    pub t_s: f64,
    /// Updates accepted into the aggregate.
    pub accepted: usize,
    /// The minimum acceptances the aggregation policy demanded.
    pub quorum: usize,
    /// Whether `accepted >= quorum`.
    pub quorum_met: bool,
    /// Whether the round closed on its aggregation target while work
    /// with a later virtual time was still outstanding (in practice only
    /// possible with over-selection; a close landing on the round's final
    /// event is just the barrier behavior).
    pub closed_early: bool,
    /// Whether the round closed in *degraded mode*: the liveness tracker
    /// concluded the close target was unreachable (outstanding reports
    /// lost, expired, or partitioned away) and closed on whatever had
    /// been accepted instead of waiting. A degraded close arms
    /// over-selection escalation for the next round.
    pub degraded: bool,
    /// How many aggregator shards the round's cohort was partitioned
    /// into (`0` when no shard plan was armed).
    pub shards: usize,
    /// How many of those shards closed under their local quorum.
    pub shard_shortfalls: usize,
}

impl RoundClose {
    /// The close as one JSON object (no trailing newline) — the
    /// vocabulary `journal_tail --closes` interleaves with event lines.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"close\":{{\"round\":{},\"t_s\":{:.6},\"accepted\":{},\"quorum\":{},\"quorum_met\":{},\"closed_early\":{},\"degraded\":{},\"shards\":{},\"shard_shortfalls\":{}}}}}",
            self.round,
            self.t_s,
            self.accepted,
            self.quorum,
            self.quorum_met,
            self.closed_early,
            self.degraded,
            self.shards,
            self.shard_shortfalls
        )
    }
}

/// A WAL entry whose sequence number does not continue the journal's
/// own counter: [`EventJournal::adopt`] refuses it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SeqGap {
    /// The sequence number the journal expected next.
    pub(crate) expected: u64,
    /// The sequence number the entry carried.
    pub(crate) found: u64,
}

/// A bounded ring of [`EventEntry`] with a never-resetting sequence
/// counter.
#[derive(Debug, Clone)]
pub struct EventJournal {
    entries: VecDeque<EventEntry>,
    capacity: usize,
    next_seq: u64,
    evicted: u64,
}

impl EventJournal {
    /// An empty journal with the given ring capacity (min 1).
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        EventJournal {
            entries: VecDeque::new(),
            capacity: capacity.max(1),
            next_seq: 0,
            evicted: 0,
        }
    }

    /// Append one transition, evicting the oldest entry if the ring is
    /// full. Returns the sequence number assigned to the entry.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn append(
        &mut self,
        round: u32,
        client: u32,
        from: ClientState,
        to: ClientState,
        cause: EventCause,
        t_s: f64,
    ) -> u64 {
        let seq = self.next_seq;
        self.push(EventEntry {
            seq,
            round,
            client,
            from,
            to,
            cause,
            t_s,
        });
        seq
    }

    /// Re-adopt an entry replayed from a write-ahead log, preserving its
    /// original sequence number. The entry must continue this journal's
    /// own counter exactly; anything else is refused as a [`SeqGap`] and
    /// leaves the journal unchanged.
    pub(crate) fn adopt(&mut self, e: EventEntry) -> Result<(), SeqGap> {
        if e.seq != self.next_seq {
            return Err(SeqGap {
                expected: self.next_seq,
                found: e.seq,
            });
        }
        self.push(e);
        Ok(())
    }

    /// Push `e`, whose sequence number is the next one, evicting the
    /// oldest entry if the ring is full.
    fn push(&mut self, e: EventEntry) {
        self.next_seq += 1;
        if self.entries.len() == self.capacity {
            self.entries.pop_front();
            self.evicted += 1;
        }
        self.entries.push_back(e);
    }

    /// Entries currently held, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &EventEntry> {
        self.entries.iter()
    }

    /// Number of entries currently held (≤ capacity).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the ring holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total transitions ever journalled (including evicted ones).
    pub fn total_appended(&self) -> u64 {
        self.next_seq
    }

    /// Entries evicted from the front of the ring so far.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Tally the entries held for `round` by cause. The engine journals
    /// rounds in non-decreasing order (`tests/journal_rounds.rs` pins it,
    /// resumed runs included), so the scan runs back from the newest
    /// entry, past any later round's, and stops at the first entry of an
    /// earlier round. Entries applied by hand out of round order are
    /// counted only from the newest run of `round`.
    pub fn cause_counts(&self, round: u32) -> CauseCounts {
        let mut counts = CauseCounts::default();
        for e in self
            .entries
            .iter()
            .rev()
            .skip_while(|e| e.round > round)
            .take_while(|e| e.round == round)
        {
            counts.0[e.cause as usize] += 1;
        }
        counts
    }

    /// The whole journal as CSV (header + one row per entry).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("seq,round,client,from,to,cause,t_s\n");
        for e in &self.entries {
            out.push_str(&e.to_csv_row());
            out.push('\n');
        }
        out
    }

    /// The whole journal as JSONL (one JSON object per line).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for e in &self.entries {
            out.push_str(&e.to_json());
            out.push('\n');
        }
        out
    }

    /// Write the CSV export crash-safely (temp file + rename), creating
    /// parent directories as needed.
    pub(crate) fn write_csv(&self, path: &Path) -> io::Result<()> {
        bofl_fleet::metrics::write_atomic(path, &self.to_csv())
    }

    /// Write the JSONL export crash-safely (temp file + rename), creating
    /// parent directories as needed.
    pub(crate) fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        bofl_fleet::metrics::write_atomic(path, &self.to_jsonl())
    }
}

impl Default for EventJournal {
    fn default() -> Self {
        EventJournal::with_capacity(DEFAULT_JOURNAL_CAPACITY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::ClientState as S;

    fn entry(journal: &mut EventJournal, seq_hint: u32) -> u64 {
        journal.append(
            seq_hint,
            seq_hint,
            S::Idle,
            S::Selected,
            EventCause::Selection,
            seq_hint as f64,
        )
    }

    #[test]
    fn sequence_numbers_survive_eviction() {
        let mut j = EventJournal::with_capacity(2);
        for i in 0..5 {
            let seq = entry(&mut j, i);
            assert_eq!(seq, i as u64);
        }
        assert_eq!(j.len(), 2);
        assert_eq!(j.evicted(), 3);
        assert_eq!(j.total_appended(), 5);
        let seqs: Vec<u64> = j.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![3, 4]);
    }

    #[test]
    fn csv_and_jsonl_have_fixed_shape() {
        let mut j = EventJournal::default();
        j.append(
            2,
            7,
            S::Reporting,
            S::Aggregated,
            EventCause::UploadDelivered,
            12.5,
        );
        assert_eq!(
            j.to_csv(),
            "seq,round,client,from,to,cause,t_s\n0,2,7,reporting,aggregated,upload_delivered,12.500000\n"
        );
        assert_eq!(
            j.to_jsonl(),
            "{\"seq\":0,\"round\":2,\"client\":7,\"from\":\"reporting\",\"to\":\"aggregated\",\"cause\":\"upload_delivered\",\"t_s\":12.500000}\n"
        );
    }

    #[test]
    fn churn_counts_filter_by_round() {
        let mut j = EventJournal::default();
        j.append(0, 1, S::Idle, S::Departed, EventCause::ChurnDeparture, 0.0);
        j.append(1, 1, S::Departed, S::Idle, EventCause::ChurnArrival, 1.0);
        j.append(1, 2, S::Idle, S::Departed, EventCause::ChurnDeparture, 1.0);
        j.append(1, 3, S::Idle, S::Selected, EventCause::Selection, 1.0);
        let churn = |round| {
            let counts = j.cause_counts(round);
            (
                counts[EventCause::ChurnArrival],
                counts[EventCause::ChurnDeparture],
            )
        };
        assert_eq!(churn(0), (0, 1));
        assert_eq!(churn(1), (1, 1));
        assert_eq!(churn(2), (0, 0));
        assert_eq!(j.cause_counts(1)[EventCause::Selection], 1);
    }

    #[test]
    fn out_of_sequence_adopts_are_refused_and_change_nothing() {
        let mut j = EventJournal::with_capacity(2);
        for i in 0..3 {
            entry(&mut j, i);
        }
        let held: Vec<EventEntry> = j.iter().copied().collect();
        for seq in [0, 2, 4, u64::MAX] {
            let gap = SeqGap {
                expected: 3,
                found: seq,
            };
            assert_eq!(j.adopt(EventEntry { seq, ..held[1] }), Err(gap));
            assert!(j.iter().eq(&held));
            assert_eq!((j.total_appended(), j.evicted()), (3, 1));
        }
        assert_eq!(j.adopt(EventEntry { seq: 3, ..held[1] }), Ok(()));
        assert!(j.iter().map(|e| e.seq).eq([2, 3]));
        assert_eq!((j.total_appended(), j.evicted()), (4, 2));
    }
}
