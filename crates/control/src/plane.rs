//! The control plane: the fleet's state vector plus its event journal.
//!
//! [`ControlPlane`] is deliberately dumb — it owns *no* policy. It knows
//! the current [`ClientState`] of every client, refuses transitions
//! outside the contract with a typed [`TransitionError`], and journals
//! every transition it does apply. All decisions about *which* events to
//! emit (quorum closes, churn, retries) live in the engine; all rules
//! about which transitions are legal live in [`ClientState::next`].

use std::path::Path;
use std::sync::{Arc, Mutex};

use crate::journal::{EventCause, EventEntry, EventJournal, RoundClose, SeqGap};
use crate::state::{ClientEvent, ClientState, TransitionError};
use crate::transport::WireStats;
use crate::wal::{JournalWal, WalError, WalRecord};

/// Tracks every client's lifecycle state and journals transitions.
///
/// With a WAL attached (`ControlPlane::attach_wal`) every journalled
/// transition and round close is also logged to an on-disk write-ahead
/// log under its group-commit contract ([`crate::wal`]), and
/// [`ControlPlane::resume`] can rebuild the plane from that log after a
/// coordinator crash. Wire statistics are *not* persisted: they are
/// derived observability, reproduced by re-running.
#[derive(Debug, Clone)]
pub struct ControlPlane {
    states: Vec<ClientState>,
    journal: EventJournal,
    closes: Vec<RoundClose>,
    wire: Vec<(u32, WireStats)>,
    wal: Option<Arc<Mutex<JournalWal>>>,
}

impl ControlPlane {
    /// A plane over `clients` clients, all starting [`ClientState::Idle`].
    pub fn new(clients: usize) -> Self {
        ControlPlane {
            states: vec![ClientState::Idle; clients],
            journal: EventJournal::default(),
            closes: Vec::new(),
            wire: Vec::new(),
            wal: None,
        }
    }

    /// Arm the write-ahead log: from now on every journalled transition
    /// and round close is written to `wal` before the call that produced
    /// it returns. Transitions are visible there at once and durable once
    /// their round's close is (the group-commit contract in
    /// [`crate::wal`]).
    pub(crate) fn attach_wal(&mut self, wal: Arc<Mutex<JournalWal>>) {
        self.wal = Some(wal);
    }

    /// Grow the tracked fleet to at least `clients` entries (new clients
    /// start Idle). Shrinking is never done — ids are stable.
    pub(crate) fn ensure_clients(&mut self, clients: usize) {
        if self.states.len() < clients {
            self.states.resize(clients, ClientState::Idle);
        }
    }

    /// Number of clients tracked.
    pub fn num_clients(&self) -> usize {
        self.states.len()
    }

    /// Current state of one client.
    ///
    /// # Panics
    /// If `client` is out of range.
    pub fn state(&self, client: usize) -> ClientState {
        self.states[client]
    }

    /// The full state vector, indexed by client id.
    pub fn states(&self) -> &[ClientState] {
        &self.states
    }

    /// The event journal.
    pub fn journal(&self) -> &EventJournal {
        &self.journal
    }

    /// Every round close recorded so far, in round order.
    pub fn closes(&self) -> &[RoundClose] {
        &self.closes
    }

    /// Apply `event` to `client`, journalling the transition on success.
    /// An illegal `(state, event)` pair leaves both the state vector and
    /// the journal untouched and returns the typed error.
    pub fn apply(
        &mut self,
        client: usize,
        event: ClientEvent,
        cause: EventCause,
        round: usize,
        t_s: f64,
    ) -> Result<ClientState, TransitionError> {
        let from = self.states[client];
        let to = from.next(event).ok_or(TransitionError {
            client,
            from,
            event,
        })?;
        self.states[client] = to;
        let seq = self
            .journal
            .append(round as u32, client as u32, from, to, cause, t_s);
        if let Some(wal) = &self.wal {
            let entry = EventEntry {
                seq,
                round: round as u32,
                client: client as u32,
                from,
                to,
                cause,
                t_s,
            };
            wal.lock()
                .expect("journal WAL poisoned")
                .write_event(&entry)
                .expect("journal WAL write failed — the run is no longer crash-safe");
        }
        Ok(to)
    }

    /// Record how a round ended. `shards` is the number of aggregator
    /// shards the round ran with (0 when no shard plan was armed) and
    /// `shard_shortfalls` counts shards that closed below their local
    /// quorum.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn close_round(
        &mut self,
        round: usize,
        t_s: f64,
        accepted: usize,
        quorum: usize,
        closed_early: bool,
        degraded: bool,
        shards: usize,
        shard_shortfalls: usize,
    ) {
        let close = RoundClose {
            round: round as u32,
            t_s,
            accepted,
            quorum,
            quorum_met: accepted >= quorum,
            closed_early,
            degraded,
            shards,
            shard_shortfalls,
        };
        if let Some(wal) = &self.wal {
            wal.lock()
                .expect("journal WAL poisoned")
                .append_close(&close)
                .expect("journal WAL append failed — the run is no longer crash-safe");
        }
        self.closes.push(close);
    }

    /// Record what the transport did to one round's messages.
    pub(crate) fn record_wire(&mut self, round: usize, stats: WireStats) {
        self.wire.push((round as u32, stats));
    }

    /// The transport's wire statistics for `round`, if any were recorded.
    pub fn wire_stats(&self, round: usize) -> Option<WireStats> {
        self.wire
            .iter()
            .find(|(r, _)| *r == round as u32)
            .map(|(_, s)| *s)
    }

    /// Wire statistics accumulated over every recorded round.
    pub fn wire_totals(&self) -> WireStats {
        let mut total = WireStats::default();
        for (_, s) in &self.wire {
            total.merge(s);
        }
        total
    }

    /// Replay a journal slice over a fresh fleet of `clients` Idle
    /// clients and return the reconstructed state vector. Each entry's
    /// `from` must match the reconstructed current state and its
    /// `(from, to)` edge must be legal. Used by tests to prove the
    /// journal alone determines final states.
    pub fn replay<'a>(
        entries: impl IntoIterator<Item = &'a EventEntry>,
        clients: usize,
    ) -> Result<Vec<ClientState>, ReplayError> {
        let mut states = vec![ClientState::Idle; clients];
        for e in entries {
            let id = e.client as usize;
            let state = states.get_mut(id).ok_or(ReplayError::UnknownClient {
                seq: e.seq,
                client: id,
            })?;
            *state = replay_entry(*state, e)?;
        }
        Ok(states)
    }

    /// Rebuild a plane from the write-ahead log at `path` after a
    /// coordinator crash.
    ///
    /// Recovery is two truncations deep. [`JournalWal::open`] first cuts
    /// away the torn tail (a record the crash interrupted mid-write).
    /// Then the **last `Close` record is treated as the round commit
    /// marker**: whole event records after it belong to a round that
    /// never finished, so they are discarded and truncated too. The
    /// surviving prefix is replayed — with the same validation as
    /// [`ControlPlane::replay`], plus a strict sequence-number check —
    /// into a fresh plane whose journal, closes, state vector and virtual
    /// clock match the uninterrupted run at that round boundary exactly.
    /// The re-opened (truncated) WAL is attached to the returned plane,
    /// so the resumed run appends its re-executed round in place of the
    /// discarded one.
    ///
    /// # Errors
    ///
    /// - [`ResumeError::Wal`] — the file cannot be read or truncated.
    /// - [`ResumeError::Replay`] — a committed record contradicts the
    ///   transition contract (real corruption, not a torn tail).
    /// - [`ResumeError::SeqGap`] — committed event records are not a
    ///   gapless sequence from 0 (a missing or duplicated append).
    pub fn resume(
        path: &Path,
        clients: usize,
    ) -> Result<(ControlPlane, ResumeReport), ResumeError> {
        let (mut wal, records, torn_bytes) = JournalWal::open(path)?;
        let last_close = records
            .iter()
            .rposition(|(_, r)| matches!(r, WalRecord::Close(_)));
        // Everything after the last Close is an uncommitted in-flight
        // round: discard it so the resumed run re-executes that round.
        let committed = match last_close {
            Some(i) => i + 1,
            None => 0,
        };
        let commit_end = match records.get(committed) {
            Some((offset, _)) => *offset,
            None => wal.len(),
        };
        let in_flight_discarded = records.len() - committed;
        wal.truncate_to(commit_end)?;

        let mut plane = ControlPlane::new(clients);
        let mut now_s = 0.0_f64;
        let mut events_replayed = 0usize;
        for (_, record) in &records[..committed] {
            now_s = now_s.max(record.t_s());
            match record {
                WalRecord::Event(e) => {
                    // The sequence is checked before the edge, so a record
                    // that breaks both reports the gap.
                    plane.journal.adopt(*e)?;
                    let id = e.client as usize;
                    // The live run grows the fleet before applying churn
                    // events, so resume mirrors that instead of erroring.
                    plane.ensure_clients(id + 1);
                    plane.states[id] = replay_entry(plane.states[id], e)?;
                    events_replayed += 1;
                }
                WalRecord::Close(c) => plane.closes.push(*c),
            }
        }
        let next_round = match plane.closes.last() {
            Some(c) => c.round as usize + 1,
            None => 0,
        };
        plane.attach_wal(Arc::new(Mutex::new(wal)));
        Ok((
            plane,
            ResumeReport {
                next_round,
                now_s,
                events_replayed,
                in_flight_discarded,
                torn_bytes,
            },
        ))
    }
}

/// Checks one journalled transition against the reconstruction, which
/// holds the client in `current`: the entry's `from` must be `current`
/// and its `(from, to)` edge must be in the contract. Returns the state
/// the client moves to.
fn replay_entry(current: ClientState, e: &EventEntry) -> Result<ClientState, ReplayError> {
    let client = e.client as usize;
    if current != e.from {
        return Err(ReplayError::StateMismatch {
            seq: e.seq,
            client,
            expected: e.from,
            actual: current,
        });
    }
    if !ClientEvent::ALL
        .into_iter()
        .any(|event| current.next(event) == Some(e.to))
    {
        return Err(ReplayError::IllegalEdge {
            seq: e.seq,
            client,
            from: e.from,
            to: e.to,
        });
    }
    Ok(e.to)
}

/// What [`ControlPlane::resume`] reconstructed and discarded.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResumeReport {
    /// The first round the resumed run should execute (last committed
    /// round + 1; `0` if no round ever closed).
    pub next_round: usize,
    /// The virtual clock at the commit point — the resumed engine's
    /// `now_s`.
    pub now_s: f64,
    /// Committed event records replayed into the journal.
    pub events_replayed: usize,
    /// Whole records discarded because their round never closed.
    pub in_flight_discarded: usize,
    /// Torn-tail bytes (a record interrupted mid-write) cut by open.
    pub torn_bytes: u64,
}

/// Why a WAL resume was rejected.
#[derive(Debug)]
pub enum ResumeError {
    /// The log could not be read, decoded, or truncated.
    Wal(WalError),
    /// A committed record contradicts the transition contract.
    Replay(ReplayError),
    /// Committed event records are not a gapless sequence from 0.
    SeqGap {
        /// The sequence number the reconstruction expected next.
        expected: u64,
        /// The sequence number the record carried.
        found: u64,
    },
}

impl std::fmt::Display for ResumeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResumeError::Wal(e) => write!(f, "resume: {e}"),
            ResumeError::Replay(e) => write!(f, "resume: {e}"),
            ResumeError::SeqGap { expected, found } => {
                write!(f, "resume: expected event seq {expected}, found {found}")
            }
        }
    }
}

impl std::error::Error for ResumeError {}

impl From<WalError> for ResumeError {
    fn from(e: WalError) -> Self {
        ResumeError::Wal(e)
    }
}

impl From<std::io::Error> for ResumeError {
    fn from(e: std::io::Error) -> Self {
        ResumeError::Wal(WalError::Io(e))
    }
}

impl From<SeqGap> for ResumeError {
    fn from(gap: SeqGap) -> Self {
        ResumeError::SeqGap {
            expected: gap.expected,
            found: gap.found,
        }
    }
}

impl From<ReplayError> for ResumeError {
    fn from(e: ReplayError) -> Self {
        ResumeError::Replay(e)
    }
}

/// Why a journal replay was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplayError {
    /// An entry referenced a client id outside the fleet.
    UnknownClient {
        /// Sequence number of the offending entry.
        seq: u64,
        /// The out-of-range client id.
        client: usize,
    },
    /// An entry's `from` state disagreed with the reconstruction.
    StateMismatch {
        /// Sequence number of the offending entry.
        seq: u64,
        /// The client whose state diverged.
        client: usize,
        /// The state the entry claimed.
        expected: ClientState,
        /// The state the reconstruction holds.
        actual: ClientState,
    },
    /// An entry's `(from, to)` edge has no event in the contract.
    IllegalEdge {
        /// Sequence number of the offending entry.
        seq: u64,
        /// The client with the illegal edge.
        client: usize,
        /// The claimed source state.
        from: ClientState,
        /// The claimed destination state.
        to: ClientState,
    },
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayError::UnknownClient { seq, client } => {
                write!(f, "entry {seq}: unknown client {client}")
            }
            ReplayError::StateMismatch {
                seq,
                client,
                expected,
                actual,
            } => write!(
                f,
                "entry {seq}: client {client} claimed state `{expected}` but replay holds `{actual}`"
            ),
            ReplayError::IllegalEdge {
                seq,
                client,
                from,
                to,
            } => write!(
                f,
                "entry {seq}: client {client} edge `{from}` -> `{to}` is not in the contract"
            ),
        }
    }
}

impl std::error::Error for ReplayError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::{ClientEvent as E, ClientState as S};

    #[test]
    fn apply_journals_legal_transitions_only() {
        let mut plane = ControlPlane::new(2);
        plane
            .apply(0, E::Select, EventCause::Selection, 0, 0.0)
            .unwrap();
        let err = plane
            .apply(1, E::Accept, EventCause::UploadDelivered, 0, 0.0)
            .unwrap_err();
        assert_eq!(
            err,
            TransitionError {
                client: 1,
                from: S::Idle,
                event: E::Accept
            }
        );
        assert_eq!(plane.state(0), S::Selected);
        assert_eq!(plane.state(1), S::Idle);
        assert_eq!(plane.journal().len(), 1);
    }

    #[test]
    fn replay_reconstructs_final_states() {
        let mut plane = ControlPlane::new(3);
        for (client, event, cause) in [
            (0usize, E::Select, EventCause::Selection),
            (0, E::Start, EventCause::RoundStart),
            (0, E::Finish, EventCause::TrainingComplete),
            (0, E::Accept, EventCause::UploadDelivered),
            (1, E::Depart, EventCause::ChurnDeparture),
            (2, E::Select, EventCause::Selection),
            (2, E::Drop, EventCause::ServerDropout),
        ] {
            plane.apply(client, event, cause, 0, 0.0).unwrap();
        }
        let entries: Vec<EventEntry> = plane.journal().iter().copied().collect();
        let rebuilt = ControlPlane::replay(entries.iter(), 3).unwrap();
        assert_eq!(rebuilt, plane.states());
    }

    #[test]
    fn replay_rejects_tampered_entries() {
        let mut plane = ControlPlane::new(1);
        plane
            .apply(0, E::Select, EventCause::Selection, 0, 0.0)
            .unwrap();
        let mut entries: Vec<EventEntry> = plane.journal().iter().copied().collect();
        entries[0].from = S::Training;
        assert!(matches!(
            ControlPlane::replay(entries.iter(), 1),
            Err(ReplayError::StateMismatch { .. })
        ));
        entries[0].from = S::Idle;
        entries[0].to = S::Aggregated;
        assert!(matches!(
            ControlPlane::replay(entries.iter(), 1),
            Err(ReplayError::IllegalEdge { .. })
        ));
    }

    #[test]
    fn close_round_records_quorum_bookkeeping() {
        let mut plane = ControlPlane::new(4);
        plane.close_round(0, 30.0, 3, 2, true, false, 0, 0);
        plane.close_round(1, 61.5, 1, 2, false, true, 4, 1);
        assert_eq!(plane.closes().len(), 2);
        assert!(plane.closes()[0].quorum_met);
        assert!(plane.closes()[0].closed_early);
        assert!(!plane.closes()[0].degraded);
        assert_eq!(plane.closes()[0].shards, 0);
        assert!(!plane.closes()[1].quorum_met);
        assert!(plane.closes()[1].degraded);
        assert_eq!(plane.closes()[1].shards, 4);
        assert_eq!(plane.closes()[1].shard_shortfalls, 1);
    }

    fn wal_path(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("bofl-plane-{}-{name}.wal", std::process::id()))
    }

    fn drive_round(plane: &mut ControlPlane, round: usize, t0: f64) {
        for client in 0..2usize {
            plane
                .apply(client, E::Select, EventCause::Selection, round, t0)
                .unwrap();
            plane
                .apply(client, E::Start, EventCause::RoundStart, round, t0)
                .unwrap();
            plane
                .apply(
                    client,
                    E::Finish,
                    EventCause::TrainingComplete,
                    round,
                    t0 + 5.0,
                )
                .unwrap();
            plane
                .apply(
                    client,
                    E::Accept,
                    EventCause::UploadDelivered,
                    round,
                    t0 + 6.0,
                )
                .unwrap();
        }
        // Mirror the engine's commit order: resets first, then the Close
        // record as the round's commit marker.
        for client in 0..2usize {
            plane
                .apply(client, E::Reset, EventCause::RoundReset, round, t0 + 10.0)
                .unwrap();
        }
        plane.close_round(round, t0 + 7.0, 2, 2, false, false, 0, 0);
    }

    #[test]
    fn resume_rebuilds_the_plane_from_the_wal() {
        let path = wal_path("round-trip");
        let mut plane = ControlPlane::new(3);
        plane.attach_wal(std::sync::Arc::new(std::sync::Mutex::new(
            crate::wal::JournalWal::create(&path).unwrap(),
        )));
        drive_round(&mut plane, 0, 0.0);
        drive_round(&mut plane, 1, 10.0);
        drop(plane.wal.take());

        let (resumed, report) = ControlPlane::resume(&path, 3).unwrap();
        assert_eq!(report.next_round, 2);
        assert_eq!(report.in_flight_discarded, 0);
        assert_eq!(report.torn_bytes, 0);
        assert_eq!(report.events_replayed, 20);
        assert_eq!(report.now_s, 20.0);
        assert_eq!(resumed.journal().total_appended(), 20);
        assert_eq!(resumed.closes().len(), 2);
        assert!(resumed.states().iter().all(|s| *s == S::Idle));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn the_wal_keeps_what_a_small_ring_evicts() {
        let path = wal_path("small-ring");
        let mut plane = ControlPlane {
            journal: EventJournal::with_capacity(4),
            ..ControlPlane::new(2)
        };
        plane.attach_wal(Arc::new(Mutex::new(JournalWal::create(&path).unwrap())));
        drive_round(&mut plane, 0, 0.0);
        drive_round(&mut plane, 1, 10.0);
        drop(plane.wal.take());
        // The ring is bounded, and the WAL holds every transition it
        // evicted: a default-size ring resumed from it holds all 20.
        assert_eq!((plane.journal().len(), plane.journal().evicted()), (4, 16));
        let (resumed, _) = ControlPlane::resume(&path, 2).unwrap();
        assert_eq!(resumed.journal().len(), 20);
        assert!(resumed.journal().iter().skip(16).eq(plane.journal().iter()));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resume_discards_the_uncommitted_round_and_continues() {
        let path = wal_path("in-flight");
        let mut plane = ControlPlane::new(3);
        plane.attach_wal(std::sync::Arc::new(std::sync::Mutex::new(
            crate::wal::JournalWal::create(&path).unwrap(),
        )));
        drive_round(&mut plane, 0, 0.0);
        // Round 1 starts but the coordinator dies before its close.
        plane
            .apply(0, E::Select, EventCause::Selection, 1, 10.0)
            .unwrap();
        plane
            .apply(0, E::Start, EventCause::RoundStart, 1, 10.0)
            .unwrap();
        let committed_journal: Vec<EventEntry> = plane.journal().iter().take(10).copied().collect();
        drop(plane.wal.take());
        // A torn half-record on top, as a crash mid-append would leave.
        {
            use std::io::Write;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .unwrap();
            f.write_all(&[0xB0, 0xF1]).unwrap();
        }

        let (resumed, report) = ControlPlane::resume(&path, 3).unwrap();
        assert_eq!(report.next_round, 1);
        assert_eq!(report.in_flight_discarded, 2);
        assert!(report.torn_bytes > 0);
        assert_eq!(report.events_replayed, 10);
        assert_eq!(resumed.state(0), S::Idle, "in-flight Select was discarded");
        let replayed: Vec<EventEntry> = resumed.journal().iter().copied().collect();
        assert_eq!(replayed, committed_journal);
        assert_eq!(resumed.closes().len(), 1);
        // The resumed plane keeps logging into the truncated WAL: its
        // sequence numbers continue where the committed prefix ended.
        let mut resumed = resumed;
        drive_round(&mut resumed, 1, 10.0);
        drop(resumed.wal.take());
        let (again, report) = ControlPlane::resume(&path, 3).unwrap();
        assert_eq!(report.next_round, 2);
        assert_eq!(report.in_flight_discarded, 0);
        assert_eq!(again.journal().total_appended(), 20);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resume_rejects_a_corrupt_committed_prefix() {
        let path = wal_path("seq-gap");
        {
            let mut wal = crate::wal::JournalWal::create(&path).unwrap();
            wal.write_event(&EventEntry {
                seq: 5, // gap: first record must be seq 0
                round: 0,
                client: 0,
                from: S::Idle,
                to: S::Selected,
                cause: EventCause::Selection,
                t_s: 0.0,
            })
            .unwrap();
            wal.append_close(&RoundClose {
                round: 0,
                t_s: 1.0,
                accepted: 1,
                quorum: 1,
                quorum_met: true,
                closed_early: false,
                degraded: false,
                shards: 0,
                shard_shortfalls: 0,
            })
            .unwrap();
        }
        assert!(matches!(
            ControlPlane::resume(&path, 1),
            Err(ResumeError::SeqGap {
                expected: 0,
                found: 5
            })
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn wire_stats_are_recorded_per_round() {
        let mut plane = ControlPlane::new(2);
        assert_eq!(plane.wire_stats(0), None);
        plane.record_wire(
            0,
            WireStats {
                sent: 4,
                dropped: 1,
                ..WireStats::default()
            },
        );
        plane.record_wire(
            1,
            WireStats {
                sent: 3,
                delayed: 2,
                ..WireStats::default()
            },
        );
        assert_eq!(plane.wire_stats(0).unwrap().dropped, 1);
        assert_eq!(plane.wire_stats(1).unwrap().delayed, 2);
        let totals = plane.wire_totals();
        assert_eq!(totals.sent, 7);
        assert_eq!(totals.dropped, 1);
        assert_eq!(totals.delayed, 2);
    }
}
