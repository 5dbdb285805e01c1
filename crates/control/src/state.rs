//! The per-client lifecycle state machine.
//!
//! Every client the control plane tracks is in exactly one
//! [`ClientState`] at all times, and the only way to move between states
//! is a [`ClientEvent`] whose `(state, event)` pair appears in the
//! transition contract below (the same table lives in DESIGN.md §
//! "Control plane" and is pinned exhaustively by
//! `tests/transition_contract.rs`). Fault handling is *not* special-cased
//! anywhere: a dropout, a guardian escalation, a quarantined observation
//! and a churn departure are ordinary transitions like any other.
//!
//! ```text
//!            Select          Start
//!   Idle ────────────► Selected ────────► Training ──┐
//!    ▲  ▲                  │                │  │     │ Escalate
//!    │  │                  │ Drop           │  │     ▼
//!    │  │ Join             │                │  │  Escalated ──┐
//!    │  │                  │       Quarantine  │     │        │
//!    │  │                  │                │  │     │ Finish │ Quarantine
//!    │  Departed ◄─────────┼──── Depart ────┼──┼─────┼───┐    │
//!    │       (from Idle / Dropped)          │  │     │   │    │
//!    │                     │                ▼  │     │   │    ▼
//!    │                     │      Quarantined  │     │   │ (same Finish/
//!    │                     │                │  │     │   │  Drop edges)
//!    │                     ▼         Finish │  ▼     ▼   │
//!    │ Reset            Dropped ◄── Drop ── Reporting ◄──┘
//!    │                     │  ▲   Suspect ─► │  ▲ Suspected
//!    │                     │  │   ◄─ Heal ───┘  │ (Drop from there too)
//!    └─────────────────────┘  └── Drop ──────┤ Accept
//!    └◄──────── Reset ─────────── Aggregated ◄┘
//! ```
//!
//! The liveness overlay (PR 7) adds exactly one state and two events: a
//! `Reporting` client whose heartbeat deadline lapses is `Suspect`ed; a
//! suspected client whose update finally arrives (a healed partition, a
//! delayed packet) `Heal`s back to `Reporting`, while one that stays
//! silent past its expiry deadline `Drop`s like any other casualty.
//!
//! All three enums are `#[repr(u8)]` with stable discriminants so a
//! journal entry serializes to one byte per field in a binary transport
//! and the CSV/JSONL exports have a fixed vocabulary.

use std::error::Error;
use std::fmt;

/// Where a client is in its per-round lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u8)]
pub enum ClientState {
    /// In the fleet, not participating in the current round.
    Idle = 0,
    /// Invited into the current round; has not started training yet.
    Selected = 1,
    /// Running its local training jobs.
    Training = 2,
    /// Still training, but the deadline guardian has escalated the
    /// remaining jobs to `x_max` after observing an overrun in progress.
    Escalated = 3,
    /// Still training, but the controller has quarantined contaminated
    /// latency observations out of its surrogate's training set.
    Quarantined = 4,
    /// Finished training; its update is in flight to the server.
    Reporting = 5,
    /// Its update was received while the round was open and folded into
    /// the global model.
    Aggregated = 6,
    /// Out of this round without a usable update — dropout, deadline
    /// miss, upload loss, a churn departure, or a late report after the
    /// round closed. The journal's cause field says which.
    Dropped = 7,
    /// Out of the fleet entirely (churn); not selectable until it rejoins.
    Departed = 8,
    /// Its update is overdue: the liveness tracker's heartbeat deadline
    /// lapsed with the report still outstanding. A suspect either heals
    /// (the update arrives after all) or expires into `Dropped`.
    Suspected = 9,
}

/// The stimuli that move a client between states.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum ClientEvent {
    /// The server invited the client into the round.
    Select = 0,
    /// The client began its local training.
    Start = 1,
    /// The deadline guardian diverted the remaining jobs to `x_max`.
    Escalate = 2,
    /// The controller quarantined contaminated observations.
    Quarantine = 3,
    /// Local training completed; the update entered the uplink.
    Finish = 4,
    /// The server accepted the update into the aggregate.
    Accept = 5,
    /// The client left the round without a usable update.
    Drop = 6,
    /// The round closed; the client returned to the pool.
    Reset = 7,
    /// The client left the fleet (churn).
    Depart = 8,
    /// The client rejoined the fleet (churn).
    Join = 9,
    /// The liveness tracker's heartbeat deadline lapsed with the report
    /// still in flight.
    Suspect = 10,
    /// A suspected client's update arrived after all — the silence was a
    /// delay or a healed partition, not a death.
    Heal = 11,
}

impl ClientState {
    /// Every state, in discriminant order (for exhaustive table tests).
    pub const ALL: [ClientState; 10] = [
        ClientState::Idle,
        ClientState::Selected,
        ClientState::Training,
        ClientState::Escalated,
        ClientState::Quarantined,
        ClientState::Reporting,
        ClientState::Aggregated,
        ClientState::Dropped,
        ClientState::Departed,
        ClientState::Suspected,
    ];

    /// The state with discriminant `b`, if any — the inverse of `as u8`,
    /// used when decoding binary journal records (the WAL).
    pub(crate) fn from_u8(b: u8) -> Option<ClientState> {
        ClientState::ALL.get(b as usize).copied()
    }

    /// Stable lowercase name (journal CSV/JSONL vocabulary).
    pub(crate) fn as_str(&self) -> &'static str {
        match self {
            ClientState::Idle => "idle",
            ClientState::Selected => "selected",
            ClientState::Training => "training",
            ClientState::Escalated => "escalated",
            ClientState::Quarantined => "quarantined",
            ClientState::Reporting => "reporting",
            ClientState::Aggregated => "aggregated",
            ClientState::Dropped => "dropped",
            ClientState::Departed => "departed",
            ClientState::Suspected => "suspected",
        }
    }

    /// The transition contract: the state `event` leads to from `self`,
    /// or `None` if the pair is illegal. This is the single source of
    /// truth every other layer (control plane, engine, replay) consults —
    /// there is no second copy of the rules to drift.
    pub fn next(self, event: ClientEvent) -> Option<ClientState> {
        use ClientEvent as E;
        use ClientState as S;
        match (self, event) {
            (S::Idle, E::Select) => Some(S::Selected),
            (S::Idle, E::Depart) => Some(S::Departed),
            (S::Selected, E::Start) => Some(S::Training),
            (S::Selected, E::Drop) => Some(S::Dropped),
            (S::Training, E::Escalate) => Some(S::Escalated),
            (S::Training, E::Quarantine) => Some(S::Quarantined),
            (S::Training, E::Finish) => Some(S::Reporting),
            (S::Training, E::Drop) => Some(S::Dropped),
            (S::Escalated, E::Quarantine) => Some(S::Quarantined),
            (S::Escalated, E::Finish) => Some(S::Reporting),
            (S::Escalated, E::Drop) => Some(S::Dropped),
            (S::Quarantined, E::Finish) => Some(S::Reporting),
            (S::Quarantined, E::Drop) => Some(S::Dropped),
            (S::Reporting, E::Accept) => Some(S::Aggregated),
            (S::Reporting, E::Drop) => Some(S::Dropped),
            (S::Reporting, E::Suspect) => Some(S::Suspected),
            (S::Suspected, E::Heal) => Some(S::Reporting),
            (S::Suspected, E::Drop) => Some(S::Dropped),
            (S::Aggregated, E::Reset) => Some(S::Idle),
            (S::Dropped, E::Reset) => Some(S::Idle),
            (S::Dropped, E::Depart) => Some(S::Departed),
            (S::Departed, E::Join) => Some(S::Idle),
            _ => None,
        }
    }
}

impl ClientEvent {
    /// Every event, in discriminant order (for exhaustive table tests).
    pub const ALL: [ClientEvent; 12] = [
        ClientEvent::Select,
        ClientEvent::Start,
        ClientEvent::Escalate,
        ClientEvent::Quarantine,
        ClientEvent::Finish,
        ClientEvent::Accept,
        ClientEvent::Drop,
        ClientEvent::Reset,
        ClientEvent::Depart,
        ClientEvent::Join,
        ClientEvent::Suspect,
        ClientEvent::Heal,
    ];

    /// Stable lowercase name.
    pub(crate) fn as_str(&self) -> &'static str {
        match self {
            ClientEvent::Select => "select",
            ClientEvent::Start => "start",
            ClientEvent::Escalate => "escalate",
            ClientEvent::Quarantine => "quarantine",
            ClientEvent::Finish => "finish",
            ClientEvent::Accept => "accept",
            ClientEvent::Drop => "drop",
            ClientEvent::Reset => "reset",
            ClientEvent::Depart => "depart",
            ClientEvent::Join => "join",
            ClientEvent::Suspect => "suspect",
            ClientEvent::Heal => "heal",
        }
    }
}

impl fmt::Display for ClientState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl fmt::Display for ClientEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// An `(state, event)` pair outside the transition contract. Returned —
/// never panicked — so callers decide whether a violation is a bug (the
/// engine) or expected input to reject (a replayed journal).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransitionError {
    /// The client whose transition was refused.
    pub client: usize,
    /// The state it was in.
    pub from: ClientState,
    /// The event that had no legal edge from that state.
    pub event: ClientEvent,
}

impl fmt::Display for TransitionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "client {}: no legal transition from `{}` on `{}`",
            self.client, self.from, self.event
        )
    }
}

impl Error for TransitionError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_u8_inverts_the_discriminant() {
        for s in ClientState::ALL {
            assert_eq!(ClientState::from_u8(s as u8), Some(s));
        }
        assert_eq!(ClientState::from_u8(10), None);
        assert_eq!(ClientState::from_u8(255), None);
    }

    #[test]
    fn discriminants_are_stable_bytes() {
        assert_eq!(ClientState::Idle as u8, 0);
        assert_eq!(ClientState::Departed as u8, 8);
        assert_eq!(ClientState::Suspected as u8, 9);
        assert_eq!(ClientEvent::Select as u8, 0);
        assert_eq!(ClientEvent::Join as u8, 9);
        assert_eq!(ClientEvent::Suspect as u8, 10);
        assert_eq!(ClientEvent::Heal as u8, 11);
        assert_eq!(std::mem::size_of::<ClientState>(), 1);
        assert_eq!(std::mem::size_of::<ClientEvent>(), 1);
    }

    #[test]
    fn happy_path_walks_the_lifecycle() {
        use ClientEvent as E;
        let mut s = ClientState::Idle;
        for e in [E::Select, E::Start, E::Finish, E::Accept, E::Reset] {
            s = s.next(e).expect("happy path is legal");
        }
        assert_eq!(s, ClientState::Idle);
    }

    #[test]
    fn faults_are_ordinary_transitions() {
        use ClientEvent as E;
        use ClientState as S;
        assert_eq!(S::Training.next(E::Escalate), Some(S::Escalated));
        assert_eq!(S::Escalated.next(E::Quarantine), Some(S::Quarantined));
        assert_eq!(S::Quarantined.next(E::Finish), Some(S::Reporting));
        assert_eq!(S::Reporting.next(E::Drop), Some(S::Dropped));
        assert_eq!(S::Dropped.next(E::Depart), Some(S::Departed));
        assert_eq!(S::Departed.next(E::Join), Some(S::Idle));
        // Liveness is no more special than churn: suspect, then heal or
        // expire, all along ordinary edges.
        assert_eq!(S::Reporting.next(E::Suspect), Some(S::Suspected));
        assert_eq!(S::Suspected.next(E::Heal), Some(S::Reporting));
        assert_eq!(S::Suspected.next(E::Drop), Some(S::Dropped));
        assert_eq!(S::Suspected.next(E::Accept), None);
    }

    #[test]
    fn illegal_pairs_have_no_edge() {
        use ClientEvent as E;
        use ClientState as S;
        assert_eq!(S::Idle.next(E::Accept), None);
        assert_eq!(S::Aggregated.next(E::Select), None);
        assert_eq!(S::Departed.next(E::Select), None);
        assert_eq!(S::Escalated.next(E::Escalate), None);
        let err = TransitionError {
            client: 3,
            from: S::Idle,
            event: E::Accept,
        };
        assert_eq!(
            err.to_string(),
            "client 3: no legal transition from `idle` on `accept`"
        );
    }
}
