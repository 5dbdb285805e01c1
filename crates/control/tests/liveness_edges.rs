//! Liveness deadline edge cases, pinned at the exact tick.
//!
//! The merged timeline orders same-time entries `(t, kind, client, copy)`
//! with deliveries (kind 0) before suspects (kind 1) before expiries
//! (kind 2). These tests drive [`EventDrivenEngine`] directly with a
//! scripted transport whose arrival times land *exactly* on the zero-
//! jitter suspect and expire deadlines, and pin the tie-breaks:
//!
//! - a report arriving exactly at its suspect deadline is accepted
//!   without ever being suspected;
//! - a report arriving exactly at its expire deadline heals and is
//!   accepted — the expiry fires into an already-settled state and is
//!   ignored;
//! - suspects cut off by an early close are dropped with `RoundClosed`,
//!   reset to `Idle`, and stay selectable in the next round.

use std::collections::HashMap;

use bofl::baselines::PerformantController;
use bofl_control::prelude::*;
use bofl_control::transport::sort_deliveries;
use bofl_fl::client::FlClient;
use bofl_fl::data::SyntheticDataset;
use bofl_fl::engine::{ClientJob, RoundDeadline, RoundEngine};
use bofl_fl::model::SoftmaxModel;
use bofl_workload::{FlTask, TaskKind, Testbed};

/// Factors chosen so the zero-jitter deadlines are exact products:
/// suspect at `1.25 · D`, expire at `1.25 · D + 0.5 · D`.
const SUSPECT_FACTOR: f64 = 1.25;
const EXPIRE_FACTOR: f64 = 0.5;

fn policy() -> LivenessPolicy {
    LivenessPolicy::new(9, SUSPECT_FACTOR, EXPIRE_FACTOR, 0.0)
}

/// `(suspected, expired, healed)` liveness entries journalled in `round`.
fn suspect_expire_heal(journal: &EventJournal, round: u32) -> (usize, usize, usize) {
    let counts = journal.cause_counts(round);
    (
        counts[EventCause::LivenessSuspect],
        counts[EventCause::LivenessExpired],
        counts[EventCause::LivenessHeal],
    )
}

fn pool(n: usize) -> Vec<FlClient> {
    let spec = FleetSpec::mixed(n, 7);
    (0..n)
        .map(|id| {
            let task = FlTask::preset(TaskKind::Cifar10Vit, Testbed::JetsonAgx);
            let data = SyntheticDataset::gaussian_blobs(task.local_samples(), 6, 3, 0.4, id as u64);
            FlClient::new(
                id,
                spec.device(id),
                task,
                data,
                SoftmaxModel::new(6, 3, id as u64),
                Box::new(PerformantController::new()),
                0.2,
                1000 + id as u64,
            )
        })
        .collect()
}

/// A generous deadline every client trains inside of, so reports exist
/// and the scripted arrival time is the only variable under test.
fn deadline_s(clients: &[FlClient]) -> f64 {
    clients.iter().map(|c| c.t_min_s()).fold(0.0, f64::max) * 2.0
}

fn jobs_for(clients: &[FlClient], round: usize, deadline: f64) -> Vec<ClientJob> {
    clients
        .iter()
        .map(|c| ClientJob {
            client_id: c.id(),
            round,
            deadline: RoundDeadline::Training(deadline),
            dropped: false,
        })
        .collect()
}

/// A transport that arrives each `(round, client)` at a scripted offset
/// from the round start (never before its send time); everything not in
/// the script behaves as the identity carrier. Pure in `(round, t0_s,
/// messages)` plus the script, as the [`Transport`] contract demands.
#[derive(Clone, Default)]
struct ScriptedTransport {
    offsets: HashMap<(usize, usize), f64>,
}

impl ScriptedTransport {
    fn arrive_at(mut self, round: usize, client: usize, offset_s: f64) -> Self {
        self.offsets.insert((round, client), offset_s);
        self
    }
}

impl Transport for ScriptedTransport {
    fn label(&self) -> &str {
        "scripted"
    }

    fn carry(&mut self, round: usize, t0_s: f64, messages: &[Envelope]) -> Carried {
        let mut deliveries: Vec<Delivery> = messages
            .iter()
            .map(|m| Delivery {
                client_id: m.client_id,
                t_send_s: m.t_send_s,
                t_arrive_s: match self.offsets.get(&(round, m.client_id)) {
                    Some(offset) => (t0_s + offset).max(m.t_send_s),
                    None => m.t_send_s,
                },
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
        Box::new(self.clone())
    }
}

#[test]
fn arrival_exactly_at_the_suspect_deadline_is_never_suspected() {
    let mut clients = pool(2);
    let d = deadline_s(&clients);
    let global = SoftmaxModel::new(6, 3, 77).parameters();
    // Both reports land on the suspect deadline to the bit: the engine
    // computes `t0 + D · SUSPECT_FACTOR` and so does the script.
    let transport = ScriptedTransport::default()
        .arrive_at(0, 0, d * SUSPECT_FACTOR)
        .arrive_at(0, 1, d * SUSPECT_FACTOR);
    let mut engine = EventDrivenEngine::new(1)
        .with_transport(transport)
        .with_liveness(policy());
    let jobs = jobs_for(&clients, 0, d);
    let outcomes = engine.run_batch(&mut clients, &global, &jobs);

    // Delivery (kind 0) wins the tie against suspect (kind 1): both
    // updates are accepted and the liveness tracker never fired.
    assert!(outcomes.iter().all(|o| !o.upload_failed && !o.late));
    let plane = engine.plane();
    let plane = plane.lock().unwrap();
    assert_eq!(suspect_expire_heal(plane.journal(), 0), (0, 0, 0));
    assert!(plane
        .journal()
        .iter()
        .all(|e| e.cause != EventCause::LivenessSuspect));
    assert!(plane.states().iter().all(|s| *s == ClientState::Idle));
}

#[test]
fn arrival_exactly_at_the_expire_deadline_heals_instead_of_expiring() {
    let mut clients = pool(2);
    let d = deadline_s(&clients);
    let global = SoftmaxModel::new(6, 3, 77).parameters();
    // Client 0 reports on time; client 1 lands exactly on its expire
    // deadline, `1.25·D + 0.5·D` after round start.
    let transport =
        ScriptedTransport::default().arrive_at(0, 1, d * SUSPECT_FACTOR + d * EXPIRE_FACTOR);
    let mut engine = EventDrivenEngine::new(1)
        .with_transport(transport)
        .with_liveness(policy());
    let jobs = jobs_for(&clients, 0, d);
    let outcomes = engine.run_batch(&mut clients, &global, &jobs);

    // The suspect fired at 1.25·D; at the expire tick the delivery
    // (kind 0) is played before the expiry (kind 2), so the client heals
    // and is accepted — the expiry then finds `Aggregated` and is noise.
    assert!(outcomes.iter().all(|o| !o.upload_failed && !o.late));
    let plane = engine.plane();
    let plane = plane.lock().unwrap();
    assert_eq!(
        suspect_expire_heal(plane.journal(), 0),
        (1, 0, 1),
        "one suspect, zero expiries, one heal"
    );
    let causes: Vec<EventCause> = plane
        .journal()
        .iter()
        .filter(|e| e.client == 1)
        .map(|e| e.cause)
        .collect();
    assert!(causes.contains(&EventCause::LivenessSuspect));
    assert!(causes.contains(&EventCause::LivenessHeal));
    assert!(causes.contains(&EventCause::UploadDelivered));
    assert!(!causes.contains(&EventCause::LivenessExpired));
    assert!(plane.states().iter().all(|s| *s == ClientState::Idle));
}

#[test]
fn suspects_cut_off_by_an_early_close_reset_and_stay_selectable() {
    let mut clients = pool(3);
    let d = deadline_s(&clients);
    let global = SoftmaxModel::new(6, 3, 77).parameters();
    // All three overshoot their suspect deadline; the first two heal and
    // are accepted, and the second acceptance meets the close target of
    // 2, cutting off the third while it is still `Suspected`.
    let transport = ScriptedTransport::default()
        .arrive_at(0, 0, d * 1.30)
        .arrive_at(0, 1, d * 1.35)
        .arrive_at(0, 2, d * 1.50);
    let mut engine = EventDrivenEngine::new(1)
        .with_transport(transport)
        .with_close_policy(AggregationPolicy::none(), 2)
        .with_liveness(policy());
    let jobs = jobs_for(&clients, 0, d);
    let outcomes = engine.run_batch(&mut clients, &global, &jobs);

    assert!(!outcomes[0].late && !outcomes[1].late);
    assert!(outcomes[2].late, "the third report arrived after the close");
    // Late is not lost: the upload reached the server, the round had
    // just already closed.
    assert!(!outcomes[2].upload_failed);
    {
        let plane = engine.plane();
        let plane = plane.lock().unwrap();
        // Three suspects, two heals, no expiries: the expire entries at
        // 1.75·D are ignored once the round is closed.
        assert_eq!(suspect_expire_heal(plane.journal(), 0), (3, 0, 2));
        let third: Vec<(EventCause, ClientState)> = plane
            .journal()
            .iter()
            .filter(|e| e.client == 2)
            .map(|e| (e.cause, e.to))
            .collect();
        assert!(
            third.contains(&(EventCause::RoundClosed, ClientState::Dropped)),
            "the cut-off suspect is dropped with RoundClosed, not expired: {third:?}"
        );
        let close = plane.closes().last().copied().unwrap();
        assert_eq!(close.accepted, 2);
        assert!(close.closed_early);
        assert!(!close.degraded);
        // The churned client is back to Idle after the reset sweep …
        assert!(plane.states().iter().all(|s| *s == ClientState::Idle));
    }

    // … and selectable: the same cohort is re-admitted for round 1 (a
    // client stuck in a stale state would panic the admission sweep).
    // Everyone reports on time, so the close target of 2 is met without
    // any liveness traffic; the slowest report is simply cut off late.
    let jobs = jobs_for(&clients, 1, d);
    let outcomes = engine.run_batch(&mut clients, &global, &jobs);
    assert_eq!(outcomes.len(), 3);
    let plane = engine.plane();
    let plane = plane.lock().unwrap();
    assert!(
        plane
            .journal()
            .iter()
            .any(|e| e.round == 1 && e.client == 2 && e.cause == EventCause::Selection),
        "the previously cut-off client must be selectable again"
    );
    assert_eq!(suspect_expire_heal(plane.journal(), 1), (0, 0, 0));
    assert_eq!(plane.closes().last().unwrap().accepted, 2);
    assert!(plane.states().iter().all(|s| *s == ClientState::Idle));
}
