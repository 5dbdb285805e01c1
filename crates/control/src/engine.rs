//! [`EventDrivenEngine`]: the event-driven implementation of `bofl_fl`'s
//! [`RoundEngine`] seam.
//!
//! The barrier engine (`bofl_fl::SequentialEngine`) treats a round as a
//! join: every selected client runs to completion, then the server
//! aggregates whatever survived. This engine replays the same round as a
//! *timeline of events* against a [`ControlPlane`]:
//!
//! 1. **Churn sweep** — before selection takes effect, clients scheduled
//!    to rejoin the fleet this round `Join`, and departing clients that
//!    were not selected `Depart` immediately.
//! 2. **Admission** — each selected client transitions
//!    `Idle → Selected → Training`. A client that is absent (churned
//!    away) cannot be admitted: the engine refuses the `Select` and
//!    synthesizes a dropped, zero-energy outcome instead.
//! 3. **Execution** — each runnable job is paired with its own
//!    `&mut FlClient` and drained on the workspace's one fan-out,
//!    `bofl::drain_tasks`. A job applies its seeded fault draw (dropout,
//!    straggler slowdown, upload failure), runs the bounded upload-retry
//!    loop, and writes its outcome into its own slot, so outcomes come
//!    back in client-id order whatever thread ran them.
//! 4. **The wire** — each finished update becomes an
//!    [`Envelope`] sent at `t_send = round_start + duration +
//!    Σ retry backoffs` (as the retry loop waited them) and handed to
//!    the engine's pluggable [`Transport`] (default
//!    [`VirtualTransport`]: arrival = send, the pre-transport behavior).
//!    A [`crate::chaos::ChaosTransport`] can drop, delay, duplicate,
//!    reorder, or partition the messages.
//! 5. **The timeline** — deliveries, client-side upload failures, and
//!    (when a [`LivenessPolicy`] is armed) suspect/expire deadlines merge
//!    into one virtual timeline, sorted by `(time, kind, client, copy)`.
//!    The first acceptances to satisfy the close target close the round;
//!    anything aggregatable arriving after that is `late`. Silent clients
//!    are suspected, then expired; an update arriving in between heals
//!    them. When liveness concludes the close target is unreachable (all
//!    outstanding reports lost or expired), the round *degrades*: it
//!    closes immediately on whatever was accepted instead of waiting, and
//!    the next round's close target widens to the full admitted cohort
//!    (over-selection escalation), so no surviving update is cut off
//!    while the fleet recovers.
//! 6. **Reset** — at the round's close every settled client returns to
//!    `Idle` (or `Departed`, if it churned away mid-round); clients the
//!    wire never resolved are settled first (`transport_loss` /
//!    `liveness_expired`).
//!
//! Because virtual arrival times are derived from simulated durations,
//! seeded backoffs and seeded chaos draws — never from the wall clock —
//! the journal this produces is byte-identical at any worker count and
//! any transport lane count.
//!
//! The round's test-set score ([`RoundEngine::score`]) runs on the same
//! pool, one contiguous stripe of samples per worker; the server folds
//! the per-sample losses in order, so the score's bits do not depend on
//! the worker count either.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use bofl::drain_tasks;
use bofl_fl::client::FlClient;
use bofl_fl::engine::{run_client_job, ClientJob, ClientOutcome, RoundEngine};
use bofl_fl::model::{Minibatch, SoftmaxModel};
use bofl_fl::network::RetryPolicy;
use bofl_fl::server::AggregationPolicy;
use bofl_fleet::compress::{CompressedUpdate, Compressor, COMPRESS_SALT};
use bofl_fleet::fault::{stream_seed, ChurnStatus, FaultPlan};
use bofl_fleet::shard::ShardPlan;

use crate::journal::EventCause;
use crate::liveness::LivenessPolicy;
use crate::plane::ControlPlane;
use crate::state::{ClientEvent, ClientState, TransitionError};
use crate::transport::{Envelope, Transport, VirtualTransport};

/// A shared, lockable handle onto an engine's [`ControlPlane`]. The
/// federation owns the boxed engine, so callers that want to read the
/// journal after a run keep one of these.
pub(crate) type PlaneHandle = Arc<Mutex<ControlPlane>>;

/// An event-driven round engine: a worker pool for execution (with
/// seeded fault injection and upload retry), a pluggable [`Transport`]
/// for delivery, a [`ControlPlane`] for lifecycle bookkeeping, and
/// quorum-based round closes instead of a barrier join.
///
/// `ControlSimulationBuilder` sets every field; the public setters below
/// serve engines driven by hand over scripted transports.
#[derive(Debug, Clone)]
pub struct EventDrivenEngine {
    /// Threads in the execution pool, the caller included (≥ 1).
    pub(crate) workers: usize,
    /// Seeded fault injection, churn included (only this engine acts on
    /// churn; the barrier engine has no fault plan).
    pub(crate) faults: FaultPlan,
    pub(crate) retry: RetryPolicy,
    /// Nominal cohort size for the close target; `0` disables early
    /// closes entirely (the engine then behaves as a journalling barrier).
    pub(crate) cohort: usize,
    pub(crate) policy: AggregationPolicy,
    pub(crate) plane: PlaneHandle,
    pub(crate) transport: Box<dyn Transport>,
    pub(crate) liveness: LivenessPolicy,
    /// Over-selection escalation armed by a degraded close: the next
    /// round's close target widens to the full admitted cohort.
    pub(crate) escalated: bool,
    /// Shard accounting (see `ControlSimulationBuilder::shard_plan`).
    pub(crate) shard_plan: Option<ShardPlan>,
    pub(crate) shard_quorum_fraction: f64,
    /// The uplink encoder (see `ControlSimulationBuilder::compressor`),
    /// its stream seeds derived from `compress_seed`.
    pub(crate) compressor: Option<Box<dyn Compressor>>,
    pub(crate) compress_seed: u64,
    /// Per-client error-feedback residuals carried across rounds.
    residuals: HashMap<usize, Vec<f64>>,
    /// Virtual clock: simulated seconds since the run began. Advances to
    /// each round's close time.
    pub(crate) now_s: f64,
    /// [`worker_label`] of `workers`.
    pub(crate) label: String,
}

/// The engine's report label, which names its worker count.
pub(crate) fn worker_label(workers: usize) -> String {
    format!("event-driven({workers} workers)")
}

impl EventDrivenEngine {
    /// An event-driven engine executing on `workers` OS threads.
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0`.
    pub fn new(workers: usize) -> Self {
        assert!(workers > 0, "an engine needs at least one worker");
        EventDrivenEngine {
            workers,
            faults: FaultPlan::none(),
            retry: RetryPolicy::none(),
            cohort: 0,
            policy: AggregationPolicy::none(),
            plane: Arc::new(Mutex::new(ControlPlane::new(0))),
            transport: Box::new(VirtualTransport),
            liveness: LivenessPolicy::none(),
            escalated: false,
            shard_plan: None,
            shard_quorum_fraction: 0.5,
            compressor: None,
            compress_seed: 0,
            residuals: HashMap::new(),
            now_s: 0.0,
            label: worker_label(workers),
        }
    }

    /// Enables quorum-based round closes: once
    /// [`AggregationPolicy::close_target`] updates for a nominal cohort of
    /// `clients_per_round` have been accepted, the round closes and any
    /// update still in flight lands late. Pass the same policy and cohort
    /// the federation was configured with.
    #[must_use]
    pub fn with_close_policy(
        mut self,
        policy: AggregationPolicy,
        clients_per_round: usize,
    ) -> Self {
        self.policy = policy;
        self.cohort = clients_per_round;
        self
    }

    /// Replaces the delivery transport (default [`VirtualTransport`]).
    #[must_use]
    pub fn with_transport(mut self, transport: impl Transport + 'static) -> Self {
        self.transport = Box::new(transport);
        self
    }

    /// Arms server-side liveness tracking (off by default). Required for
    /// degraded closes and over-selection escalation.
    #[must_use]
    pub fn with_liveness(mut self, liveness: LivenessPolicy) -> Self {
        self.liveness = liveness;
        self
    }

    /// A handle onto the control plane, for reading the journal and round
    /// closes after the federation has taken ownership of the engine.
    pub fn plane(&self) -> PlaneHandle {
        Arc::clone(&self.plane)
    }

    /// Runs `jobs` (sorted by unique client id) on the worker pool and
    /// returns, in job order, each outcome with the retry backoff its
    /// client waited. Each job fills its own slot, whatever thread runs it.
    fn execute(
        &self,
        clients: &mut [FlClient],
        global: &[f64],
        jobs: &[ClientJob],
    ) -> Vec<(ClientOutcome, f64)> {
        // Pair each job with a disjoint `&mut` into the client pool.
        // Walking the pool once with `iter_mut` keeps the borrows
        // provably disjoint without unsafe code; a job left over is out
        // of order or outside the pool.
        let mut slots: Vec<Option<(ClientOutcome, f64)>> = vec![None; jobs.len()];
        let mut pending = jobs.iter().zip(slots.iter_mut()).peekable();
        let mut tasks = Vec::with_capacity(jobs.len());
        for (id, client) in clients.iter_mut().enumerate() {
            if let Some((job, slot)) = pending.next_if(|(job, _)| job.client_id == id) {
                tasks.push((client, job, slot));
            }
        }
        assert!(
            pending.peek().is_none(),
            "jobs must name pool clients in increasing id order"
        );
        let (faults, retry) = (&self.faults, &self.retry);
        drain_tasks(
            self.workers,
            tasks,
            || (),
            |(), (client, job, slot)| *slot = Some(run_faulted(faults, retry, client, global, job)),
        );
        let outcomes: Option<Vec<_>> = slots.into_iter().collect();
        outcomes.expect("drain_tasks runs every task")
    }
}

/// Runs one job, applies its fault draw, and retries a failed upload
/// while the reporting budget admits the backoff. Returns the outcome
/// and the total backoff the client waited before its final attempt.
fn run_faulted(
    faults: &FaultPlan,
    retry: &RetryPolicy,
    client: &mut FlClient,
    global: &[f64],
    job: &ClientJob,
) -> (ClientOutcome, f64) {
    let draw = faults.draw(job.round, job.client_id);

    // A straggler draw inflates every job's latency *inside* the
    // client's executor rather than stretching the finished round: the
    // pace controller observes the slowdown as it happens, so its
    // recovery machinery (guardian escalation, quarantine) gets the
    // chance to rescue the deadline — and `deadline_met` is judged on
    // whatever duration actually resulted.
    let mut faulted = *job;
    faulted.slowdown = job.slowdown * draw.straggler_factor;
    let mut out = run_client_job(client, global, &faulted);

    out.dropped = out.dropped || draw.dropped;
    out.upload_failed = draw.upload_failed;

    // Upload retry: while the reporting budget (time left before the
    // round's limit) still admits a backoff, re-attempt the upload.
    // Every quantity here is pure in (round, client, attempt), so the
    // trace stays byte-identical at any worker count.
    let mut waited_s = 0.0;
    if out.upload_failed && !out.dropped && out.result.deadline_met {
        let budget = (job.deadline.limit_s() - out.result.duration_s).max(0.0);
        let window = Some((retry, budget));
        (out.upload_attempts, out.upload_failed, waited_s) =
            faults.retry_upload(job.round, job.client_id, true, retry.max_attempts, window);
    }
    (out, waited_s)
}

/// Transitions the engine emits are derived from its own bookkeeping, so
/// a contract violation here is an engine bug, not bad input.
fn must(result: Result<ClientState, TransitionError>) -> ClientState {
    result.unwrap_or_else(|e| panic!("control-plane invariant broken: {e}"))
}

/// A zero-energy outcome for a client that could not participate (absent
/// from the fleet when the server selected it).
fn absent_outcome(job: &ClientJob) -> ClientOutcome {
    ClientOutcome {
        client_id: job.client_id,
        result: bofl_fl::client::ClientRoundResult {
            parameters: Vec::new(),
            samples: 0,
            deadline_met: false,
            energy_j: 0.0,
            duration_s: 0.0,
            last_loss: 0.0,
            phase: None,
            escalated_jobs: 0,
            quarantined: 0,
            suggest_ms: 0.0,
        },
        dropped: true,
        straggler_factor: 1.0,
        upload_failed: false,
        upload_attempts: 1,
        late: false,
    }
}

/// One entry on the round's merged virtual timeline.
enum WireItem {
    /// The client's final upload attempt failed on its side.
    Failure { idx: usize },
    /// A (possibly duplicate) copy of an update reached the server.
    Deliver { idx: usize },
    /// The server's liveness tracker starts doubting the client.
    Suspect { id: usize },
    /// The server's liveness tracker gives the client up.
    Expire { id: usize },
}

impl RoundEngine for EventDrivenEngine {
    fn label(&self) -> &str {
        &self.label
    }

    fn run_batch(
        &mut self,
        clients: &mut [FlClient],
        global: &[f64],
        jobs: &[ClientJob],
    ) -> Vec<ClientOutcome> {
        if jobs.is_empty() {
            return Vec::new();
        }
        let round = jobs[0].round;
        let t0 = self.now_s;
        let faults = self.faults;
        let liveness = self.liveness;
        let live = !liveness.is_none();
        let plane = Arc::clone(&self.plane);
        let mut plane = plane.lock().expect("control plane poisoned");
        plane.ensure_clients(clients.len());

        // 1. Churn sweep (id order, all at round start). Clients due back
        //    rejoin; departing clients that were not selected leave now.
        //    Departing clients that *were* selected stay for one last
        //    round of training — their update is lost mid-flight below.
        let selected: Vec<bool> = {
            let mut s = vec![false; clients.len()];
            for job in jobs {
                s[job.client_id] = true;
            }
            s
        };
        let mut departing = vec![false; clients.len()];
        for id in 0..clients.len() {
            let status = faults.churn_status(round, id);
            if plane.state(id) == ClientState::Departed && status != ChurnStatus::Absent {
                must(plane.apply(id, ClientEvent::Join, EventCause::ChurnArrival, round, t0));
            }
            if status == ChurnStatus::Departing {
                if selected[id] {
                    departing[id] = true;
                } else if plane.state(id) == ClientState::Idle {
                    must(plane.apply(
                        id,
                        ClientEvent::Depart,
                        EventCause::ChurnDeparture,
                        round,
                        t0,
                    ));
                }
            }
        }

        // 2. Admission (id order). Absent clients cannot be selected —
        //    the engine refuses without journalling anything and answers
        //    the server with a synthetic dropped outcome.
        let mut synthetic: Vec<ClientOutcome> = Vec::new();
        let mut runnable: Vec<ClientJob> = Vec::with_capacity(jobs.len());
        for job in jobs {
            if plane.state(job.client_id) == ClientState::Departed {
                synthetic.push(absent_outcome(job));
                continue;
            }
            must(plane.apply(
                job.client_id,
                ClientEvent::Select,
                EventCause::Selection,
                round,
                t0,
            ));
            must(plane.apply(
                job.client_id,
                ClientEvent::Start,
                EventCause::RoundStart,
                round,
                t0,
            ));
            runnable.push(*job);
        }

        // 3. Execution on the worker pool. Outcomes come back in
        //    runnable (client id) order regardless of scheduling, each
        //    with the retry backoff its client waited.
        let (mut outcomes, waited): (Vec<ClientOutcome>, Vec<f64>) =
            self.execute(clients, global, &runnable).into_iter().unzip();

        // 4a. Training-phase transitions (id order, at each client's
        //     virtual finish time t_fin = t0 + duration).
        let mut reporting: Vec<(f64, usize, f64)> = Vec::new(); // (t_report, idx, deadline_s)
        let mut t_end = t0;
        for (idx, (out, job)) in outcomes.iter_mut().zip(&runnable).enumerate() {
            let id = out.client_id;
            let t_fin = t0 + out.result.duration_s;
            if out.result.escalated_jobs > 0 {
                must(plane.apply(
                    id,
                    ClientEvent::Escalate,
                    EventCause::GuardianEscalation,
                    round,
                    t_fin,
                ));
            }
            if out.result.quarantined > 0 {
                must(plane.apply(
                    id,
                    ClientEvent::Quarantine,
                    EventCause::ObservationQuarantine,
                    round,
                    t_fin,
                ));
            }
            if departing[id] {
                // Mid-round churn: the client trained, but nobody is left
                // to deliver (or receive credit for) the update.
                out.dropped = true;
                must(plane.apply(
                    id,
                    ClientEvent::Drop,
                    EventCause::ChurnDeparture,
                    round,
                    t_fin,
                ));
            } else if out.dropped {
                let cause = if job.dropped {
                    EventCause::ServerDropout
                } else {
                    EventCause::FaultDropout
                };
                must(plane.apply(id, ClientEvent::Drop, cause, round, t_fin));
            } else if !out.result.deadline_met {
                must(plane.apply(
                    id,
                    ClientEvent::Drop,
                    EventCause::DeadlineMiss,
                    round,
                    t_fin,
                ));
            } else {
                must(plane.apply(
                    id,
                    ClientEvent::Finish,
                    EventCause::TrainingComplete,
                    round,
                    t_fin,
                ));
                let t_report = t_fin + waited[idx];
                reporting.push((t_report, idx, job.deadline.limit_s()));
            }
            t_end = t_end.max(t_fin);
        }

        // 4b'. The uplink encoder. Every finisher compresses its update
        //      at send time (id order — reporting is built in id order),
        //      then decodes it back in place so aggregation sees exactly
        //      the lossy bytes the wire carried. Error-feedback residuals
        //      persist per client across rounds.
        let mut bytes_of: Vec<(u64, u64)> = Vec::new();
        if let Some(compressor) = &self.compressor {
            bytes_of.resize(clients.len(), (0, 0));
            let mut buf = CompressedUpdate::new();
            let mut decoded: Vec<f64> = Vec::new();
            for &(_, idx, _) in &reporting {
                let id = outcomes[idx].client_id;
                let seed = stream_seed(self.compress_seed, round, id, COMPRESS_SALT);
                let residual = self.residuals.entry(id).or_default();
                compressor.compress(
                    &outcomes[idx].result.parameters,
                    seed,
                    Some(residual),
                    &mut buf,
                );
                bytes_of[id] = (buf.wire_bytes(), buf.raw_bytes());
                buf.decode_into(&mut decoded);
                outcomes[idx].result.parameters.clone_from(&decoded);
            }
        }

        // 4b. The wire. Successful finishers hand their update to the
        //     transport; client-side upload failures never reach it. A
        //     sender with no surviving copy lost its update on the wire.
        let mut idx_of: Vec<Option<usize>> = vec![None; clients.len()];
        let mut envelopes: Vec<Envelope> = Vec::new();
        let mut failures: Vec<(f64, usize)> = Vec::new();
        let mut sent = vec![false; clients.len()];
        for &(t_report, idx, _) in &reporting {
            let id = outcomes[idx].client_id;
            idx_of[id] = Some(idx);
            if outcomes[idx].upload_failed {
                failures.push((t_report, idx));
            } else {
                sent[id] = true;
                envelopes.push(Envelope {
                    round,
                    client_id: id,
                    t_send_s: t_report,
                });
            }
        }
        let mut carried = self.transport.carry(round, t0, &envelopes);
        // Byte accounting: only envelopes actually handed to the
        // transport spent uplink bytes (client-side failures never sent).
        if !bytes_of.is_empty() {
            for e in &envelopes {
                let (wire, raw) = bytes_of[e.client_id];
                carried.stats.bytes_on_wire += wire;
                carried.stats.bytes_raw += raw;
            }
        }
        let mut arrived = vec![false; clients.len()];
        for d in &carried.deliveries {
            arrived[d.client_id] = true;
        }
        for id in 0..clients.len() {
            if sent[id] && !arrived[id] {
                let idx = idx_of[id].expect("sender has an outcome");
                outcomes[idx].upload_failed = true;
            }
        }

        // 4c. One merged timeline: deliveries and failures (kind 0), then
        //     suspects (kind 1), then expiries (kind 2); ties broken by
        //     client id, then copy. With the identity transport and no
        //     liveness this is exactly the old `(t_report, client)` order.
        let mut pending = vec![0usize; clients.len()];
        let mut timeline: Vec<(f64, u8, usize, u32, WireItem)> = Vec::new();
        for &(t, idx) in &failures {
            timeline.push((t, 0, outcomes[idx].client_id, 0, WireItem::Failure { idx }));
        }
        for d in &carried.deliveries {
            let idx = idx_of[d.client_id].expect("transport must not invent clients");
            pending[d.client_id] += 1;
            timeline.push((
                d.t_arrive_s,
                0,
                d.client_id,
                d.copy,
                WireItem::Deliver { idx },
            ));
        }
        if live {
            for &(_, idx, deadline_s) in &reporting {
                let id = outcomes[idx].client_id;
                timeline.push((
                    t0 + liveness.suspect_deadline_s(deadline_s, round, id),
                    1,
                    id,
                    0,
                    WireItem::Suspect { id },
                ));
                timeline.push((
                    t0 + liveness.expire_deadline_s(deadline_s, round, id),
                    2,
                    id,
                    0,
                    WireItem::Expire { id },
                ));
            }
        }
        timeline.sort_by(|a, b| {
            a.0.total_cmp(&b.0)
                .then_with(|| a.1.cmp(&b.1))
                .then_with(|| a.2.cmp(&b.2))
                .then_with(|| a.3.cmp(&b.3))
        });

        // 4d. Play the timeline. The round closes the moment the close
        //     target is met — or, degraded, the moment liveness concludes
        //     the target is unreachable.
        // Degradation is always judged against the *base* close target;
        // escalation only widens how long the round keeps waiting.
        let base_target = (self.cohort > 0).then(|| self.policy.close_target(self.cohort));
        let close_target = base_target.map(|base| {
            if self.escalated && live {
                // Over-selection escalation after a degraded round: widen
                // the target to the full admitted cohort so no surviving
                // update is cut off while the fleet recovers.
                base.max(runnable.len())
            } else {
                base
            }
        });
        let mut accepted = 0usize;
        let mut closed_at: Option<f64> = None;
        let mut degraded = false;
        for (t, _kind, _client, _copy, item) in timeline {
            match item {
                WireItem::Failure { idx } => {
                    let id = outcomes[idx].client_id;
                    must(plane.apply(id, ClientEvent::Drop, EventCause::UploadFailure, round, t));
                    t_end = t_end.max(t);
                }
                WireItem::Deliver { idx } => {
                    let id = outcomes[idx].client_id;
                    pending[id] -= 1;
                    match plane.state(id) {
                        ClientState::Reporting | ClientState::Suspected => {
                            if closed_at.is_some() {
                                outcomes[idx].late = true;
                                must(plane.apply(
                                    id,
                                    ClientEvent::Drop,
                                    EventCause::RoundClosed,
                                    round,
                                    t,
                                ));
                            } else {
                                if plane.state(id) == ClientState::Suspected {
                                    must(plane.apply(
                                        id,
                                        ClientEvent::Heal,
                                        EventCause::LivenessHeal,
                                        round,
                                        t,
                                    ));
                                }
                                let cause = if outcomes[idx].upload_attempts > 1 {
                                    EventCause::UploadRecovered
                                } else {
                                    EventCause::UploadDelivered
                                };
                                must(plane.apply(id, ClientEvent::Accept, cause, round, t));
                                accepted += 1;
                                if close_target.is_some_and(|target| accepted >= target) {
                                    closed_at = Some(t);
                                }
                            }
                            t_end = t_end.max(t);
                        }
                        // Ghost arrival: a duplicate copy, or a packet for
                        // an already-settled client. The state machine has
                        // no legal edge here, so the wire noise is ignored.
                        _ => {}
                    }
                }
                WireItem::Suspect { id } => {
                    if closed_at.is_none() && plane.state(id) == ClientState::Reporting {
                        must(plane.apply(
                            id,
                            ClientEvent::Suspect,
                            EventCause::LivenessSuspect,
                            round,
                            t,
                        ));
                        t_end = t_end.max(t);
                    }
                }
                WireItem::Expire { id } => {
                    if closed_at.is_none() && plane.state(id) == ClientState::Suspected {
                        must(plane.apply(
                            id,
                            ClientEvent::Drop,
                            EventCause::LivenessExpired,
                            round,
                            t,
                        ));
                        if let Some(idx) = idx_of[id] {
                            outcomes[idx].upload_failed = true;
                        }
                        t_end = t_end.max(t);
                    }
                }
            }
            // Degraded close: enough of the cohort is settled that the
            // close target can no longer be reached — close on what we
            // have instead of waiting for reports that cannot come.
            if live && closed_at.is_none() {
                if let Some(target) = close_target {
                    let unreachable = accepted < target
                        && pending.iter().enumerate().all(|(id, &n)| {
                            n == 0
                                || !matches!(
                                    plane.state(id),
                                    ClientState::Reporting | ClientState::Suspected
                                )
                        });
                    if unreachable {
                        closed_at = Some(t);
                        degraded = accepted < base_target.unwrap_or(0);
                    }
                }
            }
        }
        // An admitted cohort that never reached its base target still
        // counts as degraded — even if no single event tripped the
        // unreachability check (e.g. nothing was ever sent).
        if live && closed_at.is_none() {
            if let Some(base) = base_target {
                if accepted < base {
                    degraded = true;
                }
            }
        }

        // 5. Close the round and reset (id order, at the close time).
        //    Clients the wire never resolved are settled first: lost
        //    updates (still `Reporting`) and suspects cut off by the
        //    close (still `Suspected`).
        let t_close = closed_at.unwrap_or(t_end);
        let quorum = self.policy.quorum(self.cohort);
        // "Early" means the close actually cut something off: work with a
        // later virtual time was still outstanding when the target was
        // met. A close that lands on the round's final event is just the
        // barrier behavior with bookkeeping.
        let closed_early = closed_at.is_some_and(|t| t < t_end);
        for (id, idx) in idx_of.iter().enumerate() {
            let cause = match plane.state(id) {
                ClientState::Reporting => EventCause::TransportLoss,
                ClientState::Suspected => EventCause::LivenessExpired,
                _ => continue,
            };
            must(plane.apply(id, ClientEvent::Drop, cause, round, t_close));
            if let Some(idx) = idx {
                outcomes[*idx].upload_failed = true;
            }
        }
        // Per-shard quorum accounting (states still reflect the close —
        // the reset loop below has not run). Shard membership is the
        // runnable cohort in id order, partitioned contiguously by the
        // plan, exactly as the sharded aggregator folds it.
        let mut starved = vec![false; clients.len()];
        let (shards, shard_shortfalls) = match self.shard_plan {
            Some(plan) if !runnable.is_empty() => {
                let count = plan.shard_count(runnable.len());
                let mut shortfalls = 0usize;
                for range in plan.ranges(runnable.len()) {
                    let members = &runnable[range];
                    let accepted_here = members
                        .iter()
                        .filter(|j| plane.state(j.client_id) == ClientState::Aggregated)
                        .count();
                    let local_quorum =
                        (members.len() as f64 * self.shard_quorum_fraction).ceil() as usize;
                    if accepted_here < local_quorum {
                        shortfalls += 1;
                        for j in members {
                            starved[j.client_id] = true;
                        }
                    }
                }
                (count, shortfalls)
            }
            _ => (0, 0),
        };
        for (id, &leaving) in departing.iter().enumerate() {
            match plane.state(id) {
                ClientState::Dropped if leaving => {
                    must(plane.apply(
                        id,
                        ClientEvent::Depart,
                        EventCause::ChurnDeparture,
                        round,
                        t_end,
                    ));
                }
                ClientState::Aggregated | ClientState::Dropped => {
                    // A member of a starved shard carries the shard's
                    // distress signal on its reset edge — same transition,
                    // different cause, so replay is untouched.
                    let cause = if starved[id] {
                        EventCause::ShardQuorumShortfall
                    } else {
                        EventCause::RoundReset
                    };
                    must(plane.apply(id, ClientEvent::Reset, cause, round, t_end));
                }
                ClientState::Idle | ClientState::Departed => {}
                other => panic!("client {id} still `{other}` at round close"),
            }
        }
        // The Close record lands *after* the resets: with a WAL attached
        // it is the round's commit marker, so resume never sees a round
        // whose resets are missing. (The in-memory EventJournal is
        // untouched by this ordering — closes are not journal entries.)
        plane.close_round(
            round,
            t_close,
            accepted,
            quorum,
            closed_early,
            degraded,
            shards,
            shard_shortfalls,
        );
        plane.record_wire(round, carried.stats);
        if live {
            self.escalated = degraded;
        }
        self.now_s = t_end;

        // Merge synthetic (absent) outcomes back in and restore id order.
        outcomes.extend(synthetic);
        outcomes.sort_by_key(|o| o.client_id);
        outcomes
    }

    /// Scores the model in one contiguous stripe of samples per worker,
    /// on the same pool the jobs run on; each stripe writes its own
    /// slice of `losses` and its own hit count.
    fn score(&mut self, model: &SoftmaxModel, data: &Minibatch<'_>, losses: &mut [f64]) -> usize {
        assert_eq!(losses.len(), data.len(), "one loss slot per sample");
        let rows = data.len().div_ceil(self.workers).max(1);
        let mut hits = vec![0; self.workers];
        let stripes: Vec<_> = data
            .chunks(rows)
            .zip(losses.chunks_mut(rows))
            .zip(hits.iter_mut())
            .collect();
        drain_tasks(
            self.workers,
            stripes,
            || (),
            |(), ((stripe, losses), hits)| *hits = model.score_rows(&stripe, losses),
        );
        hits.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::{ChaosPlan, ChaosTransport};
    use crate::socket::SocketTransport;
    use bofl::baselines::PerformantController;
    use bofl::prelude::{Device, FlTask, TaskKind, Testbed};
    use bofl_fl::data::SyntheticDataset;
    use bofl_fl::engine::{RoundDeadline, SequentialEngine};

    /// An engine on `workers` workers with `faults` and `retry` set.
    fn faulted(workers: usize, faults: FaultPlan, retry: RetryPolicy) -> EventDrivenEngine {
        let mut engine = EventDrivenEngine::new(workers);
        engine.faults = faults;
        engine.retry = retry;
        engine
    }

    #[test]
    fn builders_wire_the_inner_engine() {
        let engine = faulted(
            4,
            FaultPlan::new(3).with_dropout(0.2),
            RetryPolicy::recovery(),
        )
        .with_close_policy(AggregationPolicy::recovery(), 4);
        assert_eq!(engine.workers, 4);
        assert_eq!(engine.label(), "event-driven(4 workers)");
        assert_eq!(engine.transport.label(), "virtual");
    }

    #[test]
    fn transport_builders_stack() {
        let socket = Box::new(SocketTransport::in_process(2));
        let engine = EventDrivenEngine::new(1)
            .with_transport(ChaosTransport::new(
                socket,
                ChaosPlan::new(1).with_drops(0.5),
            ))
            .with_liveness(LivenessPolicy::recovery(1));
        assert_eq!(engine.transport.label(), "chaos(socket(2 lanes))");
        // Cloning an engine clones its boxed transport.
        assert_eq!(engine.clone().transport.label(), engine.transport.label());
    }

    /// A pool of `n` Performant clients on AGX boards, one small
    /// softmax model each.
    fn pool(n: usize) -> Vec<FlClient> {
        (0..n)
            .map(|id| {
                let task = FlTask::preset(TaskKind::Cifar10Vit, Testbed::JetsonAgx);
                let data =
                    SyntheticDataset::gaussian_blobs(task.local_samples(), 6, 3, 0.4, id as u64);
                FlClient::new(
                    id,
                    Device::jetson_agx(),
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

    /// One round of `engine` on a fresh pool of `n` clients, for the
    /// clients `ids`, each against twice the slowest client's `T_min`.
    fn run(
        mut engine: impl RoundEngine,
        n: usize,
        ids: impl IntoIterator<Item = usize>,
    ) -> Vec<ClientOutcome> {
        let mut clients = pool(n);
        let deadline = clients.iter().map(|c| c.t_min_s()).fold(0.0, f64::max) * 2.0;
        let jobs: Vec<ClientJob> = ids
            .into_iter()
            .map(|client_id| ClientJob {
                client_id,
                round: 0,
                deadline: RoundDeadline::Training(deadline),
                dropped: false,
                slowdown: 1.0,
            })
            .collect();
        let global = SoftmaxModel::new(6, 3, 77).parameters();
        engine.run_batch(&mut clients, &global, &jobs)
    }

    #[test]
    fn parallel_matches_sequential_engine_exactly() {
        let sequential = run(SequentialEngine::new(), 6, 0..6);
        assert_eq!(sequential, run(EventDrivenEngine::new(4), 6, 0..6));
    }

    #[test]
    fn faults_are_identical_across_worker_counts() {
        let faults = FaultPlan::new(5)
            .with_dropout(0.3)
            .with_stragglers(0.5, (2.0, 5.0))
            .with_upload_failures(0.2);
        let run_on = |workers| run(faulted(workers, faults, RetryPolicy::none()), 8, 0..8);
        let one = run_on(1);
        assert_eq!(one, run_on(8));
        // The plan's parameters are aggressive enough that something fired.
        assert!(one
            .iter()
            .any(|o| o.dropped || o.upload_failed || o.straggler_factor > 1.0));
    }

    #[test]
    fn stragglers_can_miss_deadlines() {
        // Deadline 2× T_min, slowdown ≥ 3×: every straggler must miss.
        let faults = FaultPlan::new(9).with_stragglers(1.0, (3.0, 4.0));
        let outcomes = run(faulted(2, faults, RetryPolicy::none()), 4, 0..4);
        assert!(outcomes.iter().all(|o| o.straggler_factor >= 3.0));
        assert!(outcomes.iter().all(|o| o.missed_deadline()));
        assert!(outcomes.iter().all(|o| !o.aggregatable()));
    }

    #[test]
    fn retries_recover_some_uploads_and_stay_deterministic() {
        let faults = FaultPlan::new(13).with_upload_failures(0.6);
        let engine = |workers, retry| faulted(workers, faults, retry);
        let no_retry = run(engine(1, RetryPolicy::none()), 12, 0..12);
        let armed = engine(1, RetryPolicy::recovery());
        let plane = armed.plane();
        let with_retry = run(armed, 12, 0..12);
        // Retries never change which first attempts fail…
        for (a, b) in no_retry.iter().zip(&with_retry) {
            assert_eq!(a.upload_failed, b.upload_attempts > 1 || b.upload_failed);
        }
        // …and at p = 0.6 with 3 attempts, some upload must be recovered.
        assert!(with_retry.iter().any(|o| o.recovered_upload()));
        assert!(with_retry
            .iter()
            .filter(|o| o.recovered_upload())
            .all(|o| no_retry[o.client_id].upload_failed && !o.upload_failed));
        // A recovered upload reports only after the backoff it waited.
        let plane = plane.lock().unwrap();
        let t = |id: usize, cause| {
            let mut events = plane.journal().iter();
            events
                .find(|e| e.client as usize == id && e.cause == cause)
                .map(|e| e.t_s)
        };
        for o in with_retry.iter().filter(|o| o.recovered_upload()) {
            let finished = t(o.client_id, EventCause::TrainingComplete);
            assert!(t(o.client_id, EventCause::UploadRecovered) > finished);
        }
        // The whole trace, retries included, is worker-count independent.
        let parallel = run(engine(8, RetryPolicy::recovery()), 12, 0..12);
        assert_eq!(with_retry, parallel);
    }

    #[test]
    fn dropped_or_late_clients_never_retry() {
        let faults = FaultPlan::new(13).with_dropout(1.0);
        let engine = faulted(2, faults.with_upload_failures(1.0), RetryPolicy::recovery());
        let outcomes = run(engine, 4, 0..4);
        // A vanished client has nobody left to retry the upload.
        assert!(outcomes.iter().all(|o| o.upload_attempts == 1));
        assert!(outcomes.iter().all(|o| !o.aggregatable()));
    }

    #[test]
    fn subset_batches_map_to_the_right_clients() {
        let outcomes = run(EventDrivenEngine::new(3), 5, [1, 3]);
        let ids: Vec<usize> = outcomes.iter().map(|o| o.client_id).collect();
        assert_eq!(ids, vec![1, 3]);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn rejects_zero_workers() {
        let _ = EventDrivenEngine::new(0);
    }
}
