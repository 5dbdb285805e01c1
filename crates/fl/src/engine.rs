//! The round-execution engine abstraction: how a federation turns a batch
//! of selected clients into training outcomes.
//!
//! The original server drove every client inline on one thread. That loop
//! is now the [`SequentialEngine`] — one implementation of [`RoundEngine`]
//! — and the server is engine-agnostic: it performs selection, deadline
//! assignment and aggregation, and hands the per-round *batch* of
//! [`ClientJob`]s to whichever engine the federation was built with.
//! The workspace has two: this one, the reference, and `bofl-control`'s
//! `EventDrivenEngine`, which runs the same jobs on a deterministic
//! worker pool with fault injection, a pluggable transport and an event
//! journal.
//!
//! # Determinism contract
//!
//! Engines must return one [`ClientOutcome`] per job, **ordered by
//! `client_id`**, and every outcome must depend only on the client's own
//! state and the job — never on scheduling order. Each client trains from
//! per-`(client, round)` seeds, so any engine that honors the ordering rule
//! reproduces the sequential trace bit-for-bit.

use crate::client::{ClientRoundResult, FlClient};
use crate::model::{Minibatch, SoftmaxModel};
use crate::network::ReportingDeadline;

/// The deadline a job is executed against.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RoundDeadline {
    /// The paper's main model: a server-assigned *training* deadline in
    /// seconds from round start.
    Training(f64),
    /// The footnote-3 extension: a *reporting* deadline; the client infers
    /// its own training window from its bandwidth estimator.
    Reporting(ReportingDeadline),
}

impl RoundDeadline {
    /// The raw limit in seconds (training or reporting, whichever this is).
    pub fn limit_s(&self) -> f64 {
        match self {
            RoundDeadline::Training(s) => *s,
            RoundDeadline::Reporting(r) => r.reporting_s,
        }
    }
}

/// One unit of work an engine must execute: "this client trains this round
/// against this deadline".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClientJob {
    /// Index of the client in the federation's pool.
    pub client_id: usize,
    /// Zero-based federated round.
    pub round: usize,
    /// The deadline the client trains against.
    pub deadline: RoundDeadline,
    /// Server-side dropout, pre-drawn during selection so the decision is
    /// independent of engine scheduling. A dropped client still trains
    /// (and spends energy) — its update is simply never received.
    pub dropped: bool,
}

/// What actually happened when a job ran, including any engine-level
/// fault injection.
#[derive(Debug, Clone, PartialEq)]
pub struct ClientOutcome {
    /// Which client this outcome belongs to.
    pub client_id: usize,
    /// The client-side training result (post fault adjustments).
    pub result: ClientRoundResult,
    /// Whether the update was lost to dropout (server- or engine-level).
    pub dropped: bool,
    /// Transient slowdown multiplier applied to the round's duration
    /// (`1.0` = none; `> 1.0` = the client ran as a straggler).
    pub straggler_factor: f64,
    /// Whether the model upload failed after training completed (after
    /// all permitted attempts).
    pub upload_failed: bool,
    /// Upload attempts made (`1` = first try succeeded or no retry policy
    /// was active; `> 1` = the retry machinery fired).
    pub upload_attempts: u32,
    /// Whether the update was delivered *after* the round had already
    /// closed on its quorum of earlier reports. Barrier engines never set
    /// this; an event-driven engine closes a round as soon as its
    /// aggregation target is met, and anything still in flight lands late.
    pub late: bool,
}

impl ClientOutcome {
    /// Whether the server may aggregate this update: training met its
    /// deadline, the update actually arrived, and it arrived while the
    /// round was still open.
    pub fn aggregatable(&self) -> bool {
        self.result.deadline_met && !self.dropped && !self.upload_failed && !self.late
    }

    /// Whether the client failed its deadline (a straggler in the paper's
    /// terminology, whatever the cause).
    pub fn missed_deadline(&self) -> bool {
        !self.result.deadline_met
    }

    /// Whether a retried upload ultimately got through — a round the
    /// recovery layer saved from being wasted.
    pub fn recovered_upload(&self) -> bool {
        self.upload_attempts > 1 && !self.upload_failed
    }
}

/// Executes one job against one client. This is the single shared
/// implementation of "run a client's round" — every engine, sequential or
/// parallel, must call it so their traces are comparable bit-for-bit.
///
/// `slowdown` is a transient per-job latency inflation applied *inside*
/// the client's training executor (`1.0` = healthy; a fault plan's
/// straggler factor otherwise). Injecting it at the job level — rather
/// than stretching the finished round's duration — means the pace
/// controller observes it mid-round and its recovery machinery (guardian
/// escalation, observation quarantine) can react, exactly as it would on
/// a thermally-throttled physical board. Energy is not scaled: a
/// throttled board draws less power for longer, and modeling that
/// cancellation as neutral keeps the energy ledger comparable across
/// fault plans.
pub fn run_client_job(
    client: &mut FlClient,
    global: &[f64],
    job: &ClientJob,
    slowdown: f64,
) -> ClientOutcome {
    let result = client.train_round(job.round, global, job.deadline, slowdown);
    ClientOutcome {
        client_id: job.client_id,
        result,
        dropped: job.dropped,
        straggler_factor: slowdown,
        upload_failed: false,
        upload_attempts: 1,
        late: false,
    }
}

/// A strategy for executing one round's batch of client jobs.
///
/// `Send` so a federation (which owns its engine) can itself move across
/// threads, e.g. when experiments are parallelized at a higher level.
pub trait RoundEngine: Send {
    /// Short human-readable name for reports (e.g. `"sequential"`).
    fn label(&self) -> &str;

    /// Executes `jobs` against `clients` (the federation's full pool,
    /// indexed by `ClientJob::client_id`) and returns one outcome per job
    /// **sorted by `client_id`**.
    fn run_batch(
        &mut self,
        clients: &mut [FlClient],
        global: &[f64],
        jobs: &[ClientJob],
    ) -> Vec<ClientOutcome>;

    /// Scores the aggregated `model` on `data` as
    /// [`SoftmaxModel::score_rows`] does: one loss per sample into
    /// `losses`, the hit count returned. The default scores inline; an
    /// engine with a worker pool may score contiguous stripes of samples
    /// on it. Each sample's loss does not depend on who computes it, and
    /// the server folds them in order, so the round's score carries the
    /// same bits at any stripe count.
    fn score(&mut self, model: &SoftmaxModel, data: &Minibatch<'_>, losses: &mut [f64]) -> usize {
        model.score_rows(data, losses)
    }
}

/// The classic single-threaded path: jobs run inline, one after another,
/// in client-id order. This is the reference implementation every other
/// engine must agree with, and the easiest one to step through in a
/// debugger.
#[derive(Debug, Clone, Copy, Default)]
pub struct SequentialEngine;

impl SequentialEngine {
    /// Creates the sequential engine.
    pub fn new() -> Self {
        SequentialEngine
    }
}

impl RoundEngine for SequentialEngine {
    fn label(&self) -> &str {
        "sequential"
    }

    fn run_batch(
        &mut self,
        clients: &mut [FlClient],
        global: &[f64],
        jobs: &[ClientJob],
    ) -> Vec<ClientOutcome> {
        jobs.iter()
            .map(|job| run_client_job(&mut clients[job.client_id], global, job, 1.0))
            .collect()
    }
}

// The event-driven engine sends `&mut FlClient` into scoped worker
// threads, so a client (and everything it owns) must be `Send`. Assert it here, next to
// the type's definition crate, so a regression fails this build directly.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<FlClient>();
    assert_send::<SequentialEngine>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::SyntheticDataset;

    use bofl::baselines::PerformantController;
    use bofl_device::Device;
    use bofl_workload::{FlTask, TaskKind, Testbed};

    fn client(id: usize) -> FlClient {
        let task = FlTask::preset(TaskKind::Cifar10Vit, Testbed::JetsonAgx);
        let data = SyntheticDataset::gaussian_blobs(task.local_samples(), 6, 3, 0.4, id as u64);
        FlClient::new(
            id,
            Device::jetson_agx(),
            task,
            data,
            SoftmaxModel::new(6, 3, 11),
            Box::new(PerformantController::new()),
            0.2,
            17 + id as u64,
        )
    }

    #[test]
    fn sequential_engine_orders_outcomes_by_client_id() {
        let mut clients = vec![client(0), client(1), client(2)];
        let params = SoftmaxModel::new(6, 3, 11).parameters();
        let deadline = clients.iter().map(|c| c.t_min_s()).fold(0.0, f64::max) * 2.0;
        let jobs: Vec<ClientJob> = [0usize, 2]
            .iter()
            .map(|&id| ClientJob {
                client_id: id,
                round: 0,
                deadline: RoundDeadline::Training(deadline),
                dropped: false,
            })
            .collect();
        let mut engine = SequentialEngine::new();
        let outcomes = engine.run_batch(&mut clients, &params, &jobs);
        assert_eq!(outcomes.len(), 2);
        assert_eq!(outcomes[0].client_id, 0);
        assert_eq!(outcomes[1].client_id, 2);
        assert!(outcomes.iter().all(|o| o.aggregatable()));
        assert!(outcomes.iter().all(|o| o.straggler_factor == 1.0));
        assert_eq!(engine.label(), "sequential");
    }

    #[test]
    fn dropped_jobs_still_train_but_never_aggregate() {
        let mut clients = vec![client(0)];
        let params = SoftmaxModel::new(6, 3, 11).parameters();
        let deadline = clients[0].t_min_s() * 2.0;
        let jobs = [ClientJob {
            client_id: 0,
            round: 0,
            deadline: RoundDeadline::Training(deadline),
            dropped: true,
        }];
        let outcomes = SequentialEngine::new().run_batch(&mut clients, &params, &jobs);
        assert!(outcomes[0].result.energy_j > 0.0, "dropout wastes energy");
        assert!(!outcomes[0].aggregatable());
    }

    #[test]
    fn round_deadline_limits() {
        assert_eq!(RoundDeadline::Training(4.0).limit_s(), 4.0);
        let r = RoundDeadline::Reporting(crate::network::ReportingDeadline::new(9.0));
        assert_eq!(r.limit_s(), 9.0);
    }
}
