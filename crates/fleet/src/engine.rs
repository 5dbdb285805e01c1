//! The deterministic parallel round engine.
//!
//! [`FleetEngine`] implements `bofl_fl`'s [`RoundEngine`] seam with a
//! fixed pool of OS threads (`std::thread::scope` + a mutex-guarded work
//! queue — no external runtime). Determinism falls out of three rules:
//!
//! 1. every client trains from seeds derived only from `(client, round)`,
//!    so a job's result is independent of *when* and *where* it runs;
//! 2. fault draws are a pure function of `(fault seed, round, client)`
//!    ([`FaultPlan::draw`]), never of scheduling order;
//! 3. outcomes are collected and sorted by client id before they are
//!    returned, erasing arrival order.
//!
//! Consequently the same fleet seed produces a byte-identical aggregate
//! trace whether the engine runs 1 worker or 64 — the property
//! `bofl-control`'s `fleet_determinism` regression test pins down.

use crate::fault::FaultPlan;
use bofl_fl::client::FlClient;
use bofl_fl::engine::{run_client_job, ClientJob, ClientOutcome, RoundEngine};
use bofl_fl::network::RetryPolicy;
use std::sync::{mpsc, Mutex};
use std::thread;

/// The seed the upload-retry backoff stream for `(round, client)` is
/// drawn from. Shared with the event-driven engine in `bofl-control` so
/// both engines reconstruct identical retry timelines from the same
/// outcome.
pub fn upload_backoff_seed(round: usize, client_id: usize) -> u64 {
    (round as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (client_id as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
}

/// A parallel round engine with a fixed-size worker pool and optional
/// fault injection.
#[derive(Debug, Clone)]
pub struct FleetEngine {
    workers: usize,
    faults: FaultPlan,
    retry: RetryPolicy,
    label: String,
}

impl FleetEngine {
    /// Creates an engine with `workers` OS threads per round.
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0`.
    pub fn new(workers: usize) -> Self {
        assert!(workers > 0, "an engine needs at least one worker");
        FleetEngine {
            workers,
            faults: FaultPlan::none(),
            retry: RetryPolicy::none(),
            label: format!("fleet({workers} workers)"),
        }
    }

    /// Attaches a fault-injection plan.
    #[must_use]
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Attaches an upload retry policy (defaults to
    /// [`RetryPolicy::none`], single-attempt uploads).
    #[must_use]
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The engine's fault plan.
    pub fn faults(&self) -> &FaultPlan {
        &self.faults
    }

    /// The engine's upload retry policy.
    pub fn retry(&self) -> &RetryPolicy {
        &self.retry
    }

    /// Runs one job and applies this engine's fault draws to the result.
    fn run_faulted(&self, client: &mut FlClient, global: &[f64], job: &ClientJob) -> ClientOutcome {
        let draw = self.faults.draw(job.round, job.client_id);

        // A straggler draw inflates every job's latency *inside* the
        // client's executor rather than stretching the finished round:
        // the pace controller observes the slowdown as it happens, so its
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
        if out.upload_failed && !self.retry.is_none() && !out.dropped && out.result.deadline_met {
            let budget = (job.deadline.limit_s() - out.result.duration_s).max(0.0);
            let backoff_seed = upload_backoff_seed(job.round, job.client_id);
            let mut waited_s = 0.0;
            while out.upload_failed && out.upload_attempts < self.retry.max_attempts {
                let wait = self.retry.backoff_s(out.upload_attempts, backoff_seed);
                if waited_s + wait > budget {
                    break;
                }
                waited_s += wait;
                out.upload_attempts += 1;
                out.upload_failed = self.faults.upload_attempt_failed(
                    job.round,
                    job.client_id,
                    out.upload_attempts,
                );
            }
        }
        out
    }
}

impl RoundEngine for FleetEngine {
    fn label(&self) -> &str {
        &self.label
    }

    fn run_batch(
        &mut self,
        clients: &mut [FlClient],
        global: &[f64],
        jobs: &[ClientJob],
    ) -> Vec<ClientOutcome> {
        // Pair each job with a disjoint `&mut` into the client pool. The
        // server hands jobs sorted by unique client id; walking the pool
        // once with `iter_mut` keeps the borrows provably disjoint without
        // unsafe code.
        debug_assert!(
            jobs.windows(2).all(|w| w[0].client_id < w[1].client_id),
            "jobs must be sorted by unique client id"
        );
        let mut pending = jobs.iter();
        let mut next = pending.next();
        let mut pairs: Vec<(&mut FlClient, &ClientJob)> = Vec::with_capacity(jobs.len());
        for (id, client) in clients.iter_mut().enumerate() {
            match next {
                Some(job) if job.client_id == id => {
                    pairs.push((client, job));
                    next = pending.next();
                }
                _ => {}
            }
        }
        assert!(
            next.is_none(),
            "job references client {} outside the pool of {}",
            next.map_or(0, |j| j.client_id),
            clients.len()
        );

        if self.workers == 1 {
            return pairs
                .into_iter()
                .map(|(client, job)| self.run_faulted(client, global, job))
                .collect();
        }

        // Work-stealing-lite: a shared iterator behind a mutex. Each lock
        // is held only long enough to pop one job, so contention is
        // negligible next to a client's training time, and slow jobs
        // (stragglers, TX2 boards) never pin fast workers to a static
        // partition.
        let queue = Mutex::new(pairs.into_iter());
        let (tx, rx) = mpsc::channel::<ClientOutcome>();
        let engine: &FleetEngine = self;
        thread::scope(|scope| {
            for _ in 0..engine.workers.min(jobs.len()).max(1) {
                let tx = tx.clone();
                let queue = &queue;
                scope.spawn(move || loop {
                    let item = queue.lock().expect("work queue poisoned").next();
                    let Some((client, job)) = item else { break };
                    let outcome = engine.run_faulted(client, global, job);
                    if tx.send(outcome).is_err() {
                        break;
                    }
                });
            }
        });
        drop(tx);
        let mut outcomes: Vec<ClientOutcome> = rx.into_iter().collect();
        // Arrival order is scheduling-dependent; id order is not.
        outcomes.sort_by_key(|o| o.client_id);
        outcomes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bofl::baselines::PerformantController;
    use bofl_device::Device;
    use bofl_fl::data::SyntheticDataset;
    use bofl_fl::engine::{RoundDeadline, SequentialEngine};
    use bofl_fl::model::{SoftmaxModel, TrainableModel};
    use bofl_workload::{FlTask, TaskKind, Testbed};

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
                    Box::new(SoftmaxModel::new(6, 3, id as u64)),
                    Box::new(PerformantController::new()),
                    0.2,
                    1000 + id as u64,
                )
            })
            .collect()
    }

    fn jobs_for(clients: &[FlClient]) -> Vec<ClientJob> {
        let deadline = clients.iter().map(|c| c.t_min_s()).fold(0.0, f64::max) * 2.0;
        clients
            .iter()
            .map(|c| ClientJob {
                client_id: c.id(),
                round: 0,
                deadline: RoundDeadline::Training(deadline),
                dropped: false,
                slowdown: 1.0,
            })
            .collect()
    }

    #[test]
    fn parallel_matches_sequential_engine_exactly() {
        let params = SoftmaxModel::new(6, 3, 77).parameters();
        let mut a = pool(6);
        let mut b = pool(6);
        let jobs = jobs_for(&a);
        let base = SequentialEngine::new().run_batch(&mut a, &params, &jobs);
        let par = FleetEngine::new(4).run_batch(&mut b, &params, &jobs);
        assert_eq!(base, par);
    }

    #[test]
    fn faults_are_identical_across_worker_counts() {
        let params = SoftmaxModel::new(6, 3, 77).parameters();
        let faults = FaultPlan::new(5)
            .with_dropout(0.3)
            .with_stragglers(0.5, (2.0, 5.0))
            .with_upload_failures(0.2);
        let jobs = jobs_for(&pool(8));
        let run = |workers: usize| {
            let mut clients = pool(8);
            let mut engine = FleetEngine::new(workers).with_faults(faults);
            engine.run_batch(&mut clients, &params, &jobs)
        };
        let one = run(1);
        let eight = run(8);
        assert_eq!(one, eight);
        // The plan's parameters are aggressive enough that something fired.
        assert!(one
            .iter()
            .any(|o| o.dropped || o.upload_failed || o.straggler_factor > 1.0));
    }

    #[test]
    fn stragglers_can_miss_deadlines() {
        let params = SoftmaxModel::new(6, 3, 77).parameters();
        let mut clients = pool(4);
        // Deadline 2× T_min, slowdown ≥ 3×: every straggler must miss.
        let jobs = jobs_for(&clients);
        let mut engine =
            FleetEngine::new(2).with_faults(FaultPlan::new(9).with_stragglers(1.0, (3.0, 4.0)));
        let outcomes = engine.run_batch(&mut clients, &params, &jobs);
        assert!(outcomes.iter().all(|o| o.straggler_factor >= 3.0));
        assert!(outcomes.iter().all(|o| o.missed_deadline()));
        assert!(outcomes.iter().all(|o| !o.aggregatable()));
    }

    #[test]
    fn retries_recover_some_uploads_and_stay_deterministic() {
        let params = SoftmaxModel::new(6, 3, 77).parameters();
        let faults = FaultPlan::new(13).with_upload_failures(0.6);
        let jobs = jobs_for(&pool(12));
        let run = |workers: usize, retry: RetryPolicy| {
            let mut clients = pool(12);
            let mut engine = FleetEngine::new(workers)
                .with_faults(faults)
                .with_retry(retry);
            engine.run_batch(&mut clients, &params, &jobs)
        };
        let no_retry = run(1, RetryPolicy::none());
        let with_retry = run(1, RetryPolicy::recovery());
        // Retries never change which first attempts fail…
        for (a, b) in no_retry.iter().zip(&with_retry) {
            assert_eq!(a.upload_failed, b.upload_attempts > 1 || b.upload_failed);
        }
        // …and at p = 0.6 with 3 attempts, some upload must be recovered.
        assert!(with_retry.iter().any(|o| o.recovered_upload()));
        let recovered: Vec<usize> = with_retry
            .iter()
            .filter(|o| o.recovered_upload())
            .map(|o| o.client_id)
            .collect();
        assert!(recovered
            .iter()
            .all(|&id| no_retry[id].upload_failed && !with_retry[id].upload_failed));
        // The whole trace, retries included, is worker-count independent.
        let parallel = run(8, RetryPolicy::recovery());
        assert_eq!(with_retry, parallel);
    }

    #[test]
    fn dropped_or_late_clients_never_retry() {
        let params = SoftmaxModel::new(6, 3, 77).parameters();
        let faults = FaultPlan::new(13)
            .with_dropout(1.0)
            .with_upload_failures(1.0);
        let mut clients = pool(4);
        let jobs = jobs_for(&clients);
        let mut engine = FleetEngine::new(2)
            .with_faults(faults)
            .with_retry(RetryPolicy::recovery());
        let outcomes = engine.run_batch(&mut clients, &params, &jobs);
        // A vanished client has nobody left to retry the upload.
        assert!(outcomes.iter().all(|o| o.upload_attempts == 1));
        assert!(outcomes.iter().all(|o| !o.aggregatable()));
    }

    #[test]
    fn subset_batches_map_to_the_right_clients() {
        let params = SoftmaxModel::new(6, 3, 77).parameters();
        let mut clients = pool(5);
        let all = jobs_for(&clients);
        let subset: Vec<ClientJob> = vec![all[1], all[3]];
        let outcomes = FleetEngine::new(3).run_batch(&mut clients, &params, &subset);
        let ids: Vec<usize> = outcomes.iter().map(|o| o.client_id).collect();
        assert_eq!(ids, vec![1, 3]);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn rejects_zero_workers() {
        let _ = FleetEngine::new(0);
    }
}
