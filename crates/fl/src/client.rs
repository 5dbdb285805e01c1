//! An FL client: real SGD training driven job-by-job through a pace
//! controller, with the simulated device charging latency and energy.

use crate::data::SyntheticDataset;
use crate::engine::RoundDeadline;
use crate::model::SoftmaxModel;
use crate::network::{BandwidthEstimator, NetworkModel};
use bofl::runner::SimExecutor;
use bofl::task::PaceController;
use bofl::{JobExecutor, Phase, RoundSpec};
use bofl_device::{ConfigSpace, Device, DvfsConfig, JobCost};
use bofl_workload::FlTask;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A [`JobExecutor`] that performs one *real* SGD minibatch step per job
/// while a [`SimExecutor`] charges the job's latency and energy on the
/// simulated device.
///
/// This is the piece that makes the FL examples genuine: the pace
/// controller's decisions gate actual learning progress — a dropped round
/// is an update the global model never sees.
pub(crate) struct TrainingExecutor<'a> {
    sim: SimExecutor<'a>,
    model: &'a mut SoftmaxModel,
    data: &'a SyntheticDataset,
    batch: usize,
    batch_cursor: usize,
    learning_rate: f64,
    last_loss: f64,
}

impl<'a> TrainingExecutor<'a> {
    /// Creates an executor for one round of local training, every job's
    /// latency inflated by `slowdown` (see [`SimExecutor::with_slowdown`]).
    pub(crate) fn new(
        device: &'a Device,
        task: &'a FlTask,
        model: &'a mut SoftmaxModel,
        data: &'a SyntheticDataset,
        learning_rate: f64,
        seed: u64,
        slowdown: f64,
    ) -> Self {
        TrainingExecutor {
            sim: SimExecutor::new(device, task, seed).with_slowdown(slowdown),
            model,
            data,
            batch: task.minibatch_size().min(data.len()).max(1),
            batch_cursor: 0,
            learning_rate,
            last_loss: f64::NAN,
        }
    }

    /// Energy consumed so far this round, joules.
    pub(crate) fn round_energy_j(&self) -> f64 {
        self.sim.round_energy_j()
    }

    /// Mean loss of the most recent minibatch (NaN before the first job).
    pub(crate) fn last_loss(&self) -> f64 {
        self.last_loss
    }

    fn next_batch(&mut self) -> (usize, usize) {
        let b = self.batch;
        let n_batches = (self.data.len() / b).max(1);
        let start = (self.batch_cursor % n_batches) * b;
        self.batch_cursor += 1;
        (start, (start + b).min(self.data.len()))
    }
}

impl JobExecutor for TrainingExecutor<'_> {
    fn config_space(&self) -> &ConfigSpace {
        self.sim.config_space()
    }

    fn run_job(&mut self, x: DvfsConfig) -> JobCost {
        // 1. Real learning: one SGD step on the next minibatch.
        let (lo, hi) = self.next_batch();
        let batch = self.data.batch(lo..hi);
        if !batch.is_empty() {
            self.last_loss = self.model.sgd_step(&batch, self.learning_rate);
        }
        // 2. Simulated cost: what the job did to the battery and clock.
        self.sim.run_job(x)
    }

    fn elapsed_s(&self) -> f64 {
        self.sim.elapsed_s()
    }
}

/// The result of one client-side training round.
#[derive(Debug, Clone, PartialEq)]
pub struct ClientRoundResult {
    /// Updated model parameters (uploaded to the server on success).
    pub parameters: Vec<f64>,
    /// Number of local samples (FedAvg weighting).
    pub samples: usize,
    /// Whether training finished before the deadline.
    pub deadline_met: bool,
    /// Energy the round consumed, joules.
    pub energy_j: f64,
    /// Wall time the round took, seconds.
    pub duration_s: f64,
    /// Final minibatch loss, as a cheap progress signal.
    pub last_loss: f64,
    /// The controller phase this round ran in (`None` for phase-less
    /// baselines like Performant/Oracle).
    pub phase: Option<Phase>,
    /// Jobs the deadline guardian escalated to `x_max` mid-round after
    /// detecting an overrun in progress.
    pub escalated_jobs: u64,
    /// Latency observations the controller quarantined as contaminated
    /// (excluded from its surrogate-model training set).
    pub quarantined: u64,
    /// Wall-clock milliseconds the controller's MBO `suggest` call took
    /// this round (`0.0` when no surrogate ran — baselines, or BoFL
    /// phases that did not re-plan).
    pub suggest_ms: f64,
}

/// One federated client: local data, a simulated device, and a pluggable
/// pace controller (BoFL or a baseline).
pub struct FlClient {
    id: usize,
    device: Device,
    task: FlTask,
    data: SyntheticDataset,
    model: SoftmaxModel,
    controller: Box<dyn PaceController>,
    learning_rate: f64,
    seed: u64,
    uplink: Option<NetworkModel>,
    bandwidth: BandwidthEstimator,
}

impl std::fmt::Debug for FlClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlClient")
            .field("id", &self.id)
            .field("device", &self.device.name())
            .field("samples", &self.data.len())
            .field("controller", &self.controller.name())
            .finish()
    }
}

impl FlClient {
    /// Creates a client.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        id: usize,
        device: Device,
        task: FlTask,
        data: SyntheticDataset,
        model: SoftmaxModel,
        controller: Box<dyn PaceController>,
        learning_rate: f64,
        seed: u64,
    ) -> Self {
        FlClient {
            id,
            device,
            task,
            data,
            model,
            controller,
            learning_rate,
            seed,
            uplink: None,
            bandwidth: BandwidthEstimator::default(),
        }
    }

    /// Attaches a simulated uplink, enabling
    /// [`FlClient::train_round`] against a [`RoundDeadline::Reporting`]
    /// deadline (the paper's footnote-3 reporting-deadline mode).
    pub fn with_uplink(mut self, network: NetworkModel) -> Self {
        self.uplink = Some(network);
        self
    }

    /// Client identifier.
    pub fn id(&self) -> usize {
        self.id
    }

    /// `T_min` for this client: one full round at `x_max`.
    pub fn t_min_s(&self) -> f64 {
        self.device.round_latency_at_max(&self.task)
    }

    /// Estimated energy of one full round at `x_max` (the quantity an
    /// AutoFL-style energy-aware server ranks clients by).
    pub(crate) fn round_energy_at_max_j(&self) -> f64 {
        let x_max = self.device.config_space().x_max();
        self.device.true_cost(&self.task, x_max).energy_j * self.task.jobs_per_round() as f64
    }

    /// Runs one local training round: download `global` parameters, run
    /// `W` jobs under the pace controller against `deadline`, report the
    /// update. `slowdown` (≥ 1, `1.0` = healthy) inflates every job's
    /// latency inside the executor, so engine-level fault plans perturb
    /// training *while the controller is watching* rather than after the
    /// fact.
    ///
    /// Against a [`RoundDeadline::Reporting`] deadline (the paper's
    /// footnote-3 mode, the time by which the server must have received
    /// the update) the client infers its training deadline by subtracting
    /// a conservative upload budget from its bandwidth estimator, trains,
    /// then simulates the upload and feeds the observed rate back into
    /// the estimator. The result's `duration_s` and `deadline_met` then
    /// refer to the reporting deadline (training + upload).
    ///
    /// # Panics
    ///
    /// Panics on a reporting deadline if no uplink was attached via
    /// [`FlClient::with_uplink`].
    pub fn train_round(
        &mut self,
        round: usize,
        global: &[f64],
        deadline: RoundDeadline,
        slowdown: f64,
    ) -> ClientRoundResult {
        let reporting = match deadline {
            RoundDeadline::Training(deadline_s) => {
                return self.train(round, global, deadline_s, slowdown)
            }
            RoundDeadline::Reporting(reporting) => reporting,
        };
        let network = self
            .uplink
            .expect("a reporting deadline requires with_uplink");
        let upload_bytes = self.task.model().parameter_bytes();
        let mut rng =
            StdRng::seed_from_u64(self.seed ^ (round as u64).wrapping_mul(0xA24B_AED4_963E_E407));

        // The client just *downloaded* the global model during the
        // configuration window — a free bandwidth measurement, so even the
        // very first round budgets its upload from data rather than hope.
        let (download_s, _) = network.transfer(upload_bytes, &mut rng);
        self.bandwidth.observe(upload_bytes, download_s);

        // The training window must at least admit the x_max schedule.
        let min_training = self.t_min_s() * 1.02;
        let training_deadline =
            reporting.training_deadline_s(&self.bandwidth, upload_bytes, min_training);

        let mut result = self.train(round, global, training_deadline, slowdown);

        // Simulate the upload and learn from it.
        let (upload_s, _) = network.transfer(upload_bytes, &mut rng);
        self.bandwidth.observe(upload_bytes, upload_s);

        result.duration_s += upload_s;
        result.deadline_met = result.duration_s <= reporting.reporting_s + 1e-9;
        result
    }

    /// One round of `W` paced jobs against a training deadline.
    fn train(
        &mut self,
        round: usize,
        global: &[f64],
        deadline_s: f64,
        slowdown: f64,
    ) -> ClientRoundResult {
        self.model.set_parameters(global);
        let spec = RoundSpec::new(round, self.task.jobs_per_round(), deadline_s);

        let seed = self.seed ^ (round as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut exec = TrainingExecutor::new(
            &self.device,
            &self.task,
            &mut self.model,
            &self.data,
            self.learning_rate,
            seed,
            slowdown,
        );
        let stats = self.controller.run_round(&spec, &mut exec);
        let duration_s = exec.elapsed_s();
        let energy_j = exec.round_energy_j();
        let last_loss = exec.last_loss();
        drop(exec);

        ClientRoundResult {
            parameters: self.model.parameters(),
            samples: self.data.len(),
            deadline_met: duration_s <= deadline_s + 1e-9,
            energy_j,
            duration_s,
            last_loss,
            phase: stats.phase,
            escalated_jobs: stats.escalated_jobs,
            quarantined: stats.quarantined,
            suggest_ms: stats
                .mbo_duration
                .map(|d| d.as_secs_f64() * 1e3)
                .unwrap_or(0.0),
        }
    }

    /// The client's current conservative bandwidth estimate, if any
    /// transfer has completed.
    pub fn bandwidth_estimate_bps(&self) -> Option<f64> {
        self.bandwidth.estimate_bps()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bofl::baselines::PerformantController;
    use bofl_workload::{TaskKind, Testbed};

    fn setup() -> (Device, FlTask, SyntheticDataset) {
        let device = Device::jetson_agx();
        let task = FlTask::preset(TaskKind::Cifar10Vit, Testbed::JetsonAgx);
        let data = SyntheticDataset::gaussian_blobs(task.local_samples(), 8, 4, 0.4, 3);
        (device, task, data)
    }

    #[test]
    fn executor_trains_while_charging_energy() {
        let (device, task, data) = setup();
        let mut model = SoftmaxModel::new(8, 4, 1);
        let before_loss = model.loss(&data.as_batch());
        let mut exec = TrainingExecutor::new(&device, &task, &mut model, &data, 0.2, 5, 1.0);
        let x = device.config_space().x_max();
        for _ in 0..50 {
            let cost = exec.run_job(x);
            assert!(cost.latency_s > 0.0);
        }
        assert!(exec.round_energy_j() > 0.0);
        assert!(exec.elapsed_s() > 0.0);
        assert!(exec.last_loss().is_finite());
        drop(exec);
        let after_loss = model.loss(&data.as_batch());
        assert!(
            after_loss < before_loss,
            "training must make progress: {before_loss} -> {after_loss}"
        );
    }

    #[test]
    fn client_round_reports_consistent_result() {
        let (device, task, data) = setup();
        let samples = data.len();
        let model = SoftmaxModel::new(8, 4, 2);
        let global = model.parameters();
        let mut client = FlClient::new(
            0,
            device,
            task,
            data,
            model,
            Box::new(PerformantController::new()),
            0.2,
            7,
        );
        let deadline = client.t_min_s() * 2.0;
        let res = client.train_round(0, &global, RoundDeadline::Training(deadline), 1.0);
        assert!(res.deadline_met);
        assert_eq!(res.samples, samples);
        assert!(res.energy_j > 0.0);
        assert!(res.duration_s > 0.0);
        assert_eq!(res.parameters.len(), global.len());
        assert_ne!(res.parameters, global, "training must change the model");
        assert_eq!(client.id(), 0);
    }
}
