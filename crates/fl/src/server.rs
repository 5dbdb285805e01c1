//! A FedAvg server with client selection, deadline assignment and
//! straggler handling (the workflow of the paper's Fig. 1).

use crate::aggregate::UpdateAccumulator;
use crate::client::FlClient;
use crate::data::{FederatedData, SyntheticDataset};
use crate::engine::{ClientJob, ClientOutcome, RoundDeadline, RoundEngine, SequentialEngine};
use crate::model::{fold_scores, SoftmaxModel};
use crate::network::{NetworkModel, ReportingDeadline};
use bofl::task::PaceController;
use bofl_device::Device;
use bofl_workload::{FlTask, TaskKind, Testbed};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// How the server selects participants each round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SelectionPolicy {
    /// Uniform random selection without replacement (the vanilla FedAvg
    /// server and the paper's assumption).
    #[default]
    Uniform,
    /// AutoFL-style energy-aware selection (paper §2.1): prefer clients
    /// whose devices finish a round with less energy at `x_max`,
    /// randomized by rank so slower devices still participate
    /// occasionally (statistical coverage of non-IID data).
    EnergyAware,
}

/// How the server expresses its per-round deadline.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum DeadlinePolicy {
    /// The paper's main model: the server assigns a *training* deadline
    /// (gradient computation must finish by then).
    #[default]
    Training,
    /// The footnote-3 extension: the server assigns a *reporting*
    /// deadline (update must be *received* by then); each client infers
    /// its training deadline from its own bandwidth estimator and the
    /// given uplink model.
    Reporting(NetworkModel),
}

/// Over-selection and quorum rules for closing a round (the recovery
/// half of the fault loop: selection-side redundancy plus an explicit
/// success target, instead of silently freezing the global model when a
/// round yields nothing).
///
/// With the default (no over-selection, no quorum) the federation behaves
/// exactly as the vanilla FedAvg server did. With a recovery policy the
/// server selects `K · (1 + over_select_fraction)` clients so that
/// stragglers and dropouts still leave roughly `K` usable updates, and
/// records a *quorum shortfall* whenever fewer than
/// `ceil(K · quorum_fraction)` updates arrive. Every update that does
/// arrive is always aggregated — the quorum marks rounds the operator
/// should distrust, it never discards work.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AggregationPolicy {
    /// Fraction of `clients_per_round` whose updates must arrive for the
    /// round to count as healthy (`0.0` disables the quorum check).
    pub quorum_fraction: f64,
    /// Extra clients to select beyond `clients_per_round`, as a fraction
    /// (`0.25` selects 25% more, rounded up; `0.0` disables).
    pub over_select_fraction: f64,
}

impl AggregationPolicy {
    /// No over-selection, no quorum — byte-identical to the pre-recovery
    /// server.
    pub fn none() -> Self {
        AggregationPolicy {
            quorum_fraction: 0.0,
            over_select_fraction: 0.0,
        }
    }

    /// A reasonable recovery posture: select 50% extra clients and expect
    /// at least half of the nominal cohort to report back.
    pub fn recovery() -> Self {
        AggregationPolicy {
            quorum_fraction: 0.5,
            over_select_fraction: 0.5,
        }
    }

    /// Number of clients to select for a nominal cohort of
    /// `clients_per_round` (always at least the cohort itself).
    pub(crate) fn selection_target(&self, clients_per_round: usize) -> usize {
        let extra = (clients_per_round as f64 * self.over_select_fraction).ceil() as usize;
        clients_per_round + extra
    }

    /// The quorum: how many aggregated updates the round needs to count
    /// as healthy (`0` when the quorum check is disabled).
    pub fn quorum(&self, clients_per_round: usize) -> usize {
        if self.quorum_fraction <= 0.0 {
            return 0;
        }
        ((clients_per_round as f64 * self.quorum_fraction).ceil() as usize).max(1)
    }

    /// The event-driven round-close target: once this many updates have
    /// been aggregated, an open round stops waiting for the stragglers
    /// still in flight. The target is the nominal cohort (never below the
    /// quorum), so with over-selection a round can close the moment a full
    /// cohort has reported — which is only ever *earlier* than the barrier
    /// join. Without over-selection every selected client is needed to
    /// reach the target, and the close degenerates to the barrier.
    pub fn close_target(&self, clients_per_round: usize) -> usize {
        clients_per_round.max(self.quorum(clients_per_round))
    }
}

impl Default for AggregationPolicy {
    fn default() -> Self {
        AggregationPolicy::none()
    }
}

/// Configuration of a federated simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FederationConfig {
    /// Total clients in the pool.
    pub num_clients: usize,
    /// Clients selected per round.
    pub clients_per_round: usize,
    /// Number of FL rounds.
    pub rounds: usize,
    /// Deadline ratio: each round's training deadline is drawn uniformly
    /// from `[T_min, ratio × T_min]` of the slowest selected client.
    pub deadline_ratio: f64,
    /// Dirichlet α for the label-skew partition.
    pub dirichlet_alpha: f64,
    /// Feature dimensionality of the synthetic dataset.
    pub feature_dims: usize,
    /// Number of classes.
    pub classes: usize,
    /// SGD learning rate on the clients.
    pub learning_rate: f64,
    /// Probability a selected client drops out (network loss etc.).
    pub dropout_probability: f64,
    /// How deadlines are expressed (training vs reporting).
    pub deadline_policy: DeadlinePolicy,
    /// How participants are selected each round.
    pub selection_policy: SelectionPolicy,
    /// Over-selection and quorum rules (defaults to
    /// [`AggregationPolicy::none`], the vanilla server).
    pub aggregation: AggregationPolicy,
    /// Master seed.
    pub seed: u64,
}

impl Default for FederationConfig {
    fn default() -> Self {
        FederationConfig {
            num_clients: 8,
            clients_per_round: 4,
            rounds: 10,
            deadline_ratio: 2.0,
            dirichlet_alpha: 0.5,
            feature_dims: 8,
            classes: 4,
            learning_rate: 0.2,
            dropout_probability: 0.0,
            deadline_policy: DeadlinePolicy::Training,
            selection_policy: SelectionPolicy::Uniform,
            aggregation: AggregationPolicy::none(),
            seed: 42,
        }
    }
}

/// Server-side multiplier on the nominal upload duration when a
/// training deadline is converted into a reporting deadline: slack for
/// slow links.
const UPLOAD_SLACK_FACTOR: f64 = 1.5;

/// What happened in one federated round.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundRecord {
    /// Zero-based round index.
    pub round: usize,
    /// Client ids selected this round.
    pub selected: Vec<usize>,
    /// Client ids whose updates were aggregated (met deadline, no
    /// dropout).
    pub aggregated: Vec<usize>,
    /// The training deadline assigned by the server, seconds.
    pub deadline_s: f64,
    /// The quorum the aggregation policy demanded (`0` = no quorum).
    pub quorum: usize,
    /// How many updates short of the quorum the round fell (`0` when the
    /// quorum was met or disabled). A non-zero shortfall with a non-empty
    /// `aggregated` set means the round progressed but under-sampled the
    /// cohort; a shortfall with an empty set is a wasted round.
    pub quorum_shortfall: usize,
    /// Total client energy this round, joules.
    pub energy_j: f64,
    /// Global-model accuracy on the held-out test set after aggregation.
    pub test_accuracy: f64,
    /// Global-model loss on the held-out test set after aggregation.
    pub test_loss: f64,
}

/// Full history of a federated run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunHistory {
    /// Per-round records.
    pub rounds: Vec<RoundRecord>,
}

impl RunHistory {
    /// Total energy across all rounds and clients, joules.
    pub fn total_energy_j(&self) -> f64 {
        self.rounds.iter().map(|r| r.energy_j).sum()
    }

    /// Final test accuracy.
    pub fn final_accuracy(&self) -> f64 {
        self.rounds.last().map_or(0.0, |r| r.test_accuracy)
    }
}

/// A complete federated simulation: server, clients, data and global
/// model. Build one with [`Federation::builder`].
///
/// Rounds execute through a pluggable [`RoundEngine`]. The default is the
/// inline [`SequentialEngine`], the reference trace; `bofl-control`'s
/// event-driven engine runs the same jobs on a worker pool and journals
/// every lifecycle transition.
///
/// ```
/// use bofl_fl::prelude::*;
///
/// let config = FederationConfig { rounds: 2, ..FederationConfig::default() };
/// let mut sim = Federation::builder(config)
///     .engine(SequentialEngine::new()) // the default; any RoundEngine fits
///     .build();
/// let history = sim.run();
/// assert_eq!(history.rounds.len(), 2);
/// ```
pub struct Federation {
    clients: Vec<FlClient>,
    global: SoftmaxModel,
    test_set: SyntheticDataset,
    config: FederationConfig,
    model_bytes: f64,
    rng: StdRng,
    engine: Box<dyn RoundEngine>,
    // Persistent aggregation buffers: the hot path folds every arrived
    // update into one fixed-point accumulator and never clones a
    // parameter vector, so steady-state rounds allocate nothing here.
    agg: UpdateAccumulator,
    avg_buf: Vec<f64>,
    // Per-sample test losses, filled by the engine's score each round and
    // folded in order; sized on the first round.
    test_losses: Vec<f64>,
}

impl std::fmt::Debug for Federation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Federation")
            .field("clients", &self.clients.len())
            .field("rounds", &self.config.rounds)
            .finish()
    }
}

impl Federation {
    /// Starts building a federation.
    pub fn builder(config: FederationConfig) -> FederationBuilder {
        FederationBuilder {
            config,
            device_factory: Box::new(|_| Device::jetson_agx()),
            controller_factory: Box::new(
                |_| Box::new(bofl::baselines::PerformantController::new()),
            ),
            task: None,
            engine: Box::new(SequentialEngine::new()),
        }
    }

    /// Runs all configured rounds and returns the history.
    pub fn run(&mut self) -> RunHistory {
        let mut rounds = Vec::with_capacity(self.config.rounds);
        for round in 0..self.config.rounds {
            rounds.push(self.run_round(round));
        }
        RunHistory { rounds }
    }

    /// Runs one round: select → assign deadline → train → aggregate.
    pub(crate) fn run_round(&mut self, round: usize) -> RoundRecord {
        self.run_round_detailed(round).0
    }

    /// Draw-for-draw replay of one round's server-side randomness —
    /// selection shuffle, deadline stretch, dropout pre-draws — without
    /// training anyone. The server's RNG is threaded across rounds, so a
    /// coordinator resumed from its write-ahead log calls this for every
    /// already-committed round to fast-forward the stream; the continued
    /// run then selects the exact cohorts the crashed run would have.
    pub fn skip_round_draws(&mut self, round: usize) {
        let _ = self.plan_round(round);
    }

    /// Steps 1–3 of a round: select the cohort, assign the deadline,
    /// pre-draw server-side dropout. All of the round's `self.rng` draws
    /// happen here, in a deterministic count and order (independent of
    /// outcomes), which is what makes [`Federation::skip_round_draws`]
    /// an exact replay.
    fn plan_round(&mut self, round: usize) -> (Vec<ClientJob>, f64) {
        // 1. Client selection.
        let mut ids: Vec<usize> = (0..self.clients.len()).collect();
        match self.config.selection_policy {
            SelectionPolicy::Uniform => {
                ids.shuffle(&mut self.rng);
            }
            SelectionPolicy::EnergyAware => {
                // Rank clients by their x_max round energy estimate, then
                // soften with exponential-rank sampling so selection is
                // biased toward efficient devices but never deterministic.
                let mut scored: Vec<(usize, f64)> = ids
                    .iter()
                    .map(|&i| (i, self.clients[i].round_energy_at_max_j()))
                    .collect();
                scored.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite energies"));
                let mut keyed: Vec<(f64, usize)> = scored
                    .iter()
                    .enumerate()
                    .map(|(rank, &(id, _))| {
                        let u: f64 = self.rng.gen::<f64>().max(f64::MIN_POSITIVE);
                        // Smaller key wins; efficient ranks get a boost.
                        (u.ln() * -(1.0 + rank as f64 * 0.5), id)
                    })
                    .collect();
                keyed.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite keys"));
                ids = keyed.into_iter().map(|(_, id)| id).collect();
            }
        }
        // Over-selection: with a recovery policy the server invites extra
        // clients so stragglers and upload failures still leave a full
        // cohort of usable updates.
        let target = self
            .config
            .aggregation
            .selection_target(self.config.clients_per_round);
        ids.truncate(target.min(self.clients.len()));
        ids.sort_unstable();

        // 2. Deadline assignment: feasible for the slowest selected
        //    client, scaled by a uniform draw from [1.02, ratio] (a small
        //    headroom keeps deadlines meaningful under latency jitter).
        let t_min_round = ids
            .iter()
            .map(|&i| self.clients[i].t_min_s())
            .fold(0.0f64, f64::max);
        let lo = 1.02f64.min(self.config.deadline_ratio);
        let stretch = lo + (self.config.deadline_ratio - lo) * self.rng.gen::<f64>();
        let deadline_s = t_min_round * stretch;

        // 3. Build the round's job batch. Server-side dropout is pre-drawn
        //    here, in client-id order, so the decision stream from
        //    `self.rng` is identical to the pre-engine inline loop (which
        //    drew one f64 per selected client in the same order) and —
        //    crucially — independent of how the engine schedules the jobs.
        let deadline = match self.config.deadline_policy {
            DeadlinePolicy::Training => RoundDeadline::Training(deadline_s),
            DeadlinePolicy::Reporting(network) => {
                // Reporting window = training window + nominal upload
                // budget for this task's model.
                let upload = network.nominal_duration_s(self.model_bytes) * UPLOAD_SLACK_FACTOR;
                RoundDeadline::Reporting(ReportingDeadline::new(deadline_s + upload))
            }
        };
        let jobs: Vec<ClientJob> = ids
            .iter()
            .map(|&id| ClientJob {
                client_id: id,
                round,
                deadline,
                dropped: self.rng.gen::<f64>() < self.config.dropout_probability,
                slowdown: 1.0,
            })
            .collect();
        (jobs, deadline_s)
    }

    /// Runs one round (select → assign deadline → train → aggregate) and
    /// also returns the per-client [`ClientOutcome`]s the round engine produced — the raw material for
    /// fleet-level metrics (energy/latency histograms, straggler rates).
    pub fn run_round_detailed(&mut self, round: usize) -> (RoundRecord, Vec<ClientOutcome>) {
        let (jobs, deadline_s) = self.plan_round(round);
        let ids: Vec<usize> = jobs.iter().map(|j| j.client_id).collect();

        // 4. Local training through the round engine (sequential by
        //    default; bofl-fleet plugs a worker pool in here).
        let global_params = self.global.parameters();
        let mut outcomes = self
            .engine
            .run_batch(&mut self.clients, &global_params, &jobs);
        outcomes.sort_by_key(|o| o.client_id);
        assert_eq!(
            outcomes.len(),
            jobs.len(),
            "engine `{}` must return one outcome per job",
            self.engine.label()
        );

        let energy_j: f64 = outcomes.iter().map(|o| o.result.energy_j).sum();
        let aggregated: Vec<usize> = outcomes
            .iter()
            .filter(|o| o.aggregatable())
            .map(|o| o.client_id)
            .collect();

        // 5. FedAvg, weighted by sample counts: the cohort's arrived
        //    updates (canonical id order) are folded into fixed-point sums
        //    in one flat pass, the same bits any shard grouping of the
        //    fold would give. Updates are borrowed, not cloned, and the
        //    accumulator/mean buffer persist across rounds.
        let mut updates = outcomes.iter().filter(|o| o.aggregatable()).peekable();
        if let Some(first) = updates.peek() {
            self.agg.reset(first.result.parameters.len());
            for o in updates {
                self.agg.fold(&o.result.parameters, o.result.samples as u64);
            }
            if self.agg.finish_into(&mut self.avg_buf) {
                self.global.set_parameters(&self.avg_buf);
            }
        }

        // Quorum accounting: every arrived update was aggregated above —
        // the quorum only *labels* the round. A shortfall is the signal a
        // fleet operator watches instead of discovering, rounds later,
        // that the global model quietly stopped moving.
        let quorum = self
            .config
            .aggregation
            .quorum(self.config.clients_per_round);
        let quorum_shortfall = quorum.saturating_sub(aggregated.len());

        // 6. Score the new global model on the test set, through the
        //    engine so a worker pool can share the rows.
        let test = self.test_set.as_batch();
        self.test_losses.resize(test.len(), 0.0);
        let hits = self
            .engine
            .score(&self.global, &test, &mut self.test_losses);
        let (test_accuracy, test_loss) = fold_scores(hits, &self.test_losses);
        let record = RoundRecord {
            round,
            selected: ids,
            aggregated,
            deadline_s,
            quorum,
            quorum_shortfall,
            energy_j,
            test_accuracy,
            test_loss,
        };
        (record, outcomes)
    }

    /// The global model's current flat parameter vector.
    pub fn global_parameters(&self) -> Vec<f64> {
        self.global.parameters()
    }

    /// Number of clients in the pool.
    pub fn num_clients(&self) -> usize {
        self.clients.len()
    }

    /// The label of the round engine driving this federation.
    pub fn engine_label(&self) -> &str {
        self.engine.label()
    }
}

/// Builder for a [`Federation`] (C-BUILDER).
pub struct FederationBuilder {
    config: FederationConfig,
    device_factory: Box<dyn Fn(usize) -> Device>,
    controller_factory: Box<dyn Fn(usize) -> Box<dyn PaceController>>,
    task: Option<FlTask>,
    engine: Box<dyn RoundEngine>,
}

impl std::fmt::Debug for FederationBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FederationBuilder")
            .field("config", &self.config)
            .finish()
    }
}

impl FederationBuilder {
    /// Sets the per-client device factory (client id → device). Defaults
    /// to every client on a Jetson AGX.
    pub fn device_factory(mut self, f: impl Fn(usize) -> Device + 'static) -> Self {
        self.device_factory = Box::new(f);
        self
    }

    /// Sets the pace-controller factory (client id → controller, one per
    /// client). The id lets heterogeneous fleets hand each client a
    /// controller tuned to its device — e.g. an oracle built from that
    /// device's offline profile. Defaults to the Performant baseline.
    pub fn controller_factory(
        mut self,
        f: impl Fn(usize) -> Box<dyn PaceController> + 'static,
    ) -> Self {
        self.controller_factory = Box::new(f);
        self
    }

    /// Overrides the FL task (defaults to the CIFAR10-ViT preset scaled
    /// to the synthetic data).
    pub fn task(mut self, task: FlTask) -> Self {
        self.task = Some(task);
        self
    }

    /// Sets the round engine (defaults to [`SequentialEngine`]). Any
    /// engine honoring the determinism contract in [`crate::engine`]
    /// yields a trace identical to the sequential one.
    pub fn engine(mut self, engine: impl RoundEngine + 'static) -> Self {
        self.engine = Box::new(engine);
        self
    }

    /// Builds the federation: generates data, partitions it, instantiates
    /// clients and the global model.
    pub fn build(self) -> Federation {
        let cfg = self.config;
        let task = self
            .task
            .unwrap_or_else(|| FlTask::preset(TaskKind::Cifar10Vit, Testbed::JetsonAgx));

        // Enough data for every client to hold `local_samples`.
        let per_client = task.local_samples();
        let total = per_client * cfg.num_clients;
        let test_size = (total / 5).max(cfg.classes * 10);
        let all = SyntheticDataset::gaussian_blobs(
            total + test_size,
            cfg.feature_dims,
            cfg.classes,
            0.5,
            cfg.seed,
        );
        let (train, test_set) = all.train_test_split(test_size as f64 / (total + test_size) as f64);
        let fed = FederatedData::dirichlet_split(
            &train,
            cfg.num_clients,
            cfg.dirichlet_alpha,
            cfg.seed ^ 1,
        );

        let model_bytes = task.model().parameter_bytes();
        let clients = fed
            .into_shards()
            .into_iter()
            .enumerate()
            .map(|(id, data)| {
                let client = FlClient::new(
                    id,
                    (self.device_factory)(id),
                    task.clone(),
                    data,
                    SoftmaxModel::new(cfg.feature_dims, cfg.classes, cfg.seed ^ 0xC11E),
                    (self.controller_factory)(id),
                    cfg.learning_rate,
                    cfg.seed ^ (id as u64).wrapping_mul(0x51_7C_C1),
                );
                match cfg.deadline_policy {
                    DeadlinePolicy::Reporting(network) => client.with_uplink(network),
                    DeadlinePolicy::Training => client,
                }
            })
            .collect();

        Federation {
            clients,
            global: SoftmaxModel::new(cfg.feature_dims, cfg.classes, cfg.seed ^ 0x61_0B_A1),
            test_set,
            config: cfg,
            model_bytes,
            rng: StdRng::seed_from_u64(cfg.seed ^ 0x5E_1EC7),
            engine: self.engine,
            agg: UpdateAccumulator::new(),
            avg_buf: Vec::new(),
            test_losses: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The global model's accuracy on the held-out test set.
    fn test_accuracy(sim: &Federation) -> f64 {
        sim.global.accuracy(&sim.test_set.as_batch())
    }

    fn quick_config() -> FederationConfig {
        FederationConfig {
            num_clients: 4,
            clients_per_round: 2,
            rounds: 5,
            classes: 3,
            feature_dims: 6,
            seed: 9,
            ..FederationConfig::default()
        }
    }

    #[test]
    fn fedavg_improves_accuracy() {
        let mut sim = Federation::builder(quick_config()).build();
        let initial = test_accuracy(&sim);
        let history = sim.run();
        assert_eq!(history.rounds.len(), 5);
        let final_acc = history.final_accuracy();
        // The randomly initialized global model can start anywhere, so ask
        // for a meaningful improvement *or* near-perfect separation of the
        // synthetic blobs — either way FedAvg demonstrably learned.
        assert!(
            final_acc > (initial + 0.2).min(0.95),
            "FedAvg should learn: {initial:.2} -> {final_acc:.2}"
        );
        assert!(history.total_energy_j() > 0.0);
    }

    #[test]
    fn selection_respects_pool_and_count() {
        let mut sim = Federation::builder(quick_config()).build();
        let rec = sim.run_round(0);
        assert_eq!(rec.selected.len(), 2);
        assert!(rec.selected.iter().all(|&id| id < 4));
        // All Performant clients meet deadlines; nobody drops.
        assert_eq!(rec.aggregated, rec.selected);
        assert!(rec.deadline_s > 0.0);
    }

    #[test]
    fn full_dropout_freezes_global_model() {
        let cfg = FederationConfig {
            dropout_probability: 1.0,
            ..quick_config()
        };
        let mut sim = Federation::builder(cfg).build();
        let initial = test_accuracy(&sim);
        let history = sim.run();
        assert!(history.rounds.iter().all(|r| r.aggregated.is_empty()));
        assert!((test_accuracy(&sim) - initial).abs() < 1e-12);
    }

    #[test]
    fn deadline_scales_with_ratio() {
        let tight = Federation::builder(FederationConfig {
            deadline_ratio: 1.0,
            ..quick_config()
        })
        .build()
        .run_first_deadline();
        let loose = Federation::builder(FederationConfig {
            deadline_ratio: 4.0,
            ..quick_config()
        })
        .build()
        .run_first_deadline();
        assert!(loose >= tight);
    }

    impl Federation {
        fn run_first_deadline(&mut self) -> f64 {
            self.run_round(0).deadline_s
        }
    }
}
