//! Fleet fixtures shared by the recovery acceptance suites (`recovery`
//! and `recovery_event_driven`).

use bofl::baselines::OracleController;
use bofl::exploit::ExploitParams;
use bofl_control::prelude::*;
use bofl_fl::server::FederationConfig;
use bofl_workload::{FlTask, TaskKind, Testbed};

/// The reference fault plan: 30% transient stragglers slowed 2–4×, 10%
/// of uploads lost.
pub fn reference_faults(seed: u64) -> FaultPlan {
    FaultPlan::new(seed)
        .with_stragglers(0.3, (2.0, 4.0))
        .with_upload_failures(0.1)
}

pub fn federation_config(seed: u64, aggregation: AggregationPolicy) -> FederationConfig {
    FederationConfig {
        clients_per_round: 4,
        rounds: 10,
        classes: 3,
        feature_dims: 6,
        seed,
        aggregation,
        ..FederationConfig::default()
    }
}

/// Every client runs the Oracle controller for its own device — the
/// deadline-filling posture that mid-round escalation rescues.
pub fn oracle_sim(
    spec: FleetSpec,
    seed: u64,
    aggregation: AggregationPolicy,
    retry: RetryPolicy,
    exploit: ExploitParams,
) -> ControlSimulation {
    ControlSimulation::builder(spec)
        .federation(federation_config(seed, aggregation))
        .faults(reference_faults(seed ^ 0xFA17))
        .retry(retry)
        .controller_factory(move |id| {
            let task = FlTask::preset(TaskKind::Cifar10Vit, Testbed::JetsonAgx);
            let profile = spec.device(id).profile_all(&task);
            Box::new(OracleController::new(profile).with_params(exploit))
        })
        .build()
}
