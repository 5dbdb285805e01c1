//! Integration test for the footnote-3 extension: clients facing
//! *reporting* deadlines infer training deadlines from a bandwidth
//! estimator and still deliver updates on time with BoFL pacing.

use bofl::baselines::PerformantController;
use bofl::{BoflConfig, BoflController};
use bofl_device::Device;
use bofl_fl::prelude::*;
use bofl_fl::SoftmaxModel;
use bofl_workload::{FlTask, TaskKind, Testbed};

fn make_client(controller_is_bofl: bool) -> FlClient {
    let device = Device::jetson_agx();
    let task = FlTask::preset(TaskKind::Cifar10Vit, Testbed::JetsonAgx);
    let data = SyntheticDataset::gaussian_blobs(task.local_samples(), 8, 4, 0.4, 21);
    let controller: Box<dyn bofl::task::PaceController> = if controller_is_bofl {
        Box::new(BoflController::new(BoflConfig::fast_test()))
    } else {
        Box::new(PerformantController::new())
    };
    FlClient::new(
        0,
        device,
        task,
        data,
        SoftmaxModel::new(8, 4, 5),
        controller,
        0.2,
        77,
    )
    .with_uplink(NetworkModel::lte())
}

#[test]
fn reporting_rounds_meet_the_reporting_deadline() {
    let mut client = make_client(true);
    let t_min = client.t_min_s();
    // ViT ≈ 40 MB over LTE (≈ 0.6 MB/s) ≈ 65 s of upload; grant 2×T_min
    // of training headroom plus a 90 s reporting margin.
    let reporting = ReportingDeadline::new(t_min * 2.0 + 90.0);
    let global = SoftmaxModel::new(8, 4, 5).parameters();

    let mut met = 0;
    for round in 0..10 {
        let res = client.train_round(round, &global, RoundDeadline::Reporting(reporting), 1.0);
        assert!(res.duration_s > 0.0);
        if res.deadline_met {
            met += 1;
        }
    }
    assert!(
        met >= 9,
        "reporting deadlines should essentially always hold, met {met}/10"
    );
    // After the first round, the estimator has observations.
    assert!(client.bandwidth_estimate_bps().is_some());
    // LTE nominal ≈ 625 kB/s; the EWMA should land in the right decade.
    let bw = client.bandwidth_estimate_bps().unwrap();
    assert!((1e5..5e6).contains(&bw), "bandwidth estimate {bw:.0} B/s");
}

#[test]
fn first_round_uses_whole_window_then_adapts() {
    let mut client = make_client(false);
    let t_min = client.t_min_s();
    let reporting = ReportingDeadline::new(t_min * 2.0 + 120.0);
    let global = SoftmaxModel::new(8, 4, 5).parameters();

    // Round 0 already budgets from the model *download*, so even the
    // first reporting deadline holds.
    let r0 = client.train_round(0, &global, RoundDeadline::Reporting(reporting), 1.0);
    assert!(
        r0.deadline_met,
        "first round must meet the reporting deadline"
    );
    // The estimator keeps adapting on subsequent rounds.
    let before = client.bandwidth_estimate_bps().unwrap();
    let r1 = client.train_round(1, &global, RoundDeadline::Reporting(reporting), 1.0);
    assert!(r1.deadline_met, "adapted round must meet the deadline");
    let after = client.bandwidth_estimate_bps().unwrap();
    assert!(before > 0.0 && after > 0.0);
}
