//! A full federated-learning cluster: a FedAvg server, a heterogeneous
//! pool of simulated Jetson clients, and BoFL controlling each client's
//! training pace. Every SGD step is real — the energy ledger and the
//! global model's accuracy come out of the same job loop.
//!
//! ```sh
//! cargo run --release --example fl_cluster
//! ```

use bofl::baselines::PerformantController;
use bofl::{BoflConfig, BoflController};
use bofl_device::Device;
use bofl_fl::prelude::*;

fn config() -> FederationConfig {
    FederationConfig {
        num_clients: 6,
        clients_per_round: 3,
        rounds: 12,
        deadline_ratio: 2.5,
        dirichlet_alpha: 0.5, // non-IID label skew
        feature_dims: 10,
        classes: 5,
        learning_rate: 0.25,
        dropout_probability: 0.05,
        seed: 2022,
        ..FederationConfig::default()
    }
}

/// Alternate AGX and TX2 clients — a heterogeneous edge fleet.
fn mixed_devices(id: usize) -> Device {
    if id.is_multiple_of(2) {
        Device::jetson_agx()
    } else {
        Device::jetson_tx2()
    }
}

fn run(
    label: &str,
    make_controller: impl Fn(usize) -> Box<dyn bofl::task::PaceController> + 'static,
) -> RunHistory {
    // The default sequential engine keeps a small cluster easy to step through.
    let mut federation = Federation::builder(config())
        .device_factory(mixed_devices)
        .controller_factory(make_controller)
        .build();
    let history = federation.run();
    println!("\n=== federation with {label} clients ===");
    println!(
        "{:>5} {:>10} {:>9} {:>10} {:>9}",
        "round", "deadline", "clients", "energy(J)", "accuracy"
    );
    for r in &history.rounds {
        println!(
            "{:>5} {:>9.1}s {:>6}/{:<2} {:>10.0} {:>8.1}%",
            r.round + 1,
            r.deadline_s,
            r.aggregated.len(),
            r.selected.len(),
            r.energy_j,
            r.test_accuracy * 100.0
        );
    }
    println!(
        "total energy {:.0} J, final accuracy {:.1}%",
        history.total_energy_j(),
        history.final_accuracy() * 100.0
    );
    history
}

fn main() {
    let bofl = run("BoFL", |_id| {
        Box::new(BoflController::new(BoflConfig::default()))
    });
    let performant = run("Performant", |_id| Box::new(PerformantController::new()));

    let saving = 1.0 - bofl.total_energy_j() / performant.total_energy_j();
    println!(
        "\nBoFL fleet used {:.1}% less energy than the Performant fleet,",
        saving * 100.0
    );
    println!(
        "while reaching {:.1}% vs {:.1}% final accuracy on the same data.",
        bofl.final_accuracy() * 100.0,
        performant.final_accuracy() * 100.0
    );
}
