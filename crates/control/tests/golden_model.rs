//! Golden pins on what the federation learns: the exact bits of every
//! round's test accuracy and test loss, and an FNV-1a hash of the final
//! global parameters, for a seeded event-driven run with an int8 uplink
//! (error feedback on) under faults. The values were recorded before the
//! probability kernel behind SGD and evaluation was rewritten, so a
//! speed-up that changes one bit of training or evaluation fails here.

use bofl_control::prelude::*;
use bofl_fl::server::FederationConfig;

fn run() -> ControlSimulation {
    let seed = 2027;
    let mut sim = ControlSimulation::builder(FleetSpec::mixed(12, seed))
        .federation(FederationConfig {
            clients_per_round: 5,
            rounds: 6,
            classes: 4,
            feature_dims: 8,
            seed,
            aggregation: AggregationPolicy::recovery(),
            ..FederationConfig::default()
        })
        .workers(2)
        .faults(
            FaultPlan::new(seed ^ 0xFA17)
                .with_dropout(0.1)
                .with_stragglers(0.2, (1.5, 2.5)),
        )
        .retry(RetryPolicy::recovery())
        .shard_plan(ShardPlan::with_shards(2), 0.5)
        .compressor(Int8Quantizer)
        .build();
    let report = sim.run();
    let bits: Vec<(u64, u64)> = report
        .history
        .rounds
        .iter()
        .map(|r| (r.test_accuracy.to_bits(), r.test_loss.to_bits()))
        .collect();
    assert_eq!(bits, ROUND_BITS, "per-round (accuracy, loss) bits");
    sim
}

fn fnv1a(params: &[f64]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for b in params.iter().flat_map(|p| p.to_bits().to_le_bytes()) {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x1000_0000_01b3);
    }
    hash
}

/// `(test_accuracy, test_loss)` bits per round; the comments give the
/// values to four places.
const ROUND_BITS: [(u64, u64); 6] = [
    (0x3fe7_3d55_5555_5555, 0x3fe7_c7c0_0abb_0440), // 0.7262, 0.7431
    (0x3fe2_a555_5555_5555, 0x3fe6_854b_4ddf_3115), // 0.5827, 0.7038
    (0x3fe0_c800_0000_0000, 0x3fef_917c_30ff_8609), // 0.5244, 0.9865
    (0x3feb_c000_0000_0000, 0x3fd5_fe92_7718_1ff5), // 0.8672, 0.3437
    (0x3feb_6000_0000_0000, 0x3fd5_5a74_c08b_0375), // 0.8555, 0.3336
    (0x3fea_ad55_5555_5555, 0x3fd6_d130_a403_5743), // 0.8337, 0.3565
];

#[test]
fn compressed_training_matches_the_pinned_bits() {
    let sim = run();
    assert_eq!(
        fnv1a(&sim.federation().global_parameters()),
        0x8050_c465_3f25_5bda
    );
}
