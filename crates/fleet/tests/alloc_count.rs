//! Proof that the sharded aggregation hot path is allocation-free in the
//! steady state: a counting global allocator measures the exact number of
//! heap allocations each strategy performs. The naive FedAvg fold clones
//! every client's full model; the fixed-point [`UpdateAccumulator`] path
//! reuses preallocated buffers and performs **zero** allocations once
//! warm.

use bofl_fleet::shard::{aggregate_sharded, ShardPlan, UpdateAccumulator};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Passes every request through to the system allocator, counting calls
/// per thread: the test harness runs tests concurrently, so a
/// process-wide count would also see the sibling test's allocations.
struct CountingAllocator;

thread_local! {
    // `const` init with no destructor: reading it never allocates.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count_allocation() {
    // `try_with` fails only while the thread is being torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Allocations `f` performs on the calling thread (everything measured
/// here runs on it).
fn allocations_during(f: impl FnOnce()) -> usize {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

const DIM: usize = 256;
const CLIENTS: usize = 64;

fn synth_updates() -> Vec<(Vec<f64>, u64)> {
    (0..CLIENTS)
        .map(|i| {
            let params: Vec<f64> = (0..DIM)
                .map(|d| ((i * 31 + d * 7) % 97) as f64 / 97.0 - 0.5)
                .collect();
            (params, 50 + i as u64)
        })
        .collect()
}

/// The pre-PR hot path: clone each client's parameters, scale, and fold —
/// at least one full-model allocation per client per round.
fn naive_weighted_average(updates: &[(Vec<f64>, u64)]) -> Vec<f64> {
    let total: u64 = updates.iter().map(|(_, w)| *w).sum();
    let mut sum = vec![0.0f64; DIM];
    for (params, weight) in updates {
        let scaled: Vec<f64> = params.iter().map(|p| p * *weight as f64).collect();
        for (s, v) in sum.iter_mut().zip(scaled.iter()) {
            *s += v;
        }
    }
    sum.iter_mut().for_each(|s| *s /= total as f64);
    sum
}

#[test]
fn accumulator_path_allocates_nothing_once_warm() {
    let clients = synth_updates();
    let updates: Vec<(&[f64], u64)> = clients.iter().map(|(p, w)| (p.as_slice(), *w)).collect();
    let plan = ShardPlan::with_shards(8);
    let mut root = UpdateAccumulator::new();
    let mut scratch = UpdateAccumulator::new();
    let mut out = Vec::new();

    // Round 0 warms the buffers (root/scratch sums, the output vector).
    assert!(aggregate_sharded(
        plan,
        DIM,
        &updates,
        &mut root,
        &mut scratch,
        &mut out
    ));

    // Steady state: every subsequent round reuses them all.
    let steady = allocations_during(|| {
        for _ in 0..10 {
            assert!(aggregate_sharded(
                plan,
                DIM,
                &updates,
                &mut root,
                &mut scratch,
                &mut out
            ));
        }
    });
    assert_eq!(
        steady, 0,
        "warm sharded aggregation must not allocate (got {steady} allocations over 10 rounds)"
    );

    // The naive fold allocates at least one clone per client per round.
    let naive = allocations_during(|| {
        for _ in 0..10 {
            std::hint::black_box(naive_weighted_average(&clients));
        }
    });
    assert!(
        naive >= 10 * CLIENTS,
        "naive fold should clone per client (got {naive} allocations)"
    );
}

#[test]
fn both_paths_agree_on_the_average() {
    let clients = synth_updates();
    let updates: Vec<(&[f64], u64)> = clients.iter().map(|(p, w)| (p.as_slice(), *w)).collect();
    let mut root = UpdateAccumulator::new();
    let mut scratch = UpdateAccumulator::new();
    let mut fixed = Vec::new();
    assert!(aggregate_sharded(
        ShardPlan::with_shards(4),
        DIM,
        &updates,
        &mut root,
        &mut scratch,
        &mut fixed
    ));
    let float = naive_weighted_average(&clients);
    for (a, b) in fixed.iter().zip(float.iter()) {
        assert!((a - b).abs() < 1e-8, "fixed {a} vs float {b}");
    }
}
