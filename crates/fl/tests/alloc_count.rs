//! Allocation guards on the FL substrate, by a counting global allocator:
//!
//! - generating, splitting and partitioning a dataset makes a number of
//!   heap allocations that grows with the client and class counts, not
//!   with the sample count (one allocation per sample, a row `Vec` each,
//!   is what the flat layout removed);
//! - a `SoftmaxModel` is one allocation (its weights), and its SGD step
//!   allocates nothing once a thread's first step has grown the
//!   workspace, so neither a built fleet's heap nor its jobs carry SGD
//!   scratch.

use bofl_fl::{FederatedData, SoftmaxModel, SyntheticDataset};
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

/// Allocations `f` performs on the calling thread, and its result.
fn allocations_during<T>(f: impl FnOnce() -> T) -> (usize, T) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

const SAMPLES: usize = 10_000;
const CLIENTS: usize = 200;
const CLASSES: usize = 10;

#[test]
fn building_a_federated_dataset_allocates_per_client_not_per_sample() {
    let (allocations, (fed, test)) = allocations_during(|| {
        let all = SyntheticDataset::gaussian_blobs(SAMPLES, 8, CLASSES, 0.5, 3);
        let (train, test) = all.train_test_split(0.2);
        let fed = FederatedData::dirichlet_split(&train, CLIENTS, 0.5, 4);
        (fed, test)
    });
    assert_eq!(
        fed.iter().map(|s| s.len()).sum::<usize>() + test.len(),
        SAMPLES
    );
    // Two buffers (features, labels) per shard, a handful per class and a
    // constant rest; a per-sample allocation would blow far past this.
    let bound = 3 * CLIENTS + 3 * CLASSES + 32;
    assert!(
        allocations <= bound,
        "{allocations} allocations for {SAMPLES} samples, {CLIENTS} clients \
         and {CLASSES} classes (bound {bound})"
    );
}

#[test]
fn a_model_is_one_allocation_and_its_sgd_step_reuses_its_workspace() {
    let (allocations, mut model) = allocations_during(|| SoftmaxModel::new(8, 4, 1));
    assert_eq!(allocations, 1, "a model allocates its weights only");
    let data = SyntheticDataset::gaussian_blobs(45, 8, 4, 0.5, 2);
    let batch = |rows| data.batch(0..rows);
    // The first step on this thread may grow the workspace.
    model.sgd_step(&batch(32), 0.2);
    for rows in [32, 1, 7, 8, 9, 45] {
        let (allocations, _) = allocations_during(|| model.sgd_step(&batch(rows), 0.2));
        assert_eq!(allocations, 0, "a {rows}-row step allocated");
    }
}
