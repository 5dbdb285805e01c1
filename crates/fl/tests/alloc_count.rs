//! Allocation guard on the synthetic data layer: a counting global
//! allocator proves that generating, splitting and partitioning a
//! dataset makes a number of heap allocations that grows with the
//! client and class counts, not with the sample count. One allocation
//! per sample (a row `Vec` each) is what the flat layout removed.

use bofl_fl::{FederatedData, SyntheticDataset};
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
