//! The workspace's one compute fan-out: [`drain_tasks`].

use std::sync::Mutex;

/// Drains `tasks` on `workers` threads, the calling thread counted among
/// them: it starts `min(workers, tasks) − 1` scoped threads and drains
/// the queue beside them. Each worker builds one private scratch value
/// with `init`. Task results must land inside the task itself (each task
/// owns `&mut` access to its output slot), so scheduling order cannot
/// influence the outcome.
///
/// With `workers <= 1` (or a single task) only the caller runs: the
/// parallel path is an optimization, never a semantic fork. A panic in
/// any worker reaches the caller once every worker has stopped.
pub fn drain_tasks<T, S>(
    workers: usize,
    tasks: Vec<T>,
    init: impl Fn() -> S + Sync,
    work: impl Fn(&mut S, T) + Sync,
) where
    T: Send,
{
    let threads = workers.min(tasks.len());
    let queue = Mutex::new(tasks.into_iter());
    // Holds the lock only to pop: the guard dies when `next` returns.
    let next = || queue.lock().expect("queue poisoned").next();
    let drain = || {
        let mut scratch = init();
        while let Some(task) = next() {
            work(&mut scratch, task);
        }
    };
    if threads <= 1 {
        return drain();
    }
    std::thread::scope(|scope| {
        for _ in 1..threads {
            scope.spawn(drain);
        }
        drain();
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::thread::{self, ThreadId};

    /// The distinct threads that ran `init` for `tasks` unit tasks.
    fn started(workers: usize, tasks: usize) -> HashSet<ThreadId> {
        // `init` runs once on every started worker, idle or not.
        let started = Mutex::new(HashSet::new());
        let init = || started.lock().unwrap().insert(thread::current().id());
        drain_tasks(workers, vec![(); tasks], init, |_, ()| {});
        started.into_inner().unwrap()
    }

    #[test]
    fn drain_tasks_runs_every_task_exactly_once() {
        for workers in [1usize, 2, 8] {
            let mut hits = vec![0u32; 100];
            let tasks: Vec<(usize, &mut u32)> = hits.iter_mut().enumerate().collect();
            drain_tasks(
                workers,
                tasks,
                || (),
                |(), (i, slot)| {
                    *slot += 1 + i as u32;
                },
            );
            assert!(
                hits.iter().enumerate().all(|(i, &h)| h == 1 + i as u32),
                "workers={workers}"
            );
        }
    }

    #[test]
    fn drain_tasks_starts_no_more_workers_than_tasks() {
        for (workers, tasks) in [(8usize, 3usize), (8, 4), (2, 5), (3, 3)] {
            assert_eq!(
                started(workers, tasks).len(),
                workers.min(tasks),
                "{workers} workers, {tasks} tasks"
            );
        }
    }

    #[test]
    fn drain_tasks_counts_the_caller_as_a_worker() {
        let caller = thread::current().id();
        for (workers, tasks) in [(2usize, 2usize), (3, 8), (8, 3), (4, 4)] {
            let started = started(workers, tasks);
            assert_eq!(started.len(), workers.min(tasks), "{workers}/{tasks}");
            assert!(started.contains(&caller), "{workers}/{tasks}");
        }
        for (workers, tasks) in [(0usize, 5usize), (1, 5), (1, 1), (8, 1), (8, 0)] {
            let started = started(workers, tasks);
            assert_eq!(started, HashSet::from([caller]), "{workers}/{tasks}");
        }
    }
}
