//! The workspace's one fan-out helper: run `n` independent tasks and
//! return their results in index order, on the calling thread alone
//! unless extra threads pay for themselves.
//!
//! Every parallel site of the workspace — the draw streams of one
//! job's shards, the runs of its sorted error shots under evaluation
//! and the programs of one batch — is a call to [`run_indexed`] (or
//! [`run_indexed_within`] when the caller caps the workers itself). The
//! rule is the same everywhere:
//!
//! * the **caller works too**: it claims tasks off the same atomic
//!   index as the helpers, so a fan-out over `w` workers spawns `w − 1`
//!   threads, and a fan-out that spawns none is a plain loop;
//! * helpers are spawned only when the budget exceeds one **and** the
//!   caller's work estimate gives every worker at least
//!   [`SPAWN_WORK_FLOOR`] — a thread costs tens of microseconds to
//!   spawn and join, which a one-shot job never earns back, and which
//!   an 8192-shot job earns back many times over however finely its
//!   shots are sharded;
//! * results come back in index order whatever the interleaving, and a
//!   panicking task resumes its panic on the caller, once.
//!
//! The core budget is read from the operating system once per process
//! ([`core_budget`]); on Linux `available_parallelism` re-reads the
//! affinity mask and the cgroup quota files on every call.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// The work, in [`run_indexed`]'s unit, a fan-out must have **per
/// worker** before it adds one: `w` workers need `w` floors of total
/// work, so anything under two floors runs inline.
///
/// The unit is 10 nanoseconds, the low end of what one scheduled event
/// of one trajectory shot costs — a simulated run estimates `shots ×
/// events`, a caller that has a measured duration divides it by the
/// unit. Measured on a two-core host: a scoped
/// spawn + join costs ~25 µs and a shot-event 17 ns (SurvivalSkip) to
/// 47 ns (Replay), so a floor is a share of 80–400 µs per worker,
/// three to fifteen times the thread it pays for.
pub(crate) const SPAWN_WORK_FLOOR: u64 = 1 << 13;

/// The number of threads this process may keep busy: what
/// `std::thread::available_parallelism` reported the first time anyone
/// asked (1 if it could not say). Later changes to the affinity mask
/// are deliberately not seen — a budget that moves mid-run would make
/// wall-clock numbers incomparable, and it can never change a result.
pub(crate) fn core_budget() -> usize {
    static BUDGET: OnceLock<usize> = OnceLock::new();
    *BUDGET.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Runs `task(0)`, …, `task(n − 1)` on at most as many workers as the
/// process has cores — the calling thread plus scoped helpers — and
/// returns the results in index order. The core count is what
/// `std::thread::available_parallelism` reported the first time the
/// process asked.
///
/// `work_hint` is the caller's estimate of the work of **all `n`
/// tasks together** in units of 10 ns; the fan-out uses one worker per
/// 8 192 units of it, so what decides a spawn is what the threads save,
/// not how finely the work is cut. Under two such floors, or on one
/// core, every task runs inline on the caller in index order. The
/// tasks must be independent: which worker runs which index, and in
/// what order, is unspecified.
///
/// # Panics
///
/// If a task panics, the panic resumes on the calling thread after
/// every worker has stopped (the remaining tasks may or may not have
/// run). When several tasks panic, one of the panics is propagated.
pub fn run_indexed<T, F>(n: usize, work_hint: u64, task: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    run_indexed_within(core_budget(), n, work_hint, task)
}

/// How many workers (the caller included) a fan-out of `n` tasks with
/// `work_hint` total work runs on under `budget`: one per full
/// [`SPAWN_WORK_FLOOR`] of work, at most one per task, never more than
/// the budget and never fewer than one.
pub(crate) fn workers_for(budget: usize, n: usize, work_hint: u64) -> usize {
    let paid_for = usize::try_from(work_hint / SPAWN_WORK_FLOOR).unwrap_or(usize::MAX);
    budget.min(n).min(paid_for).max(1)
}

/// [`run_indexed`] on at most `budget` workers — the calling thread
/// plus up to `budget − 1` scoped helpers — one per
/// [`SPAWN_WORK_FLOOR`] of `work_hint`.
pub(crate) fn run_indexed_within<T, F>(budget: usize, n: usize, work_hint: u64, task: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let helpers = workers_for(budget, n, work_hint) - 1;
    if helpers == 0 {
        return (0..n).map(task).collect();
    }
    // `Relaxed`: the counter hands out indices and publishes nothing;
    // the results travel through `join`, which synchronizes.
    let next = AtomicUsize::new(0);
    #[cfg(test)]
    let scalar = (
        crate::state::kernel::SCALAR_ONLY.get(),
        crate::executor::SCALAR_SCREEN.get(),
    );
    let claim = || {
        #[cfg(test)]
        {
            crate::state::kernel::SCALAR_ONLY.set(scalar.0);
            crate::executor::SCALAR_SCREEN.set(scalar.1);
        }
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break done;
            }
            done.push((i, task(i)));
        }
    };
    let mut indexed: Vec<(usize, T)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..helpers).map(|_| scope.spawn(claim)).collect();
        let mut all = claim();
        for handle in handles {
            all.extend(
                handle
                    .join()
                    .unwrap_or_else(|payload| std::panic::resume_unwind(payload)),
            );
        }
        all
    });
    indexed.sort_unstable_by_key(|&(i, _)| i);
    indexed.into_iter().map(|(_, result)| result).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Barrier, Mutex};

    /// A hint that always clears the floor.
    const HEAVY: u64 = u64::MAX;

    #[test]
    fn results_come_back_in_index_order_under_every_budget() {
        for budget in [1, 2, 4, 8] {
            for n in [0, 1, 3, 8, 37] {
                let out = run_indexed_within(budget, n, HEAVY, |i| i * i);
                let expected: Vec<usize> = (0..n).map(|i| i * i).collect();
                assert_eq!(out, expected, "budget {budget}, n {n}");
            }
        }
        assert_eq!(run_indexed(5, HEAVY, |i| i + 1), vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn light_tasks_and_a_budget_of_one_stay_on_the_caller() {
        let caller = std::thread::current().id();
        let on_caller = |budget: usize, hint: u64| {
            run_indexed_within(budget, 6, hint, |_| std::thread::current().id())
                .into_iter()
                .all(|id| id == caller)
        };
        assert!(on_caller(8, 2 * SPAWN_WORK_FLOOR - 1));
        assert!(on_caller(8, 0));
        assert!(on_caller(1, HEAVY));
        assert!(on_caller(0, HEAVY));
    }

    #[test]
    fn workers_follow_total_work_not_task_size() {
        // One worker per floor of total work, capped by budget and n.
        assert_eq!(workers_for(8, 16, SPAWN_WORK_FLOOR), 1);
        assert_eq!(workers_for(8, 16, 2 * SPAWN_WORK_FLOOR), 2);
        assert_eq!(workers_for(8, 16, 5 * SPAWN_WORK_FLOOR + 7), 5);
        assert_eq!(workers_for(8, 16, HEAVY), 8);
        assert_eq!(workers_for(8, 3, HEAVY), 3);
        assert_eq!(workers_for(8, 0, HEAVY), 1);
        // A paper-sized job on a small circuit: 8192 shots × 10 events
        // cut into 16 shards of 512. Two shards alone would not pay
        // for a helper; the job is ten floors and fills a 4-core budget.
        assert_eq!(workers_for(4, 2, 2 * 512 * 10), 1);
        assert_eq!(workers_for(4, 16, 8192 * 10), 4);
        // A one-shot flood batch never spawns, whatever its size.
        assert_eq!(workers_for(64, 8, 8 * 100), 1);
    }

    #[test]
    fn heavy_tasks_run_on_the_caller_and_its_helpers() {
        // Every worker claims one task and waits for the others at the
        // barrier, so the call can only return if `workers` distinct
        // threads — the caller among them — ran concurrently.
        for workers in [2, 4] {
            let barrier = Barrier::new(workers);
            let work = workers as u64 * SPAWN_WORK_FLOOR;
            let ids = run_indexed_within(workers, workers, work, |_| {
                barrier.wait();
                std::thread::current().id()
            });
            let distinct: std::collections::HashSet<_> = ids.iter().collect();
            assert_eq!(distinct.len(), workers);
            assert!(ids.contains(&std::thread::current().id()));
        }
    }

    #[test]
    fn a_task_panic_reaches_the_caller_exactly_once() {
        for budget in [1, 2, 4, 8] {
            let ran = Mutex::new(Vec::new());
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                run_indexed_within(budget, 8, HEAVY, |i| {
                    ran.lock().expect("no task panics holding it").push(i);
                    if i == 3 {
                        panic!("task {i} failed");
                    }
                    i
                })
            }));
            let payload = caught.expect_err("the task panic must propagate");
            let message = payload
                .downcast_ref::<String>()
                .expect("the original payload, not a wrapper");
            assert_eq!(message, "task 3 failed", "budget {budget}");
            // The panicking task ran once; no task ran twice.
            let mut ran = ran.into_inner().expect("not poisoned");
            ran.sort_unstable();
            let before = ran.len();
            ran.dedup();
            assert_eq!(ran.len(), before);
            assert_eq!(ran.iter().filter(|&&i| i == 3).count(), 1);
        }
    }

    #[test]
    fn core_budget_is_positive_and_stable() {
        assert!(core_budget() >= 1);
        assert_eq!(core_budget(), core_budget());
    }
}
