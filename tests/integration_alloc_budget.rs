//! What a plan-cache hit asks of the heap, as a budget: the requests
//! of one `tick` that stages, runs, scores and finishes cached batches
//! on a warm two-chip service, counted exactly and held under a
//! per-job figure written here. Staging copies nothing out of the
//! pending store (no circuit, no strategy, no pipeline stage; see
//! `qucp_runtime`'s crate docs, "what a cache hit costs"); a change
//! that puts one of those copies back lands above the budget.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use qucp_circuit::library;
use qucp_device::ibm;
use qucp_runtime::{JobRequest, Service};

thread_local! {
    /// Heap requests made by *this* thread. `const`-initialised and
    /// without a destructor: the first access runs no lazy
    /// initialiser, so the allocator below can touch it from inside
    /// any allocation, reading it allocates nothing, and the harness's
    /// other threads count into cells of their own.
    static REQUESTS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator plus one thread-local increment per request
/// (`alloc`, `alloc_zeroed` and `realloc`, as `perfbench` counts).
struct CountingAlloc;

fn count() {
    // A thread past its TLS teardown is not one the test measures.
    let _ = REQUESTS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// whose `GlobalAlloc` contract the caller already upholds; the counter
// touches no allocator state and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: same layout, forwarded.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: same layout, forwarded.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: same block, layout and size, forwarded.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: same block and layout, forwarded.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// One steady-state tick: jobs and batches it dispatched, heap requests
/// it made.
#[derive(Debug)]
struct Tick {
    jobs: usize,
    batches: usize,
    requests: u64,
}

/// Warms a Toronto + Manhattan service on one-shot `bell` / `fredkin`
/// jobs, `max_parallel` to a batch, until every plan key of the stream
/// has been planned, replayed and had its prepared slots filled (they
/// fill on a plan's second execution); then submits `jobs` more and
/// counts the one `tick` that dispatches them.
fn steady_state_tick(max_parallel: usize, jobs: usize) -> Tick {
    let circuits = ["bell", "fredkin"].map(|name| library::by_name(name).unwrap().circuit());
    let mut service = Service::builder()
        .device(ibm::toronto())
        .device(ibm::manhattan())
        .max_parallel(max_parallel)
        .default_shots(1)
        .build()
        .unwrap();
    let mut submitted = 0;
    let mut submit = |service: &mut Service, n: usize| {
        for _ in 0..n {
            // Runs of `max_parallel` equal circuits: two batch shapes,
            // each seen by both chips.
            let circuit = circuits[submitted / max_parallel % 2].clone();
            service
                .submit(JobRequest::new(circuit, submitted as f64))
                .unwrap();
            submitted += 1;
        }
    };
    submit(&mut service, 24 * max_parallel);
    service.run_until_drained().unwrap();
    let warm = (service.route_cache_stats(), service.batches_run());

    submit(&mut service, jobs);
    let before = REQUESTS.get();
    let done = service.tick(f64::INFINITY).unwrap();
    let requests = REQUESTS.get() - before;

    assert_eq!(done.len(), jobs);
    let stats = service.route_cache_stats();
    let batches = service.batches_run() - warm.1;
    assert_eq!(
        (stats.plan_misses, stats.plan_hits),
        (warm.0.plan_misses, warm.0.plan_hits + batches),
        "every batch of the measured tick replays a cached plan"
    );
    Tick {
        jobs,
        batches,
        requests,
    }
}

/// Heap requests per job of a cached batch, measured when the budget
/// was written (PR 22; the count is exact and the same in debug and
/// release): 14.73 with one job to a batch (1 886 for 128 jobs), 10.56
/// with two (1 352) — 40.73 and 25.06 at the commit before. The budgets
/// are those plus 10 %.
///
/// Mutation check (CHANGES.md, PR 22): cloning the head's circuit in
/// staging again — `let _circuit = p.circuit.clone();` beside the
/// `HeadContext` — costs two requests a batch, 16.73 a solo job, and
/// fails the first assertion.
const SOLO_BUDGET: f64 = 16.2;
const PAIR_BUDGET: f64 = 11.6;

#[test]
fn a_cached_batch_stays_within_its_heap_budget() {
    for (max_parallel, budget) in [(1, SOLO_BUDGET), (2, PAIR_BUDGET)] {
        let tick = steady_state_tick(max_parallel, 128);
        assert!(tick.batches >= 50, "{tick:?}");
        assert_eq!(tick.batches * max_parallel, tick.jobs, "{tick:?}");
        let per_job = tick.requests as f64 / tick.jobs as f64;
        assert!(
            per_job <= budget,
            "{per_job:.2} heap requests per job over the budget of {budget} \
             at {max_parallel} to a batch: {tick:?}"
        );
    }
}
