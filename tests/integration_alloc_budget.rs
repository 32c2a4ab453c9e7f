//! What a plan-cache hit and a plan-cache miss ask of the heap, as
//! budgets: the requests of one `tick` that stages, runs, scores and
//! finishes batches on a warm two-chip service, counted exactly and
//! held under figures written here. On a hit, staging copies nothing
//! out of the pending store (no circuit, no strategy, no pipeline
//! stage; see `qucp_runtime`'s crate docs, "what a cache hit costs");
//! on a miss, every program is prepared cold. A change that puts one of
//! those copies back, or gives a prepared job one more allocation,
//! lands above its budget.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use qucp_circuit::{library, Circuit};
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

/// Warms a Toronto + Manhattan service on `warm` one-shot jobs,
/// `max_parallel` to a batch, then submits `jobs` more and counts the
/// one `tick` that dispatches them; job `i` runs `circuit(i)`. Returns
/// that tick and its plan-cache hits and misses.
fn measured_tick(
    max_parallel: usize,
    warm: usize,
    jobs: usize,
    circuit: impl Fn(usize) -> Circuit,
) -> (Tick, (usize, usize)) {
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
            service
                .submit(JobRequest::new(circuit(submitted), submitted as f64))
                .unwrap();
            submitted += 1;
        }
    };
    submit(&mut service, warm);
    service.run_until_drained().unwrap();
    let warm = (service.route_cache_stats(), service.batches_run());

    submit(&mut service, jobs);
    let before = REQUESTS.get();
    let done = service.tick(f64::INFINITY).unwrap();
    let requests = REQUESTS.get() - before;

    assert_eq!(done.len(), jobs);
    let stats = service.route_cache_stats();
    let tick = Tick {
        jobs,
        batches: service.batches_run() - warm.1,
        requests,
    };
    let plans = (
        stats.plan_hits - warm.0.plan_hits,
        stats.plan_misses - warm.0.plan_misses,
    );
    (tick, plans)
}

fn bell_and_fredkin() -> [Circuit; 2] {
    ["bell", "fredkin"].map(|name| library::by_name(name).unwrap().circuit())
}

/// Runs of `max_parallel` equal `bell` / `fredkin` jobs — two batch
/// shapes, each seen by both chips — warmed until every plan key of
/// the stream has been planned, replayed and had its cache entry's
/// prepared slots filled (they are allocated on the entry's first hit):
/// every batch of the measured tick replays a cached plan.
fn steady_state_tick(max_parallel: usize, jobs: usize) -> Tick {
    let circuits = bell_and_fredkin();
    let (tick, plans) = measured_tick(max_parallel, 24 * max_parallel, jobs, |i| {
        circuits[i / max_parallel % 2].clone()
    });
    assert_eq!(plans, (tick.batches, 0), "{tick:?}");
    tick
}

/// `bell` / `fredkin` jobs each with an `rz` angle no other job has:
/// every batch of the measured tick is planned afresh, and its programs
/// are prepared from scratch and run once.
fn cold_tick(max_parallel: usize, jobs: usize) -> Tick {
    let circuits = bell_and_fredkin();
    let (tick, plans) = measured_tick(max_parallel, 8 * max_parallel, jobs, |i| {
        let mut circuit = circuits[i % 2].clone();
        circuit.rz(0, 1e-3 * (i + 1) as f64);
        circuit
    });
    assert_eq!(plans, (0, tick.batches), "{tick:?}");
    tick
}

/// Heap requests per job of a cached batch (the count is exact and the
/// same in debug and release): 13.73 with one job to a batch (1 758 for
/// 128 jobs), 9.56 with two (1 224), since the admission policy packs
/// into a buffer the service keeps; 14.73 and 10.56 when it returned a
/// fresh `Vec` per pack (1 886 and 1 352), 40.73 and 25.06 before
/// staging stopped copying jobs. The budgets are the counts plus 10 %.
///
/// Mutation check (CHANGES.md, PR 22): cloning the head's circuit in
/// staging again — `let _circuit = p.circuit.clone();` beside the
/// `HeadContext` — costs two requests a batch, 15.73 a solo job, and
/// fails the first assertion.
const SOLO_BUDGET: f64 = 15.1;
const PAIR_BUDGET: f64 = 10.5;

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

/// Heap requests of one `tick` of 64 cold jobs (every batch planned,
/// prepared and run from scratch; the count is exact and the same in
/// debug and release): 5 525 with one job to a batch, 6 543 with two —
/// 86.3 and 102.2 per job. Before a planned program was timed by the
/// schedule its merge computed, with its event stream built in one pass
/// (no duration vector, no second ALAP schedule, no per-qubit window
/// lists) and its layout checked without a vector, the same tick counted
/// 6 953 and 7 979. While a plan kept its own prepared state,
/// its first execution also asked for the vector that marked it
/// executed and for one `Arc` per prepared program: 7 081 and 8 075.
/// When the admission policy returned a fresh `Vec` per pack, the same
/// tick counted 64 more: one request per packed candidate, and a second
/// for a pack that grew past its head. The prepared job's draw strip had
/// taken them from 7 465 and 8 459 to 7 337 and 8 331 (a `Replay`
/// program is prepared with two vectors fewer, and the strip lives in
/// the allocation that held the readout thresholds). The budgets are the
/// counts.
///
/// Mutation checks (CHANGES.md): a pack that drops the kept buffer and
/// allocates afresh (`*picks = Vec::new()` at the top of
/// `AdmissionPolicy::pack`) costs one request per packed candidate;
/// the strip's event bounds in an exact-size vector of their own cost
/// one request per prepared program; a plan-cache entry whose slots are
/// allocated on the miss instead of the first hit counts 64 more solo;
/// the event builder calling `Schedule::idle_windows` again, or
/// `PlannedWorkload::prepare` scheduling the program afresh
/// (`PreparedJob::prepare` for `prepare_scheduled`), costs requests per
/// prepared program. Each fails.
const COLD_SOLO_REQUESTS: u64 = 5_525;
const COLD_PAIR_REQUESTS: u64 = 6_543;

#[test]
fn a_cold_batch_stays_within_its_heap_budget() {
    for (max_parallel, budget) in [(1, COLD_SOLO_REQUESTS), (2, COLD_PAIR_REQUESTS)] {
        let tick = cold_tick(max_parallel, 64);
        assert_eq!(tick.batches * max_parallel, tick.jobs, "{tick:?}");
        assert!(
            tick.requests <= budget,
            "{} heap requests over the budget of {budget} at {max_parallel} to a batch: {tick:?}",
            tick.requests
        );
    }
}
