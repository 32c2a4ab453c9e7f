//! What a plan-cache hit and a plan-cache miss ask of the heap, as
//! budgets: the requests of one `tick` that stages, runs, scores and
//! finishes batches on a warm two-chip service, counted exactly and
//! held under figures written here. On a hit, staging copies nothing
//! out of the pending store (no circuit, no strategy, no pipeline
//! stage; see `qucp_runtime`'s crate docs, "what a cache hit costs");
//! on a miss, every program is prepared cold; under the batch EFS gate,
//! a survivor set committed before is reused whatever its members'
//! threshold bits. Stage 1 of a multi-program list, on a chip whose
//! region atlas is warm, copies out only each program's winner. A run
//! of a job its thread has run before asks for its histogram alone, and
//! a decoded `Submit` frame sizes its circuit once, as a decoded event
//! sizes its member-id list. A claim and a drained report share the
//! service's results instead of copying them. A change that puts one of
//! those copies back, gives a prepared job one more allocation, drops a
//! run's buffers instead of keeping them, grows a decoded circuit gate
//! by gate, or plans a repeated survivor set again, lands above its
//! budget.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use qucp_circuit::{library, Circuit};
use qucp_core::{
    allocate_partitions, strategy, CrosstalkTreatment, PartitionPolicy, Pipeline, DEFAULT_SIGMA,
};
use qucp_daemon::{Request, Response};
use qucp_device::ibm;
use qucp_runtime::{EfsGate, Event, JobRequest, JobTicket, Service, ServiceReport};
use qucp_sim::{ExecutionConfig, NoiseScaling, PreparedJob, ShotParallelism, TrajectoryKernel};

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

/// One steady-state tick: jobs and batches it dispatched, members its
/// batches evicted, heap requests it made.
#[derive(Debug)]
struct Tick {
    jobs: usize,
    batches: usize,
    shrinks: usize,
    requests: u64,
}

/// Warms a Toronto + Manhattan service under `gate` on `warm` one-shot
/// jobs, `max_parallel` to a batch, then submits `jobs` more and counts
/// the one `tick` that dispatches them; job `i` is `request(i)`, which
/// arrives at `i`. Returns that tick and its plan-cache hits and
/// misses.
fn measured_tick(
    gate: EfsGate,
    max_parallel: usize,
    warm: usize,
    jobs: usize,
    request: impl Fn(usize) -> JobRequest,
) -> (Tick, (usize, usize)) {
    let mut service = Service::builder()
        .device(ibm::toronto())
        .device(ibm::manhattan())
        .max_parallel(max_parallel)
        .default_shots(1)
        .efs_gate(gate)
        .build()
        .unwrap();
    let mut submitted = 0;
    let mut submit = |service: &mut Service, n: usize| {
        for _ in 0..n {
            service.submit(request(submitted)).unwrap();
            submitted += 1;
        }
    };
    submit(&mut service, warm);
    service.run_until_drained().unwrap();
    let warm = (
        service.route_cache_stats(),
        service.batches_run(),
        service.events().len(),
    );

    submit(&mut service, jobs);
    let before = REQUESTS.get();
    let done = service.tick(f64::INFINITY).unwrap();
    let requests = REQUESTS.get() - before;

    assert_eq!(done.len(), jobs);
    let stats = service.route_cache_stats();
    let shrunk = |e: &&Event| matches!(e, Event::BatchShrunk { .. });
    let tick = Tick {
        jobs,
        batches: service.batches_run() - warm.1,
        shrinks: service.events()[warm.2..].iter().filter(shrunk).count(),
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
    let (tick, plans) = measured_tick(
        EfsGate::HeadOnly,
        max_parallel,
        24 * max_parallel,
        jobs,
        |i| JobRequest::new(circuits[i / max_parallel % 2].clone(), i as f64),
    );
    assert_eq!(plans, (tick.batches, 0), "{tick:?}");
    tick
}

/// `bell` / `fredkin` jobs each with an `rz` angle no other job has:
/// every batch of the measured tick is planned afresh, and its programs
/// are prepared from scratch and run once.
fn cold_tick(max_parallel: usize, jobs: usize) -> Tick {
    let circuits = bell_and_fredkin();
    let (tick, plans) = measured_tick(
        EfsGate::HeadOnly,
        max_parallel,
        8 * max_parallel,
        jobs,
        |i| {
            let mut circuit = circuits[i % 2].clone();
            circuit.rz(0, 1e-3 * (i + 1) as f64);
            JobRequest::new(circuit, i as f64)
        },
    );
    assert_eq!(plans, (0, tick.batches), "{tick:?}");
    tick
}

/// Heap requests of one `tick` of 128 cached jobs (the count is exact
/// and the same in debug and release): 1 037 with one job to a batch
/// (8.10 per job), 714 with two (5.58), since a batch's events share the
/// device's name, the service's interned routing name and the one
/// member-id list its report also holds, and a result is wrapped once
/// in the `Arc` every claim and report shares (three requests a batch
/// fewer, one a job more); 11.10 and 6.58 per job before (1 421 and
/// 842), since a run takes its error shots,
/// arena, level pool and sampling tables from the buffers its thread
/// kept from the warm-up's runs; 11.73 and 7.56 before (1 502 and 968),
/// since a run's histogram is relabelled
/// to logical order in its own vector and execution no longer names
/// the result the finish pass renames; 13.73 and 9.56 before (1 758
/// and 1 224), since the admission policy packs into a buffer the
/// service keeps; 14.73 and 10.56 when it returned a fresh `Vec` per
/// pack (1 886 and 1 352), 40.73 and 25.06 before staging stopped
/// copying jobs. The budgets are the counts (they were the counts plus
/// 10 % while they were held per job).
///
/// Mutation checks (CHANGES.md): cloning the head's circuit in staging
/// again — `let _circuit = p.circuit.clone();` beside the
/// `HeadContext` — costs two requests a batch; copying the device's
/// name into each of the batch's events again costs two. Each fails
/// the first assertion.
const CACHED_SOLO_REQUESTS: u64 = 1_037;
const CACHED_PAIR_REQUESTS: u64 = 714;

#[test]
fn a_cached_batch_stays_within_its_heap_budget() {
    for (max_parallel, budget) in [(1, CACHED_SOLO_REQUESTS), (2, CACHED_PAIR_REQUESTS)] {
        let tick = steady_state_tick(max_parallel, 128);
        assert!(tick.batches >= 50, "{tick:?}");
        assert_eq!(tick.batches * max_parallel, tick.jobs, "{tick:?}");
        assert!(
            tick.requests <= budget,
            "{} heap requests over the budget of {budget} at {max_parallel} to a batch: {tick:?}",
            tick.requests
        );
    }
}

/// Heap requests of one `tick` of 64 cold jobs (every batch planned,
/// prepared and run from scratch; the count is exact and the same in
/// debug and release): 2 449 with one job to a batch, 1 868 with two —
/// 38.3 and 29.2 per job. A plan-memo miss plans on the buffers the
/// service's dispatch scratch lends it (stage 1's growth mask, region,
/// order and masks; routing's partition-local graph, distance table and
/// interaction weights; the merge's durations and overlap tables) and
/// finds calibration entries through the topology's link index, and the
/// event builder takes its slot and lane vectors from the thread's
/// scratch: a miss asks the heap for what the plan keeps. While each of
/// those was requested afresh per program, the same tick counted 4 273
/// and 3 660. While a program was also scored against a
/// second evolution of its logical circuit (a statevector and a
/// probability vector, two requests per prepared program) instead of
/// the prepared job's ideal distribution, the same tick counted 4 401
/// and 3 788. While a run allocated its own error shots,
/// arena, level pool and tables instead of taking those its thread kept
/// from the warm-up's runs, and the router grew each routed circuit
/// gate by gate, the same tick counted 4 597 and 3 993. While a run's
/// histogram was a tree of
/// outcomes, copied into a second tree in logical order, and execution
/// named each result, the same tick counted 4 725 and 4 121. While a
/// program's partition-local graph was
/// built from one vector per qubit and one per BFS, and growth around
/// the first program's qubits regrew every seed and collected every
/// candidate, the same tick counted 5 333 and 6 415. While a plan-cache
/// miss folded its members' circuits with the peephole pass (a copying pass, one request per
/// program) instead of submit folding each once in place, the same tick
/// counted 5 397 and 6 479. While a plan-cache miss copied its members
/// into a planning record first (their submission indices and job ids
/// in two vectors of their own), the same tick counted 5 525 and
/// 6 543. Before a planned program was timed by the
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
/// prepared program; `prepare` evolving the logical circuit again
/// (`Statevector::from_circuit` and its `probabilities()`) costs two
/// per prepared program; routing building a fresh partition-local graph
/// per program again (`LocalGraph::default()` in `map_in`) costs six
/// per routed program. Each fails.
const COLD_SOLO_REQUESTS: u64 = 2_449;
const COLD_PAIR_REQUESTS: u64 = 1_868;

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

/// `bell` / `fredkin` jobs under the batch EFS gate, three to a batch,
/// the second job of every three with a zero threshold the gate evicts
/// it for: every batch of the measured tick shrinks and commits a
/// survivor set the warm-up committed, under thresholds one ulp looser
/// than the warm-up's — the same evictions, different bits.
fn thresholded_tick(jobs: usize) -> Tick {
    let circuits = bell_and_fredkin();
    let warm = 24;
    let (tick, plans) = measured_tick(EfsGate::Batch, 3, warm, jobs, |i| {
        let mut request = JobRequest::new(circuits[i % 2].clone(), i as f64);
        let threshold: f64 = if i % 3 == 1 { 0.0 } else { 0.5 };
        let loosened = f64::from_bits(threshold.to_bits() + 1);
        request.fidelity_threshold = Some(if i < warm { threshold } else { loosened });
        request
    });
    assert_eq!(plans, (tick.batches, 0), "{tick:?}");
    assert!(tick.shrinks >= tick.batches, "{tick:?}");
    tick
}

/// Heap requests of one `tick` of 48 thresholded jobs whose survivor
/// sets repeat (the count is exact and the same in debug and release):
/// 383, 25 batches and 26 evictions, every batch's allocations and plan
/// read from the plan memo; 403 while the event builder requested its
/// slot and lane vectors per prepared program; 433 while a run allocated its own working
/// buffers instead of taking those its thread kept; 529 while a run's
/// histogram was a tree,
/// copied into a second one in logical order, and execution named each
/// result. While a job's threshold bits were part of
/// the plan key, 8 of the 25 batches missed (each new threshold pattern
/// re-allocated, re-routed and re-prepared its batch) and the same tick
/// counted 2 848. The budget is the count.
///
/// Mutation checks (CHANGES.md): the gate buffering its shrink events
/// in a vector of its own per pass, instead of the one the service
/// keeps, counts 17 more; a plan key that holds the head's threshold
/// bits again misses 8 of the tick's 25 batches and counts 2 074 more
/// (546 and 2 603 when they were measured, with the tree histograms).
/// Each fails.
const THRESHOLDED_REQUESTS: u64 = 383;

#[test]
fn a_thresholded_batch_whose_survivors_repeat_reuses_their_plan() {
    let tick = thresholded_tick(48);
    assert_eq!(tick.jobs, 48, "{tick:?}");
    assert!(
        tick.requests <= THRESHOLDED_REQUESTS,
        "{} heap requests over the budget of {THRESHOLDED_REQUESTS}: {tick:?}",
        tick.requests
    );
}

/// Heap requests of stage 1 — candidate growth and EFS scoring — for
/// `adder`, `fredkin` and `bell` on Toronto under QuCP's σ, with the
/// device's region atlas already holding the three widths (the count
/// is exact and the same in debug and release): 13. The first
/// program reads the idle chip's regions; the two later ones borrow
/// every idle region that avoids the qubits already taken, grow the
/// other seeds in buffers kept for the call, and copy a candidate out
/// only when it becomes the best so far. While the call's buffers were
/// not one lent scratch (the placement order, the taken-qubit mask and
/// the claimed links each their own vector), it counted 16. While growth around taken
/// qubits regrew every free seed, rebuilt its CNOT-error table per call
/// and collected every candidate and crosstalk pair, the same call
/// counted 73. The budget is the count.
///
/// Mutation checks (CHANGES.md): copying every visited candidate out of
/// the growth walk counts 100; scoring candidates with their crosstalk
/// pairs collected counts 30. Each fails. (Regrowing every seed instead
/// of borrowing costs time, not heap requests: the device's
/// `growth_around_taken_qubits_regrows_only_seeds_whose_idle_region_is_taken`
/// counts grown seeds.)
const WARM_STAGE_ONE_REQUESTS: u64 = 13;

#[test]
fn stage_one_of_three_programs_on_a_warm_atlas_stays_within_its_heap_budget() {
    let device = ibm::toronto();
    let programs =
        ["adder", "fredkin", "bell"].map(|name| library::by_name(name).unwrap().circuit());
    let programs: Vec<&Circuit> = programs.iter().collect();
    let policy = PartitionPolicy::NoiseAware(CrosstalkTreatment::Sigma(DEFAULT_SIGMA));
    let cold = allocate_partitions(&device, &programs, &policy).unwrap();

    let before = REQUESTS.get();
    let warm = allocate_partitions(&device, &programs, &policy).unwrap();
    let requests = REQUESTS.get() - before;

    assert_eq!(warm, cold);
    assert!(
        requests <= WARM_STAGE_ONE_REQUESTS,
        "{requests} heap requests over the budget of {WARM_STAGE_ONE_REQUESTS}"
    );
}

/// Heap requests of one 8 192-shot `Serial` run of `ghz(8)` planned on
/// Toronto, set-up and scoring included (`PlannedWorkload::run_program`;
/// the count is exact and the same in debug and release), the first
/// run on its thread, whose buffers start empty: 16. The
/// run tallies its shots in the one vector its histogram keeps (256
/// outcomes fit 8 192 shots, so the tally is dense and compacted in
/// place) and relabels it to logical order in place. While a histogram
/// was a tree of outcomes, every node of it was a request, and the
/// logical permutation built a second tree: the same run counted
/// 78. The budget is the count (it read 18, two over the count, until
/// it was pinned to it).
///
/// Mutation checks (CHANGES.md): tallying through a per-shot tree
/// insert again, or pushing every shot into a vector that was not
/// sized for them, costs requests per run. Each fails.
const GHZ8_RUN_REQUESTS: u64 = 16;

#[test]
fn an_8192_shot_run_tallies_in_one_vector() {
    let device = ibm::toronto();
    let qucp = strategy::qucp(DEFAULT_SIGMA);
    let plan = Pipeline::from_strategy(&qucp)
        .plan(&device, &[library::ghz(8)], true)
        .unwrap();
    let exec = ExecutionConfig::default().with_parallelism(ShotParallelism::Serial);
    assert_eq!(exec.shots, 8192);

    let before = REQUESTS.get();
    let result = plan.run_program(&device, 0, &exec).unwrap();
    let requests = REQUESTS.get() - before;

    assert_eq!(result.counts.shots(), 8192);
    assert!(
        requests <= GHZ8_RUN_REQUESTS,
        "{requests} heap requests over the budget of {GHZ8_RUN_REQUESTS}: {} outcomes",
        result.counts.len()
    );
}

/// Heap requests of a warm 8 192-shot run of `ghz(8)` prepared on
/// Toronto: after one run of the same job on the same thread, a run
/// asks the heap for its histogram alone — one block, the dense tally
/// of 256 outcomes it returns — under `Serial` and 16 shards on one
/// worker, under both kernels. Its shard streams, error-shot arena,
/// level pool and sampling tables are the ones the first run left in
/// the thread's scratch.
///
/// Mutation checks (CHANGES.md): evaluation dropping the join stream's
/// error buffers instead of giving them back to the thread, or a walk
/// dropping its level pool, asks for them again on every run, under
/// every mode; each fails.
#[test]
fn a_warm_run_requests_only_its_histogram() {
    let device = ibm::toronto();
    let qucp = strategy::qucp(DEFAULT_SIGMA);
    let plan = Pipeline::from_strategy(&qucp)
        .plan(&device, &[library::ghz(8)], true)
        .unwrap();
    let program = &plan.mapped[0];
    let (circuit, layout) = (&program.circuit, &program.layout);
    let scaling = NoiseScaling::uniform(circuit.gate_count());
    let exec = ExecutionConfig::default();
    assert_eq!(exec.shots, 8192);
    let prepared = PreparedJob::prepare(circuit, layout, &device, &scaling, &[], &exec).unwrap();
    let modes = [
        ShotParallelism::Serial,
        ShotParallelism::Sharded {
            shards: 16,
            threads: 1,
        },
    ];
    for kernel in [TrajectoryKernel::Replay, TrajectoryKernel::SurvivalSkip] {
        for mode in modes {
            let cfg = exec.with_kernel(kernel).with_parallelism(mode);
            let warm = prepared.run(circuit, &cfg.with_seed(1));

            let before = REQUESTS.get();
            let counts = prepared.run(circuit, &cfg.with_seed(2));
            let requests = REQUESTS.get() - before;

            assert_eq!((warm.shots(), counts.shots()), (8192, 8192));
            assert_eq!(
                requests,
                1,
                "{kernel:?} {mode:?}: {} outcomes",
                counts.len()
            );
        }
    }
}

/// Heap requests of decoding one `Submit` frame (exact, the same in
/// debug and release): 3 — the boxed job, the circuit's name and its
/// gate vector, which is sized once for the gate count the frame
/// declares, so a circuit of 1 000 gates costs what one of 1 does.
///
/// Mutation check (CHANGES.md): decoding without `Circuit::reserve`
/// grows the vector push by push — 4 requests at 5 gates, 7 at 64, 11
/// at 1 000 — and fails.
#[test]
fn a_decoded_circuit_is_sized_once() {
    for gates in [1, 64, 1_000] {
        let mut circuit = Circuit::with_name(3, "ladder");
        (0..gates).for_each(|g| {
            circuit.cx(g % 2, g % 2 + 1);
        });
        let frame = Request::Submit(Box::new(JobRequest::new(circuit, 1.0))).encode();
        let before = REQUESTS.get();
        let decoded = Request::decode(&frame);
        let requests = REQUESTS.get() - before;
        let Ok(Request::Submit(job)) = decoded else {
            panic!("an honest Submit frame decodes");
        };
        assert_eq!(job.circuit.gate_count(), gates);
        assert_eq!(requests, 3, "{gates} gates");
    }
}

/// Heap requests of decoding one `Events` frame that carries one
/// `BatchPlanned` event (exact, the same in debug and release): 3 — the
/// event vector, the device's name and the member-id list, which is
/// read into one allocation sized for the length the frame declares,
/// so a batch of 1 000 ids costs what one of 1 does.
///
/// Mutation check (CHANGES.md): decoding the ids into a `Vec` and
/// converting it (`Vec::<u64>::get(d).map(Arc::from)`) costs 4 requests
/// and fails.
#[test]
fn a_decoded_id_list_is_sized_once() {
    for ids in [1, 64, 1_000] {
        let event = Event::BatchPlanned {
            batch_index: 3,
            device: "toronto".into(),
            job_ids: (0..ids).collect(),
            start: 1.0,
            makespan: 2.0,
        };
        let frame = Response::Events(vec![event.clone()]).encode();
        let before = REQUESTS.get();
        let decoded = Response::decode(&frame);
        let requests = REQUESTS.get() - before;
        assert_eq!(decoded, Ok(Response::Events(vec![event])));
        assert_eq!(requests, 3, "{ids} ids");
    }
}

/// A Toronto + Manhattan service, two `bell` / `fredkin` jobs to a
/// batch, that has drained `jobs` one-shot jobs: its tickets, in
/// submission order, and the report the drain returned.
fn drained_service(jobs: usize) -> (Service, Vec<JobTicket>, ServiceReport) {
    let circuits = bell_and_fredkin();
    let mut service = Service::builder()
        .device(ibm::toronto())
        .device(ibm::manhattan())
        .max_parallel(2)
        .default_shots(1)
        .build()
        .unwrap();
    let tickets = (0..jobs)
        .map(|i| {
            let request = JobRequest::new(circuits[i / 2 % 2].clone(), i as f64);
            service.submit(request).unwrap()
        })
        .collect();
    let report = service.run_until_drained().unwrap();
    (service, tickets, report)
}

/// Heap requests of `run_until_drained` on a service that has nothing
/// left to run, at 32 and at 64 drained jobs (exact, the same in debug
/// and release): 23 and 39 — the report's four vectors, the name of
/// each of its two device records and one name per batch record (17
/// and 33), the public `String` of `BatchReport::device`. Its results, events and member-id lists are
/// the service's, shared. Claiming every ticket first asks the heap
/// for nothing: a claim shares the result the report holds. While a
/// claim and a report each copied every result (its name, partition
/// and counts) and a report copied every event's strings and id list,
/// both grew with every job.
///
/// Mutation check (CHANGES.md): a claim that copies the scored result
/// (`Arc::new((*result.result).clone())` in `JobTable::claim`) asks for
/// four requests a claim (the `Arc`, its name, partition and counts: 128
/// for 32 claims) and fails the first assertion.
const DRAINED_REPORT_REQUESTS: [(usize, u64); 2] = [(32, 23), (64, 39)];

#[test]
fn a_drained_report_and_a_claim_copy_no_result() {
    let mut counted = Vec::new();
    for (jobs, pinned) in DRAINED_REPORT_REQUESTS {
        let (mut service, tickets, report) = drained_service(jobs);

        let mut claimed = Vec::with_capacity(tickets.len());
        let before = REQUESTS.get();
        claimed.extend(tickets.iter().map(|t| service.take_result(t)));
        let claims = REQUESTS.get() - before;
        assert_eq!(claims, 0, "claiming {jobs} tickets");
        for (claim, reported) in claimed.iter().zip(&report.job_results) {
            let claim = claim.as_ref().expect("every batch ran");
            assert!(Arc::ptr_eq(&claim.result, &reported.result));
        }

        let before = REQUESTS.get();
        let again = service.run_until_drained().unwrap();
        let requests = REQUESTS.get() - before;
        assert_eq!(again, report);
        assert_eq!(
            requests,
            pinned,
            "a drained report of {jobs} jobs in {} batches",
            report.batches.len()
        );
        counted.push((report.batches.len() as u64, requests));
    }
    // The only growth is the one device name per batch record.
    let [(batches_a, a), (batches_b, b)] = counted[..] else {
        unreachable!("two job counts")
    };
    assert_eq!(b - a, batches_b - batches_a);
}
