//! Fleet scale-out integration suite (PR 8): the best-k speculative
//! planner's winner-determinism rule and the bounded event log's
//! contract. (Queue-index, plan-cache and thread-order equivalence are
//! pinned by `integration_reference.rs`.)

use proptest::prelude::*;
use qucp_bench::EXPERIMENT_SEED;
use qucp_circuit::library;
use qucp_core::strategy;
use qucp_runtime::{
    Backfill, CalibrationAware, DispatchSharding, Event, ExecutionMode, Fifo, JobRequest, Service,
    ServiceReport, ShortestJobFirst, ShotParallelism, TrajectoryKernel,
};

const NAMES: [&str; 6] = [
    "bell",
    "fredkin",
    "linearsolver",
    "variation",
    "alu-v0_27",
    "qec",
];

/// A service on the skewed two-Toronto fleet under the given admission
/// policy (0 = FIFO, 1 = backfill, 2 = shortest-job-first) with the
/// dispatch-sharding and execution-mode seams exposed.
fn dispatch_service(
    policy: u8,
    best_k: usize,
    sharding: DispatchSharding,
    groups: Option<usize>,
    mode: ExecutionMode,
) -> Service {
    let mut builder = Service::builder()
        .registry(qucp_bench::skewed_fleet())
        .strategy(strategy::qucp(4.0))
        .max_parallel(3)
        .seed(EXPERIMENT_SEED)
        .best_k(best_k)
        .dispatch_sharding(sharding)
        .mode(mode);
    if let Some(groups) = groups {
        builder = builder.device_groups(groups);
    }
    let builder = match policy % 3 {
        0 => builder.policy(Fifo),
        1 => builder.policy(Backfill::default()),
        _ => builder.policy(ShortestJobFirst),
    };
    builder.build().expect("fleet service must build")
}

/// Materializes one random job spec into a request; `ov` exercises the
/// per-job strategy-override seam (1 = a genuinely different strategy,
/// 2 = an explicit override equal to the service default — the interned
/// fast path) and `exec` the per-job execution overrides (bit 0 picks
/// the SurvivalSkip kernel, the rest no / sharded / auto shot
/// parallelism), so jobs replaying one cached plan run it under
/// different kernels and shard splits.
fn request_of(i: usize, arrival: f64, name: usize, shots: usize, ov: u8, exec: u8) -> JobRequest {
    let mut circuit = library::by_name(NAMES[name % NAMES.len()])
        .expect("library benchmark must exist")
        .circuit();
    circuit.set_name(format!("{}#{i}", NAMES[name % NAMES.len()]));
    let mut req = JobRequest::new(circuit, arrival)
        .with_id(i as u64)
        .with_shots(shots);
    if exec % 2 == 1 {
        req = req.with_trajectory_kernel(TrajectoryKernel::SurvivalSkip);
    }
    req = match exec / 2 {
        1 => req.with_shot_parallelism(ShotParallelism::Sharded {
            shards: 3,
            threads: 2,
        }),
        2 => req.with_shot_parallelism(ShotParallelism::Auto),
        _ => req,
    };
    match ov {
        1 => req.with_strategy(strategy::cna()),
        2 => req.with_strategy(strategy::qucp(4.0)),
        _ => req,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The sharded-dispatch equivalence: per-group execution workers
    /// ([`DispatchSharding::Grouped`], any group count, any admission
    /// policy, any submit/tick interleaving) produce exactly the single
    /// loop's tickets from every tick and a bit-identical final report
    /// — staging stays sequential, execution shards, and the finish
    /// pass merges in global batch order. Each side draws its own
    /// execution mode, and every job its own kernel and
    /// shot-parallelism override.
    #[test]
    fn sharded_dispatch_matches_the_single_loop(
        jobs in proptest::collection::vec(
            (0u16..400, 0usize..6, 1usize..3, 0u8..3, 0u8..6),
            1usize..14,
        ),
        policy in 0u8..3,
        serials in (0u8..2, 0u8..2),
        groups in 1usize..5,
        split_frac in 0f64..1.0,
        tick_gap in 0f64..5e5,
    ) {
        let mode_of = |s: u8| if s == 0 { ExecutionMode::Concurrent } else { ExecutionMode::Serial };
        let mut single = dispatch_service(
            policy,
            1,
            DispatchSharding::Single,
            None,
            mode_of(serials.0),
        );
        let mut sharded = dispatch_service(
            policy,
            1,
            DispatchSharding::Grouped,
            Some(groups),
            mode_of(serials.1),
        );
        let mut t = 0.0;
        let reqs: Vec<JobRequest> = jobs
            .iter()
            .enumerate()
            .map(|(i, &(gap, name, shots, ov, exec))| {
                t += f64::from(gap);
                request_of(i, t, name, shots, ov, exec)
            })
            .collect();
        let split = ((reqs.len() as f64) * split_frac) as usize;

        for req in &reqs[..split] {
            let a = single.submit(req.clone()).expect("single submit");
            let b = sharded.submit(req.clone()).expect("sharded submit");
            prop_assert_eq!(a, b);
        }
        let t1 = t * 0.5 + tick_gap;
        prop_assert_eq!(
            single.tick(t1).expect("single tick"),
            sharded.tick(t1).expect("sharded tick")
        );
        for req in &reqs[split..] {
            let a = single.submit(req.clone()).expect("single submit");
            let b = sharded.submit(req.clone()).expect("sharded submit");
            prop_assert_eq!(a, b);
        }
        prop_assert_eq!(
            single.tick(t1 + tick_gap).expect("single tick"),
            sharded.tick(t1 + tick_gap).expect("sharded tick")
        );
        let a = single.run_until_drained().expect("single drain");
        let b = sharded.run_until_drained().expect("sharded drain");
        prop_assert_eq!(a, b);
    }

    /// The best-k determinism rule: speculative planning over the top-k
    /// routing candidates commits exactly the sequential (k = 1)
    /// winner — identical reports, including the `BatchRouted` device
    /// sequence, on the skewed fleet where calibration-aware ranking
    /// genuinely has two candidates to choose from. Only route-cache
    /// counters may differ (they are not part of the report).
    #[test]
    fn best_k_commits_the_sequential_winner(
        n in 3usize..10,
        seed in 0u64..1000,
        k in 2usize..5,
    ) {
        let run = |k: usize| -> ServiceReport {
            let mut service = Service::builder()
                .registry(qucp_bench::skewed_fleet())
                .strategy(strategy::qucp(4.0))
                .routing(CalibrationAware::default())
                .max_parallel(3)
                .seed(EXPERIMENT_SEED)
                .best_k(k)
                .build()
                .expect("best-k service must build");
            for job in qucp_runtime::synthetic_jobs(n, 400.0, 16, seed) {
                service
                    .submit(JobRequest::from_job(&job))
                    .expect("fixture job must submit");
            }
            service.run_until_drained().expect("best-k drain")
        };
        let sequential = run(1);
        prop_assert_eq!(&run(k), &sequential);
    }
}

/// The bounded event log: a capacity keeps only the most recent events
/// and counts the overflow in `ServiceReport::dropped_events`, while
/// observers still see every event at emission time and the scheduling
/// outcome (results, batches, stats) is untouched.
#[test]
fn event_capacity_bounds_the_log_without_losing_observers_or_results() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    let run = |capacity: Option<usize>| -> (ServiceReport, usize) {
        let observed = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&observed);
        let mut service = Service::builder()
            .device(qucp_device::ibm::toronto())
            .strategy(strategy::qucp(4.0))
            .max_parallel(2)
            .seed(EXPERIMENT_SEED)
            .event_capacity(capacity)
            .observer(move |_: &Event| {
                counter.fetch_add(1, Ordering::Relaxed);
            })
            .build()
            .expect("bounded-log service must build");
        for job in qucp_runtime::synthetic_jobs(8, 300.0, 32, 7) {
            service
                .submit(JobRequest::from_job(&job))
                .expect("fixture job must submit");
        }
        let report = service.run_until_drained().expect("bounded-log drain");
        (report, observed.load(Ordering::Relaxed))
    };

    let (unbounded, unbounded_seen) = run(None);
    assert_eq!(unbounded.dropped_events, 0);
    assert_eq!(unbounded.events.len(), unbounded_seen);
    let total = unbounded.events.len();
    assert!(total > 4, "fixture must emit more events than the cap");

    let (bounded, bounded_seen) = run(Some(4));
    assert_eq!(bounded.events.len(), 4);
    assert_eq!(bounded.dropped_events, total - 4);
    // The ring keeps the *most recent* events.
    assert_eq!(bounded.events[..], unbounded.events[total - 4..]);
    // Observers and the schedule itself are unaffected by the cap.
    assert_eq!(bounded_seen, total);
    assert_eq!(bounded.job_results, unbounded.job_results);
    assert_eq!(bounded.batches, unbounded.batches);
    assert_eq!(bounded.stats, unbounded.stats);
}
