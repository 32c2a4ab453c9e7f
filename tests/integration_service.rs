//! Integration tests for the event-driven `qucp-runtime` service API:
//! the golden FIFO snapshot, job-conservation properties for every
//! admission policy, the backfill starvation bound (reconstructed from
//! the telemetry event log), multi-device dispatch, and the
//! heterogeneous-batch EFS gate.

mod support;

use proptest::prelude::*;
use qucp_core::strategy;
use qucp_device::ibm;
use qucp_runtime::{
    skewed_jobs, synthetic_jobs, AdmissionPolicy, Backfill, EfsGate, Job, JobRequest, Service,
    ServiceReport, ShotParallelism, ShrinkReason,
};

const FIFO: AdmissionPolicy = AdmissionPolicy::Fifo;
const BACKFILL: AdmissionPolicy = AdmissionPolicy::Backfill(Backfill { max_overtakes: 2 });
const SJF: AdmissionPolicy = AdmissionPolicy::ShortestJobFirst;

/// Drains `jobs` through a seed-77 Service on `device` admitting by
/// `policy`, `max_parallel` to a batch.
fn drain(
    jobs: &[Job],
    max_parallel: usize,
    policy: AdmissionPolicy,
    device: qucp_device::Device,
) -> ServiceReport {
    let mut service = Service::builder()
        .device(device)
        .strategy(strategy::qucp(4.0))
        .policy(policy)
        .max_parallel(max_parallel)
        .seed(77)
        .build()
        .expect("build");
    for job in jobs {
        service.submit(JobRequest::from_job(job)).expect("submit");
    }
    service.run_until_drained().expect("drain")
}

/// Golden snapshot of the seed scheduler's FIFO decisions, frozen at
/// the service redesign: the differential suite pins production against
/// the reference scheduler but cannot by itself detect a drift common
/// to both; this test freezes the absolute behaviour — exact batch
/// memberships (pure integer scheduling decisions) and queue statistics
/// (tight tolerance, the runtime is deterministic) — so any change to
/// the FIFO path is loud.
#[test]
fn fifo_scheduling_decisions_match_golden_snapshot() {
    let jobs = synthetic_jobs(12, 300.0, 256, 0xACCE);
    let close = |a: f64, b: f64| (a - b).abs() <= 1e-6 * b.abs().max(1.0);

    let dedicated = drain(&jobs, 1, FIFO, ibm::toronto());
    let memberships: Vec<Vec<u64>> = dedicated
        .batches
        .iter()
        .map(|b| b.job_ids.clone())
        .collect();
    let expected: Vec<Vec<u64>> = (0..12u64).map(|i| vec![i]).collect();
    assert_eq!(memberships, expected);
    assert!(close(dedicated.stats.mean_waiting, 48067.625360));
    assert!(close(dedicated.stats.mean_turnaround, 58205.290525));
    assert!(close(dedicated.stats.makespan, 121657.746283));
    assert!(close(dedicated.stats.mean_throughput, 0.162435));

    let packed = drain(&jobs, 4, FIFO, ibm::toronto());
    let memberships: Vec<Vec<u64>> = packed.batches.iter().map(|b| b.job_ids.clone()).collect();
    assert_eq!(
        memberships,
        vec![vec![0], vec![1, 2, 3, 4], vec![5, 6, 7, 8], vec![9, 10, 11]]
    );
    assert!(close(packed.stats.mean_waiting, 19042.832443));
    assert!(close(packed.stats.mean_turnaround, 34692.747438));
    assert!(close(packed.stats.makespan, 56569.286641));
    assert!(close(packed.stats.mean_throughput, 0.360557));
}

/// Acceptance: on a skewed-arrival workload whose heavy jobs block the
/// FIFO head of line, both `Backfill` and `ShortestJobFirst` beat
/// `Fifo` mean turnaround.
#[test]
fn backfill_and_sjf_beat_fifo_on_skewed_arrivals() {
    let jobs = skewed_jobs(12, 13, 50.0, 32, 7);
    let fifo = drain(&jobs, 3, FIFO, ibm::melbourne());
    let backfill = drain(&jobs, 3, BACKFILL, ibm::melbourne());
    let sjf = drain(&jobs, 3, SJF, ibm::melbourne());
    assert!(
        backfill.stats.mean_turnaround < fifo.stats.mean_turnaround,
        "backfill {} !< fifo {}",
        backfill.stats.mean_turnaround,
        fifo.stats.mean_turnaround
    );
    assert!(
        sjf.stats.mean_turnaround < fifo.stats.mean_turnaround,
        "sjf {} !< fifo {}",
        sjf.stats.mean_turnaround,
        fifo.stats.mean_turnaround
    );
}

/// Counts, for every job, how many batches overtook it: batches that
/// started while the job was pending (arrived, not yet served) and
/// carried some job submitted after it.
fn overtake_counts(jobs: &[Job], report: &ServiceReport) -> Vec<usize> {
    jobs.iter()
        .map(|job| {
            let own_batch = report
                .job_results
                .iter()
                .find(|r| r.job_id == job.id)
                .expect("job served")
                .batch_index;
            report
                .batches
                .iter()
                .filter(|b| {
                    b.batch_index < own_batch
                        && job.arrival <= b.start
                        && b.job_ids.iter().all(|&id| id != job.id)
                        && b.job_ids.iter().any(|&id| id > job.id)
                })
                .count()
        })
        .collect()
}

/// The backfill starvation bound holds: heavy jobs are overtaken, but
/// never by more than `max_overtakes` batches. FIFO never overtakes at
/// all.
#[test]
fn backfill_overtakes_are_bounded_and_fifo_never_overtakes() {
    let jobs = skewed_jobs(10, 13, 50.0, 32, 3);
    let backfill = drain(&jobs, 3, BACKFILL, ibm::melbourne());
    let counts = overtake_counts(&jobs, &backfill);
    assert!(
        counts.iter().any(|&c| c > 0),
        "backfill never backfilled: {counts:?}"
    );
    assert!(
        counts.iter().all(|&c| c <= 2),
        "starvation bound violated: {counts:?}"
    );
    let fifo = drain(&jobs, 3, FIFO, ibm::melbourne());
    assert!(overtake_counts(&jobs, &fifo).iter().all(|&c| c == 0));
}

/// One service dispatches across two chips: wide jobs route to the only
/// device that admits them, the fleet splits the load, and the
/// per-device statistics reconcile with the fleet totals.
#[test]
fn multi_device_dispatch_routes_by_topology() {
    let mut service = Service::builder()
        .device(ibm::melbourne())
        .device(ibm::toronto())
        .strategy(strategy::qucp(4.0))
        .max_parallel(3)
        .seed(5)
        .build()
        .expect("build");
    let mut tickets = Vec::new();
    for job in synthetic_jobs(8, 100.0, 32, 0xD15)
        .iter()
        .chain(skewed_jobs(2, 18, 100.0, 8, 1).iter().skip(1).take(1))
    {
        tickets.push(service.submit(JobRequest::from_job(job)).expect("submit"));
    }
    let report = service.run_until_drained().expect("drain");
    assert_eq!(report.job_results.len(), 9);
    assert_eq!(report.per_device.len(), 2);
    // The 18-qubit GHZ job can only run on Toronto (27q).
    let toronto = ibm::toronto();
    let wide_batch = report
        .batches
        .iter()
        .find(|b| b.used_qubits >= 18)
        .expect("wide batch dispatched");
    assert_eq!(wide_batch.device, toronto.name());
    // Both chips served load, and the breakdown reconciles.
    assert!(report.per_device.iter().all(|d| d.jobs > 0));
    assert_eq!(
        report.per_device.iter().map(|d| d.jobs).sum::<usize>(),
        report.job_results.len()
    );
    assert_eq!(
        report
            .per_device
            .iter()
            .map(|d| d.stats.batches)
            .sum::<usize>(),
        report.stats.batches
    );
    let fleet_makespan = report
        .per_device
        .iter()
        .map(|d| d.stats.makespan)
        .fold(0.0f64, f64::max);
    assert_eq!(report.stats.makespan, fleet_makespan);
}

/// The heterogeneous-batch EFS gate enforces per-member thresholds: a
/// zero threshold on competing copies forces shrinks (visible in the
/// event log), while a generous threshold packs the same submissions
/// into one batch.
#[test]
fn batch_efs_gate_shrinks_by_member_tolerance() {
    let run = |threshold: f64| {
        let mut service = Service::builder()
            .device(ibm::toronto())
            .strategy(strategy::qucp(4.0))
            .max_parallel(3)
            .fidelity_threshold(Some(threshold))
            .efs_gate(EfsGate::Batch)
            .default_shots(32)
            .seed(13)
            .build()
            .expect("build");
        let fredkin = qucp_circuit::library::by_name("fredkin").unwrap().circuit();
        for i in 0..3 {
            let mut c = fredkin.clone();
            c.set_name(format!("fredkin#{i}"));
            service
                .submit(JobRequest::new(c, 0.0).with_id(i))
                .expect("submit");
        }
        let report = service.run_until_drained().expect("drain");
        let log = service.event_log().clone();
        (report, log)
    };
    let (strict, strict_log) = run(0.0);
    let (loose, loose_log) = run(1e9);
    assert!(
        strict.stats.batches > loose.stats.batches,
        "strict {} !> loose {}",
        strict.stats.batches,
        loose.stats.batches
    );
    assert!(strict_log.shrink_count(ShrinkReason::FidelityGate) >= 1);
    assert_eq!(loose_log.shrink_count(ShrinkReason::FidelityGate), 0);
    assert_eq!(loose.stats.batches, 1);
}

/// Worst-excess eviction drops the member whose partition degraded
/// most — here the *middle* member, which tail-shrink would never pick
/// first — and the evicted id matches the independently computed
/// `batch_efs_excesses` argmax (head exempt).
#[test]
fn worst_excess_gate_evicts_the_worst_member_not_the_tail() {
    let dev = ibm::toronto();
    let strat = strategy::qucp(4.0);
    let members = ["adder", "fredkin", "linearsolver"];
    let circuits: Vec<qucp_circuit::Circuit> = members
        .iter()
        .map(|n| qucp_circuit::library::by_name(n).unwrap().circuit())
        .collect();
    // Independent ground truth for the first eviction.
    let refs: Vec<&qucp_circuit::Circuit> = circuits.iter().collect();
    let excesses = qucp_core::threshold::batch_efs_excesses(&dev, &refs, &strat).expect("excesses");
    let expected_evict = (1..excesses.len())
        .max_by(|&a, &b| excesses[a].total_cmp(&excesses[b]).then(a.cmp(&b)))
        .unwrap() as u64;
    assert_eq!(expected_evict, 1, "combo chosen so the worst is mid-batch");
    assert!(excesses[1] > 0.08, "threshold must actually trip");

    let first_fidelity_drop = |gate: EfsGate| {
        let mut service = Service::builder()
            .device(ibm::toronto())
            .strategy(strategy::qucp(4.0))
            .max_parallel(3)
            .fidelity_threshold(Some(0.08))
            .efs_gate(gate)
            .default_shots(32)
            .seed(13)
            .build()
            .expect("build");
        for (i, c) in circuits.iter().enumerate() {
            service
                .submit(JobRequest::new(c.clone(), 0.0).with_id(i as u64))
                .expect("submit");
        }
        let report = service.run_until_drained().expect("drain");
        assert_eq!(report.job_results.len(), 3, "jobs conserved under {gate:?}");
        report
            .events
            .iter()
            .find_map(|e| match e {
                qucp_runtime::Event::BatchShrunk {
                    dropped_job_id,
                    reason: ShrinkReason::FidelityGate,
                    ..
                } => Some(*dropped_job_id),
                _ => None,
            })
            .expect("gate must shrink at least once")
    };
    assert_eq!(
        first_fidelity_drop(EfsGate::BatchWorstExcess),
        expected_evict
    );
    // Tail-shrink on the same workload drops the tail member first.
    assert_eq!(first_fidelity_drop(EfsGate::Batch), 2);
}

/// With a threshold no member trips, the worst-excess gate is
/// indistinguishable from the tail gate (and from no gate at all).
#[test]
fn worst_excess_gate_matches_batch_gate_when_threshold_is_loose() {
    let run = |gate: EfsGate| {
        let mut service = Service::builder()
            .device(ibm::toronto())
            .strategy(strategy::qucp(4.0))
            .max_parallel(3)
            .fidelity_threshold(Some(1e9))
            .efs_gate(gate)
            .default_shots(32)
            .seed(13)
            .build()
            .expect("build");
        for (i, name) in ["adder", "fredkin", "linearsolver"].iter().enumerate() {
            let c = qucp_circuit::library::by_name(name).unwrap().circuit();
            service
                .submit(JobRequest::new(c, 0.0).with_id(i as u64))
                .expect("submit");
        }
        service.run_until_drained().expect("drain")
    };
    let worst = run(EfsGate::BatchWorstExcess);
    let tail = run(EfsGate::Batch);
    assert_eq!(worst.stats, tail.stats);
    assert_eq!(worst.job_results, tail.job_results);
    assert_eq!(worst.stats.batches, 1);
}

/// Intra-program shot sharding at the service level: the drained
/// report is bit-for-bit identical whatever the worker-thread count.
#[test]
fn sharded_service_reports_are_thread_count_invariant() {
    let jobs = synthetic_jobs(6, 250.0, 512, 0x51AD);
    let run = |mode: Option<ShotParallelism>| {
        let mut service = Service::builder()
            .device(ibm::toronto())
            .strategy(strategy::qucp(4.0))
            .max_parallel(3)
            .seed(9)
            .build()
            .expect("build");
        for job in &jobs {
            let mut request = JobRequest::from_job(job);
            request.shot_parallelism = mode;
            service.submit(request).expect("submit");
        }
        service.run_until_drained().expect("drain")
    };
    let sharded = |threads| Some(ShotParallelism::Sharded { shards: 4, threads });
    let reference = run(sharded(1));
    for threads in [2, 4] {
        assert_eq!(run(sharded(threads)), reference);
    }
    // Sharded execution actually changes the sampled trajectories
    // relative to the serial stream (different, equally valid sample).
    let serial = run(None);
    assert_ne!(serial.job_results, reference.job_results);
    // But the schedule itself (which ignores counts) is unchanged.
    assert_eq!(serial.stats, reference.stats);
}

/// Batches heavy enough to pay for helper threads several times over
/// (2048 shots times a few dozen routed gates per program, 512-shot
/// shards) really run on them where the host has cores to spare — and
/// every ticket, result and report is still the serial loop's, bit for
/// bit: the reference scheduler runs every program inline in program
/// order, under both kernels and a sharded shot loop, on first
/// execution and on plan-cache replays alike.
#[test]
fn heavy_batches_fan_out_and_match_the_serial_loop() {
    use qucp_runtime::TrajectoryKernel;
    use support::{assert_matches_reference, Config, Fleet, Op};
    let jobs = synthetic_jobs(6, 250.0, 2048, 0xFA70);
    // Every burst after the first finds its jobs already arrived, so
    // the bursts batch alike and the later ones replay plans.
    let mut ops = Vec::new();
    for burst in 0..5u64 {
        for (i, job) in jobs.iter().enumerate() {
            let mut req = JobRequest::from_job(job).with_id(burst * 100 + job.id);
            if i % 2 == 1 {
                req = req.with_trajectory_kernel(TrajectoryKernel::SurvivalSkip);
            }
            if i % 3 == 0 {
                req = req.with_shot_parallelism(ShotParallelism::sharded(4));
            }
            ops.push(Op::Submit(req));
        }
        ops.push(Op::Drain);
    }
    let cfg = Config {
        fleet: Fleet::MelbourneToronto,
        seed: 17,
        ..Config::default()
    };
    let run = assert_matches_reference(&ops, &cfg);
    assert!(run.service.route_cache_stats().plan_hits > 0);
    assert_eq!(run.report.expect("drained").job_results.len(), 30);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// Every admission policy conserves jobs on random bursts: each
    /// submitted job is served exactly once, batches partition the job
    /// set, and waiting times respect arrivals.
    #[test]
    fn policies_conserve_jobs(
        n in 3usize..9,
        gap in 50.0f64..500.0,
        seed in 0u64..1000,
        policy in 0usize..3,
    ) {
        let jobs = synthetic_jobs(n, gap, 16, seed);
        let report = drain(&jobs, 3, [FIFO, BACKFILL, SJF][policy], ibm::toronto());
        prop_assert_eq!(report.job_results.len(), n);
        let mut served: Vec<u64> = report
            .batches
            .iter()
            .flat_map(|b| b.job_ids.iter().copied())
            .collect();
        served.sort_unstable();
        let expected: Vec<u64> = (0..n as u64).collect();
        prop_assert_eq!(served, expected);
        for r in &report.job_results {
            prop_assert!(r.waiting >= 0.0);
            prop_assert!(r.turnaround >= r.waiting);
            prop_assert_eq!(r.result.counts.shots(), 16);
        }
        // The event log tells the same story.
        let submitted = report.events.iter().filter(|e| {
            matches!(e, qucp_runtime::Event::JobSubmitted { .. })
        }).count();
        let completed = report.events.iter().filter(|e| {
            matches!(e, qucp_runtime::Event::JobCompleted { .. })
        }).count();
        prop_assert_eq!(submitted, n);
        prop_assert_eq!(completed, n);
    }
}
