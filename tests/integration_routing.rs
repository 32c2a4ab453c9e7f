//! Integration tests for the multi-device routing seam: the
//! `EarliestFree` bit-for-bit contract against the PR-2 golden
//! scheduling snapshot, the earliest-free fallback on tied
//! `CalibrationAware` scores, admission-safety properties of the
//! router, the cross-batch partition-probe cache, and the pinned
//! calibration-aware delivered-fidelity win on the skewed fleet.

use proptest::prelude::*;
use qucp_bench::routing_shootout;
use qucp_core::strategy;
use qucp_device::ibm;
use qucp_runtime::{
    synthetic_jobs, CalibrationAware, Event, JobRequest, RoutingChoice, Service, ServiceReport,
};

/// Drains `jobs` through a FIFO service with the given routing policy.
fn drain_with_routing(
    jobs: &[qucp_runtime::Job],
    routing: impl Into<RoutingChoice>,
    registry: qucp_runtime::DeviceRegistry,
    max_parallel: usize,
    seed: u64,
) -> (ServiceReport, qucp_runtime::RouteCacheStats) {
    let mut service = Service::builder()
        .registry(registry)
        .strategy(strategy::qucp(4.0))
        .routing(routing)
        .max_parallel(max_parallel)
        .seed(seed)
        .build()
        .expect("build");
    for job in jobs {
        service.submit(JobRequest::from_job(job)).expect("submit");
    }
    let report = service.run_until_drained().expect("drain");
    (report, service.route_cache_stats())
}

/// Acceptance: an explicit `EarliestFree` routing policy reproduces the
/// PR-2 golden scheduling snapshot bit-for-bit — same memberships, same
/// statistics — and matches a default-built service (whose default
/// routing is `EarliestFree`) on every report field.
#[test]
fn earliest_free_routing_reproduces_pr2_golden_snapshot() {
    let jobs = synthetic_jobs(12, 300.0, 256, 0xACCE);
    let close = |a: f64, b: f64| (a - b).abs() <= 1e-6 * b.abs().max(1.0);
    let builder = || {
        Service::builder()
            .device(ibm::toronto())
            .strategy(strategy::qucp(4.0))
            .max_parallel(4)
            .seed(77)
    };

    // Default-built service: the pre-seam dispatch path.
    let mut default_service = builder().build().expect("build");
    // Explicit EarliestFree through the seam.
    let mut explicit_service = builder()
        .routing(RoutingChoice::EarliestFree)
        .build()
        .expect("build");
    for job in &jobs {
        default_service
            .submit(JobRequest::from_job(job))
            .expect("submit");
        explicit_service
            .submit(JobRequest::from_job(job))
            .expect("submit");
    }
    let default_report = default_service.run_until_drained().expect("drain");
    let explicit_report = explicit_service.run_until_drained().expect("drain");
    assert_eq!(default_report, explicit_report);

    // The golden snapshot frozen at the PR-2 service redesign (see
    // `fifo_scheduling_decisions_match_golden_snapshot`): exact batch
    // memberships and tight-tolerance statistics.
    let memberships: Vec<Vec<u64>> = explicit_report
        .batches
        .iter()
        .map(|b| b.job_ids.to_vec())
        .collect();
    assert_eq!(
        memberships,
        vec![vec![0], vec![1, 2, 3, 4], vec![5, 6, 7, 8], vec![9, 10, 11]]
    );
    assert!(close(explicit_report.stats.mean_waiting, 19042.832443));
    assert!(close(explicit_report.stats.mean_turnaround, 34692.747438));
    assert!(close(explicit_report.stats.makespan, 56569.286641));
    assert!(close(explicit_report.stats.mean_throughput, 0.360557));

    // The default path never pays a routing partition probe: every
    // memo entry is a list the gate planned.
    let stats = default_service.route_cache_stats();
    assert_eq!(
        (stats.hits + stats.misses, stats.entries),
        (0, stats.plan_misses)
    );
    // Every batch carries a BatchRouted record naming the policy.
    let routed = explicit_report
        .events
        .iter()
        .filter(|e| matches!(e, Event::BatchRouted { policy, .. } if &**policy == "EarliestFree"))
        .count();
    assert_eq!(routed, explicit_report.stats.batches);
}

/// On a fleet of *identical* twins every candidate scores the same
/// quality, so `CalibrationAware` must fall back to the earliest-free
/// order on every dispatch: schedules, batches and results coincide
/// with `EarliestFree` exactly.
#[test]
fn calibration_aware_falls_back_to_earliest_free_on_tied_scores() {
    let twins = || {
        let mut fleet = qucp_runtime::DeviceRegistry::new();
        fleet.register(ibm::toronto());
        fleet.register(ibm::toronto());
        fleet
    };
    let jobs = synthetic_jobs(10, 250.0, 64, 0x71E5);
    let (earliest, _) = drain_with_routing(&jobs, RoutingChoice::EarliestFree, twins(), 3, 11);
    let (aware, cache) = drain_with_routing(&jobs, CalibrationAware::default(), twins(), 3, 11);
    assert_eq!(earliest.stats, aware.stats);
    assert_eq!(earliest.batches, aware.batches);
    assert_eq!(earliest.job_results, aware.job_results);
    // The tie-break is not an accident of skipping the probes: the
    // aware policy did probe both twins.
    assert!(cache.misses >= 2);
}

/// Calibration-aware routing is deterministic: serial and concurrent
/// execution produce bit-for-bit the same report, and reruns agree.
#[test]
fn calibration_aware_routing_is_deterministic() {
    let fleet = || {
        let mut fleet = qucp_runtime::DeviceRegistry::new();
        fleet.register(ibm::melbourne());
        fleet.register(ibm::toronto());
        fleet
    };
    let jobs = synthetic_jobs(8, 200.0, 64, 0xDE7);
    let run = || {
        let mut service = Service::builder()
            .registry(fleet())
            .strategy(strategy::qucp(4.0))
            .routing(CalibrationAware::default())
            .max_parallel(3)
            .seed(21)
            .build()
            .expect("build");
        for job in &jobs {
            service.submit(JobRequest::from_job(job)).expect("submit");
        }
        service.run_until_drained().expect("drain")
    };
    assert_eq!(run(), run());
}

/// The cross-batch cache never changes scheduling: draining two
/// identical bursts through one service (the second all cache hits)
/// produces the same batch memberships and device choices both times.
#[test]
fn cached_probes_do_not_change_routing_decisions() {
    let mut fleet = qucp_runtime::DeviceRegistry::new();
    fleet.register(ibm::melbourne());
    fleet.register(ibm::toronto());
    let mut service = Service::builder()
        .registry(fleet)
        .strategy(strategy::qucp(4.0))
        .routing(CalibrationAware::default())
        .max_parallel(3)
        .seed(5)
        .build()
        .expect("build");
    // Burst 1 at t=0, burst 2 long after every clock drained.
    let jobs = synthetic_jobs(6, 100.0, 32, 0xCAFE);
    for job in &jobs {
        service.submit(JobRequest::from_job(job)).expect("submit");
    }
    service.run_until_drained().expect("drain 1");
    let first_misses = service.route_cache_stats().misses;
    assert!(first_misses > 0);
    let offset = 1e9;
    for job in &jobs {
        let mut c = job.circuit.clone();
        c.set_name(format!("{}-again", job.circuit.name()));
        service
            .submit(JobRequest::new(c, job.arrival + offset).with_id(job.id + 100))
            .expect("submit");
    }
    let report = service.run_until_drained().expect("drain 2");
    let stats = service.route_cache_stats();
    // Burst 2 probed nothing new: identical shapes on a frozen fleet.
    assert_eq!(stats.misses, first_misses);
    assert!(stats.hits > 0);
    // Same scheduling story both times: memberships (mod the id offset)
    // and device choices repeat exactly.
    let n = report.batches.len();
    assert_eq!(n % 2, 0, "both bursts must batch identically");
    for (a, b) in report.batches[..n / 2].iter().zip(&report.batches[n / 2..]) {
        assert_eq!(a.device, b.device);
        let shifted: Vec<u64> = a.job_ids.iter().map(|id| id + 100).collect();
        assert_eq!(shifted, *b.job_ids);
        assert_eq!(a.used_qubits, b.used_qubits);
    }
}

/// The routing claim: on the skewed two-chip fleet (a well-calibrated
/// IBM Q Toronto and its ~3×-noisier twin, the noisy one registered
/// first) calibration-aware routing delivers better fidelity than
/// earliest-free at bounded turnaround cost, by steering the load to
/// the good chip. Everything here is simulated and bit-stable, so the
/// values are pinned to what the retired `routing_shootout` bin printed
/// at its last commit.
#[test]
fn calibration_aware_routing_wins_delivered_fidelity_on_the_skewed_fleet() {
    /// Turnaround slack the fidelity win may cost: concentrating load
    /// on the good chip trades some queueing for fidelity — but never
    /// more than this factor over earliest-free.
    const MAX_TURNAROUND_RATIO: f64 = 3.0;
    let close = |a: f64, b: f64| (a - b).abs() < 1e-6 * b.abs().max(1.0);
    let split = |noisy: usize, good: usize| {
        vec![
            ("ibmq_toronto_noisy".to_string(), noisy),
            ("ibmq_toronto".to_string(), good),
        ]
    };

    // Both policies route deterministically: two runs agree bit for bit.
    let earliest = routing_shootout(RoutingChoice::EarliestFree);
    let aware = routing_shootout(CalibrationAware::default().into());
    assert_eq!(earliest, routing_shootout(RoutingChoice::EarliestFree));
    assert_eq!(aware, routing_shootout(CalibrationAware::default().into()));

    // Better delivered fidelity (execution-free EFS and sampled JSD)...
    assert!(aware.mean_efs < earliest.mean_efs);
    assert!(aware.mean_jsd < earliest.mean_jsd);
    assert!(close(earliest.mean_efs, 0.511050) && close(aware.mean_efs, 0.316868));
    assert!(close(earliest.mean_jsd, 0.187834) && close(aware.mean_jsd, 0.152929));
    // ...at bounded turnaround cost (1.97x)...
    assert!(aware.mean_turnaround / earliest.mean_turnaround <= MAX_TURNAROUND_RATIO);
    assert!(close(earliest.mean_turnaround, 31470.1) && close(aware.mean_turnaround, 62028.0));
    // ...by overcoming registration order: every job lands on the good
    // chip, where earliest-free splits the burst across both...
    assert_eq!(earliest.per_device_jobs, split(8, 10));
    assert_eq!(aware.per_device_jobs, split(0, 18));
    // ...and repeat dispatches reuse the cached partition probes, which
    // earliest-free never asks for.
    assert!(aware.cache.hits > 0);
    assert_eq!((aware.cache.hits, aware.cache.misses), (8, 6));
    assert_eq!((earliest.cache.hits, earliest.cache.misses), (0, 0));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The router never selects a non-admitting device, under either
    /// policy: every batch's total width fits its device, and every
    /// member is no wider than the chip. Wide jobs (18q) only ever land
    /// on Toronto (27q), never Melbourne (15q).
    #[test]
    fn router_never_selects_a_non_admitting_device(
        n in 4usize..9,
        seed in 0u64..500,
        aware in 0usize..2,
    ) {
        let aware = aware == 1;
        let mut fleet = qucp_runtime::DeviceRegistry::new();
        fleet.register(ibm::melbourne());
        fleet.register(ibm::toronto());
        let mut jobs = synthetic_jobs(n, 150.0, 16, seed);
        // Make one job wide enough that only Toronto admits it.
        let mut wide = qucp_circuit::Circuit::with_name(18, "ghz18");
        wide.h(0);
        for q in 1..18 {
            wide.cx(q - 1, q);
        }
        jobs[n / 2].circuit = wide;
        let report = if aware {
            drain_with_routing(&jobs, CalibrationAware::default(), fleet, 3, seed).0
        } else {
            drain_with_routing(&jobs, RoutingChoice::EarliestFree, fleet, 3, seed).0
        };
        prop_assert_eq!(report.job_results.len(), n);
        let qubits_of = |name: &str| -> usize {
            if name == ibm::melbourne().name() { 15 } else { 27 }
        };
        for batch in &report.batches {
            let device_qubits = qubits_of(&batch.device);
            prop_assert!(
                batch.used_qubits <= device_qubits,
                "batch on {} uses {} qubits",
                batch.device,
                batch.used_qubits
            );
            for &id in batch.job_ids.iter() {
                let width = jobs[id as usize].circuit.width();
                prop_assert!(
                    width <= device_qubits,
                    "job {} ({}q) landed on {} ({}q)",
                    id,
                    width,
                    batch.device,
                    device_qubits
                );
            }
        }
        // The 18q job specifically must be on Toronto.
        let wide_batch = report
            .batches
            .iter()
            .find(|b| b.job_ids.contains(&(n as u64 / 2)))
            .expect("wide job served");
        prop_assert_eq!(&wide_batch.device, ibm::toronto().name());
    }
}
