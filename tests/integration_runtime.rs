//! Cross-crate integration tests for the `qucp-runtime` scheduling
//! service (the pipeline's outcomes under every paper strategy are
//! pinned bit for bit by `golden_outcomes.rs`).
//!
//! The runtime suite pins the acceptance criteria: a ≥ 12-job workload
//! on `ibm::toronto()` executes end-to-end with concurrent batches,
//! deterministically, and beats dedicated (1-way) turnaround.

use qucp_circuit::library;
use qucp_core::{strategy, ParallelConfig, Pipeline, Strategy};
use qucp_device::ibm;
use qucp_runtime::{synthetic_jobs, Job, JobRequest, Service, ServiceReport};
use qucp_sim::ExecutionConfig;

fn all_strategies(device: &qucp_device::Device) -> Vec<Strategy> {
    vec![
        strategy::qucp(4.0),
        strategy::qumc_with_ground_truth(device),
        strategy::cna(),
        strategy::multiqc(),
        strategy::qucloud(),
    ]
}

fn fixed_cfg() -> ParallelConfig {
    ParallelConfig {
        execution: ExecutionConfig::default().with_shots(512).with_seed(1234),
        optimize: true,
    }
}

/// Pipeline outcomes are reproducible run-to-run (no order- or
/// time-dependence anywhere in planning or execution).
#[test]
fn driver_outcome_still_reproducible() {
    let device = ibm::toronto();
    let programs = vec![
        library::by_name("fredkin").unwrap().circuit(),
        library::by_name("linearsolver").unwrap().circuit(),
    ];
    let qucp = strategy::qucp(4.0);
    let run = || {
        Pipeline::from_strategy(&qucp)
            .execute(&device, &programs, &fixed_cfg())
            .unwrap()
    };
    assert_eq!(run(), run());
}

/// Serves `jobs` FIFO on one `device` under `strategy`, `max_parallel`
/// to a batch under a default EFS `threshold`, seed 77.
fn serve(
    device: qucp_device::Device,
    strategy: Strategy,
    (max_parallel, threshold): (usize, Option<f64>),
    jobs: &[Job],
) -> Result<ServiceReport, qucp_runtime::RuntimeError> {
    let mut service = Service::builder()
        .device(device)
        .strategy(strategy)
        .max_parallel(max_parallel)
        .fidelity_threshold(threshold)
        .seed(77)
        .build()?;
    for job in jobs {
        service.submit(JobRequest::from_job(job))?;
    }
    service.run_until_drained()
}

fn acceptance_workload() -> Vec<Job> {
    synthetic_jobs(12, 300.0, 256, 0xACCE)
}

/// Acceptance: a 12-job workload on `ibm::toronto()` runs end-to-end
/// with concurrent per-batch execution and beats dedicated turnaround.
#[test]
fn batch_scheduler_beats_dedicated_on_toronto() {
    let jobs = acceptance_workload();
    let dedicated =
        serve(ibm::toronto(), strategy::qucp(4.0), (1, None), &jobs).expect("dedicated run");
    let packed = serve(ibm::toronto(), strategy::qucp(4.0), (4, None), &jobs).expect("packed run");

    assert_eq!(dedicated.job_results.len(), 12);
    assert_eq!(packed.job_results.len(), 12);
    assert_eq!(dedicated.stats.batches, 12);
    assert!(packed.stats.batches < 12, "packing never happened");
    assert!(
        packed.stats.mean_turnaround < dedicated.stats.mean_turnaround,
        "packed turnaround {} should beat dedicated {}",
        packed.stats.mean_turnaround,
        dedicated.stats.mean_turnaround
    );
    assert!(packed.stats.mean_throughput > dedicated.stats.mean_throughput);
}

/// Section II-A on a staggered synthetic load: serving 4-way
/// multiprogrammed batches beats dedicated (1-way) service on mean
/// waiting, makespan and mean throughput.
#[test]
fn multiprogramming_beats_dedicated_on_synthetic_load() {
    let jobs = synthetic_jobs(24, 150.0, 128, 123);
    let solo = serve(ibm::toronto(), strategy::qucp(4.0), (1, None), &jobs).expect("dedicated run");
    let multi = serve(ibm::toronto(), strategy::qucp(4.0), (4, None), &jobs).expect("packed run");

    assert_eq!(solo.job_results.len(), 24);
    assert_eq!(multi.job_results.len(), 24);
    assert!(
        multi.stats.mean_waiting < solo.stats.mean_waiting,
        "packed wait {} should beat dedicated {}",
        multi.stats.mean_waiting,
        solo.stats.mean_waiting
    );
    assert!(
        multi.stats.makespan < solo.stats.makespan,
        "packed makespan {} should beat dedicated {}",
        multi.stats.makespan,
        solo.stats.makespan
    );
    assert!(
        multi.stats.mean_throughput > solo.stats.mean_throughput,
        "packed throughput {} should beat dedicated {}",
        multi.stats.mean_throughput,
        solo.stats.mean_throughput
    );
}

/// Concurrent batch execution is deterministic: reproducible
/// run-to-run (and equal to the reference scheduler's inline loop —
/// `integration_reference.rs`).
#[test]
fn concurrent_batches_are_deterministic() {
    let jobs = acceptance_workload();
    let make = || serve(ibm::toronto(), strategy::qucp(4.0), (4, None), &jobs).expect("run");
    assert_eq!(make(), make(), "concurrent run not reproducible");
}

/// The runtime works under every paper strategy, not just QuCP.
#[test]
fn runtime_serves_all_strategies() {
    let device = ibm::toronto();
    let jobs = synthetic_jobs(6, 300.0, 128, 5);
    for strat in all_strategies(&device) {
        let name = strat.name.clone();
        let report = serve(device.clone(), strat, (3, None), &jobs)
            .unwrap_or_else(|e| panic!("{name} runtime failed: {e}"));
        assert_eq!(report.job_results.len(), 6, "{name}");
    }
}

/// The EFS fidelity-threshold gate (Fig. 4) throttles batch width: a
/// zero threshold degenerates to dedicated service, a huge one packs.
#[test]
fn fidelity_threshold_controls_packing() {
    let jobs = acceptance_workload();
    let run = |threshold| {
        serve(
            ibm::toronto(),
            strategy::qucp(4.0),
            (4, Some(threshold)),
            &jobs,
        )
        .expect("run")
    };
    let strict = run(0.0);
    let loose = run(1e9);
    assert_eq!(strict.stats.batches, 12, "zero threshold must serialize");
    assert!(loose.stats.batches < strict.stats.batches);
    assert!(loose.stats.mean_turnaround < strict.stats.mean_turnaround);
}
