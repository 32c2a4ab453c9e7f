//! The scheduler's basic decisions — packing, the head-only threshold
//! gate, arrival order, typed rejections — on one Toronto under FIFO.
//! Mounted as `scheduler` by the crate root, which keeps the test ids.

#[cfg(test)]
mod tests {
    use crate::error::RuntimeError;
    use crate::job::{synthetic_jobs, Job};
    use crate::service::{JobRequest, Service, ServiceReport};
    use qucp_core::strategy;
    use qucp_device::ibm;

    /// Serves `jobs` FIFO on one Toronto, `max_parallel` to a batch,
    /// under a default EFS `threshold`.
    fn serve(
        max_parallel: usize,
        threshold: Option<f64>,
        jobs: &[Job],
    ) -> Result<ServiceReport, RuntimeError> {
        let mut service = Service::builder()
            .device(ibm::toronto())
            .strategy(strategy::qucp(4.0))
            .max_parallel(max_parallel)
            .fidelity_threshold(threshold)
            .seed(42)
            .build()?;
        for job in jobs {
            service.submit(JobRequest::from_job(job))?;
        }
        service.run_until_drained()
    }

    fn run(max_parallel: usize, jobs: &[Job]) -> Result<ServiceReport, RuntimeError> {
        serve(max_parallel, None, jobs)
    }

    fn small_jobs(n: usize) -> Vec<Job> {
        synthetic_jobs(n, 200.0, 128, 7)
    }

    #[test]
    fn serves_every_job_exactly_once() {
        let jobs = small_jobs(8);
        let report = run(3, &jobs).unwrap();
        assert_eq!(report.job_results.len(), 8);
        for (i, r) in report.job_results.iter().enumerate() {
            assert_eq!(r.job_id, i as u64);
            assert_eq!(r.result.counts.shots(), 128);
            assert!(r.waiting >= 0.0);
            assert!(r.turnaround >= r.waiting);
        }
        let batched: usize = report.batches.iter().map(|b| b.job_ids.len()).sum();
        assert_eq!(batched, 8);
    }

    #[test]
    fn dedicated_mode_runs_one_job_per_batch() {
        let jobs = small_jobs(5);
        let report = run(1, &jobs).unwrap();
        assert_eq!(report.stats.batches, 5);
        assert!(report.batches.iter().all(|b| b.job_ids.len() == 1));
    }

    #[test]
    fn concurrent_run_is_reproducible() {
        let jobs = small_jobs(10);
        let a = run(4, &jobs).unwrap();
        let b = run(4, &jobs).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn packing_beats_dedicated_turnaround() {
        let jobs = small_jobs(12);
        let solo = run(1, &jobs).unwrap();
        let packed = run(4, &jobs).unwrap();
        assert!(
            packed.stats.mean_turnaround < solo.stats.mean_turnaround,
            "packed {} !< dedicated {}",
            packed.stats.mean_turnaround,
            solo.stats.mean_turnaround
        );
        assert!(packed.stats.batches < solo.stats.batches);
        assert!(packed.stats.mean_throughput > solo.stats.mean_throughput);
    }

    #[test]
    fn zero_parallel_is_rejected() {
        let jobs = small_jobs(2);
        let err = run(0, &jobs).unwrap_err();
        assert!(matches!(err, RuntimeError::ZeroParallel));
    }

    #[test]
    fn oversized_job_is_unplaceable() {
        let mut jobs = small_jobs(1);
        jobs[0].circuit = qucp_circuit::Circuit::new(64);
        let err = run(2, &jobs).unwrap_err();
        assert!(matches!(
            err,
            RuntimeError::JobUnplaceable { job_id: 0, .. }
        ));
    }

    #[test]
    fn oversized_job_is_unplaceable_with_threshold_gate_too() {
        // The threshold probe runs before packing; the error contract
        // must not change when the gate is on.
        let mut jobs = small_jobs(1);
        jobs[0].circuit = qucp_circuit::Circuit::new(64);
        let err = serve(4, Some(0.1), &jobs).unwrap_err();
        assert!(matches!(
            err,
            RuntimeError::JobUnplaceable { job_id: 0, .. }
        ));
    }

    #[test]
    fn fidelity_threshold_zero_degenerates_to_dedicated() {
        // A homogeneous burst: every batch head admits exactly one copy
        // under a zero threshold (paper: "when the fidelity threshold is
        // zero … only one circuit is executed each time").
        let jobs = small_jobs(4);
        let report = serve(4, Some(0.0), &jobs).unwrap();
        assert_eq!(report.stats.batches, 4);
    }

    #[test]
    fn late_arrivals_wait_for_their_turn() {
        let mut jobs = small_jobs(2);
        // Second job arrives long after the first batch would finish.
        jobs[1].arrival = 1e9;
        let report = run(4, &jobs).unwrap();
        assert_eq!(report.stats.batches, 2);
        assert_eq!(report.job_results[1].waiting, 0.0);
        assert!(report.batches[1].start >= 1e9);
    }

    #[test]
    fn zero_shot_jobs_are_rejected_with_typed_error() {
        let mut jobs = small_jobs(1);
        jobs[0].shots = 0;
        let err = run(2, &jobs).unwrap_err();
        assert!(matches!(err, RuntimeError::ZeroShots));
    }

    #[test]
    fn non_finite_arrivals_are_rejected_with_typed_error() {
        let mut jobs = small_jobs(1);
        jobs[0].arrival = f64::NAN;
        let err = run(2, &jobs).unwrap_err();
        assert!(matches!(err, RuntimeError::NonFiniteTime { .. }));
    }
}
