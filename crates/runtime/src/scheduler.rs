//! Shared runtime configuration, error and batch-report types of the
//! scheduling [`Service`](crate::Service).

use std::error::Error;
use std::fmt;

use qucp_core::CoreError;
use qucp_sim::{ShotParallelism, TrajectoryKernel};

/// Base runtime configuration of a [`Service`](crate::Service) (the
/// builder's defaults; see
/// [`ServiceBuilder::config`](crate::ServiceBuilder::config)).
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeConfig {
    /// Hard cap on jobs per batch (1 = dedicated mode).
    pub max_parallel: usize,
    /// Default EFS fidelity-threshold gate (Fig. 4). `None` disables
    /// the gate for jobs without a per-job override.
    pub fidelity_threshold: Option<f64>,
    /// Base RNG seed; batch `b`, program `i` derive their trajectory
    /// seeds from `(seed, b, i)` only.
    pub seed: u64,
    /// Run the cancellation peephole pass before mapping.
    pub optimize: bool,
    /// Intra-program shot parallelism: how each program's trajectory
    /// loop spreads its shots over worker threads, layered *under* the
    /// per-batch fan-out over programs. Sharded counts are
    /// deterministic in the shard count, never the thread count; the
    /// serial default keeps every report bit-for-bit identical to the
    /// pre-sharding runtime.
    pub shot_parallelism: ShotParallelism,
    /// Default per-shot trajectory algorithm (see
    /// [`TrajectoryKernel`]). The [`Replay`] default keeps every
    /// report bit-for-bit identical to the pre-kernel runtime;
    /// [`SurvivalSkip`] trades that historical stream for much cheaper
    /// shots while sampling the identical distribution.
    ///
    /// [`Replay`]: TrajectoryKernel::Replay
    /// [`SurvivalSkip`]: TrajectoryKernel::SurvivalSkip
    pub trajectory_kernel: TrajectoryKernel,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            max_parallel: 4,
            fidelity_threshold: None,
            seed: 0x5EED,
            optimize: true,
            shot_parallelism: ShotParallelism::Serial,
            trajectory_kernel: TrajectoryKernel::Replay,
        }
    }
}

/// Why a recalibration snapshot was rejected (see
/// [`RuntimeError::InvalidCalibration`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CalibrationFault {
    /// The snapshot contains a NaN or infinite entry (error rate,
    /// duration or coherence time).
    NonFinite,
    /// The snapshot calibrates a different number of qubits than the
    /// device has.
    QubitCountMismatch {
        /// Qubits the device has.
        expected: usize,
        /// Qubits the snapshot calibrates.
        got: usize,
    },
    /// The snapshot is missing entries for links of the device's
    /// coupling topology.
    MissingLinks,
}

impl fmt::Display for CalibrationFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CalibrationFault::NonFinite => write!(f, "non-finite entries"),
            CalibrationFault::QubitCountMismatch { expected, got } => {
                write!(f, "calibrates {got} qubits, device has {expected}")
            }
            CalibrationFault::MissingLinks => {
                write!(f, "missing entries for links of the device topology")
            }
        }
    }
}

/// Errors of the scheduling runtime.
#[derive(Debug, Clone, PartialEq)]
pub enum RuntimeError {
    /// `max_parallel` was zero.
    ZeroParallel,
    /// The service was built without any registered device.
    NoDevices,
    /// A job (or the service default) requested zero measurement shots.
    ZeroShots,
    /// A submitted circuit had zero width — nothing to place.
    EmptyCircuit,
    /// A time input failed its context's finiteness contract. The
    /// contract is deliberately asymmetric: **job arrivals must be
    /// finite** (an arrival is a timestamp that enters waiting-time
    /// arithmetic), while **tick horizons only reject NaN** — a horizon
    /// is a comparison bound, so `+∞` means "drain everything pending"
    /// and `−∞` is a valid no-op (see
    /// [`Service::tick`](crate::Service::tick)).
    NonFiniteTime {
        /// The offending value.
        value: f64,
    },
    /// A fidelity threshold was NaN, infinite or negative.
    InvalidThreshold {
        /// The offending value.
        value: f64,
    },
    /// A recalibration snapshot was rejected before it could reach the
    /// device (and poison the planning caches): it carried non-finite
    /// entries or did not match the device's topology.
    InvalidCalibration {
        /// Name of the device the snapshot was meant for.
        device: String,
        /// What disqualified the snapshot.
        fault: CalibrationFault,
    },
    /// One `advance_drift` call would schedule more steps than the
    /// per-advance bound — almost always a clock-unit mismatch or a
    /// degenerate drift interval. The drift trajectory is a pure
    /// function of every step, so runaway advances are refused (state
    /// untouched) rather than truncated. See
    /// [`MAX_DRIFT_STEPS_PER_ADVANCE`](crate::MAX_DRIFT_STEPS_PER_ADVANCE).
    DriftHorizonTooFar {
        /// Steps the advance would have to apply per device.
        steps: u64,
        /// The per-advance bound.
        max: u64,
    },
    /// A single job cannot be placed on any registered device even
    /// alone.
    JobUnplaceable {
        /// The job's identifier.
        job_id: u64,
        /// The planning error that rejected it.
        source: CoreError,
    },
    /// A planning or execution stage failed.
    Core(CoreError),
    /// Internal invariant violation: the pending store's indexes
    /// disagree about a job that must exist. Surfacing the typed error
    /// instead of panicking keeps a corrupted queue diagnosable from a
    /// daemon client; it indicates a runtime bug, never caller misuse.
    QueueCorrupted {
        /// Submission index of the job that vanished from the store.
        seq: usize,
    },
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::ZeroParallel => write!(f, "max_parallel must be positive"),
            RuntimeError::NoDevices => write!(f, "at least one device must be registered"),
            RuntimeError::ZeroShots => write!(f, "shot budget must be positive"),
            RuntimeError::EmptyCircuit => write!(f, "cannot schedule a zero-width circuit"),
            RuntimeError::NonFiniteTime { value } => {
                write!(
                    f,
                    "invalid time {value}: arrivals must be finite; tick horizons may be \
                     +inf (drain) or -inf (no-op) but never NaN"
                )
            }
            RuntimeError::InvalidThreshold { value } => {
                write!(f, "fidelity threshold must be finite and >= 0, got {value}")
            }
            RuntimeError::InvalidCalibration { device, fault } => {
                write!(f, "recalibration of {device} rejected: {fault}")
            }
            RuntimeError::DriftHorizonTooFar { steps, max } => {
                write!(
                    f,
                    "advance_drift would apply {steps} steps per device (bound: {max}); \
                     check the drift interval against the clock unit"
                )
            }
            RuntimeError::JobUnplaceable { job_id, source } => {
                write!(f, "job {job_id} cannot be placed: {source}")
            }
            RuntimeError::Core(e) => write!(f, "pipeline failed: {e}"),
            RuntimeError::QueueCorrupted { seq } => {
                write!(
                    f,
                    "pending queue corrupted: job seq {seq} vanished from the store"
                )
            }
        }
    }
}

impl Error for RuntimeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            RuntimeError::JobUnplaceable { source, .. } => Some(source),
            RuntimeError::Core(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CoreError> for RuntimeError {
    fn from(e: CoreError) -> Self {
        RuntimeError::Core(e)
    }
}

/// One dispatched batch of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchReport {
    /// Batch position in dispatch order.
    pub batch_index: usize,
    /// Name of the device that executed the batch.
    pub device: String,
    /// Ids of the jobs the batch carried, in program order.
    pub job_ids: Vec<u64>,
    /// Simulated start time (ns).
    pub start: f64,
    /// Simulated completion time (ns): start + merged makespan.
    pub completion: f64,
    /// Merged-schedule makespan of the batch (ns).
    pub makespan: f64,
    /// Physical qubits the batch occupied.
    pub used_qubits: usize,
    /// Cross-program one-hop CNOT overlaps in the merged schedule.
    pub conflict_count: usize,
}

/// The scheduler's basic decisions — packing, the head-only threshold
/// gate, arrival order, typed rejections — on one Toronto under FIFO.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{synthetic_jobs, Job};
    use crate::service::{JobRequest, Service, ServiceReport};
    use qucp_core::strategy;
    use qucp_device::ibm;

    fn quick_cfg(max_parallel: usize) -> RuntimeConfig {
        RuntimeConfig {
            max_parallel,
            fidelity_threshold: None,
            seed: 42,
            optimize: true,
            ..RuntimeConfig::default()
        }
    }

    /// Serves `jobs` FIFO on one Toronto under `cfg`.
    fn serve(cfg: RuntimeConfig, jobs: &[Job]) -> Result<ServiceReport, RuntimeError> {
        let mut service = Service::builder()
            .device(ibm::toronto())
            .strategy(strategy::qucp(4.0))
            .config(cfg)
            .build()?;
        for job in jobs {
            service.submit(JobRequest::from_job(job))?;
        }
        service.run_until_drained()
    }

    fn run(max_parallel: usize, jobs: &[Job]) -> Result<ServiceReport, RuntimeError> {
        serve(quick_cfg(max_parallel), jobs)
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
        let mut cfg = quick_cfg(4);
        cfg.fidelity_threshold = Some(0.1);
        let mut jobs = small_jobs(1);
        jobs[0].circuit = qucp_circuit::Circuit::new(64);
        let err = serve(cfg, &jobs).unwrap_err();
        assert!(matches!(
            err,
            RuntimeError::JobUnplaceable { job_id: 0, .. }
        ));
    }

    #[test]
    fn fidelity_threshold_zero_degenerates_to_dedicated() {
        let mut cfg = quick_cfg(4);
        cfg.fidelity_threshold = Some(0.0);
        // A homogeneous burst: every batch head admits exactly one copy
        // under a zero threshold (paper: "when the fidelity threshold is
        // zero … only one circuit is executed each time").
        let jobs = small_jobs(4);
        let report = serve(cfg, &jobs).unwrap();
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
