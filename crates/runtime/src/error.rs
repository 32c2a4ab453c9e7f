//! The runtime's one error type, in process and on the daemon's wire.

use std::error::Error;
use std::fmt;

use qucp_core::CoreError;

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
    /// The snapshot holds an error rate outside `[0, 1]` or a negative
    /// duration or coherence time (see `Calibration::in_range`): a
    /// readout error of 1.5 would fail the simulator's readout draw at
    /// the next batch.
    OutOfRange,
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
            CalibrationFault::OutOfRange => {
                write!(
                    f,
                    "an error rate outside [0, 1] or a negative duration or coherence time"
                )
            }
        }
    }
}

/// Errors of the scheduling runtime.
///
/// Generic over the one payload that cannot cross a socket: the
/// planning error inside [`JobUnplaceable`](Self::JobUnplaceable) and
/// [`Core`](Self::Core). In process it is the [`CoreError`] itself;
/// the daemon's wire carries `RuntimeError<String>`, the same variants
/// with that error rendered ([`map_source`](Self::map_source)), so the
/// protocol stays put while the planning pipeline grows variants.
#[derive(Debug, Clone, PartialEq)]
pub enum RuntimeError<S = CoreError> {
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
    /// or out-of-range entries or did not match the device's topology.
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
        source: S,
    },
    /// A planning or execution stage failed.
    Core(S),
    /// Internal invariant violation: the job table's slots and queue
    /// disagree about a job that must exist, or a drained service lacks
    /// a job's result. Surfacing the typed error
    /// instead of panicking keeps a corrupted queue diagnosable from a
    /// daemon client; it indicates a runtime bug, never caller misuse.
    QueueCorrupted {
        /// Submission index of the job whose slot is not in the state
        /// the table expects.
        seq: usize,
    },
    /// A job's strategy override carried a NaN or infinite crosstalk
    /// factor (QuCP's σ or a measured QuMC ratio): no partition score
    /// could be trusted, and no plan-memo key could ever be hit again.
    InvalidStrategy {
        /// The offending value.
        value: f64,
    },
}

impl RuntimeError {
    /// The placement-failure rule: a planning error that says *this
    /// program does not fit this chip* makes the job unplaceable there
    /// — the dispatcher tries the next device, the shrink loop evicts a
    /// member — while any other planning error ends the dispatch.
    pub(crate) fn from_planning(job_id: u64, source: CoreError) -> Self {
        match source {
            CoreError::PartitionUnavailable { .. } | CoreError::ProgramTooWide { .. } => {
                RuntimeError::JobUnplaceable { job_id, source }
            }
            source => RuntimeError::Core(source),
        }
    }
}

impl<S> RuntimeError<S> {
    /// The same error with its planning error mapped through `f`
    /// (`|e| e.to_string()` is how an error leaves the process).
    pub fn map_source<T>(self, f: impl FnOnce(S) -> T) -> RuntimeError<T> {
        match self {
            RuntimeError::ZeroParallel => RuntimeError::ZeroParallel,
            RuntimeError::NoDevices => RuntimeError::NoDevices,
            RuntimeError::ZeroShots => RuntimeError::ZeroShots,
            RuntimeError::EmptyCircuit => RuntimeError::EmptyCircuit,
            RuntimeError::NonFiniteTime { value } => RuntimeError::NonFiniteTime { value },
            RuntimeError::InvalidThreshold { value } => RuntimeError::InvalidThreshold { value },
            RuntimeError::InvalidCalibration { device, fault } => {
                RuntimeError::InvalidCalibration { device, fault }
            }
            RuntimeError::DriftHorizonTooFar { steps, max } => {
                RuntimeError::DriftHorizonTooFar { steps, max }
            }
            RuntimeError::JobUnplaceable { job_id, source } => RuntimeError::JobUnplaceable {
                job_id,
                source: f(source),
            },
            RuntimeError::Core(source) => RuntimeError::Core(f(source)),
            RuntimeError::QueueCorrupted { seq } => RuntimeError::QueueCorrupted { seq },
            RuntimeError::InvalidStrategy { value } => RuntimeError::InvalidStrategy { value },
        }
    }
}

impl<S: fmt::Display> fmt::Display for RuntimeError<S> {
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
                    "job table corrupted: the slot of job seq {seq} is not in the state the table expects"
                )
            }
            RuntimeError::InvalidStrategy { value } => {
                write!(f, "strategy crosstalk factors must be finite, got {value}")
            }
        }
    }
}

impl<S: Error + 'static> Error for RuntimeError<S> {
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
