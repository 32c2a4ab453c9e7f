//! What a client hands the service and gets back: the per-job
//! [`JobRequest`] with its overrides, the [`JobTicket`] receipt, and
//! the [`EfsGate`] mode that decides how a request's fidelity threshold
//! sizes its batch.

use qucp_circuit::Circuit;
use qucp_sim::{ShotParallelism, TrajectoryKernel};

use crate::job::Job;
use crate::registry::RoutingChoice;

/// How the EFS fidelity-threshold gate sizes a batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EfsGate {
    /// The seed scheduler's behaviour (and the paper's Fig. 4
    /// experiment): before packing, probe how many *copies of the
    /// head-of-line circuit* stay within the threshold and cap the
    /// batch width at that count.
    #[default]
    HeadOnly,
    /// Evaluate the *actual heterogeneous batch*: after packing, every
    /// member's EFS excess over its solo-best partition is compared
    /// against that member's own effective threshold, and the batch
    /// shrinks from the tail until all members tolerate it. Closes the
    /// ROADMAP fidelity item.
    Batch,
    /// [`EfsGate::Batch`]'s evaluation with *worst-excess eviction*:
    /// instead of dropping the tail member, each shrink step evicts the
    /// member with the largest EFS excess — the one whose partition
    /// degraded most under contention — so a well-placed tail member
    /// survives a badly-placed middle one. The head is exempt (it
    /// anchors the batch); ties evict the member closest to the tail,
    /// matching tail-shrink when excesses are uniform. Partition
    /// failures still shrink from the tail in every mode.
    BatchWorstExcess,
}

impl EfsGate {
    /// Whether the gate evaluates the packed members against their own
    /// thresholds — the modes in which a member's threshold decides
    /// which member lists planning visits. It is no input of the plan
    /// memo's key: the gate reads thresholds on every pass, and what a
    /// list allocates never depends on them.
    pub(super) fn reads_member_thresholds(self) -> bool {
        matches!(self, EfsGate::Batch | EfsGate::BatchWorstExcess)
    }
}

/// A streaming job submission: the circuit plus optional per-job
/// overrides of the service defaults. The strategy is not one of them:
/// the service's own strategy plans every batch.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRequest {
    /// The logical circuit to run.
    pub circuit: Circuit,
    /// Arrival time in nanoseconds (must be finite).
    pub arrival: f64,
    /// Caller-assigned id; defaults to the submission index.
    pub id: Option<u64>,
    /// Shot budget; defaults to the service's `default_shots`.
    pub shots: Option<usize>,
    /// Per-job EFS fidelity-threshold override (must be finite and
    /// non-negative); defaults to the service's configured threshold.
    pub fidelity_threshold: Option<f64>,
    /// Per-job intra-program shot parallelism; `None` runs the
    /// simulator's default, [`ShotParallelism::Serial`]. A huge job can
    /// shard its trajectory loop while the rest of the stream stays
    /// serial. Counts stay deterministic per the [`ShotParallelism`]
    /// contract — a pure function of the effective mode and the job,
    /// never of the thread count.
    pub shot_parallelism: Option<ShotParallelism>,
    /// Per-job trajectory kernel; `None` runs the simulator's default,
    /// the bit-pinned [`Replay`](TrajectoryKernel::Replay) stream. A
    /// latency-critical probe job can run the cheap
    /// [`SurvivalSkip`](TrajectoryKernel::SurvivalSkip) kernel while
    /// the rest of the stream keeps the replay stream.
    pub trajectory_kernel: Option<TrajectoryKernel>,
    /// Per-job routing-policy override, consulted only when this job
    /// heads a batch: the head's effective policy routes the whole
    /// batch. `None` routes
    /// with the service default, bit-for-bit — and an explicit override
    /// equal to the default is observationally identical to no override
    /// (pinned by the campaign test suite). See [`RoutingChoice`].
    pub routing: Option<RoutingChoice>,
}

impl JobRequest {
    /// A request with no overrides.
    pub fn new(circuit: Circuit, arrival: f64) -> Self {
        JobRequest {
            circuit,
            arrival,
            id: None,
            shots: None,
            fidelity_threshold: None,
            shot_parallelism: None,
            trajectory_kernel: None,
            routing: None,
        }
    }

    /// Sets the caller-assigned id.
    #[must_use]
    pub fn with_id(mut self, id: u64) -> Self {
        self.id = Some(id);
        self
    }

    /// Overrides the shot budget.
    #[must_use]
    pub fn with_shots(mut self, shots: usize) -> Self {
        self.shots = Some(shots);
        self
    }

    /// Overrides the EFS fidelity threshold.
    #[must_use]
    pub fn with_fidelity_threshold(mut self, threshold: f64) -> Self {
        self.fidelity_threshold = Some(threshold);
        self
    }

    /// Overrides the intra-program shot parallelism for this job only.
    #[must_use]
    pub fn with_shot_parallelism(mut self, parallelism: ShotParallelism) -> Self {
        self.shot_parallelism = Some(parallelism);
        self
    }

    /// Overrides the trajectory kernel for this job only.
    #[must_use]
    pub fn with_trajectory_kernel(mut self, kernel: TrajectoryKernel) -> Self {
        self.trajectory_kernel = Some(kernel);
        self
    }

    /// Overrides the routing policy for batches this job heads.
    #[must_use]
    pub fn with_routing(mut self, routing: RoutingChoice) -> Self {
        self.routing = Some(routing);
        self
    }

    /// A [`Job`] as a request (caller id and shots pinned).
    pub fn from_job(job: &Job) -> Self {
        JobRequest::new(job.circuit.clone(), job.arrival)
            .with_id(job.id)
            .with_shots(job.shots)
    }
}

/// Receipt of an accepted submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct JobTicket {
    /// Service-assigned submission index (unique per service).
    pub seq: usize,
    /// Effective job id (caller-assigned or `seq as u64`).
    pub id: u64,
}
