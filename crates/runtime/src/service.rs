//! The event-driven scheduling service: streaming submissions, online
//! admission, multi-device dispatch.
//!
//! See the crate docs for the lifecycle
//! (submit → admit → plan → execute → observe). This module owns the
//! [`Service`] state machine, its [`ServiceBuilder`], the per-job
//! [`JobRequest`]/[`JobTicket`] types, and the drained
//! [`ServiceReport`].

use std::collections::HashMap;

use qucp_circuit::Circuit;
use qucp_core::pipeline::{Pipeline, PlannedWorkload};
use qucp_core::queue::QueueStats;
use qucp_core::threshold::{parallel_count_for_threshold, solo_efs_scores};
use qucp_core::{best_partition, strategy, CoreError, ParallelConfig, PartitionPolicy};
use qucp_core::{ProgramResult, Strategy};
use qucp_device::{Calibration, CrosstalkModel, Device, DriftEvent, DriftModel};
use qucp_sim::{run_indexed, ExecutionConfig, ShotParallelism, TrajectoryKernel, WORK_UNIT_NS};

use crate::event::{Event, EventLog, EventObserver, ShrinkReason};
use crate::job::{Job, JobResult};
use crate::pending::{Pending, PendingStore};
use crate::policy::{AdmissionPolicy, BatchBudget, Fifo};
use crate::registry::{
    ClockIndex, DeviceId, DeviceRegistry, EarliestFree, RouteQuery, RoutingChoice, RoutingPolicy,
};
use crate::scheduler::{BatchReport, CalibrationFault, RuntimeConfig, RuntimeError};

/// How the EFS fidelity-threshold gate sizes a batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
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

/// A streaming job submission: the circuit plus optional per-job
/// overrides of the service defaults.
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
    /// Per-job strategy override. Jobs only share a batch with jobs of
    /// the same effective strategy, and the batch is planned through a
    /// pipeline assembled from it.
    pub strategy: Option<Strategy>,
    /// Per-job EFS fidelity-threshold override (must be finite and
    /// non-negative); defaults to the service's configured threshold.
    pub fidelity_threshold: Option<f64>,
    /// Per-job intra-program shot-parallelism override, layered over
    /// the service default of
    /// [`ServiceBuilder::shot_parallelism`](crate::ServiceBuilder::shot_parallelism):
    /// a huge job can shard its trajectory loop while the rest of the
    /// stream stays serial (or vice versa). Counts stay deterministic
    /// per the [`ShotParallelism`] contract — a pure function of the
    /// effective mode and the job, never of the thread count.
    pub shot_parallelism: Option<ShotParallelism>,
    /// Per-job trajectory-kernel override, layered over the service
    /// default of
    /// [`ServiceBuilder::trajectory_kernel`](crate::ServiceBuilder::trajectory_kernel):
    /// a latency-critical probe job can run the cheap
    /// [`SurvivalSkip`](TrajectoryKernel::SurvivalSkip) kernel while
    /// the rest of the stream keeps the bit-pinned
    /// [`Replay`](TrajectoryKernel::Replay) stream (or vice versa).
    pub trajectory_kernel: Option<TrajectoryKernel>,
    /// Per-job routing-policy override, consulted only when this job
    /// heads a batch: the head's effective policy routes the whole
    /// batch, exactly as the head's strategy plans it. `None` routes
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
            strategy: None,
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

    /// Overrides the execution strategy.
    #[must_use]
    pub fn with_strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = Some(strategy);
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

/// Per-device queue statistics of a drained service.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceReport {
    /// Device name.
    pub device: String,
    /// Jobs the device served.
    pub jobs: usize,
    /// Queue statistics over those jobs (waiting/turnaround means,
    /// device-clock makespan, utilization-weighted throughput).
    pub stats: QueueStats,
}

/// The complete outcome of a drained service.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceReport {
    /// Fleet-wide queue statistics, comparable with the analytical
    /// model ([`simulate_queue`](qucp_core::queue::simulate_queue)).
    pub stats: QueueStats,
    /// Per-device breakdown, in registration order.
    pub per_device: Vec<DeviceReport>,
    /// Every dispatched batch, in dispatch order.
    pub batches: Vec<BatchReport>,
    /// Per-job results, in submission order.
    pub job_results: Vec<JobResult>,
    /// The retained telemetry log (every event ever emitted under the
    /// default unbounded [`ServiceBuilder::event_capacity`]; only the
    /// most recent `capacity` under a bound).
    pub events: Vec<Event>,
    /// Events the [`ServiceBuilder::event_capacity`] bound dropped from
    /// the retained log (always 0 when unbounded). Observers saw every
    /// event regardless.
    pub dropped_events: usize,
}

/// Per-device runtime state (the registry holds only the static fleet).
#[derive(Debug, Clone, Default)]
struct DeviceState {
    clock: f64,
    busy_time: f64,
    busy_qubit_time: f64,
    batches: usize,
    jobs: usize,
    total_wait: f64,
    total_turnaround: f64,
}

/// The most drift steps one [`Service::advance_drift`] call may apply
/// per device. A fleet that drifts hourly stays under this bound for
/// over a decade of simulated time per advance; hitting it almost
/// always means a clock-unit mismatch (seconds fed to a nanosecond
/// interval) or a degenerate interval, so the advance is refused with
/// [`RuntimeError::DriftHorizonTooFar`] instead of looping — and never
/// silently truncated, because skipping steps would fork the
/// deterministic noise trajectory.
pub const MAX_DRIFT_STEPS_PER_ADVANCE: u64 = 100_000;

/// Builds a [`Service`]; validation happens in [`ServiceBuilder::build`].
pub struct ServiceBuilder {
    registry: DeviceRegistry,
    strategy: Strategy,
    policy: Box<dyn AdmissionPolicy>,
    routing: Box<dyn RoutingPolicy>,
    cfg: RuntimeConfig,
    efs_gate: EfsGate,
    default_shots: usize,
    observers: Vec<Box<dyn EventObserver>>,
    drift: Option<Box<dyn DriftModel>>,
    event_capacity: Option<usize>,
    best_k: usize,
}

impl std::fmt::Debug for ServiceBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServiceBuilder")
            .field("devices", &self.registry.len())
            .field("strategy", &self.strategy.name)
            .field("policy", &self.policy)
            .field("routing", &self.routing)
            .field("cfg", &self.cfg)
            .field("efs_gate", &self.efs_gate)
            .field("default_shots", &self.default_shots)
            .field("drift", &self.drift)
            .finish_non_exhaustive()
    }
}

impl Default for ServiceBuilder {
    fn default() -> Self {
        ServiceBuilder::new()
    }
}

impl ServiceBuilder {
    /// A builder with an empty fleet, QuCP strategy, FIFO admission,
    /// earliest-free routing, the default [`RuntimeConfig`], the
    /// head-only EFS gate, and 1024 default shots.
    pub fn new() -> Self {
        ServiceBuilder {
            registry: DeviceRegistry::new(),
            strategy: strategy::qucp(strategy::DEFAULT_SIGMA),
            policy: Box::new(Fifo),
            routing: Box::new(EarliestFree),
            cfg: RuntimeConfig::default(),
            efs_gate: EfsGate::default(),
            default_shots: 1024,
            observers: Vec::new(),
            drift: None,
            event_capacity: None,
            best_k: 1,
        }
    }

    /// Registers a device (repeatable; registration order breaks
    /// routing ties).
    #[must_use]
    pub fn device(mut self, device: Device) -> Self {
        self.registry.register(device);
        self
    }

    /// Replaces the whole fleet at once.
    #[must_use]
    pub fn registry(mut self, registry: DeviceRegistry) -> Self {
        self.registry = registry;
        self
    }

    /// Sets the default execution strategy.
    #[must_use]
    pub fn strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Sets the admission policy.
    #[must_use]
    pub fn policy(mut self, policy: impl AdmissionPolicy + 'static) -> Self {
        self.policy = Box::new(policy);
        self
    }

    /// Sets the routing policy deciding which admitting device each
    /// batch dispatches to. [`EarliestFree`] (the default) is
    /// bit-for-bit the pre-seam dispatch rule;
    /// [`CalibrationAware`](crate::CalibrationAware) routes by the head
    /// circuit's calibration quality blended with queue pressure.
    #[must_use]
    pub fn routing(mut self, policy: impl RoutingPolicy + 'static) -> Self {
        self.routing = Box::new(policy);
        self
    }

    /// Replaces the base runtime configuration wholesale.
    #[must_use]
    pub fn config(mut self, cfg: RuntimeConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Caps the co-schedule width.
    #[must_use]
    pub fn max_parallel(mut self, max_parallel: usize) -> Self {
        self.cfg.max_parallel = max_parallel;
        self
    }

    /// Sets the default EFS fidelity threshold (`None` disables the
    /// gate for jobs without their own override).
    #[must_use]
    pub fn fidelity_threshold(mut self, threshold: Option<f64>) -> Self {
        self.cfg.fidelity_threshold = threshold;
        self
    }

    /// Chooses how the threshold gate evaluates a batch.
    #[must_use]
    pub fn efs_gate(mut self, gate: EfsGate) -> Self {
        self.efs_gate = gate;
        self
    }

    /// Sets the base RNG seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Enables or disables the cancellation peephole pass.
    #[must_use]
    pub fn optimize(mut self, optimize: bool) -> Self {
        self.cfg.optimize = optimize;
        self
    }

    /// Intra-program shot parallelism for every executed program (see
    /// [`ShotParallelism`]); layered under the per-batch fan-out over
    /// programs. The serial default keeps reports bit-for-bit identical
    /// to the pre-sharding runtime.
    #[must_use]
    pub fn shot_parallelism(mut self, parallelism: ShotParallelism) -> Self {
        self.cfg.shot_parallelism = parallelism;
        self
    }

    /// Trajectory kernel for every executed program (see
    /// [`TrajectoryKernel`]); individual jobs may override it via
    /// [`JobRequest::with_trajectory_kernel`]. The [`Replay`]
    /// default keeps reports bit-for-bit identical to the
    /// pre-kernel-selection runtime.
    ///
    /// [`Replay`]: TrajectoryKernel::Replay
    #[must_use]
    pub fn trajectory_kernel(mut self, kernel: TrajectoryKernel) -> Self {
        self.cfg.trajectory_kernel = kernel;
        self
    }

    /// Default shot budget for requests without an override.
    #[must_use]
    pub fn default_shots(mut self, shots: usize) -> Self {
        self.default_shots = shots;
        self
    }

    /// Registers a telemetry observer (repeatable); observers see every
    /// [`Event`] in emission order.
    #[must_use]
    pub fn observer(mut self, observer: impl EventObserver + 'static) -> Self {
        self.observers.push(Box::new(observer));
        self
    }

    /// Attaches a fleet-wide calibration [`DriftModel`]: every device
    /// ages along its own deterministic trajectory (salted by
    /// registration index) as the caller advances simulated time with
    /// [`Service::advance_drift`]. Without a model the fleet stays
    /// frozen — `advance_drift` is then a no-op.
    #[must_use]
    pub fn drift(mut self, model: impl DriftModel + 'static) -> Self {
        self.drift = Some(Box::new(model));
        self
    }

    /// Bounds the retained event log (see the [`EventLog`] capacity
    /// contract): `None` — the default — retains every event for the
    /// service's lifetime, bit-for-bit the prior behaviour;
    /// `Some(capacity)` keeps only the `capacity` most-recent events
    /// live and counts the rest in
    /// [`ServiceReport::dropped_events`]. Observers see every event at
    /// emission time regardless of the bound.
    #[must_use]
    pub fn event_capacity(mut self, capacity: Option<usize>) -> Self {
        self.event_capacity = capacity;
        self
    }

    /// Plans the head batch on the top-`k` routing candidates up
    /// front (concurrently where the planning work pays for helper
    /// threads) instead of walking them one at a time. Deterministic by construction: the committed winner
    /// is always the **first** candidate in `(score, free time,
    /// registration)` order whose plan succeeds — exactly the `k = 1`
    /// sequential winner; speculation precomputes outcomes, it never
    /// reorders them. Losing candidates' planning probes still land in
    /// the route cache (warming later dispatches), which is the only
    /// observable difference: with `k > 1` the
    /// [`RouteCacheStats`] counters may run ahead of the sequential
    /// schedule. Values are clamped to at least 1; the default 1
    /// disables speculation.
    #[must_use]
    pub fn best_k(mut self, k: usize) -> Self {
        self.best_k = k.max(1);
        self
    }

    /// Validates the configuration and builds the service.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::NoDevices`] on an empty fleet,
    /// [`RuntimeError::ZeroParallel`] on a zero batch cap,
    /// [`RuntimeError::ZeroShots`] on a zero default shot budget,
    /// [`RuntimeError::InvalidThreshold`] on a NaN, infinite or
    /// negative default threshold.
    pub fn build(self) -> Result<Service, RuntimeError> {
        if self.registry.is_empty() {
            return Err(RuntimeError::NoDevices);
        }
        if self.cfg.max_parallel == 0 {
            return Err(RuntimeError::ZeroParallel);
        }
        if self.default_shots == 0 {
            return Err(RuntimeError::ZeroShots);
        }
        if let Some(t) = self.cfg.fidelity_threshold {
            if !t.is_finite() || t < 0.0 {
                return Err(RuntimeError::InvalidThreshold { value: t });
            }
        }
        let states = vec![DeviceState::default(); self.registry.len()];
        // Baseline snapshots are the reset targets of drift-scheduled
        // recalibrations; only a drifting fleet pays for the clones.
        let baselines = self.drift.is_some().then(|| {
            self.registry
                .iter()
                .map(|(_, d)| (d.calibration().clone(), d.crosstalk().clone()))
                .collect()
        });
        let drift_steps = vec![0u64; self.registry.len()];
        let clock_index = ClockIndex::new(self.registry.len());
        let pending = PendingStore::new(self.strategy.clone());
        // Plan-cache key components that never change over the
        // service's lifetime, fingerprinted once here instead of once
        // per dispatch.
        let plan_cfg_fp = plan_cfg_fingerprint(self.efs_gate, self.cfg.optimize);
        let default_strategy_fp = strategy_fingerprint(&self.strategy);
        Ok(Service {
            strategy: self.strategy,
            policy: self.policy,
            routing: self.routing,
            cfg: self.cfg,
            efs_gate: self.efs_gate,
            default_shots: self.default_shots,
            registry: self.registry,
            states,
            pending,
            next_seq: 0,
            batches: Vec::new(),
            results: Vec::new(),
            claimed: Vec::new(),
            unreported: Vec::new(),
            clock_index,
            route_cache: RouteCache::default(),
            log: EventLog::with_capacity_limit(self.event_capacity),
            observers: self.observers,
            drift: self.drift,
            drift_steps,
            baselines,
            best_k: self.best_k.max(1),
            plan_cfg_fp,
            default_strategy_fp,
            exec_ns: 0,
            plan_ns: 0,
            plans_timed: 0,
        })
    }
}

/// The event-driven scheduling service (see the crate docs for the
/// lifecycle).
///
/// ```
/// use qucp_circuit::library;
/// use qucp_device::ibm;
/// use qucp_runtime::{JobRequest, Service};
///
/// # fn main() -> Result<(), qucp_runtime::RuntimeError> {
/// let mut service = Service::builder()
///     .device(ibm::toronto())
///     .max_parallel(2)
///     .default_shots(256)
///     .build()?;
/// for i in 0..4 {
///     let circuit = library::by_name("bell").unwrap().circuit();
///     service.submit(JobRequest::new(circuit, i as f64 * 100.0))?;
/// }
/// let report = service.run_until_drained()?;
/// assert_eq!(report.job_results.len(), 4);
/// assert!(report.stats.batches <= 4);
/// # Ok(())
/// # }
/// ```
pub struct Service {
    strategy: Strategy,
    policy: Box<dyn AdmissionPolicy>,
    routing: Box<dyn RoutingPolicy>,
    cfg: RuntimeConfig,
    efs_gate: EfsGate,
    default_shots: usize,
    registry: DeviceRegistry,
    states: Vec<DeviceState>,
    /// FIFO-sorted (arrival, seq) queue of admitted jobs.
    pending: PendingStore,
    next_seq: usize,
    batches: Vec<BatchReport>,
    /// Results by submission index; `None` until the job's batch ran.
    /// This is the O(1) seq-indexed completed-results store: the
    /// service keeps the canonical copy for the end-of-run
    /// [`ServiceReport`] even after a claim — eviction would change the
    /// drained report, which is bit-for-bit pinned.
    results: Vec<Option<JobResult>>,
    /// Claim flags parallel to `results`: set by the first successful
    /// [`Service::take_result`], after which the ticket's per-call copy
    /// is spent (later takes return `None`).
    claimed: Vec<bool>,
    /// Completed tickets not yet handed out by [`Service::tick`].
    unreported: Vec<(f64, JobTicket)>,
    /// Keyed priority index over device clocks.
    clock_index: ClockIndex,
    /// Cross-batch memo of the pure planning probes (see [`RouteCache`]).
    route_cache: RouteCache,
    log: EventLog,
    observers: Vec<Box<dyn EventObserver>>,
    /// The fleet-wide calibration drift process (`None` = frozen
    /// fleet). Temporarily `take`n during [`Service::advance_drift`].
    drift: Option<Box<dyn DriftModel>>,
    /// Per-device count of drift steps already applied.
    drift_steps: Vec<u64>,
    /// Per-device baseline snapshots (reset targets of drift-scheduled
    /// recalibrations); populated iff a drift model is attached. An
    /// explicit [`Service::recalibrate`] moves the baseline too — the
    /// newest official snapshot is what a reset restores.
    baselines: Option<Vec<(Calibration, CrosstalkModel)>>,
    /// Top-k speculative planning width (1 = sequential).
    best_k: usize,
    /// Fingerprint of the immutable plan-key bits (EFS gate mode +
    /// optimize flag), computed once at build.
    plan_cfg_fp: u64,
    /// Fingerprint of the service's default strategy; overridden heads
    /// fingerprint their own strategy per dispatch.
    default_strategy_fp: u64,
    /// Cumulative wall-clock nanoseconds spent *executing* batches
    /// (trajectory simulation), as opposed to dispatch bookkeeping.
    exec_ns: u64,
    /// Cumulative wall-clock nanoseconds spent *planning* batches
    /// (mapping/partitioning in [`plan_gated_members`]); under best-k
    /// speculation the per-thread durations are summed.
    plan_ns: u64,
    /// How many planning runs `plan_ns` sums (their mean sizes the
    /// speculation fan-out).
    plans_timed: u64,
}

impl std::fmt::Debug for Service {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Service")
            .field("devices", &self.registry.len())
            .field("strategy", &self.strategy.name)
            .field("policy", &self.policy)
            .field("routing", &self.routing)
            .field("cfg", &self.cfg)
            .field("efs_gate", &self.efs_gate)
            .field("pending", &self.pending.len())
            .field("batches", &self.batches.len())
            .finish_non_exhaustive()
    }
}

/// Observable statistics of the service's cross-batch planning cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouteCacheStats {
    /// Probes answered from the cache.
    pub hits: usize,
    /// Probes computed and inserted.
    pub misses: usize,
    /// Entries currently cached.
    pub entries: usize,
    /// Entries dropped by calibration-epoch invalidations (0 on a
    /// frozen fleet).
    pub invalidated: usize,
    /// Whole-plan cache hits: batches whose committed plan was replayed
    /// from memo instead of re-derived.
    pub plan_hits: usize,
    /// Whole-plan cache misses: batches planned fresh and memoized.
    pub plan_misses: usize,
    /// Whole-plan entries currently cached.
    pub plan_entries: usize,
    /// Whole-plan entries dropped by calibration-epoch invalidations.
    /// The epoch is also part of the plan *key*, so a stale-epoch plan
    /// could not replay even if a drop were missed.
    pub plan_invalidated: usize,
}

/// Cross-batch memo of the planning probes the dispatch loop repeats
/// for similar jobs: the routing policy's solo-partition score and the
/// head-only EFS gate's copy count. Both are pure functions of
/// *(device, circuit shape, partition policy[, threshold])* **at a
/// fixed calibration epoch**: an entry is valid for exactly one epoch
/// of its device, and the service drops a device's entries whenever
/// its epoch bumps (recalibration or a changing drift step). A frozen
/// fleet never bumps, so its entries live for the service's lifetime.
#[derive(Debug, Default)]
struct RouteCache {
    /// Solo-best EFS partition score of a circuit shape on a device;
    /// `None` records — and caches — "no placement on this chip".
    solo: HashMap<(usize, u64, u64), Option<f64>>,
    /// Head-only EFS-gate copy counts, additionally keyed by the
    /// threshold bits. Planning errors are cached alongside successes:
    /// the probe is deterministic either way.
    head_cap: HashMap<(usize, u64, u64, u64), Result<usize, CoreError>>,
    /// Whole committed plans by `(device, plan fingerprint)` — the
    /// fingerprint folds in the device's calibration epoch, the ordered
    /// member shapes, the head's effective strategy, the gate
    /// mode/optimize bits, and (in the batch-gate modes) the member
    /// thresholds, i.e. every input [`plan_gated_members`] consults. A
    /// hit skips planning entirely: the shrink *trace* replays against
    /// the current members' ids and the [`PlannedWorkload`] is shared
    /// clone-free behind its `Arc`. `JobUnplaceable` outcomes are
    /// cached alongside successes (planning is deterministic either
    /// way); hard [`RuntimeError::Core`] outcomes are not.
    plans: HashMap<(usize, u64), PlanEntry>,
    hits: usize,
    misses: usize,
    invalidated: usize,
    plan_hits: usize,
    plan_misses: usize,
    plan_invalidated: usize,
}

/// One memoized planning outcome (see [`RouteCache::plans`]).
#[derive(Debug, Clone)]
struct PlanEntry {
    /// The eviction trace of the original planning run: `(position,
    /// reason)` per shrink, in order. Replay applies it to the current
    /// batch's members to regenerate the surviving member list and the
    /// [`Event::BatchShrunk`] stream with current job ids.
    trace: Vec<(usize, ShrinkReason)>,
    /// The plan the surviving members committed with, or the
    /// `JobUnplaceable` source when the batch shrank to one member and
    /// still failed (the head is never evicted, so replay re-binds the
    /// error to the current head's id).
    outcome: Result<std::sync::Arc<PlannedWorkload>, CoreError>,
}

impl RouteCache {
    /// Drops every entry keyed by `device_index` (one device's epoch
    /// bumped; other devices' entries stay valid) and returns how many
    /// entries were dropped.
    fn invalidate_device(&mut self, device_index: usize) -> usize {
        let before = self.solo.len() + self.head_cap.len();
        self.solo.retain(|k, _| k.0 != device_index);
        self.head_cap.retain(|k, _| k.0 != device_index);
        let dropped = before - (self.solo.len() + self.head_cap.len());
        self.invalidated += dropped;
        let plans_before = self.plans.len();
        self.plans.retain(|k, _| k.0 != device_index);
        let plans_dropped = plans_before - self.plans.len();
        self.plan_invalidated += plans_dropped;
        dropped + plans_dropped
    }
}

/// Feeds a value's `Debug` rendering straight into a hasher without
/// allocating.
struct HashWriter<'a>(&'a mut std::collections::hash_map::DefaultHasher);

impl std::fmt::Write for HashWriter<'_> {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        std::hash::Hasher::write(self.0, s.as_bytes());
        Ok(())
    }
}

/// Fingerprint of a circuit's *shape* — width and exact gate sequence,
/// name excluded — so replicated copies (`fredkin#0`, `fredkin#1`)
/// share one cache entry per device.
fn circuit_shape_fingerprint(circuit: &Circuit) -> u64 {
    use std::fmt::Write as _;
    use std::hash::Hasher as _;
    let mut h = std::collections::hash_map::DefaultHasher::new();
    h.write_usize(circuit.width());
    for gate in circuit.gates() {
        let _ = write!(HashWriter(&mut h), "{gate:?}");
    }
    h.finish()
}

/// Fingerprint of a partition policy — the only strategy component the
/// planning probes consult. `Debug` renders `f64` fields round-trip
/// exactly, so distinct σ values or measured crosstalk maps never
/// collide.
fn partition_policy_fingerprint(policy: &PartitionPolicy) -> u64 {
    use std::fmt::Write as _;
    use std::hash::Hasher as _;
    let mut h = std::collections::hash_map::DefaultHasher::new();
    let _ = write!(HashWriter(&mut h), "{policy:?}");
    h.finish()
}

/// Fingerprint of a *whole* strategy — unlike the probes, whole-plan
/// memoization must key every stage knob planning consults (partition
/// policy, routing crosstalk-awareness, merge serialization, σ), so the
/// full `Debug` rendering is hashed. `f64` fields render round-trip
/// exactly, so distinct strategies never alias.
fn strategy_fingerprint(strategy: &Strategy) -> u64 {
    use std::fmt::Write as _;
    use std::hash::Hasher as _;
    let mut h = std::collections::hash_map::DefaultHasher::new();
    let _ = write!(HashWriter(&mut h), "{strategy:?}");
    h.finish()
}

/// Fingerprint of the service-lifetime plan-key bits: the EFS gate mode
/// (it decides the eviction rule baked into a cached shrink trace) and
/// the optimize flag (it decides the planned gate sequences).
fn plan_cfg_fingerprint(gate: EfsGate, optimize: bool) -> u64 {
    use std::fmt::Write as _;
    use std::hash::Hasher as _;
    let mut h = std::collections::hash_map::DefaultHasher::new();
    let _ = write!(HashWriter(&mut h), "{gate:?}");
    std::hash::Hasher::write_u8(&mut h, optimize as u8);
    h.finish()
}

impl Service {
    /// Starts building a service.
    pub fn builder() -> ServiceBuilder {
        ServiceBuilder::new()
    }

    /// The device fleet.
    pub fn registry(&self) -> &DeviceRegistry {
        &self.registry
    }

    /// The admission policy's display name.
    pub fn policy_name(&self) -> &str {
        self.policy.name()
    }

    /// The routing policy's display name.
    pub fn routing_name(&self) -> &str {
        self.routing.name()
    }

    /// Statistics of the cross-batch planning cache: how many
    /// partition/candidate probes the dispatch loop answered from memo
    /// instead of recomputing. Entries are keyed by *(device, circuit
    /// shape, partition policy[, threshold])* and are valid for exactly
    /// one calibration **epoch** of their device: a
    /// [`Service::recalibrate`] or a changing [`Service::advance_drift`]
    /// step bumps the device's epoch and drops that device's entries,
    /// counted in [`RouteCacheStats::invalidated`] (plans:
    /// [`RouteCacheStats::plan_invalidated`]). On a frozen fleet epochs
    /// never bump and entries live for the service's lifetime.
    pub fn route_cache_stats(&self) -> RouteCacheStats {
        RouteCacheStats {
            hits: self.route_cache.hits,
            misses: self.route_cache.misses,
            entries: self.route_cache.solo.len() + self.route_cache.head_cap.len(),
            invalidated: self.route_cache.invalidated,
            plan_hits: self.route_cache.plan_hits,
            plan_misses: self.route_cache.plan_misses,
            plan_entries: self.route_cache.plans.len(),
            plan_invalidated: self.route_cache.plan_invalidated,
        }
    }

    /// A device's current calibration epoch (see
    /// [`DeviceRegistry::epoch`]).
    pub fn device_epoch(&self, device: DeviceId) -> u64 {
        self.registry.epoch(device)
    }

    /// Installs a fresh calibration snapshot on a device — the live
    /// fleet's "daily recalibration arrived" entry point.
    ///
    /// The snapshot is **validated before it can touch anything**: a
    /// snapshot with NaN/infinite entries, the wrong qubit count or
    /// missing link entries is rejected with a typed error and the
    /// device, its epoch and the planning cache are left exactly as
    /// they were. On success the device's calibration epoch bumps, the
    /// device's cached planning probes and plans are dropped, an
    /// [`Event::DeviceRecalibrated`] is emitted, and — when a drift
    /// model is attached — the new snapshot becomes the baseline that
    /// drift-scheduled recalibration resets restore. Returns the new
    /// epoch.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::InvalidCalibration`] with the disqualifying
    /// [`CalibrationFault`].
    ///
    /// # Panics
    ///
    /// Panics if `device` came from a different registry and is out of
    /// range.
    pub fn recalibrate(
        &mut self,
        device: DeviceId,
        calibration: Calibration,
    ) -> Result<u64, RuntimeError> {
        let dev = self.registry.get(device);
        let fault = if calibration.num_qubits() != dev.num_qubits() {
            Some(CalibrationFault::QubitCountMismatch {
                expected: dev.num_qubits(),
                got: calibration.num_qubits(),
            })
        } else if !calibration.all_finite() {
            Some(CalibrationFault::NonFinite)
        } else if !calibration.covers(dev.topology()) {
            Some(CalibrationFault::MissingLinks)
        } else {
            None
        };
        if let Some(fault) = fault {
            return Err(RuntimeError::InvalidCalibration {
                device: dev.name().to_string(),
                fault,
            });
        }
        let name = dev.name().to_string();
        if let Some(baselines) = &mut self.baselines {
            baselines[device.index()].0 = calibration.clone();
        }
        let epoch = self.registry.recalibrate(device, calibration);
        self.bump_epoch(device.index(), name, epoch);
        Ok(epoch)
    }

    /// Advances the fleet's calibration drift to simulated time `now`
    /// (ns): for every device, applies each drift step the attached
    /// [`DriftModel`] schedules between the last advance and `now` —
    /// [`DriftEvent::Drift`] steps perturb the calibration state,
    /// [`DriftEvent::Recalibrate`] steps restore the device's baseline
    /// snapshot. Each step that actually changes a device bumps its
    /// calibration epoch, drops its cached planning probes and plans
    /// and emits an [`Event::DeviceRecalibrated`]; no-op steps (zero-sigma walks, or
    /// resets of an undrifted device) leave epoch, cache and telemetry
    /// untouched, so a zero-drift service stays bit-for-bit a frozen
    /// one. Returns the number of epoch bumps.
    ///
    /// Drift is advanced **explicitly**, never implicitly by
    /// [`Service::tick`] — [`Service::run_until_drained`] jumps to an
    /// infinite horizon, which is a fine dispatch bound but not a
    /// meaningful drift time. Interleave `advance_drift(t)` with
    /// `tick(t)` to co-evolve queue and noise; time never runs
    /// backwards (an earlier `now` than a previous advance is a
    /// no-op). Without an attached model this is a no-op returning 0.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::NonFiniteTime`] unless `now` is finite;
    /// [`RuntimeError::DriftHorizonTooFar`] when the advance would
    /// schedule more than [`MAX_DRIFT_STEPS_PER_ADVANCE`] steps per
    /// device (a mismatched clock unit or a degenerate interval —
    /// every step must actually run or the noise trajectory would
    /// fork, so runaway advances are refused, not truncated; state is
    /// untouched). [`RuntimeError::InvalidCalibration`] when a
    /// misbehaving model produces NaN/infinite values — the same
    /// validation gate [`Service::recalibrate`] applies to explicit
    /// snapshots: the offending step is rolled back (no epoch bump, no
    /// cache drop) and that device stops just before it, while earlier
    /// steps and other devices stand, so a fixed model can resume
    /// exactly where drift halted.
    pub fn advance_drift(&mut self, now: f64) -> Result<usize, RuntimeError> {
        if !now.is_finite() {
            return Err(RuntimeError::NonFiniteTime { value: now });
        }
        // Taken (not borrowed) so the loop below can mutate registry,
        // cache and event log while consulting the model.
        let Some(model) = self.drift.take() else {
            return Ok(0);
        };
        let target = model.steps_at(now);
        let applied_min = self.drift_steps.iter().copied().min().unwrap_or(0);
        if target.saturating_sub(applied_min) > MAX_DRIFT_STEPS_PER_ADVANCE {
            self.drift = Some(model);
            return Err(RuntimeError::DriftHorizonTooFar {
                steps: target - applied_min,
                max: MAX_DRIFT_STEPS_PER_ADVANCE,
            });
        }
        let mut bumps = 0usize;
        let mut fault: Option<RuntimeError> = None;
        'devices: for index in 0..self.registry.len() {
            let applied = self.drift_steps[index];
            if target <= applied {
                continue;
            }
            let id = DeviceId::from_index(index);
            for step in applied + 1..=target {
                let new_epoch = match model.event_at(step) {
                    // Applied against a scratch copy so a model that
                    // produces NaN/infinity can be rejected with the
                    // live state untouched — the same gate
                    // `recalibrate` applies to explicit snapshots.
                    DriftEvent::Drift => {
                        let mut poisoned = false;
                        let epoch = self.registry.mutate_calibration(id, |cal, xt| {
                            let (mut next_cal, mut next_xt) = (cal.clone(), xt.clone());
                            if !model.apply_step(step, index as u64, &mut next_cal, &mut next_xt) {
                                return false;
                            }
                            if next_cal.all_finite() && next_xt.all_finite() {
                                *cal = next_cal;
                                *xt = next_xt;
                                true
                            } else {
                                poisoned = true;
                                false
                            }
                        });
                        if poisoned {
                            fault = Some(RuntimeError::InvalidCalibration {
                                device: self.registry.device_at(index).name().to_string(),
                                fault: CalibrationFault::NonFinite,
                            });
                            // Steps up to the poisoned one stand; the
                            // device stays at `step - 1` so a fixed
                            // model could resume exactly there.
                            self.drift_steps[index] = step - 1;
                            continue 'devices;
                        }
                        epoch
                    }
                    // Restore-by-clone only when the device actually
                    // drifted away from its baseline; the common
                    // nothing-changed reset costs two comparisons.
                    DriftEvent::Recalibrate => {
                        let (base_cal, base_xt) = &self
                            .baselines
                            .as_ref()
                            .expect("a drifting service always snapshots baselines at build")
                            [index];
                        self.registry.mutate_calibration(id, |cal, xt| {
                            if cal == base_cal && xt == base_xt {
                                false
                            } else {
                                *cal = base_cal.clone();
                                *xt = base_xt.clone();
                                true
                            }
                        })
                    }
                };
                if let Some(epoch) = new_epoch {
                    // After a device's first bump of this advance its
                    // cache entries are gone and no dispatch can bring
                    // any back mid-advance: later drops find nothing.
                    let device = self.registry.device_at(index).name().to_string();
                    self.bump_epoch(index, device, epoch);
                    bumps += 1;
                }
            }
            self.drift_steps[index] = target;
        }
        self.drift = Some(model);
        match fault {
            Some(err) => Err(err),
            None => Ok(bumps),
        }
    }

    /// The epoch-bump fanout, shared by explicit recalibrations and
    /// drift steps: the device's cached probes and plans are dropped —
    /// they were computed against a calibration that no longer exists —
    /// and the bump is logged.
    fn bump_epoch(&mut self, device_index: usize, device_name: String, epoch: u64) {
        self.route_cache.invalidate_device(device_index);
        self.emit(Event::DeviceRecalibrated {
            device: device_name,
            epoch,
        });
    }

    /// Jobs admitted but not yet dispatched.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Batches dispatched so far (the drained report's
    /// `stats.batches`). Campaign accounting reads this around its
    /// rounds to attribute batch counts.
    pub fn batches_run(&self) -> usize {
        self.batches.len()
    }

    /// The telemetry log accumulated so far.
    pub fn events(&self) -> &[Event] {
        self.log.events()
    }

    /// The full event log (query helpers included).
    pub fn event_log(&self) -> &EventLog {
        &self.log
    }

    /// The result of a ticket's job, once its batch has run.
    ///
    /// A non-consuming peek: it ignores the claim state and never
    /// spends the ticket. Use [`Service::take_result`] for the
    /// exactly-once retrieval campaigns rely on.
    pub fn result(&self, ticket: JobTicket) -> Option<&JobResult> {
        self.results.get(ticket.seq).and_then(Option::as_ref)
    }

    /// Claims a ticket's result: `None` while the batch has not run,
    /// the [`JobResult`] **exactly once** after it has, and `None`
    /// again for every later call on the same ticket.
    ///
    /// Ownership contract: the caller owns the returned copy; the
    /// service retains the canonical result in its seq-indexed
    /// completed store for the end-of-run [`ServiceReport`], so
    /// claiming mid-stream never changes the drained report — the
    /// claim flag, not eviction, is what spends the ticket
    /// (bit-for-bit pinned by the campaign proptests). Claiming is
    /// also independent of the completion *notifications*: a ticket
    /// claimed between ticks is still reported exactly once by
    /// [`Service::tick`].
    pub fn take_result(&mut self, ticket: &JobTicket) -> Option<JobResult> {
        let result = self.results.get(ticket.seq).and_then(Option::as_ref)?;
        if std::mem::replace(&mut self.claimed[ticket.seq], true) {
            return None;
        }
        Some(result.clone())
    }

    /// Admits a job into the pending queue.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::NonFiniteTime`] on a NaN or infinite arrival,
    /// [`RuntimeError::EmptyCircuit`] on a zero-width circuit,
    /// [`RuntimeError::ZeroShots`] on a zero effective shot budget,
    /// [`RuntimeError::InvalidThreshold`] on a NaN, infinite or
    /// negative per-job threshold.
    pub fn submit(&mut self, request: JobRequest) -> Result<JobTicket, RuntimeError> {
        if !request.arrival.is_finite() {
            return Err(RuntimeError::NonFiniteTime {
                value: request.arrival,
            });
        }
        if request.circuit.width() == 0 {
            return Err(RuntimeError::EmptyCircuit);
        }
        let shots = request.shots.unwrap_or(self.default_shots);
        if shots == 0 {
            return Err(RuntimeError::ZeroShots);
        }
        if let Some(t) = request.fidelity_threshold {
            if !t.is_finite() || t < 0.0 {
                return Err(RuntimeError::InvalidThreshold { value: t });
            }
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        let id = request.id.unwrap_or(seq as u64);
        self.emit(Event::JobSubmitted {
            job_id: id,
            seq,
            arrival: request.arrival,
            width: request.circuit.width(),
            shots,
        });
        // Ties on arrival keep submission order: every existing job
        // with the same arrival has a smaller seq and stays in front
        // (the store's insert rule).
        let width = request.circuit.width();
        let gates = request.circuit.gate_count();
        let depth = request.circuit.depth();
        // The shape fingerprint keys every plan/probe cache lookup the
        // job will ever be part of; hashing once at submit (O(gates),
        // like the depth above) beats re-hashing per dispatch.
        let shape = circuit_shape_fingerprint(&request.circuit);
        self.pending.insert(Pending {
            seq,
            id,
            circuit: request.circuit,
            width,
            gates,
            depth,
            shape,
            shots,
            arrival: request.arrival,
            strategy: request.strategy,
            fidelity_threshold: request.fidelity_threshold,
            shot_parallelism: request.shot_parallelism,
            trajectory_kernel: request.trajectory_kernel,
            routing: request.routing,
            skips: 0,
        });
        self.results.push(None);
        self.claimed.push(false);
        Ok(JobTicket { seq, id })
    }

    /// Advances simulated time to `now`: dispatches batches **in
    /// admission order** while the next batch can start at or before
    /// `now`, and returns the tickets of jobs whose batches *completed*
    /// by `now` (each reported exactly once, ordered by completion
    /// time).
    ///
    /// Head-of-line semantics: the admission policy decides the next
    /// batch; when that batch must start after `now` (e.g. its only
    /// admitting device is still busy), later batches wait for a later
    /// tick even if a device is free for them — ticking never reorders
    /// dispatches. Every tick sequence therefore produces a prefix of
    /// [`Service::run_until_drained`]'s dispatch sequence, and the
    /// final schedule is identical; only notification timing differs.
    ///
    /// **Time contract** (deliberately asymmetric to
    /// [`Service::submit`], which requires *finite* arrivals): a tick
    /// horizon is a comparison bound, not a timestamp, so the infinities
    /// are meaningful — `now = f64::INFINITY` drains everything
    /// pending, `now = f64::NEG_INFINITY` is a no-op (nothing can start
    /// or complete by then). Only NaN is rejected, because no dispatch
    /// decision can be ordered against it. See
    /// [`RuntimeError::NonFiniteTime`].
    ///
    /// # Errors
    ///
    /// [`RuntimeError::NonFiniteTime`] if `now` is NaN; otherwise the
    /// dispatch errors of [`Service::run_until_drained`].
    pub fn tick(&mut self, now: f64) -> Result<Vec<JobTicket>, RuntimeError> {
        if now.is_nan() {
            return Err(RuntimeError::NonFiniteTime { value: now });
        }
        self.dispatch_until(now)?;
        let mut done: Vec<(f64, JobTicket)> = Vec::new();
        self.unreported.retain(|&(completion, ticket)| {
            if completion <= now {
                done.push((completion, ticket));
                false
            } else {
                true
            }
        });
        done.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.seq.cmp(&b.1.seq)));
        Ok(done.into_iter().map(|(_, t)| t).collect())
    }

    /// Advances dispatch to `now` without consuming the completion
    /// queue: the same head-of-line dispatch rule and time contract as
    /// [`Service::tick`], but tickets of batches completed by `now`
    /// stay queued and are still reported (exactly once) by the next
    /// `tick`. This is the entry point for a background driver — e.g.
    /// the daemon's wall-clock loop — that advances time on behalf of
    /// clients: batches keep flowing, while completion notifications
    /// keep their report-exactly-once contract with whoever calls
    /// `tick`.
    ///
    /// # Errors
    ///
    /// Exactly those of [`Service::tick`].
    pub fn advance_dispatch(&mut self, now: f64) -> Result<(), RuntimeError> {
        if now.is_nan() {
            return Err(RuntimeError::NonFiniteTime { value: now });
        }
        self.dispatch_until(now)
    }

    /// Serves every pending job to completion and reports fleet-wide
    /// and per-device statistics, batches, per-job results and the
    /// telemetry log.
    ///
    /// Deterministic: the report depends only on the submissions and
    /// the configuration (including seed), never on thread timing. More
    /// jobs may be submitted and drained afterwards; statistics keep
    /// accumulating.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::JobUnplaceable`] when a job cannot run alone on
    /// any registered device; [`RuntimeError::Core`] on backend
    /// failures.
    pub fn run_until_drained(&mut self) -> Result<ServiceReport, RuntimeError> {
        self.dispatch_until(f64::INFINITY)?;
        self.unreported.clear();
        Ok(self.drained_report())
    }

    /// Dispatches every batch that can start at or before `limit`, one
    /// at a time: a **staging** pass ([`Service::stage_one`] — every
    /// scheduling decision and queue/clock mutation, batch events
    /// buffered), execution, and a **finishing** pass
    /// ([`Service::finish_batch`] — results folded into the result
    /// store, statistics and the event log). No staging decision reads
    /// an execution result (completion times are plan-derived).
    fn dispatch_until(&mut self, limit: f64) -> Result<(), RuntimeError> {
        while let Some(staged) = self.stage_one(limit)? {
            let exec_started = std::time::Instant::now();
            let results = staged.execute();
            self.exec_ns = self
                .exec_ns
                .saturating_add(exec_started.elapsed().as_nanos() as u64);
            self.finish_batch(staged, results?);
        }
        Ok(())
    }

    /// Emits an event to every observer and the log.
    fn emit(&mut self, event: Event) {
        for observer in &mut self.observers {
            observer.on_event(&event);
        }
        self.log.push(event);
    }

    /// The stored pending job with submission index `seq`; a job that
    /// vanished from the store is an internal invariant violation
    /// surfaced as a typed [`RuntimeError::QueueCorrupted`] instead of
    /// a panic.
    fn pending_by_seq(&self, seq: usize) -> Result<&Pending, RuntimeError> {
        self.pending
            .get(seq)
            .ok_or(RuntimeError::QueueCorrupted { seq })
    }

    /// Stages the next batch if one can start at or before `limit`:
    /// every scheduling decision (head choice, routing, packing,
    /// planning through the plan cache), every queue/clock mutation,
    /// and the batch's full event block — buffered on the returned
    /// [`StagedBatch`], not yet emitted. Execution and the event/stat
    /// fold happen in [`Service::finish_batch`].
    fn stage_one(&mut self, limit: f64) -> Result<Option<StagedBatch>, RuntimeError> {
        let Some(t_min) = self.pending.first_arrival() else {
            return Ok(None);
        };

        // Earliest-free device (free time, then registration order):
        // the admission horizon at which the head is selected. Head
        // choice is the *admission* policy's business and always
        // happens at this horizon; the *routing* policy only ranks the
        // admitting candidates afterwards. The clock index answers in
        // O(log D): total_cmp order, lowest registration index among
        // ties.
        let d0 = self.clock_index.min_device();
        let now0 = self.states[d0].clock.max(t_min);
        self.pending.prepare(now0, None);
        let (head_seq, head_arrival) = {
            let arrived0 = self.pending.arrived(now0);
            let head_pos0 = self.policy.choose_head(arrived0);
            (arrived0[head_pos0].seq, arrived0[head_pos0].arrival)
        };
        let head = self.pending_by_seq(head_seq)?;
        let head_width = head.width;
        let head_shape = head.shape;
        let head_circuit = head.circuit.clone();
        let head_id = head.id;
        let head_has_strategy_override = head.strategy.is_some();
        let head_strategy = head
            .strategy
            .clone()
            .unwrap_or_else(|| self.strategy.clone());
        let head_threshold = head.fidelity_threshold.or(self.cfg.fidelity_threshold);
        // The head's routing override (if any) routes this batch; a
        // `Copy` value so the ranked loop below can keep calling
        // `&mut self` probe helpers.
        let head_routing: Option<RoutingChoice> = head.routing;

        // Rank the admitting candidates with the routing policy; if
        // none admits the head, probe the widest chip so the precise
        // placement error surfaces (matching the seed scheduler). The
        // width-bucketed index hands back only the admitting devices —
        // in (width, registration) order, which is fine: the ranked
        // sort below uses the total key (score, free time,
        // registration), so candidate input order never matters.
        let admitting: Vec<usize> = self
            .registry
            .admitting_bucket(head_width)
            .iter()
            .map(|&(_, d)| d)
            .collect();
        let probe_widest = admitting.is_empty();
        // Cache keys cost an O(gates) hash of the head circuit, so they
        // are only computed when a probing path will consult the cache
        // — the default EarliestFree/no-threshold dispatch stays
        // exactly as cheap as before the routing seam.
        let wants_score = match &head_routing {
            Some(choice) => choice.wants_partition_score(),
            None => self.routing.wants_partition_score(),
        };
        let gate_probes =
            !probe_widest && self.efs_gate == EfsGate::HeadOnly && head_threshold.is_some();
        let (shape, policy_fp) = if wants_score || gate_probes {
            (
                head_shape,
                partition_policy_fingerprint(&head_strategy.partition),
            )
        } else {
            (0, 0)
        };
        // The head's effective-strategy fingerprint keys the plan
        // cache; the common no-override case reads the fingerprint
        // computed once at build.
        let strategy_fp = if head_has_strategy_override {
            strategy_fingerprint(&head_strategy)
        } else {
            self.default_strategy_fp
        };
        let (candidates, route_scores): (Vec<usize>, Vec<f64>) = if probe_widest {
            let widest = self.registry.widest().expect("fleet is non-empty").index();
            (vec![widest], vec![f64::INFINITY])
        } else {
            let starts: Vec<f64> = admitting
                .iter()
                .map(|&d| self.states[d].clock.max(head_arrival))
                .collect();
            let best_start = starts.iter().copied().fold(f64::INFINITY, f64::min);
            let head_cx_count = head_circuit.cx_count();
            // (score, free time, registration index): scores compare
            // with `total_cmp` (NaN sorts last) and ties always fall
            // back to the earliest-free order, so any policy routes
            // deterministically.
            let mut ranked: Vec<(f64, f64, usize)> = Vec::with_capacity(admitting.len());
            for (i, &d) in admitting.iter().enumerate() {
                let partition_score = if wants_score {
                    self.cached_solo_score(
                        d,
                        &head_circuit,
                        &head_strategy.partition,
                        shape,
                        policy_fp,
                    )
                } else {
                    None
                };
                let query = RouteQuery {
                    device: self.registry.device_at(d),
                    device_index: d,
                    free_at: self.states[d].clock,
                    start: starts[i],
                    best_start,
                    head_width,
                    head_cx_count,
                    partition_score,
                };
                let score = match &head_routing {
                    Some(choice) => choice.score(&query),
                    None => self.routing.score(&query),
                };
                ranked.push((score, self.states[d].clock, d));
            }
            ranked.sort_by(|a, b| {
                a.0.total_cmp(&b.0)
                    .then(a.1.total_cmp(&b.1))
                    .then(a.2.cmp(&b.2))
            });
            (
                ranked.iter().map(|r| r.2).collect(),
                ranked.iter().map(|r| r.0).collect(),
            )
        };

        // Assembling a pipeline is cheap (it boxes four stage objects),
        // so each dispatch builds one for the head's effective strategy
        // rather than fighting the borrow checker over a cached copy.
        let head = HeadContext {
            seq: head_seq,
            id: head_id,
            arrival: head_arrival,
            pipeline: Pipeline::from_strategy(&head_strategy),
            circuit: head_circuit,
            strategy: head_strategy,
            strategy_fp,
            threshold: head_threshold,
            shape,
            policy_fp,
            probe_widest,
            batch_index: self.batches.len(),
        };
        let batch_index = head.batch_index;

        // Best-k speculation: prepare the top-k candidates' pack and
        // plan outcomes (planning concurrently) before walking the
        // ranking. The walk below consumes them for ranks < k and plans
        // one candidate at a time beyond — the same routine either way,
        // and the committed winner is the first ranked candidate whose
        // plan succeeds.
        let k = if !probe_widest && self.best_k > 1 && candidates.len() > 1 {
            self.best_k.min(candidates.len())
        } else {
            1
        };
        let mut speculated: Vec<Option<CandidateOutcome>> = if k > 1 {
            let outcomes = self.speculate(&head, &candidates[..k]);
            outcomes.into_iter().map(Some).collect()
        } else {
            Vec::new()
        };

        let mut last_unplaceable: Option<RuntimeError> = None;
        for (rank, &d) in candidates.iter().enumerate() {
            let start = self.states[d].clock.max(head.arrival);
            if start > limit {
                // Head-of-line across the fleet: when the policy's
                // preferred viable candidate cannot start by `limit`,
                // the whole dispatch defers to a later tick instead of
                // falling through to a lower-ranked chip — a
                // finite-horizon tick sequence must stay a prefix of
                // the drain schedule, and planning failures (which are
                // horizon-independent) are the only way down the
                // ranking. Speculative outcomes (hard errors included)
                // for this and lower ranks are discarded unseen.
                return Ok(None);
            }
            let outcome = match speculated.get_mut(rank).and_then(Option::take) {
                Some(outcome) => outcome,
                None => self.plan_candidate(&head, d),
            };
            let (pack, planned) = match outcome {
                CandidateOutcome::Unplaceable(e) => {
                    last_unplaceable = Some(e);
                    continue;
                }
                CandidateOutcome::Failed(e) => return Err(e),
                CandidateOutcome::Planned { pack, plan } => match *plan {
                    Ok(planned) => (pack, planned),
                    Err(e @ RuntimeError::JobUnplaceable { .. }) => {
                        last_unplaceable = Some(e);
                        continue;
                    }
                    Err(e) => return Err(e),
                },
            };
            let (plan, members, shrinks) = planned;
            debug_assert_eq!(pack.start.to_bits(), start.to_bits());

            // Cloned so the staging below can take `&mut self`; one
            // clone per dispatch, dwarfed by the batch's trajectories.
            let device = self.registry.device_at(d).clone();
            // The routing decision is recorded only for the device the
            // batch actually commits on (failed candidates leave no
            // trace, like their shrink events).
            // The recorded policy is the *effective* one: the head's
            // override when present, the service default otherwise.
            let mut events: Vec<Event> = Vec::with_capacity(2 + shrinks.len() + members.seqs.len());
            events.push(Event::BatchRouted {
                batch_index,
                device: device.name().to_string(),
                policy: match &head_routing {
                    Some(choice) => choice.name().to_string(),
                    None => self.routing.name().to_string(),
                },
                score: route_scores[rank],
                start,
                candidates: candidates.len(),
            });
            events.extend(shrinks);

            // Everything the execution and finish halves need, copied
            // out of the pending store before the members are removed.
            let makespan = plan.context.makespan;
            let completion = start + makespan;
            let n = members.seqs.len();
            let mut shots: Vec<usize> = Vec::with_capacity(n);
            let mut parallelism: Vec<ShotParallelism> = Vec::with_capacity(n);
            let mut kernels: Vec<TrajectoryKernel> = Vec::with_capacity(n);
            let mut job_ids: Vec<u64> = Vec::with_capacity(n);
            let mut names: Vec<String> = Vec::with_capacity(n);
            let mut widths: Vec<usize> = Vec::with_capacity(n);
            let mut waits: Vec<f64> = Vec::with_capacity(n);
            let mut turnarounds: Vec<f64> = Vec::with_capacity(n);
            for &s in &members.seqs {
                let p = self.pending_by_seq(s)?;
                shots.push(p.shots);
                parallelism.push(p.shot_parallelism.unwrap_or(self.cfg.shot_parallelism));
                kernels.push(p.trajectory_kernel.unwrap_or(self.cfg.trajectory_kernel));
                job_ids.push(p.id);
                names.push(p.circuit.name().to_string());
                widths.push(p.width);
                waits.push(start - p.arrival);
                turnarounds.push(completion - p.arrival);
            }
            events.push(Event::BatchPlanned {
                batch_index,
                device: device.name().to_string(),
                job_ids: job_ids.clone(),
                start,
                makespan,
            });
            for (pos, &seq) in members.seqs.iter().enumerate() {
                events.push(Event::JobCompleted {
                    job_id: job_ids[pos],
                    seq,
                    batch_index,
                    completion,
                    turnaround: turnarounds[pos],
                });
                self.unreported.push((
                    completion,
                    JobTicket {
                        seq,
                        id: job_ids[pos],
                    },
                ));
            }

            // The scheduling state the *next* staging decision reads
            // mutates now; statistics and the event fold wait for the
            // finish pass.
            let state = &mut self.states[d];
            let old_clock = state.clock;
            state.clock = completion;
            self.clock_index.update(d, old_clock, completion);
            self.pending.remove_members(&members.seqs);

            // Starvation accounting: every arrived candidate that an
            // admitted later candidate jumped over was overtaken once.
            // Jobs wider than this whole chip are exempt — they could
            // never have run here, their service is governed by a
            // device that admits them, and turning them into barriers
            // on chips they cannot use would cost throughput for no
            // fairness gain.
            let admitted: Vec<usize> = pack
                .picks_seqs
                .iter()
                .copied()
                .filter(|s| members.seqs.contains(s))
                .collect();
            let last_admitted_pos = pack
                .picks
                .iter()
                .enumerate()
                .filter(|&(j, _)| admitted.contains(&pack.picks_seqs[j]))
                .map(|(_, &pos)| pos)
                .max()
                .unwrap_or(pack.head_pos);
            for (i, &(seq, width)) in pack.pool.iter().enumerate() {
                if i < last_admitted_pos && width <= device.num_qubits() && !admitted.contains(&seq)
                {
                    self.pending.bump_skip(seq);
                }
            }
            return Ok(Some(StagedBatch {
                device_index: d,
                batch_index,
                device,
                pipeline: head.pipeline,
                plan,
                start,
                completion,
                makespan,
                batch_seed: derive_batch_seed(self.cfg.seed, batch_index),
                member_seqs: members.seqs,
                job_ids,
                names,
                widths,
                shots,
                parallelism,
                kernels,
                waits,
                turnarounds,
                events,
            }));
        }
        Err(last_unplaceable.expect("every candidate device failed with an unplaceable error"))
    }

    /// The finish half of one batch dispatch: emits the batch's
    /// buffered event block, folds the execution results into the
    /// per-job result store and per-device statistics, and records the
    /// [`BatchReport`]. Called in batch order, so the event log and
    /// every floating-point accumulation sequence are deterministic.
    fn finish_batch(&mut self, staged: StagedBatch, results: Vec<ProgramResult>) {
        for event in staged.events {
            self.emit(event);
        }
        for (pos, (&seq, mut result)) in staged.member_seqs.iter().zip(results).enumerate() {
            // Re-bind the result name to the *current* member: a
            // replayed plan carries the program names of the batch it
            // was first planned for (a no-op on freshly planned
            // batches — planning preserves names).
            result.name.clear();
            result.name.push_str(&staged.names[pos]);
            let state = &mut self.states[staged.device_index];
            state.jobs += 1;
            state.total_wait += staged.waits[pos];
            state.total_turnaround += staged.turnarounds[pos];
            state.busy_qubit_time +=
                staged.widths[pos] as f64 * staged.plan.context.program_makespans[pos];
            self.results[seq] = Some(JobResult {
                job_id: staged.job_ids[pos],
                batch_index: staged.batch_index,
                start: staged.start,
                completion: staged.completion,
                waiting: staged.waits[pos],
                turnaround: staged.turnarounds[pos],
                result,
            });
        }
        self.batches.push(BatchReport {
            batch_index: staged.batch_index,
            device: staged.device.name().to_string(),
            job_ids: staged.job_ids,
            start: staged.start,
            completion: staged.completion,
            makespan: staged.makespan,
            used_qubits: staged.plan.used_qubits(),
            conflict_count: staged.plan.context.conflict_count,
        });
        let state = &mut self.states[staged.device_index];
        state.busy_time += staged.makespan;
        state.batches += 1;
    }

    /// Books one timed [`plan_gated_members`] run.
    fn record_planning(&mut self, ns: u64) {
        self.plan_ns = self.plan_ns.saturating_add(ns);
        self.plans_timed += 1;
    }

    /// The plan-cache key of one candidate's batch: device epoch, gate
    /// mode/optimize bits, the head's effective strategy, and the
    /// ordered member shapes (plus per-member thresholds in the
    /// batch-gate modes — the only modes whose eviction decisions read
    /// them). Job ids, names and the batch index are deliberately
    /// excluded: replay re-binds all three.
    fn plan_fingerprint(&self, d: usize, strategy_fp: u64, members: &PlanMembers) -> u64 {
        use std::hash::Hasher as _;
        let mut h = std::collections::hash_map::DefaultHasher::new();
        h.write_u64(self.registry.epoch(DeviceId::from_index(d)));
        h.write_u64(self.plan_cfg_fp);
        h.write_u64(strategy_fp);
        h.write_usize(members.seqs.len());
        for &shape in &members.shapes {
            h.write_u64(shape);
        }
        for threshold in &members.thresholds {
            match threshold {
                Some(t) => {
                    h.write_u8(1);
                    h.write_u64(t.to_bits());
                }
                None => h.write_u8(0),
            }
        }
        h.finish()
    }

    /// Folds a fresh planning outcome into the plan cache under key
    /// `fp` and converts it to the shared-plan form the commit path
    /// consumes. `Ok` and `JobUnplaceable` outcomes are memoized —
    /// planning is deterministic either way — hard `Core` errors are
    /// not.
    fn memoize_plan(
        &mut self,
        d: usize,
        fp: u64,
        fresh: Result<GatedPlan, RuntimeError>,
    ) -> Result<PlannedParts, RuntimeError> {
        match fresh {
            Ok(gated) => {
                let plan = std::sync::Arc::new(gated.plan);
                self.route_cache.plans.insert(
                    (d, fp),
                    PlanEntry {
                        trace: gated.trace,
                        outcome: Ok(std::sync::Arc::clone(&plan)),
                    },
                );
                Ok((plan, gated.members, gated.shrinks))
            }
            Err(RuntimeError::JobUnplaceable { job_id, source }) => {
                self.route_cache.plans.insert(
                    (d, fp),
                    PlanEntry {
                        trace: Vec::new(),
                        outcome: Err(source.clone()),
                    },
                );
                Err(RuntimeError::JobUnplaceable { job_id, source })
            }
            Err(e) => Err(e),
        }
    }

    /// The one candidate-preparation routine: everything about one
    /// candidate device that must happen on the dispatching thread, in
    /// ranked order — the head-only cap probe, the pack, and the
    /// plan-cache lookup, each of which mutates the route cache or its
    /// counters. A cache hit replays the memoized outcome against the
    /// current members (re-binding shrink events and unplaceable
    /// errors to current job ids) and the candidate is done; a miss
    /// leaves it [`Prepared::Ready`] for [`plan_prepared`], which is a
    /// pure function and may run anywhere, and
    /// [`Service::conclude_candidate`].
    fn prepare_candidate(&mut self, head: &HeadContext, d: usize) -> Prepared {
        // Head-only EFS gate (Fig. 4): probe the admissible copy count
        // of the head circuit before packing, memoized across batches
        // per (device, shape, threshold).
        let cap_probe = match (self.efs_gate, head.threshold) {
            (EfsGate::HeadOnly, Some(threshold)) if !head.probe_widest => {
                self.cached_head_cap(head, d, threshold).map(|c| c.max(1))
            }
            _ => Ok(self.cfg.max_parallel),
        };
        let cap = match cap_probe {
            Ok(cap) => cap,
            Err(
                e @ (CoreError::PartitionUnavailable { .. } | CoreError::ProgramTooWide { .. }),
            ) => {
                return Prepared::Done(CandidateOutcome::Unplaceable(
                    RuntimeError::JobUnplaceable {
                        job_id: head.id,
                        source: e,
                    },
                ))
            }
            Err(e) => return Prepared::Done(CandidateOutcome::Failed(RuntimeError::Core(e))),
        };
        let packed = self.pack_candidate(head, d, cap).and_then(|pack| {
            let members = self.plan_members(&pack.picks_seqs)?;
            Ok((pack, members))
        });
        let (pack, members) = match packed {
            Ok(packed) => packed,
            Err(e) => return Prepared::Done(CandidateOutcome::Failed(e)),
        };
        let fp = self.plan_fingerprint(d, head.strategy_fp, &members);
        match self.route_cache.plans.get(&(d, fp)).cloned() {
            Some(entry) => {
                self.route_cache.plan_hits += 1;
                let device_name = self.registry.device_at(d).name();
                let replayed = replay_plan(entry, head.batch_index, device_name, members);
                Prepared::Done(CandidateOutcome::Planned {
                    pack,
                    plan: Box::new(replayed),
                })
            }
            None => {
                self.route_cache.plan_misses += 1;
                Prepared::Ready {
                    d,
                    pack,
                    members,
                    fp,
                }
            }
        }
    }

    /// Books and memoizes a ready candidate's fresh plan.
    fn conclude_candidate(
        &mut self,
        d: usize,
        pack: CandidatePack,
        fp: u64,
        (gated, plan_ns): (Result<GatedPlan, RuntimeError>, u64),
    ) -> CandidateOutcome {
        self.record_planning(plan_ns);
        CandidateOutcome::Planned {
            pack,
            plan: Box::new(self.memoize_plan(d, fp, gated)),
        }
    }

    /// One candidate, start to finish on the dispatching thread: the
    /// ranked walk's k = 1 default and every rank beyond a speculation
    /// window.
    fn plan_candidate(&mut self, head: &HeadContext, d: usize) -> CandidateOutcome {
        match self.prepare_candidate(head, d) {
            Prepared::Done(outcome) => outcome,
            Prepared::Ready {
                d,
                pack,
                members,
                fp,
            } => {
                let device = self.registry.device_at(d);
                let planned =
                    plan_prepared(head, device, self.efs_gate, self.cfg.optimize, members);
                self.conclude_candidate(d, pack, fp, planned)
            }
        }
    }

    /// Best-k speculation: the same preparation for the top-k ranked
    /// candidates, in ranked order, before the ranked walk consumes
    /// them — with the fresh planning of the cache misses (the
    /// expensive part) fanned out through [`run_indexed`] in between:
    /// concurrency can change wall-clock only, never an outcome.
    /// Memoization follows in ranked order again, so the cache sees the
    /// insertion sequence the one-at-a-time path would produce for
    /// these candidates. Losing candidates' probes and plans stay
    /// cached and warm later dispatches.
    fn speculate(&mut self, head: &HeadContext, ranked: &[usize]) -> Vec<CandidateOutcome> {
        /// A ready candidate's members, taken by the one fan-out task
        /// that plans it.
        type Slot = std::sync::Mutex<Option<PlanMembers>>;
        let mut slots: Vec<(usize, Slot)> = Vec::new();
        let mut preps: Vec<Result<(usize, CandidatePack, u64), CandidateOutcome>> = Vec::new();
        for &d in ranked {
            preps.push(match self.prepare_candidate(head, d) {
                Prepared::Done(outcome) => Err(outcome),
                Prepared::Ready {
                    d,
                    pack,
                    members,
                    fp,
                } => {
                    slots.push((d, std::sync::Mutex::new(Some(members))));
                    Ok((d, pack, fp))
                }
            });
        }
        let (gate, optimize, registry) = (self.efs_gate, self.cfg.optimize, &self.registry);
        // The fan-out's work estimate is measured, not guessed: this
        // service's own mean planning time per candidate still to plan.
        // Before the first measurement it is zero — the candidates plan
        // inline, and that takes the measurement.
        let work = slots.len() as u64 * (self.plan_ns / self.plans_timed.max(1) / WORK_UNIT_NS);
        let planned = run_indexed(slots.len(), work, |i| {
            let (d, slot) = &slots[i];
            let members = slot.lock().expect("no planner panics holding it").take();
            let members = members.expect("every ready candidate is planned once");
            plan_prepared(head, registry.device_at(*d), gate, optimize, members)
        });
        let mut planned = planned.into_iter();
        preps
            .into_iter()
            .map(|prep| match prep {
                Err(outcome) => outcome,
                Ok((d, pack, fp)) => {
                    let planned = planned.next().expect("one plan per ready candidate");
                    self.conclude_candidate(d, pack, fp, planned)
                }
            })
            .collect()
    }

    /// One candidate device's admission pass: bind the arrived window
    /// at this candidate's start horizon, run the policy's pack, and
    /// copy out everything the commit path needs (so packs for several
    /// speculative candidates can coexist — each `prepare` rebinds the
    /// store's joinable flags).
    fn pack_candidate(
        &mut self,
        head: &HeadContext,
        d: usize,
        cap: usize,
    ) -> Result<CandidatePack, RuntimeError> {
        let qubits = self.registry.device_at(d).num_qubits();
        let start = self.states[d].clock.max(head.arrival);
        self.pending.prepare(start, Some(&head.strategy));
        let arrived = self.pending.arrived(start);
        let head_pos = self
            .pending
            .position_of(head.arrival, head.seq)
            .ok_or(RuntimeError::QueueCorrupted { seq: head.seq })?;
        let budget = BatchBudget {
            qubits,
            max_members: cap,
        };
        let picks = if head.probe_widest {
            vec![head_pos]
        } else {
            self.policy.pack(arrived, head_pos, &budget)
        };
        debug_assert_eq!(picks.first(), Some(&head_pos), "head must lead the batch");
        let picks_seqs: Vec<usize> = picks.iter().map(|&i| arrived[i].seq).collect();
        let max_pick = picks.iter().copied().max().unwrap_or(head_pos);
        let pool = arrived[..=max_pick]
            .iter()
            .map(|v| (v.seq, v.width))
            .collect();
        Ok(CandidatePack {
            start,
            picks,
            picks_seqs,
            pool,
            head_pos,
        })
    }

    /// Pre-resolves the per-member planning inputs from the store, so
    /// planning itself ([`plan_gated_members`]) runs without touching
    /// the service — off the main thread when speculating.
    fn plan_members(&self, seqs: &[usize]) -> Result<PlanMembers, RuntimeError> {
        let mut ids = Vec::with_capacity(seqs.len());
        let mut circuits = Vec::with_capacity(seqs.len());
        let mut shapes = Vec::with_capacity(seqs.len());
        for &s in seqs {
            let p = self.pending_by_seq(s)?;
            ids.push(p.id);
            circuits.push(p.circuit.clone());
            shapes.push(p.shape);
        }
        let gated = matches!(self.efs_gate, EfsGate::Batch | EfsGate::BatchWorstExcess);
        let thresholds = if gated {
            let mut thresholds = Vec::with_capacity(seqs.len());
            for &s in seqs {
                thresholds.push(
                    self.pending_by_seq(s)?
                        .fidelity_threshold
                        .or(self.cfg.fidelity_threshold),
                );
            }
            thresholds
        } else {
            Vec::new()
        };
        Ok(PlanMembers {
            seqs: seqs.to_vec(),
            ids,
            circuits,
            shapes,
            thresholds,
        })
    }

    /// The head circuit's solo-best EFS partition score on a device,
    /// memoized across batches by (device, shape, partition policy);
    /// `None` records — and caches — "no placement on this chip".
    fn cached_solo_score(
        &mut self,
        device_index: usize,
        circuit: &Circuit,
        policy: &PartitionPolicy,
        shape: u64,
        policy_fp: u64,
    ) -> Option<f64> {
        let key = (device_index, shape, policy_fp);
        if let Some(&cached) = self.route_cache.solo.get(&key) {
            self.route_cache.hits += 1;
            return cached;
        }
        self.route_cache.misses += 1;
        let score = best_partition(self.registry.device_at(device_index), circuit, policy)
            .ok()
            .map(|alloc| alloc.efs.score);
        self.route_cache.solo.insert(key, score);
        score
    }

    /// The head-only EFS gate's admissible copy count on a device,
    /// memoized across batches by (device, shape, partition policy,
    /// threshold).
    fn cached_head_cap(
        &mut self,
        head: &HeadContext,
        device_index: usize,
        threshold: f64,
    ) -> Result<usize, CoreError> {
        let key = (
            device_index,
            head.shape,
            head.policy_fp,
            threshold.to_bits(),
        );
        if let Some(cached) = self.route_cache.head_cap.get(&key) {
            self.route_cache.hits += 1;
            return cached.clone();
        }
        self.route_cache.misses += 1;
        let result = parallel_count_for_threshold(
            self.registry.device_at(device_index),
            &head.circuit,
            threshold,
            self.cfg.max_parallel,
            &head.strategy,
        );
        self.route_cache.head_cap.insert(key, result.clone());
        result
    }

    /// The report of a drained service (all results present).
    fn drained_report(&self) -> ServiceReport {
        debug_assert!(self.pending.is_empty());
        let n = self.next_seq.max(1) as f64;
        let total_wait: f64 = self.states.iter().map(|s| s.total_wait).sum();
        let total_turnaround: f64 = self.states.iter().map(|s| s.total_turnaround).sum();
        let busy_qubit_time: f64 = self.states.iter().map(|s| s.busy_qubit_time).sum();
        let weighted_busy: f64 = self
            .states
            .iter()
            .enumerate()
            .map(|(i, s)| s.busy_time * self.registry.device_at(i).num_qubits() as f64)
            .sum();
        let makespan = self
            .states
            .iter()
            .map(|s| s.clock)
            .fold(0.0f64, |a, b| a.max(b));
        let stats = QueueStats {
            mean_waiting: total_wait / n,
            mean_turnaround: total_turnaround / n,
            makespan,
            mean_throughput: if weighted_busy > 0.0 {
                busy_qubit_time / weighted_busy
            } else {
                0.0
            },
            batches: self.batches.len(),
        };
        let per_device = self
            .states
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let device = self.registry.device_at(i);
                DeviceReport {
                    device: device.name().to_string(),
                    jobs: s.jobs,
                    stats: QueueStats {
                        mean_waiting: s.total_wait / (s.jobs.max(1) as f64),
                        mean_turnaround: s.total_turnaround / (s.jobs.max(1) as f64),
                        makespan: s.clock,
                        mean_throughput: if s.busy_time > 0.0 {
                            s.busy_qubit_time / (s.busy_time * device.num_qubits() as f64)
                        } else {
                            0.0
                        },
                        batches: s.batches,
                    },
                }
            })
            .collect();
        ServiceReport {
            stats,
            per_device,
            batches: self.batches.clone(),
            job_results: self
                .results
                .iter()
                .map(|r| r.clone().expect("drained service has every result"))
                .collect(),
            events: self.log.events().to_vec(),
            dropped_events: self.log.dropped(),
        }
    }

    /// Cumulative wall-clock nanoseconds this service spent *executing*
    /// batches (the trajectory simulation inside
    /// [`Service::tick`]/[`Service::run_until_drained`]), as opposed to
    /// dispatch-loop bookkeeping. The benchmark (`perfbench/`) subtracts
    /// this from end-to-end wall time to isolate scheduler overhead.
    pub fn execution_time_ns(&self) -> u64 {
        self.exec_ns
    }

    /// Cumulative wall-clock nanoseconds this service spent *planning*
    /// batches (mapping/partitioning of the gated batch members) —
    /// workload cost, like execution, not queue bookkeeping. Under
    /// best-k speculation the concurrent per-candidate durations are
    /// summed, so this can exceed the wall time the planning stage
    /// actually occupied. The benchmark subtracts this (with
    /// [`Service::execution_time_ns`]) from end-to-end wall time to
    /// isolate the dispatch loop itself.
    pub fn planning_time_ns(&self) -> u64 {
        self.plan_ns
    }
}

/// Everything the commit path needs from one candidate's admission
/// pass, copied out of the pending store so several speculative packs
/// can coexist (each [`PendingStore::prepare`] rebinds the store's
/// joinable flags to one candidate's horizon).
struct CandidatePack {
    /// The batch's start on this candidate (device clock vs head
    /// arrival).
    start: f64,
    /// The policy's picks: positions into the candidate's arrived
    /// window, head first.
    picks: Vec<usize>,
    /// The picks' submission indices, parallel to `picks`.
    picks_seqs: Vec<usize>,
    /// `(seq, width)` of the arrived window up to the last pick — the
    /// overtake-accounting pool.
    pool: Vec<(usize, usize)>,
    /// The head's position in the arrived window.
    head_pos: usize,
}

/// Per-member planning inputs, pre-resolved from the pending store so
/// [`plan_gated_members`] can run without touching the service (off the
/// main thread when speculating). The planning loop mutates its copy in
/// place as members are evicted, so the returned `seqs`/`ids` are the
/// committed batch.
struct PlanMembers {
    seqs: Vec<usize>,
    ids: Vec<u64>,
    circuits: Vec<Circuit>,
    /// Per-member circuit-shape fingerprints (copied from the pending
    /// store) — the ordered structural identity that keys the plan
    /// cache.
    shapes: Vec<u64>,
    /// Effective per-member thresholds; resolved only in the batch-gate
    /// modes (empty otherwise, matching the sequential path's laziness).
    thresholds: Vec<Option<f64>>,
}

/// A committed candidate's plan in shared form: the (fresh or replayed)
/// workload plan behind an [`Arc`][std::sync::Arc] so cache entries and
/// staged batches share one allocation, the surviving members, and the
/// buffered shrink events.
type PlannedParts = (std::sync::Arc<PlannedWorkload>, PlanMembers, Vec<Event>);

/// What one dispatch step knows about the batch head, fixed before any
/// candidate device is prepared: everything
/// [`Service::prepare_candidate`] and [`plan_prepared`] read besides
/// the candidate itself.
struct HeadContext {
    seq: usize,
    id: u64,
    arrival: f64,
    circuit: Circuit,
    /// The head's effective strategy: it decides joinability, plans the
    /// batch and parameterizes the probes.
    strategy: Strategy,
    pipeline: Pipeline,
    /// Plan-cache key component of `strategy`.
    strategy_fp: u64,
    /// The head's effective EFS threshold (the head-only gate's input).
    threshold: Option<f64>,
    /// Probe-cache key components (0 when no probing path runs).
    shape: u64,
    policy_fp: u64,
    /// No device admits the head: the widest is probed, head alone, so
    /// the precise placement error surfaces.
    probe_widest: bool,
    batch_index: usize,
}

/// One candidate device after [`Service::prepare_candidate`].
enum Prepared {
    /// Packed, and its batch missed the plan cache: to be planned
    /// fresh under key `fp`.
    Ready {
        d: usize,
        pack: CandidatePack,
        members: PlanMembers,
        fp: u64,
    },
    /// Decided without planning: rejected by the cap probe, failed, or
    /// replayed from the plan cache.
    Done(CandidateOutcome),
}

/// One candidate device's dispatch outcome.
enum CandidateOutcome {
    /// The head-cap probe rejected the candidate; the ranked walk falls
    /// past it exactly like the sequential path.
    Unplaceable(RuntimeError),
    /// A hard error — surfaced only if the ranked walk actually reaches
    /// this candidate, so speculation never changes which error a run
    /// reports.
    Failed(RuntimeError),
    /// The candidate packed; `plan` holds its (possibly failed) plan
    /// (boxed — a planned workload is large, the other variants are
    /// not). The walk commits the first ranked `Planned` whose plan
    /// succeeded.
    Planned {
        pack: CandidatePack,
        plan: Box<Result<PlannedParts, RuntimeError>>,
    },
}

/// A successful gated planning pass: the plan, the surviving members,
/// the buffered shrink events, and the eviction `trace` that reproduces
/// them — `(position, reason)` per eviction, in order. The trace is
/// what the plan cache memoizes: replaying it against a future batch
/// with the same shape fingerprints re-derives the shrink events (bound
/// to the *current* job ids) without re-running the partitioner.
struct GatedPlan {
    plan: PlannedWorkload,
    members: PlanMembers,
    shrinks: Vec<Event>,
    trace: Vec<(usize, ShrinkReason)>,
}

/// One staged batch: every scheduling decision made, every queue/clock
/// mutation applied, and the batch's full event block buffered — with
/// execution and the event/statistics fold still pending
/// ([`Service::finish_batch`]). Holds everything execution needs by
/// value (or behind [`Arc`][std::sync::Arc]), so the fan-out's threads
/// run its programs from a `&self` reference.
struct StagedBatch {
    device_index: usize,
    batch_index: usize,
    device: Device,
    pipeline: Pipeline,
    plan: std::sync::Arc<PlannedWorkload>,
    start: f64,
    completion: f64,
    makespan: f64,
    batch_seed: u64,
    member_seqs: Vec<usize>,
    job_ids: Vec<u64>,
    /// Current member circuit names, captured at stage time: a replayed
    /// plan carries the names of the batch it was first planned for, so
    /// the finish pass re-binds each result's name from here.
    names: Vec<String>,
    widths: Vec<usize>,
    shots: Vec<usize>,
    parallelism: Vec<ShotParallelism>,
    kernels: Vec<TrajectoryKernel>,
    waits: Vec<f64>,
    turnarounds: Vec<f64>,
    events: Vec<Event>,
}

/// Replays a memoized plan entry against the current batch members:
/// a memoized unplaceable outcome re-binds to the current head's job
/// id, and a memoized plan re-applies the recorded eviction trace so
/// the shrink events carry the *current* dropped job ids. The cached
/// [`PlannedWorkload`] itself is shared untouched — replay is an `Arc`
/// clone plus O(trace) bookkeeping, never a partitioner call.
fn replay_plan(
    entry: PlanEntry,
    batch_index: usize,
    device_name: &str,
    mut members: PlanMembers,
) -> Result<PlannedParts, RuntimeError> {
    match entry.outcome {
        Err(source) => Err(RuntimeError::JobUnplaceable {
            // The head is never evicted, so a whole-batch planning
            // failure is always attributed to it.
            job_id: members.ids[0],
            source,
        }),
        Ok(plan) => {
            let mut shrinks = Vec::with_capacity(entry.trace.len());
            for (evict, reason) in entry.trace {
                members.seqs.remove(evict);
                let dropped_id = members.ids.remove(evict);
                members.circuits.remove(evict);
                members.shapes.remove(evict);
                if !members.thresholds.is_empty() {
                    members.thresholds.remove(evict);
                }
                shrinks.push(Event::BatchShrunk {
                    batch_index,
                    device: device_name.to_string(),
                    dropped_job_id: dropped_id,
                    remaining: members.seqs.len(),
                    reason,
                });
            }
            debug_assert!(
                plan.replayable_for(&members.circuits.iter().collect::<Vec<_>>()),
                "plan-cache fingerprint collision: cached plan does not match members"
            );
            Ok((plan, members, shrinks))
        }
    }
}

/// Plans a [`Prepared::Ready`] candidate's members fresh, timed (ns):
/// a pure function of its arguments, so best-k speculation runs one
/// call per candidate as fan-out tasks.
fn plan_prepared(
    head: &HeadContext,
    device: &Device,
    gate: EfsGate,
    optimize: bool,
    members: PlanMembers,
) -> (Result<GatedPlan, RuntimeError>, u64) {
    let plan_started = std::time::Instant::now();
    let gated = plan_gated_members(
        &head.pipeline,
        device,
        head.batch_index,
        gate,
        optimize,
        &head.strategy,
        members,
    );
    (gated, plan_started.elapsed().as_nanos() as u64)
}

/// Plans `members` on `device`, shrinking while the partitioner cannot
/// place the batch (tail eviction) and — in [`EfsGate::Batch`] /
/// [`EfsGate::BatchWorstExcess`] mode — while any member's EFS excess
/// exceeds its own effective threshold (tail or worst-excess eviction
/// respectively). Returns the plan, the surviving members, and the
/// buffered shrink events (recorded by the caller only if the batch
/// actually commits on `device` — a failed candidate must leave no
/// trace, or log replays would see phantom shrinks for a batch that was
/// eventually planned elsewhere).
///
/// `head_strategy` is the effective strategy of `members.seqs[0]` (the
/// head, which no eviction rule can remove): it parameterizes the
/// solo-EFS baselines exactly as the sequential path always has.
///
/// A free function on purpose: its only inputs are the pre-resolved
/// members and shared device/pipeline state, so best-k speculation can
/// run one invocation per candidate as fan-out tasks.
///
/// The shrink loop runs on **allocation alone** — the gate reads
/// nothing but each member's allocated EFS score, and a placement
/// failure is the allocator's — so routing and the schedule merge run
/// exactly once, for the member set that survives
/// ([`Pipeline::allocate`], then [`Pipeline::complete`]). Its
/// per-member state is cached: the circuits are cloned and
/// peephole-optimized **once**, the per-member thresholds are resolved
/// once, and the solo-best EFS baselines are probed once on the first
/// successful allocation; each shrink step merely removes the evicted
/// member's entry from every cache. With [`qucp_core::EfsPartitioner`]
/// the first placement of every allocation and every solo baseline are
/// read from the device's region atlas
/// ([`Device::idle_regions`]) instead of re-grown.
fn plan_gated_members(
    pipeline: &Pipeline,
    device: &Device,
    batch_index: usize,
    gate: EfsGate,
    optimize: bool,
    head_strategy: &Strategy,
    mut members: PlanMembers,
) -> Result<GatedPlan, RuntimeError> {
    // Solo fast path: a one-job batch can never gate (the head anchors
    // the batch) and never shrink (a placement failure is terminal), so
    // it skips the gate machinery entirely. `plan(optimize)` clones and
    // optimizes internally, which is equivalent to the general path's
    // pre-optimize-then-allocate sequence.
    if members.seqs.len() == 1 {
        return match pipeline.plan(device, &members.circuits, optimize) {
            Ok(plan) => Ok(GatedPlan {
                plan,
                members,
                shrinks: Vec::new(),
                trace: Vec::new(),
            }),
            Err(
                e @ (CoreError::PartitionUnavailable { .. } | CoreError::ProgramTooWide { .. }),
            ) => Err(RuntimeError::JobUnplaceable {
                job_id: members.ids[0],
                source: e,
            }),
            Err(e) => Err(RuntimeError::Core(e)),
        };
    }
    let device_name = device.name().to_string();
    if optimize {
        // Pre-optimized here exactly once: every allocation below and
        // the final plan see the optimized circuits.
        for c in &mut members.circuits {
            c.cancel_adjacent_inverses();
        }
    }
    let gated = matches!(gate, EfsGate::Batch | EfsGate::BatchWorstExcess);
    let mut shrinks: Vec<Event> = Vec::new();
    let mut trace: Vec<(usize, ShrinkReason)> = Vec::new();
    let mut solo_cache: Option<Vec<f64>> = None;
    loop {
        match pipeline.allocate(device, &members.circuits) {
            Ok(allocations) => {
                if gated && members.seqs.len() > 1 && members.thresholds.iter().any(Option::is_some)
                {
                    // The joint partitions are allocated; only the solo
                    // baselines need probing (deduplicated, cached
                    // across shrink iterations — evictions remove the
                    // matching cache entry, so indices stay aligned).
                    if solo_cache.is_none() {
                        let refs: Vec<&Circuit> = members.circuits.iter().collect();
                        solo_cache = Some(
                            solo_efs_scores(device, &refs, head_strategy)
                                .map_err(RuntimeError::Core)?,
                        );
                    }
                    let solo = solo_cache.as_ref().expect("just filled");
                    let mut excesses = vec![0.0; members.seqs.len()];
                    for alloc in &allocations {
                        excesses[alloc.program_index] =
                            (alloc.efs.score - solo[alloc.program_index]).max(0.0);
                    }
                    let violated = members
                        .thresholds
                        .iter()
                        .zip(&excesses)
                        .any(|(t, &e)| t.is_some_and(|t| e > t));
                    if violated {
                        let evict = match gate {
                            EfsGate::BatchWorstExcess => worst_excess_position(&excesses),
                            _ => members.seqs.len() - 1,
                        };
                        members.seqs.remove(evict);
                        let dropped_id = members.ids.remove(evict);
                        members.circuits.remove(evict);
                        members.shapes.remove(evict);
                        members.thresholds.remove(evict);
                        if let Some(cache) = solo_cache.as_mut() {
                            cache.remove(evict);
                        }
                        trace.push((evict, ShrinkReason::FidelityGate));
                        shrinks.push(Event::BatchShrunk {
                            batch_index,
                            device: device_name.clone(),
                            dropped_job_id: dropped_id,
                            remaining: members.seqs.len(),
                            reason: ShrinkReason::FidelityGate,
                        });
                        continue;
                    }
                }
                return Ok(GatedPlan {
                    plan: pipeline.complete(device, members.circuits.clone(), allocations),
                    members,
                    shrinks,
                    trace,
                });
            }
            Err(
                e @ (CoreError::PartitionUnavailable { .. } | CoreError::ProgramTooWide { .. }),
            ) => {
                if members.seqs.len() == 1 {
                    return Err(RuntimeError::JobUnplaceable {
                        job_id: members.ids[0],
                        source: e,
                    });
                }
                trace.push((members.seqs.len() - 1, ShrinkReason::PartitionFailure));
                members.seqs.pop().expect("len > 1");
                let dropped_id = members.ids.pop().expect("len > 1");
                members.circuits.pop();
                members.shapes.pop();
                if gated {
                    members.thresholds.pop();
                }
                if let Some(cache) = solo_cache.as_mut() {
                    cache.pop();
                }
                shrinks.push(Event::BatchShrunk {
                    batch_index,
                    device: device_name.clone(),
                    dropped_job_id: dropped_id,
                    remaining: members.seqs.len(),
                    reason: ShrinkReason::PartitionFailure,
                });
            }
            Err(e) => return Err(RuntimeError::Core(e)),
        }
    }
}

/// Per-batch seed derivation: a distinct odd stride keeps batch streams
/// disjoint from the per-program golden-ratio stride used inside the
/// backend.
pub(crate) fn derive_batch_seed(base: u64, batch_index: usize) -> u64 {
    base.wrapping_add(0xD1B5_4A32_D192_ED03u64.wrapping_mul(batch_index as u64 + 1))
}

/// The position the worst-excess gate evicts: the member with the
/// largest EFS excess among the non-head members (the head anchors the
/// batch), ties resolved toward the tail.
fn worst_excess_position(excesses: &[f64]) -> usize {
    let mut pos = excesses.len() - 1;
    let mut best = f64::NEG_INFINITY;
    for (i, &e) in excesses.iter().enumerate().skip(1) {
        if e >= best {
            best = e;
            pos = i;
        }
    }
    pos
}

impl StagedBatch {
    /// Executes every program of the batch through the fan-out helper
    /// — inline unless the batch's work pays for helper threads —
    /// program `i`'s shot budget spread per `parallelism[i]` (the job's
    /// effective mode: its per-request override or the service
    /// default). Results come back in program order regardless of
    /// thread scheduling. On failure the error is the first in program
    /// order, and the programs after it still run (their results are
    /// dropped).
    fn execute(&self) -> Result<Vec<ProgramResult>, RuntimeError> {
        run_indexed(self.shots.len(), self.work(), |pos| {
            let exec = ExecutionConfig {
                shots: self.shots[pos],
                seed: self.batch_seed,
                parallelism: self.parallelism[pos],
                kernel: self.kernels[pos],
                ..ParallelConfig::default().execution
            };
            self.pipeline
                .backend
                .run_program(&self.device, &self.plan, pos, &exec)
                .map_err(RuntimeError::Core)
        })
        .into_iter()
        .collect()
    }

    /// The batch's execution work in the fan-out helper's unit: shots
    /// times routed gates (a stand-in for scheduled events), summed
    /// over its programs.
    fn work(&self) -> u64 {
        let routed = self.plan.mapped.iter().map(|m| m.circuit.gate_count());
        self.shots
            .iter()
            .zip(routed)
            .map(|(&shots, gates)| (shots as u64).saturating_mul(gates as u64))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::synthetic_jobs;
    use crate::policy::{Backfill, ShortestJobFirst};
    use qucp_device::ibm;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn fifo_service(max_parallel: usize) -> Service {
        Service::builder()
            .device(ibm::toronto())
            .strategy(strategy::qucp(4.0))
            .max_parallel(max_parallel)
            .seed(42)
            .build()
            .unwrap()
    }

    fn submit_all(service: &mut Service, n: usize) -> Vec<JobTicket> {
        synthetic_jobs(n, 200.0, 128, 7)
            .iter()
            .map(|j| service.submit(JobRequest::from_job(j)).unwrap())
            .collect()
    }

    #[test]
    fn drained_service_serves_every_job() {
        let mut service = fifo_service(3);
        let tickets = submit_all(&mut service, 8);
        let report = service.run_until_drained().unwrap();
        assert_eq!(report.job_results.len(), 8);
        for (ticket, r) in tickets.iter().zip(&report.job_results) {
            assert_eq!(r.job_id, ticket.id);
            assert_eq!(service.result(*ticket).unwrap(), r);
        }
        assert_eq!(service.event_log().completed_ids().len(), 8);
        assert_eq!(report.per_device.len(), 1);
        assert_eq!(report.per_device[0].jobs, 8);
    }

    #[test]
    fn tick_reports_completions_incrementally() {
        let mut service = fifo_service(2);
        let tickets = submit_all(&mut service, 4);
        // Nothing can have completed before the first arrival.
        assert!(service.tick(0.0).unwrap().len() <= tickets.len());
        let mut seen: Vec<JobTicket> = Vec::new();
        let mut t = 0.0;
        while seen.len() < 4 {
            t += 50_000.0;
            seen.extend(service.tick(t).unwrap());
            assert!(t < 1e12, "tick never drained");
        }
        assert_eq!(seen.len(), 4);
        // Every ticket reported exactly once.
        let mut ids: Vec<usize> = seen.iter().map(|t| t.seq).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1, 2, 3]);
        // Draining afterwards reports nothing new.
        assert!(service.tick(f64::INFINITY).unwrap().is_empty());
    }

    #[test]
    fn incremental_ticks_match_one_shot_drain() {
        let jobs = synthetic_jobs(6, 300.0, 128, 11);
        let run = |ticked: bool| {
            let mut service = fifo_service(3);
            for j in &jobs {
                service.submit(JobRequest::from_job(j)).unwrap();
            }
            if ticked {
                let mut t = 0.0;
                for _ in 0..200 {
                    t += 10_000.0;
                    service.tick(t).unwrap();
                }
            }
            service.run_until_drained().unwrap()
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn builder_validation_rejects_bad_configs() {
        assert!(matches!(
            Service::builder().build().unwrap_err(),
            RuntimeError::NoDevices
        ));
        assert!(matches!(
            Service::builder()
                .device(ibm::toronto())
                .max_parallel(0)
                .build()
                .unwrap_err(),
            RuntimeError::ZeroParallel
        ));
        assert!(matches!(
            Service::builder()
                .device(ibm::toronto())
                .default_shots(0)
                .build()
                .unwrap_err(),
            RuntimeError::ZeroShots
        ));
        assert!(matches!(
            Service::builder()
                .device(ibm::toronto())
                .fidelity_threshold(Some(f64::NAN))
                .build()
                .unwrap_err(),
            RuntimeError::InvalidThreshold { .. }
        ));
        assert!(matches!(
            Service::builder()
                .device(ibm::toronto())
                .fidelity_threshold(Some(-0.5))
                .build()
                .unwrap_err(),
            RuntimeError::InvalidThreshold { .. }
        ));
    }

    #[test]
    fn submit_validation_rejects_bad_requests() {
        let mut service = fifo_service(2);
        let bell = qucp_circuit::library::by_name("bell").unwrap().circuit();
        assert!(matches!(
            service
                .submit(JobRequest::new(bell.clone(), f64::NAN))
                .unwrap_err(),
            RuntimeError::NonFiniteTime { .. }
        ));
        assert!(matches!(
            service
                .submit(JobRequest::new(bell.clone(), f64::INFINITY))
                .unwrap_err(),
            RuntimeError::NonFiniteTime { .. }
        ));
        assert!(matches!(
            service
                .submit(JobRequest::new(bell.clone(), 0.0).with_shots(0))
                .unwrap_err(),
            RuntimeError::ZeroShots
        ));
        assert!(matches!(
            service
                .submit(JobRequest::new(bell.clone(), 0.0).with_fidelity_threshold(-1.0))
                .unwrap_err(),
            RuntimeError::InvalidThreshold { .. }
        ));
        assert!(matches!(
            service
                .submit(JobRequest::new(qucp_circuit::Circuit::new(0), 0.0))
                .unwrap_err(),
            RuntimeError::EmptyCircuit
        ));
        // A rejected submission leaves no trace.
        assert_eq!(service.pending_len(), 0);
        assert!(service.event_log().is_empty());
    }

    #[test]
    fn per_job_shots_override_applies() {
        let mut service = fifo_service(2);
        let bell = qucp_circuit::library::by_name("bell").unwrap().circuit();
        service
            .submit(JobRequest::new(bell.clone(), 0.0).with_shots(64))
            .unwrap();
        service.submit(JobRequest::new(bell, 0.0)).unwrap();
        let report = service.run_until_drained().unwrap();
        assert_eq!(report.job_results[0].result.counts.shots(), 64);
        assert_eq!(report.job_results[1].result.counts.shots(), 1024);
    }

    #[test]
    fn per_job_strategy_split_batches() {
        let mut service = fifo_service(4);
        let bell = qucp_circuit::library::by_name("bell").unwrap().circuit();
        // Four simultaneous arrivals, the second under a different
        // strategy: it cannot share the head's batch.
        for i in 0..4 {
            let mut req = JobRequest::new(bell.clone(), 0.0).with_id(i);
            if i == 1 {
                req = req.with_strategy(strategy::multiqc());
            }
            service.submit(req).unwrap();
        }
        let report = service.run_until_drained().unwrap();
        assert_eq!(report.job_results.len(), 4);
        for batch in &report.batches {
            assert!(
                batch.job_ids == vec![1] || !batch.job_ids.contains(&1),
                "strategy-override job shared batch {:?}",
                batch.job_ids
            );
        }
        assert!(report.stats.batches >= 2);
    }

    #[test]
    fn backfill_and_sjf_conserve_jobs() {
        for policy in ["backfill", "sjf"] {
            let mut builder = Service::builder()
                .device(ibm::toronto())
                .max_parallel(3)
                .seed(9);
            builder = match policy {
                "backfill" => builder.policy(Backfill::default()),
                _ => builder.policy(ShortestJobFirst),
            };
            let mut service = builder.build().unwrap();
            let tickets = submit_all(&mut service, 9);
            let report = service.run_until_drained().unwrap();
            assert_eq!(report.job_results.len(), 9, "{policy}");
            let mut served: Vec<u64> = report
                .batches
                .iter()
                .flat_map(|b| b.job_ids.iter().copied())
                .collect();
            served.sort_unstable();
            let mut expected: Vec<u64> = tickets.iter().map(|t| t.id).collect();
            expected.sort_unstable();
            assert_eq!(served, expected, "{policy}");
        }
    }

    #[test]
    fn tick_neg_infinity_is_a_noop_and_only_nan_is_rejected() {
        // The time contract is asymmetric: submit requires finite
        // arrivals (pinned elsewhere), tick only rejects NaN. −∞ is a
        // valid horizon by which nothing can start or complete.
        let mut service = fifo_service(2);
        submit_all(&mut service, 3);
        let done = service.tick(f64::NEG_INFINITY).unwrap();
        assert!(done.is_empty());
        assert_eq!(service.pending_len(), 3, "−∞ must not dispatch anything");
        assert!(service.event_log().planned_batches().is_empty());
        assert!(matches!(
            service.tick(f64::NAN).unwrap_err(),
            RuntimeError::NonFiniteTime { .. }
        ));
        // +∞ drains; the earlier −∞ tick must not have disturbed state.
        let done = service.tick(f64::INFINITY).unwrap();
        assert_eq!(done.len(), 3);
        assert!(service.tick(f64::NEG_INFINITY).unwrap().is_empty());
    }

    #[test]
    fn earliest_free_routing_skips_partition_probes() {
        // The default policy never asks for partition scores, so the
        // routing path must not populate the solo cache — keeping the
        // default dispatch exactly as cheap as before the seam.
        let mut service = fifo_service(2);
        submit_all(&mut service, 4);
        service.run_until_drained().unwrap();
        let stats = service.route_cache_stats();
        assert_eq!(stats.hits + stats.misses, 0);
        assert_eq!(stats.entries, 0);
        assert_eq!(service.routing_name(), "EarliestFree");
        // Every committed batch still records its routing decision.
        assert_eq!(
            service.event_log().routed().len(),
            service.event_log().planned_batches().len()
        );
    }

    #[test]
    fn head_only_gate_probes_are_cached_across_batches() {
        // Four identical-shape jobs under a head-only threshold force
        // one probe per (device, shape, threshold) — every subsequent
        // batch hits the memo, and the schedule is unchanged by it.
        let run = |jobs: usize| {
            let mut service = Service::builder()
                .device(ibm::toronto())
                .strategy(strategy::qucp(4.0))
                .max_parallel(2)
                .fidelity_threshold(Some(0.05))
                .default_shots(32)
                .seed(3)
                .build()
                .unwrap();
            let bell = qucp_circuit::library::by_name("bell").unwrap().circuit();
            for i in 0..jobs {
                let mut c = bell.clone();
                c.set_name(format!("bell#{i}"));
                service
                    .submit(JobRequest::new(c, 0.0).with_id(i as u64))
                    .unwrap();
            }
            let report = service.run_until_drained().unwrap();
            (report, service.route_cache_stats())
        };
        let (report, stats) = run(6);
        assert_eq!(report.job_results.len(), 6);
        assert!(report.stats.batches >= 2, "several batches must dispatch");
        assert_eq!(stats.misses, 1, "one probe per (device, shape, threshold)");
        assert_eq!(stats.hits, report.stats.batches - 1);
        // The memoized run must schedule exactly like a shorter burst
        // scaled up: batch memberships are a pure function of the jobs.
        let (short, _) = run(2);
        assert_eq!(
            report.batches[0].job_ids, short.batches[0].job_ids,
            "cache must not change scheduling decisions"
        );
    }

    #[test]
    fn calibration_aware_caches_solo_scores_per_device_and_shape() {
        let mut service = Service::builder()
            .device(ibm::melbourne())
            .device(ibm::toronto())
            .strategy(strategy::qucp(4.0))
            .routing(crate::registry::CalibrationAware::default())
            .max_parallel(2)
            .default_shots(16)
            .seed(8)
            .build()
            .unwrap();
        assert_eq!(service.routing_name(), "CalibrationAware");
        let bell = qucp_circuit::library::by_name("bell").unwrap().circuit();
        for i in 0..6u64 {
            let mut c = bell.clone();
            c.set_name(format!("bell#{i}"));
            service.submit(JobRequest::new(c, 0.0).with_id(i)).unwrap();
        }
        let report = service.run_until_drained().unwrap();
        assert_eq!(report.job_results.len(), 6);
        let stats = service.route_cache_stats();
        // One solo probe per (device, shape): two devices, one shape.
        assert_eq!(stats.misses, 2);
        assert!(stats.hits > 0, "repeat dispatches must hit the memo");
        assert_eq!(stats.entries, 2);
    }

    #[test]
    fn shape_fingerprint_ignores_names_but_not_gates() {
        let bell = qucp_circuit::library::by_name("bell").unwrap().circuit();
        let mut renamed = bell.clone();
        renamed.set_name("other");
        assert_eq!(
            circuit_shape_fingerprint(&bell),
            circuit_shape_fingerprint(&renamed)
        );
        let mut grown = bell.clone();
        grown.h(0);
        assert_ne!(
            circuit_shape_fingerprint(&bell),
            circuit_shape_fingerprint(&grown)
        );
        // Distinct partition policies never share cache entries.
        let a = partition_policy_fingerprint(&strategy::qucp(4.0).partition);
        let b = partition_policy_fingerprint(&strategy::qucp(8.0).partition);
        let c = partition_policy_fingerprint(&strategy::multiqc().partition);
        assert_ne!(a, b);
        assert_ne!(a, c);
        // The plan key carries the calibration epoch: a recalibrated
        // device never shares a key with its former self, whether or
        // not the eager drop on the bump ran.
        let mut service = fifo_service(2);
        let members = PlanMembers {
            seqs: vec![0],
            ids: vec![0],
            shapes: vec![circuit_shape_fingerprint(&bell)],
            circuits: vec![bell],
            thresholds: Vec::new(),
        };
        let before = service.plan_fingerprint(0, 7, &members);
        assert_eq!(before, service.plan_fingerprint(0, 7, &members));
        let snapshot = ibm::toronto().calibration().clone();
        service
            .recalibrate(DeviceId::from_index(0), snapshot)
            .unwrap();
        assert_ne!(before, service.plan_fingerprint(0, 7, &members));
    }

    #[test]
    fn worst_excess_position_skips_head_and_ties_to_tail() {
        // The head's excess never makes it evictable.
        assert_eq!(worst_excess_position(&[9.0, 1.0, 5.0]), 2);
        assert_eq!(worst_excess_position(&[0.0, 5.0, 1.0]), 1);
        // Ties resolve toward the tail (tail-shrink parity on uniform
        // excesses).
        assert_eq!(worst_excess_position(&[0.0, 2.0, 2.0]), 2);
        assert_eq!(worst_excess_position(&[3.0, 0.0]), 1);
    }

    #[test]
    fn advance_drift_without_model_is_a_noop_and_rejects_nonfinite() {
        let mut service = fifo_service(2);
        submit_all(&mut service, 2);
        assert_eq!(service.advance_drift(1e9).unwrap(), 0);
        assert_eq!(service.device_epoch(DeviceId::from_index(0)), 0);
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(matches!(
                service.advance_drift(bad).unwrap_err(),
                RuntimeError::NonFiniteTime { .. }
            ));
        }
        assert!(service.event_log().recalibrations().is_empty());
    }

    fn aware_two_chip_service() -> Service {
        Service::builder()
            .device(ibm::melbourne())
            .device(ibm::toronto())
            .strategy(strategy::qucp(4.0))
            .routing(crate::registry::CalibrationAware::default())
            .max_parallel(2)
            .default_shots(16)
            .seed(8)
            .build()
            .unwrap()
    }

    #[test]
    fn recalibration_bumps_epoch_invalidates_cache_and_emits_event() {
        let mut service = aware_two_chip_service();
        submit_all(&mut service, 4);
        service.run_until_drained().unwrap();
        let warm = service.route_cache_stats();
        // Every shape was probed on both chips: half the entries belong
        // to each device.
        assert!(
            warm.entries >= 2 && warm.entries.is_multiple_of(2),
            "{warm:?}"
        );
        assert_eq!(warm.invalidated, 0);

        let mel = DeviceId::from_index(0);
        let fresh = ibm::melbourne().calibration().clone();
        let epoch = service.recalibrate(mel, fresh).unwrap();
        assert_eq!(epoch, 1);
        assert_eq!(service.device_epoch(mel), 1);
        assert_eq!(service.device_epoch(DeviceId::from_index(1)), 0);
        let stats = service.route_cache_stats();
        // Only Melbourne's entries dropped; Toronto's survive.
        assert_eq!(stats.entries, warm.entries / 2);
        assert_eq!(stats.invalidated, warm.entries / 2);
        assert_eq!(
            service.event_log().recalibrations(),
            vec![(ibm::melbourne().name(), 1)]
        );
        // The next same-shape dispatch re-probes the recalibrated chip.
        submit_all(&mut service, 2);
        service.run_until_drained().unwrap();
        assert!(service.route_cache_stats().entries > stats.entries);
        assert!(service.route_cache_stats().misses > warm.misses);
    }

    #[test]
    fn invalid_recalibrations_are_rejected_typed_without_side_effects() {
        let mut service = aware_two_chip_service();
        submit_all(&mut service, 4);
        service.run_until_drained().unwrap();
        let warm = service.route_cache_stats();
        let mel = DeviceId::from_index(0);

        // NaN entries must not reach the device or the cache.
        let mut poisoned = ibm::melbourne().calibration().clone();
        poisoned.set_readout_error(3, f64::NAN);
        let err = service.recalibrate(mel, poisoned).unwrap_err();
        assert!(matches!(
            err,
            RuntimeError::InvalidCalibration {
                fault: crate::scheduler::CalibrationFault::NonFinite,
                ..
            }
        ));

        // Wrong qubit count.
        let wrong = ibm::toronto().calibration().clone();
        assert!(matches!(
            service.recalibrate(mel, wrong).unwrap_err(),
            RuntimeError::InvalidCalibration {
                fault: crate::scheduler::CalibrationFault::QubitCountMismatch { .. },
                ..
            }
        ));

        // Right qubit count, wrong link set.
        let line = qucp_device::Topology::line(ibm::melbourne().num_qubits());
        let uncovering = Calibration::uniform(&line, 0.02, 3e-4, 0.03);
        assert!(matches!(
            service.recalibrate(mel, uncovering).unwrap_err(),
            RuntimeError::InvalidCalibration {
                fault: crate::scheduler::CalibrationFault::MissingLinks,
                ..
            }
        ));

        // No side effects: epoch, cache and telemetry untouched.
        assert_eq!(service.device_epoch(mel), 0);
        assert_eq!(service.route_cache_stats(), warm);
        assert!(service.event_log().recalibrations().is_empty());
    }

    #[test]
    fn drift_steps_bump_epochs_and_recalibration_resets_restore_baseline() {
        let baseline = ibm::toronto().calibration().clone();
        let mut service = Service::builder()
            .device(ibm::toronto())
            .strategy(strategy::qucp(4.0))
            .drift(qucp_device::GaussianWalk::new(3, 1000.0).with_recalibration_every(4))
            .max_parallel(2)
            .seed(42)
            .build()
            .unwrap();
        let tor = DeviceId::from_index(0);
        // Three drift steps: three bumps, calibration has moved.
        assert_eq!(service.advance_drift(3000.0).unwrap(), 3);
        assert_eq!(service.device_epoch(tor), 3);
        assert_ne!(service.registry().get(tor).calibration(), &baseline);
        // Step 4 is the recalibration reset: back to baseline.
        assert_eq!(service.advance_drift(4000.0).unwrap(), 1);
        assert_eq!(service.device_epoch(tor), 4);
        assert_eq!(service.registry().get(tor).calibration(), &baseline);
        // Time never runs backwards; replaying an old horizon is a noop.
        assert_eq!(service.advance_drift(2000.0).unwrap(), 0);
        assert_eq!(service.device_epoch(tor), 4);
        // Telemetry recorded one event per bump, epochs ascending.
        assert_eq!(
            service
                .event_log()
                .recalibrations()
                .iter()
                .map(|&(_, e)| e)
                .collect::<Vec<_>>(),
            vec![1, 2, 3, 4]
        );
    }

    #[test]
    fn poisoning_drift_steps_are_rolled_back_with_a_typed_error() {
        // A misbehaving model (no clamps) writing NaN must hit the same
        // gate as an explicit NaN recalibration: typed error, step
        // rolled back, nothing bumped or emitted.
        #[derive(Debug)]
        struct PoisonDrift;
        impl DriftModel for PoisonDrift {
            fn steps_at(&self, now: f64) -> u64 {
                qucp_device::interval_steps(now, 1000.0)
            }
            fn apply_step(
                &self,
                _step: u64,
                _salt: u64,
                calibration: &mut Calibration,
                _crosstalk: &mut CrosstalkModel,
            ) -> bool {
                calibration.set_readout_error(0, f64::NAN);
                true
            }
        }
        let mut service = Service::builder()
            .device(ibm::toronto())
            .strategy(strategy::qucp(4.0))
            .drift(PoisonDrift)
            .max_parallel(2)
            .seed(42)
            .build()
            .unwrap();
        let baseline = ibm::toronto().calibration().clone();
        let err = service.advance_drift(3000.0).unwrap_err();
        assert!(matches!(
            err,
            RuntimeError::InvalidCalibration {
                fault: CalibrationFault::NonFinite,
                ..
            }
        ));
        let tor = DeviceId::from_index(0);
        assert_eq!(service.device_epoch(tor), 0, "poisoned step must not bump");
        assert_eq!(service.registry().get(tor).calibration(), &baseline);
        assert!(service.event_log().recalibrations().is_empty());
    }

    #[test]
    fn runaway_drift_horizons_are_refused_not_truncated() {
        // A clock-unit mismatch (e.g. seconds against a nanosecond
        // interval) must fail loudly with state untouched, never spin
        // through quadrillions of steps or silently skip some.
        let mut service = Service::builder()
            .device(ibm::toronto())
            .strategy(strategy::qucp(4.0))
            .drift(qucp_device::GaussianWalk::new(3, 1.0))
            .max_parallel(2)
            .seed(42)
            .build()
            .unwrap();
        let horizon = (MAX_DRIFT_STEPS_PER_ADVANCE + 1) as f64;
        let err = service.advance_drift(horizon).unwrap_err();
        assert!(matches!(
            err,
            RuntimeError::DriftHorizonTooFar {
                steps,
                max: MAX_DRIFT_STEPS_PER_ADVANCE,
            } if steps == MAX_DRIFT_STEPS_PER_ADVANCE + 1
        ));
        assert_eq!(service.device_epoch(DeviceId::from_index(0)), 0);
        assert!(service.event_log().recalibrations().is_empty());
        // The refusal is recoverable (the model is restored) and the
        // bound is per advance: bounded hops still make progress.
        assert!(service.advance_drift(10.0).unwrap() > 0);
        assert!(service.advance_drift(60.0).unwrap() > 0);
    }

    #[test]
    fn per_job_shot_parallelism_override_applies() {
        // Two identical jobs in one service, one overriding to sharded:
        // the override job's counts must match a service whose *default*
        // is sharded, the other job must match the serial default.
        let bell = qucp_circuit::library::by_name("bell").unwrap().circuit();
        let run = |default: ShotParallelism, with_override: bool| {
            let mut service = Service::builder()
                .device(ibm::toronto())
                .strategy(strategy::qucp(4.0))
                .shot_parallelism(default)
                .max_parallel(1)
                .default_shots(256)
                .seed(7)
                .build()
                .unwrap();
            for i in 0..2u64 {
                let mut req = JobRequest::new(bell.clone(), 0.0).with_id(i);
                if with_override && i == 0 {
                    req = req.with_shot_parallelism(ShotParallelism::sharded(4));
                }
                service.submit(req).unwrap();
            }
            service.run_until_drained().unwrap()
        };
        let mixed = run(ShotParallelism::Serial, true);
        let all_serial = run(ShotParallelism::Serial, false);
        let all_sharded = run(ShotParallelism::sharded(4), false);
        assert_eq!(
            mixed.job_results[0].result.counts, all_sharded.job_results[0].result.counts,
            "override job runs sharded"
        );
        assert_eq!(
            mixed.job_results[1].result.counts, all_serial.job_results[1].result.counts,
            "non-override job keeps the service default"
        );
        assert_ne!(
            mixed.job_results[0].result.counts, all_serial.job_results[0].result.counts,
            "the override must actually change the sample"
        );
    }

    #[test]
    fn per_job_trajectory_kernel_override_applies() {
        // Two identical jobs in one service, one overriding to the
        // survival-skip kernel: the override job's counts must match a
        // service whose *default* is survival-skip, the other job must
        // match the replay default.
        let bell = qucp_circuit::library::by_name("bell").unwrap().circuit();
        let run = |default: TrajectoryKernel, with_override: bool| {
            let mut service = Service::builder()
                .device(ibm::toronto())
                .strategy(strategy::qucp(4.0))
                .trajectory_kernel(default)
                .max_parallel(1)
                .default_shots(256)
                .seed(7)
                .build()
                .unwrap();
            for i in 0..2u64 {
                let mut req = JobRequest::new(bell.clone(), 0.0).with_id(i);
                if with_override && i == 0 {
                    req = req.with_trajectory_kernel(TrajectoryKernel::SurvivalSkip);
                }
                service.submit(req).unwrap();
            }
            service.run_until_drained().unwrap()
        };
        let mixed = run(TrajectoryKernel::Replay, true);
        let all_replay = run(TrajectoryKernel::Replay, false);
        let all_survival = run(TrajectoryKernel::SurvivalSkip, false);
        assert_eq!(
            mixed.job_results[0].result.counts, all_survival.job_results[0].result.counts,
            "override job runs the survival-skip kernel"
        );
        assert_eq!(
            mixed.job_results[1].result.counts, all_replay.job_results[1].result.counts,
            "non-override job keeps the service default"
        );
        assert_ne!(
            mixed.job_results[0].result.counts, all_replay.job_results[0].result.counts,
            "the override must actually change the sample"
        );
    }

    #[test]
    fn observer_sees_every_logged_event() {
        use std::sync::{Arc, Mutex};
        let seen = Arc::new(Mutex::new(0usize));
        let seen_in = Arc::clone(&seen);
        let mut service = Service::builder()
            .device(ibm::toronto())
            .max_parallel(2)
            .observer(move |_: &Event| *seen_in.lock().unwrap() += 1)
            .build()
            .unwrap();
        submit_all(&mut service, 4);
        service.run_until_drained().unwrap();
        assert_eq!(*seen.lock().unwrap(), service.events().len());
        assert!(service.events().len() >= 4 + 4); // submissions + completions
    }

    #[test]
    fn plan_cache_replays_repeated_batches_and_counts_lookups() {
        let bell = qucp_circuit::library::by_name("bell").unwrap().circuit();
        let mut service = fifo_service(2);
        // Four identical jobs, packed two per batch: the second batch's
        // member shapes fingerprint-match the first, so its committed
        // plan replays from the cache.
        for i in 0..4u64 {
            service
                .submit(JobRequest::new(bell.clone(), i as f64 * 100.0).with_id(i))
                .unwrap();
        }
        let report = service.run_until_drained().unwrap();
        let stats = service.route_cache_stats();
        assert!(stats.plan_misses >= 1, "the first batch must plan fresh");
        assert!(
            stats.plan_hits >= 1,
            "identical batches must replay: {stats:?}"
        );
        assert_eq!(
            stats.plan_hits + stats.plan_misses,
            report.stats.batches,
            "every dispatched batch does exactly one plan-cache lookup"
        );
        assert_eq!(
            stats.plan_entries, stats.plan_misses,
            "each miss memoizes exactly one entry"
        );
        assert_eq!(stats.plan_invalidated, 0);
    }

    #[test]
    fn memoized_unplaceable_outcome_replays_from_the_cache() {
        let mut service = fifo_service(2);
        // 64 qubits cannot run alone on the 27-qubit Toronto; the
        // failed plan is memoized like a committed one.
        let wide = qucp_circuit::Circuit::new(64);
        service
            .submit(JobRequest::new(wide, 0.0).with_id(7))
            .unwrap();
        let err = service.run_until_drained().unwrap_err();
        assert!(matches!(
            err,
            RuntimeError::JobUnplaceable { job_id: 7, .. }
        ));
        let stats = service.route_cache_stats();
        assert_eq!((stats.plan_hits, stats.plan_misses), (0, 1));
        // The job stays queued; retrying replays the memoized failure
        // (a hit, not a second fresh plan) re-bound to the batch head.
        let err = service.run_until_drained().unwrap_err();
        assert!(matches!(
            err,
            RuntimeError::JobUnplaceable { job_id: 7, .. }
        ));
        let stats = service.route_cache_stats();
        assert_eq!((stats.plan_hits, stats.plan_misses), (1, 1));
    }

    #[test]
    fn recalibration_drops_plan_entries_with_the_probes() {
        let bell = qucp_circuit::library::by_name("bell").unwrap().circuit();
        let mut service = fifo_service(2);
        for i in 0..2u64 {
            service
                .submit(JobRequest::new(bell.clone(), i as f64 * 100.0).with_id(i))
                .unwrap();
        }
        service.run_until_drained().unwrap();
        let before = service.route_cache_stats();
        assert!(before.plan_entries >= 1);
        let (id, snapshot) = {
            let (id, d) = service.registry().iter().next().unwrap();
            (id, d.calibration().clone())
        };
        service.recalibrate(id, snapshot).unwrap();
        let after = service.route_cache_stats();
        assert_eq!(
            after.plan_entries, 0,
            "the epoch bump drops the device's plans"
        );
        assert_eq!(after.plan_invalidated, before.plan_entries);
    }

    /// A pipeline whose stage-2 and stage-3 objects count their calls.
    fn counting_pipeline(strategy: &Strategy) -> (Pipeline, std::sync::Arc<[AtomicUsize; 2]>) {
        use qucp_core::context::WorkloadContext;
        use qucp_core::{Allocation, MappedProgram, Router, ScheduleMerger};
        struct Counting<S>(S, std::sync::Arc<[AtomicUsize; 2]>);
        impl Router for Counting<Box<dyn Router>> {
            fn route_all(
                &self,
                device: &Device,
                programs: &[Circuit],
                allocations: &[Allocation],
            ) -> Vec<MappedProgram> {
                self.1[0].fetch_add(1, Ordering::Relaxed);
                self.0.route_all(device, programs, allocations)
            }
        }
        impl ScheduleMerger for Counting<Box<dyn ScheduleMerger>> {
            fn merge(&self, device: &Device, mapped: &[MappedProgram]) -> WorkloadContext {
                self.1[1].fetch_add(1, Ordering::Relaxed);
                self.0.merge(device, mapped)
            }
        }
        let calls = std::sync::Arc::new([AtomicUsize::new(0), AtomicUsize::new(0)]);
        let mut pipeline = Pipeline::from_strategy(strategy);
        pipeline.router = Box::new(Counting(pipeline.router, calls.clone()));
        pipeline.merger = Box::new(Counting(pipeline.merger, calls.clone()));
        (pipeline, calls)
    }

    /// The shrink loop as it was: one full [`Pipeline::plan`] per
    /// attempt, the gate reading the plan's allocations. Returns the
    /// plan, the surviving ids and the eviction trace.
    fn replanning_gate(
        pipeline: &Pipeline,
        device: &Device,
        gate: EfsGate,
        head_strategy: &Strategy,
        mut members: PlanMembers,
    ) -> (PlannedWorkload, Vec<u64>, Vec<(usize, ShrinkReason)>) {
        let mut trace = Vec::new();
        loop {
            let evict = match pipeline.plan(device, &members.circuits, false) {
                Ok(plan) => {
                    let refs: Vec<&Circuit> = plan.programs.iter().collect();
                    let solo = solo_efs_scores(device, &refs, head_strategy).unwrap();
                    let mut excesses = vec![0.0; members.ids.len()];
                    for a in &plan.allocations {
                        excesses[a.program_index] = (a.efs.score - solo[a.program_index]).max(0.0);
                    }
                    let violated = members
                        .thresholds
                        .iter()
                        .zip(&excesses)
                        .any(|(t, &e)| t.is_some_and(|t| e > t));
                    if members.ids.len() == 1 || !violated {
                        return (plan, members.ids, trace);
                    }
                    trace.push((
                        match gate {
                            EfsGate::BatchWorstExcess => worst_excess_position(&excesses),
                            _ => members.ids.len() - 1,
                        },
                        ShrinkReason::FidelityGate,
                    ));
                    trace.last().expect("just pushed").0
                }
                Err(_) => {
                    trace.push((members.ids.len() - 1, ShrinkReason::PartitionFailure));
                    members.ids.len() - 1
                }
            };
            members.seqs.remove(evict);
            members.ids.remove(evict);
            members.circuits.remove(evict);
            members.shapes.remove(evict);
            members.thresholds.remove(evict);
        }
    }

    #[test]
    fn a_batch_that_shrinks_k_times_routes_and_merges_once() {
        let lib = |name: &str| qucp_circuit::library::by_name(name).unwrap().circuit();
        let strategy = strategy::qucp(4.0);
        // Melbourne's 15 qubits cannot host four 5-qubit programs (two
        // placement failures), and the tolerances below cannot all be
        // met by what fits (fidelity evictions).
        let device = ibm::melbourne();
        let circuits = vec![
            lib("alu-v0_27"),
            lib("qec"),
            lib("fredkin"),
            lib("alu-v0_27"),
            lib("variation"),
            lib("qec"),
        ];
        for gate in [EfsGate::Batch, EfsGate::BatchWorstExcess] {
            let members = || PlanMembers {
                seqs: (0..circuits.len()).collect(),
                ids: (100..100 + circuits.len() as u64).collect(),
                shapes: circuits.iter().map(circuit_shape_fingerprint).collect(),
                circuits: circuits.clone(),
                thresholds: vec![None, Some(0.02), Some(1e-4), Some(0.5), None, None],
            };
            let (reference, reference_calls) = counting_pipeline(&strategy);
            let (plan, ids, trace) =
                replanning_gate(&reference, &device, gate, &strategy, members());
            let reasons: Vec<ShrinkReason> = trace.iter().map(|&(_, r)| r).collect();
            assert!(
                reasons.contains(&ShrinkReason::PartitionFailure),
                "{gate:?}"
            );
            assert!(reasons.contains(&ShrinkReason::FidelityGate), "{gate:?}");
            let successful_plans = 1 + reasons
                .iter()
                .filter(|&&r| r == ShrinkReason::FidelityGate)
                .count();
            assert!(successful_plans >= 3, "{gate:?}: {trace:?}");
            assert_eq!(reference_calls[0].load(Ordering::Relaxed), successful_plans);

            let (pipeline, calls) = counting_pipeline(&strategy);
            let gated =
                plan_gated_members(&pipeline, &device, 7, gate, false, &strategy, members())
                    .unwrap();
            assert_eq!(calls[0].load(Ordering::Relaxed), 1, "route_all, {gate:?}");
            assert_eq!(calls[1].load(Ordering::Relaxed), 1, "merge, {gate:?}");
            assert_eq!(gated.plan, plan, "{gate:?}");
            assert_eq!(gated.trace, trace, "{gate:?}");
            assert_eq!(gated.members.ids, ids, "{gate:?}");
            // The events are the trace bound to the dropped ids.
            let mut live: Vec<u64> = members().ids;
            let events: Vec<Event> = trace
                .iter()
                .map(|&(evict, reason)| Event::BatchShrunk {
                    batch_index: 7,
                    device: device.name().to_string(),
                    dropped_job_id: live.remove(evict),
                    remaining: live.len(),
                    reason,
                })
                .collect();
            assert_eq!(gated.shrinks, events, "{gate:?}");
        }
    }
}
