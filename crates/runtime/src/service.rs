//! The event-driven scheduling service: streaming submissions, online
//! admission, multi-device dispatch.
//!
//! See the crate docs for the lifecycle
//! (submit → admit → plan → execute → observe). This module owns the
//! [`Service`] state machine — the struct, `submit`, the `tick` family
//! and result retrieval — and its parts: the per-job
//! [`JobRequest`]/[`JobTicket`] types (`request`), the
//! [`ServiceBuilder`] (`builder`), the cross-batch planning cache
//! (`route_cache`), the EFS gate on memoized allocations (`gate`), the dispatch
//! loop (`dispatch`), the live fleet (`drift`) and the drained
//! [`ServiceReport`] (`report`).

mod builder;
mod dispatch;
mod drift;
mod gate;
mod report;
mod request;
mod route_cache;
#[cfg(test)]
mod tests;

pub use self::builder::ServiceBuilder;
pub use self::drift::MAX_DRIFT_STEPS_PER_ADVANCE;
pub use self::report::{BatchReport, DeviceReport, QueueStats, ServiceReport};
pub use self::request::{EfsGate, JobRequest, JobTicket};
pub use self::route_cache::RouteCacheStats;

use qucp_core::{CoreError, Strategy};
use qucp_device::DriftModel;

use self::dispatch::{DispatchScratch, RoutingNames};
use self::route_cache::RouteCache;
use crate::error::RuntimeError;
use crate::event::{Event, EventLog};
use crate::job::JobResult;
use crate::pending::{JobTable, Pending};
use crate::policy::AdmissionPolicy;
use crate::registry::{DeviceRegistry, RoutingChoice};
use crate::shape::ShapeTable;

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
    /// The strategy that plans every batch.
    strategy: Strategy,
    policy: AdmissionPolicy,
    /// The routing of every batch whose head carries no override.
    routing: RoutingChoice,
    /// The routing policies' names, interned for the events.
    routing_names: RoutingNames,
    /// Hard cap on jobs per batch (1 = dedicated mode).
    max_parallel: usize,
    /// Default EFS fidelity-threshold gate (Fig. 4); `None` disables
    /// the gate for jobs without a per-job override.
    fidelity_threshold: Option<f64>,
    /// Base RNG seed of every batch's trajectories.
    seed: u64,
    /// Fold each circuit with the cancellation peephole pass at submit.
    optimize: bool,
    efs_gate: EfsGate,
    default_shots: usize,
    registry: DeviceRegistry,
    states: Vec<DeviceState>,
    /// Every admitted job, one slot per submission index (the next seq
    /// is its length): queued, running, or done with its result and
    /// claim flag. The service keeps each result for the end-of-run
    /// [`ServiceReport`] even after a claim — eviction would change the
    /// drained report, which is bit-for-bit pinned. Also the
    /// FIFO-sorted (arrival, seq) queue of the queued jobs.
    jobs: JobTable,
    /// Interner of the submitted circuits' shapes (see [`ShapeTable`]).
    shapes: ShapeTable,
    batches: Vec<BatchReport>,
    /// Completed tickets not yet handed out by [`Service::tick`].
    unreported: Vec<(f64, JobTicket)>,
    /// Cross-batch memo of member-list allocations and plans (see
    /// [`RouteCache`]).
    route_cache: RouteCache,
    /// The dispatch loop's buffers (see [`DispatchScratch`]): taken for
    /// the length of a staging step, put back after it.
    scratch: DispatchScratch,
    log: EventLog,
    /// The fleet-wide calibration drift process (`None` = frozen
    /// fleet). Temporarily `take`n during [`Service::advance_drift`].
    drift: Option<Box<dyn DriftModel>>,
    /// Per-device count of drift steps already applied.
    drift_steps: Vec<u64>,
    /// Cumulative wall-clock nanoseconds spent *executing* batches
    /// (trajectory simulation), as opposed to dispatch bookkeeping.
    exec_ns: u64,
    /// Cumulative wall-clock nanoseconds spent *planning* batches
    /// (every candidate's pass through the EFS gate and the plan memo,
    /// `service/gate.rs`).
    plan_ns: u64,
}

impl std::fmt::Debug for Service {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Service")
            .field("devices", &self.registry.len())
            .field("strategy", &self.strategy.name)
            .field("policy", &self.policy)
            .field("routing", &self.routing)
            .field("max_parallel", &self.max_parallel)
            .field("fidelity_threshold", &self.fidelity_threshold)
            .field("seed", &self.seed)
            .field("optimize", &self.optimize)
            .field("efs_gate", &self.efs_gate)
            .field("pending", &self.jobs.queued())
            .field("batches", &self.batches.len())
            .finish_non_exhaustive()
    }
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

    /// The routing policy's display name.
    pub fn routing_name(&self) -> &str {
        self.routing.name()
    }

    /// Jobs admitted but not yet dispatched.
    pub fn pending_len(&self) -> usize {
        self.jobs.queued()
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
    /// exactly-once retrieval campaigns rely on. A ticket whose id is
    /// not its job's gets `None`.
    pub fn result(&self, ticket: JobTicket) -> Option<&JobResult> {
        self.jobs
            .result(ticket.seq)
            .filter(|result| result.job_id == ticket.id)
    }

    /// Claims a ticket's result: `None` while the batch has not run,
    /// the [`JobResult`] **exactly once** after it has, and `None`
    /// again for every later call on the same ticket.
    ///
    /// Sharing contract: the returned [`JobResult`] shares the
    /// service's immutable result (its `result` is the same `Arc`, so a
    /// claim asks the heap for nothing); the service retains it in the
    /// job's slot of its seq-indexed job table for the end-of-run
    /// [`ServiceReport`], so claiming mid-stream never changes the
    /// drained report — the claim flag, not eviction, is what spends
    /// the ticket
    /// (bit-for-bit pinned by the campaign proptests). Claiming is
    /// also independent of the completion *notifications*: a ticket
    /// claimed between ticks is still reported exactly once by
    /// [`Service::tick`]. A ticket whose id is not its job's claims
    /// nothing and spends nothing.
    pub fn take_result(&mut self, ticket: &JobTicket) -> Option<JobResult> {
        self.jobs.claim(ticket.seq, ticket.id)
    }

    /// Admits a job into the pending queue.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::NonFiniteTime`] on a NaN or infinite arrival,
    /// [`RuntimeError::EmptyCircuit`] on a zero-width circuit,
    /// [`RuntimeError::ZeroShots`] on a zero effective shot budget,
    /// [`RuntimeError::InvalidThreshold`] on a NaN, infinite or
    /// negative per-job threshold, [`RuntimeError::JobUnplaceable`] on a circuit wider than every
    /// registered chip (the planning error is `ProgramTooWide` against
    /// the widest chip, as a dispatch would have reported it). A
    /// refused job takes no seq and logs no event, so every queued job
    /// fits some chip and cannot hold the queue behind it.
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
        let seq = self.jobs.next_seq();
        let id = request.id.unwrap_or(seq as u64);
        let width = request.circuit.width();
        if self.registry.admitting(width).next().is_none() {
            let qubits = self.registry.iter().map(|(_, d)| d.num_qubits());
            let device = qubits.max().ok_or(RuntimeError::NoDevices)?;
            return Err(RuntimeError::JobUnplaceable {
                job_id: id,
                source: CoreError::ProgramTooWide {
                    program: 0,
                    width,
                    device,
                },
            });
        }
        self.log.push(Event::JobSubmitted {
            job_id: id,
            seq,
            arrival: request.arrival,
            width,
            shots,
        });
        // Ties on arrival keep submission order: every existing job
        // with the same arrival has a smaller seq and stays in front
        // (the table's insert rule). Admission reads the circuit as
        // submitted...
        let depth = request.circuit.depth();
        // ...and everything after it the circuit the batch runs: folded
        // once, here, so no probe or plan-memo miss folds it again.
        let mut circuit = request.circuit;
        if self.optimize {
            circuit.cancel_adjacent_inverses();
        }
        // The shape keys every plan-memo lookup the job will ever be
        // part of; interning once at submit (O(gates), like the depth
        // above) makes each of those lookups a handle comparison.
        let shape = self.shapes.intern(&circuit);
        let job = Pending {
            id,
            circuit,
            shape,
            shots,
            arrival: request.arrival,
            fidelity_threshold: request.fidelity_threshold,
            shot_parallelism: request.shot_parallelism,
            trajectory_kernel: request.trajectory_kernel,
            routing: request.routing,
        };
        self.jobs.insert(job, depth);
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
    /// [`RuntimeError::JobUnplaceable`] when a batch head cannot be
    /// placed alone on any chip that admits it by qubit count — a chip
    /// whose topology has no connected region of the head's width (a
    /// circuit wider than every chip is refused at
    /// [`Service::submit`]); the head stays queued. [`RuntimeError::Core`]
    /// on execution failures.
    pub fn run_until_drained(&mut self) -> Result<ServiceReport, RuntimeError> {
        self.dispatch_until(f64::INFINITY)?;
        self.unreported.clear();
        self.drained_report()
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
    /// batches (every candidate's planning pass: the EFS gate's memo
    /// lookups, the allocation of member lists the memo did not hold,
    /// and the routing and merge of survivor sets not planned before) —
    /// workload cost, like execution, not queue bookkeeping. Planning
    /// runs one candidate at a time on the dispatching thread, so this
    /// is exactly the wall time planning occupied. The benchmark
    /// subtracts this (with [`Service::execution_time_ns`]) from
    /// end-to-end wall time to isolate the dispatch loop itself.
    pub fn planning_time_ns(&self) -> u64 {
        self.plan_ns
    }
}
