//! # qucp-runtime
//!
//! An **event-driven scheduling service** that serves the paper's
//! cloud-queue argument (Sec. I/II-A) as an executable online system.
//! The [`Service`] accepts **streaming submissions**, admits them by
//! one of a closed set of policies, dispatches across a **fleet of
//! devices**, plans and runs each batch through the QuCP pipeline, and
//! reports the [`QueueStats`] of what it served: dedicated (`k = 1`)
//! and multi-programmed runs compare head-to-head on the same jobs.
//!
//! ## Service lifecycle: submit → admit → plan → execute → observe
//!
//! 1. **Submit** — [`Service::submit`] validates a [`JobRequest`]
//!    (finite arrival, positive shots, non-empty circuit, sane
//!    threshold, a chip that admits the circuit) and returns a
//!    [`JobTicket`]. A circuit wider than every chip is refused there
//!    ([`RuntimeError::JobUnplaceable`]), so every queued job fits some
//!    chip and none can hold the queue behind an error. Each request
//!    may override the service defaults per job: execution
//!    [`Strategy`](qucp_core::Strategy), shot budget, EFS fidelity
//!    threshold.
//! 2. **Admit** — whenever a device frees up ([`Service::tick`] in
//!    online use, [`Service::run_until_drained`] for batch drains), the
//!    configured [`AdmissionPolicy`] picks the head-of-line job among
//!    the arrived ones and packs riders around it:
//!    [`AdmissionPolicy::Fifo`] (strict arrival order, the seed
//!    behaviour), [`AdmissionPolicy::Backfill`] (smaller jobs jump a
//!    head that does not fit the remaining qubit budget, with a
//!    bounded-starvation guarantee), or
//!    [`AdmissionPolicy::ShortestJobFirst`]. The EFS
//!    fidelity gate sizes the batch: [`EfsGate::HeadOnly`] replays the
//!    paper's Fig. 4 copy-count probe, [`EfsGate::Batch`] evaluates the
//!    *actual heterogeneous members* against each job's own threshold
//!    (tail shrink), and [`EfsGate::BatchWorstExcess`] evicts the
//!    worst-excess member instead.
//! 3. **Plan** — a [`RoutingChoice`] ranks the [`DeviceRegistry`]
//!    entries whose topology admits the batch head:
//!    [`RoutingChoice::EarliestFree`] (the default) reproduces the
//!    pre-seam earliest-free rule bit-for-bit, while
//!    [`RoutingChoice::CalibrationAware`] scores each candidate chip
//!    by the head's solo-best EFS partition score
//!    (the paper's Eq.-1 metric) blended with queue pressure, so a
//!    well-calibrated chip wins until its backlog outweighs its quality
//!    edge. The expensive partition probes behind routing and the
//!    head-only EFS gate are **memoized across batches** as member
//!    lists of the head — the solo score is the allocation of `[h]`, the
//!    Fig. 4 copy count a walk over `[h]` and `[h; k]` — in the plan memo
//!    below, so a stream of similar jobs pays the candidate growth once
//!    per chip; entries are valid for one **calibration epoch** of their
//!    device and are dropped when that epoch bumps (see
//!    [`Service::route_cache_stats`] and the live-fleet section below).
//!    A *shape* is a circuit's width and exact gate sequence (angles by
//!    bit pattern, name excluded), interned once at submit after the
//!    peephole fold, so probes and plans read the circuit the batch
//!    runs: cache keys hold the interned handles,
//!    and two circuits share a handle only after their gate sequences
//!    compared equal, so no entry is ever replayed on the strength of
//!    a hash. The batch is then planned by the
//!    [`Pipeline`](qucp_core::pipeline::Pipeline) of the head's
//!    effective strategy: the shrink loop runs on its allocation stage
//!    alone (partition pressure shrinks the batch from the tail), and
//!    routing and the schedule merge run once, for the members that
//!    stayed. Allocation is **memoized** too, in the *plan memo*: one
//!    entry per ordered member list per device and epoch, keyed by
//!    what stage 1 reads — *(device, epoch, head strategy, member
//!    shapes)*, no threshold — so every joint attempt
//!    and every member's solo baseline the EFS gate reads is a lookup,
//!    and only a list not yet seen reaches the allocator. The gate
//!    itself runs on every batch, with each job's own threshold. A
//!    list that commits keeps its completed plan in its entry, so a
//!    survivor set is routed, merged and prepared once per epoch,
//!    whatever threshold pattern committed it. Every committed
//!    decision is recorded as an [`Event::BatchRouted`] carrying the
//!    winning score.
//! 4. **Execute** — the programs of the planned batch run
//!    ([`PlannedWorkload::prepare`](qucp_core::pipeline::PlannedWorkload::prepare)
//!    and [`run_prepared`](qucp_core::pipeline::PlannedWorkload::run_prepared))
//!    through the workspace's one fan-out helper
//!    (`qucp_sim::run_indexed`). **The fan-out rule:** the dispatching
//!    thread claims programs itself off a shared index; helper threads
//!    join it only when the process has more than one core to offer
//!    (read once per process) *and* the batch's estimated work — shots
//!    × routed gates, summed over its programs — gives every worker
//!    at least the helper's spawn floor (8 192 shot-events, 80 µs and
//!    up): one worker per floor of work, however the work is cut. A
//!    batch of one-shot or eight-shot jobs therefore costs zero thread
//!    spawns and runs as a plain loop; a batch of 8192-shot jobs on a
//!    multi-core host runs one program per core. The same helper,
//!    under the same rule, runs the shards of a sharded shot loop (work
//!    = the whole job's shots × scheduled events, so an 8192-shot job
//!    keeps its threads on a ten-gate circuit too). Per-program seeds
//!    derive from `(seed, batch index, program index)` only, so
//!    results are **bit-for-bit** the same however many threads ran
//!    them.
//!    **Replay of prepared state:**
//!    what a program needs before its first shot — the simulator's
//!    event stream, error probabilities, compiled gates and ideal
//!    distribution, which is also the noiseless reference the program
//!    is scored against ([`qucp_sim::PreparedJob`]) — is a pure
//!    function of the plan, the device's calibration and the noise
//!    flags, which every job shares. So the plan-cache entry
//!    keeps it beside the plan, one slot per program: a plan-cache hit
//!    is an execution set-up hit too, and replaying a cached plan runs
//!    only the shots, the counts and the JSD. The slots are allocated
//!    on the entry's first hit — the plan's second execution — so a
//!    plan that never hits retains nothing; they are valid by the
//!    entry's key (device, calibration epoch, …), dropped with the
//!    entry on an epoch bump, and never seed- or shot-dependent. A
//!    large job may
//!    additionally ask for *intra-program* shot sharding
//!    ([`JobRequest::with_shot_parallelism`], [`ShotParallelism`]):
//!    its trajectory loop splits its shots into shards, deterministic
//!    in the shard count and independent of the thread count, and
//!    [`ShotParallelism::Auto`] picks the shard count from the job's
//!    shot budget (one shard per 512 shots, capped at 32) so callers
//!    need not hand-tune the split. Orthogonally, a job may pick its
//!    per-shot *trajectory kernel*
//!    ([`JobRequest::with_trajectory_kernel`], [`TrajectoryKernel`]):
//!    the bit-pinned replay stream or the fast survival-skip sampler.
//!    A job without either override runs the simulator's defaults,
//!    serial [`TrajectoryKernel::Replay`].
//! 5. **Observe** — every transition ([`Event::JobSubmitted`],
//!    [`Event::BatchPlanned`], [`Event::BatchShrunk`],
//!    [`Event::JobCompleted`]) lands in the service [`EventLog`];
//!    per-device clocks and statistics accumulate into the drained
//!    [`ServiceReport`].
//!
//! ## The live fleet: calibration drift, epochs, recalibration
//!
//! Real chips are recalibrated daily and their error rates drift in
//! between, so the fleet is **live**, not frozen at build:
//!
//! - **One install** — a device is an immutable value behind an `Arc`
//!   in the [`DeviceRegistry`]. Recalibration and drift both hand a new
//!   calibration state to the service's one install path: it is
//!   validated (qubit count, finite entries — crosstalk included —,
//!   full link coverage, values in range), installed as a new device
//!   ([`Device::with_state`](qucp_device::Device::with_state)) that
//!   replaces the old `Arc`, and the device's epoch bumps. A batch
//!   already staged holds the `Arc` of the device it was planned on,
//!   and runs on it whatever is installed meanwhile.
//! - **Epochs** — every device carries a calibration epoch
//!   ([`DeviceRegistry::epoch`], [`Service::device_epoch`]), bumped on
//!   each install. Cached planning probes are valid
//!   for exactly one epoch: a bump drops the bumped device's entries
//!   (only its — invalidation is per device) and emits
//!   [`Event::DeviceRecalibrated`], so the next dispatch re-probes the
//!   *current* calibration: on a fleet whose quality ordering flips
//!   under drift, the next burst follows the flip.
//! - **Recalibration** — [`Service::recalibrate`] installs a fresh
//!   [`Calibration`](qucp_device::Calibration) snapshot. Snapshots are
//!   validated first; a poisoned snapshot is rejected with
//!   [`RuntimeError::InvalidCalibration`] and touches nothing.
//! - **Drift** — [`ServiceBuilder::drift`] attaches a deterministic,
//!   seeded [`DriftModel`] (e.g. [`GaussianWalk`], a log-normal walk on
//!   gate/readout errors and crosstalk gammas); [`Service::advance_drift`]
//!   ages every device to a simulated timestamp, one install and epoch
//!   bump per step that actually changes values. A zero-sigma walk never bumps an epoch,
//!   so a drift-free service stays **bit-for-bit** the frozen-fleet
//!   runtime (property-tested), and drift itself is a pure function of
//!   `(model, step, device)` — results stay independent of threading.
//!
//! ## Scale: what an operation costs
//!
//! The dispatch loop is built for the paper's heavy-traffic regime
//! (O(100) devices, O(100k) queued jobs), not just the two-chip
//! experiments. There is one path — no mode, queue implementation or
//! cache policy to select — and these are its per-operation costs, with
//! `n` pending jobs and `D` fleet devices:
//!
//! | operation | cost |
//! |---|---|
//! | submit (queue insert) | O(D) scan for a chip that admits the circuit, O(gates) shape interning (encode, one keyed hash into a std `HashSet`, one word-for-word comparison with the known shape; no allocation unless the shape is new), O(log n) position, amortized append for in-order arrivals |
//! | seq → job lookup | O(1) slot index: one table slot per submission, queued → running → done |
//! | dispatch step: earliest-free device | O(D) scan of the device clocks, inside the O(D) candidate ranking |
//! | dispatch step: arrived views | O(log n) prefix bind; a rider's strategy is one key compare with the head's inside the pack |
//! | dispatch step: admitting devices | O(D) filter by `Device::admits`, beside the O(D) clock scan |
//! | routing / head-only gate probes | one plan-memo lookup per list read — `[h]` for the routing score, `[h]` and `[h; k]` per copy count `k` walked — in a key buffer the service keeps; partitioning only for a list not seen at this epoch, on the pending circuit, borrowed |
//! | batch planning | the EFS gate on every batch, each allocation it reads — the joint attempts and, under the batch gates, every member's solo baseline — one plan-memo lookup under the literal key *(device, epoch, strategy key, member shape handles)* (O(members) handle copies), partitioning only for a list not seen at this epoch; map + merge only for a survivor set not committed at this epoch. The members' circuits are cloned only on a memo miss, once per batch, and a miss plans on the buffers of the service's dispatch scratch (one `qucp_core::PlanScratch`, lent by `&mut`), reading calibration entries through the topology's link index: on `plan_churn` (seed 1, counted around the gate pass on copies of both trees) the gate pass asks the heap 16.3 times a job, 39.8 while every miss requested its working buffers afresh and searched ordered maps |
//! | staging and execution | the batch's device is held by `Arc`, never cloned; the members leave the job table by value into one record per job, the head's strategy is one shared table entry, and ranking, packing and the key lookup run in buffers the service keeps |
//! | batch removal | offset bump (front run) or one compaction pass |
//! | recalibrate / drift epoch bump | one new device (its calibration state; name and topology shared by `Arc`), one pass over the cache, dropping the bumped device's probes and plans, and one over the shape table, dropping the shapes nothing holds any more |
//! | execution set-up per program | ALAP schedule + event sort + three statevector passes on the first two executions of a plan (the second, the entry's first hit, fills its slots), five heap requests (`PlannedWorkload::prepare`; the event builder's slot and lane vectors are its thread's, seven while they were its own); a replayed plan then pays an `Arc` clone of the entry's slots per batch and one slot read per program (prepared replay) |
//! | threads per batch | staging (routing, packing, planning): none, ever — one candidate at a time on the dispatching thread; execution: none under two spawn floors of batch work or on one core, otherwise one worker per floor up to the cores and the programs, the caller being one of them |
//!
//! ### What a cache hit costs
//!
//! A batch whose plan is cached is staged, run, scored and finished
//! without copying a job, and a claim or a drained report copies no
//! result: what a job still asks of the heap is what the service keeps.
//! Heap requests per job by phase on the benchmark's `sched_flood`
//! workload (8 000 one-shot jobs, 2.6 to a batch, 96 % of batches
//! cached, every ticket claimed after the drain; seeds 1 and 2 agree to
//! the second decimal, counted on copies of both trees with the
//! allocator attributing each request to the phase that made it), while
//! the drained report and every claim copied what they returned and
//! since they share it:
//!
//! | phase | copied | shared | what is left |
//! |---|---|---|---|
//! | head, ranking and pack | 0.00 | 0.00 | — (4.22 and 2.34 while staging cloned the head's circuit, strategy and pipeline stages and the policy packed into fresh vectors) |
//! | planning pass (hits and the 4 % that miss) | 0.82 | 0.76 | a miss's plan, its members' circuits and the key cloned into the memo; stage 1, routing and the merge work in the dispatch scratch's `PlanScratch`. A shrink event shares the device's name (it copied it) |
//! | commit | 2.30 | 1.15 | one member vector, the event block and the one member-id list its `BatchPlanned` event and its report share; the events share the device's name and the service's interned routing name (three name copies and a second id list before) |
//! | execution | 2.73 | 2.73 | the run's counts — one vector, tallied and relabelled in place, the run's one request — and the result's partition |
//! | finish | 0.77 | 1.38 | each result wrapped once in the `Arc` every claim and report shares (1.00), and the report's device name, a public `String` |
//! | drained report | 5.36 | 0.39 | its vectors and one device name per batch record; results, events and id lists are the service's, shared (it copied every result — name, partition, counts — every event's strings and id list, and every batch's) |
//! | **drain, total** | **11.98** | **6.41** | |
//! | claims (`take_result`) | 3.00 | 0.00 | — (a claim copied the result's name, partition and counts) |
//!
//! Before staging stopped copying jobs the drain asked 33.27 requests a
//! job. The benchmark reports the whole pass as `allocs_per_job`: 14.85
//! while reports and claims copied, 6.28 since (seed 1).
//!
//! `tests/integration_alloc_budget.rs` pins the exact requests of a
//! cached tick on a warm two-chip service (1 037 for 128 solo jobs, 714
//! for 64 pairs), holds a claim to none and a drained report to one
//! device name per batch record. Under the batch EFS gate a
//! batch is a hit by its survivor set, not by its members' threshold
//! bits: the same file pins a tick of 48 thresholded jobs whose
//! survivor sets repeat, every batch shrinking, at 383 requests (8.0
//! per job); while thresholds were part of the plan key, 8 of its 25
//! batches missed and it counted 2 848.
//!
//! What every one of those mechanisms must *answer* is stated without
//! them by the reference scheduler of the differential suite
//! (`tests/support/reference.rs`: a re-sorted `Vec`, linear scans, no
//! cache, one thread), and `tests/integration_reference.rs` holds the
//! service to it bit for bit.
//!
//! ## Campaigns and mid-stream result delivery
//!
//! Iterative applications (VQE, ZNE, SRB) need results *between*
//! submissions, not just in the end-of-run drained report. Two seams
//! serve them:
//!
//! - **Per-ticket retrieval** — [`Service::take_result`] claims a
//!   completed result **exactly once** per ticket: `None` before the
//!   batch runs, the [`JobResult`] on the first call after, `None`
//!   forever after. The claim shares the service's immutable result:
//!   the service keeps it in the job's slot of its O(1) seq-indexed job
//!   table for the drained [`ServiceReport`], which shares it too, so
//!   the report is
//!   **bit-for-bit unchanged** by any claim interleaving (the claim
//!   flag, not eviction, spends the ticket — proptest-pinned).
//!   [`Service::result`] stays the non-consuming peek. Both answer
//!   only a ticket whose id is the job's: a ticket forged from another
//!   job's `seq` peeks and claims nothing. Claims are independent of
//!   completion *notifications*: [`Service::tick`] still reports every
//!   completed ticket exactly once.
//! - **The campaign loop** — [`CampaignDriver`] models an application
//!   as a pure function from prior results to the next co-scheduled
//!   batch of [`JobRequest`]s; [`run_campaign`] owns the
//!   generate → submit-batch → await-results → fold loop (arrival
//!   stamping, `+∞` ticks, exactly-once claims, [`CampaignStats`]
//!   accounting). Campaigns inherit the service's bit-for-bit
//!   determinism; the loop adds no nondeterminism of its own.
//!
//! Per-job **routing overrides** ([`JobRequest::with_routing`],
//! [`RoutingChoice`]) let a campaign route its measurement circuits by
//! calibration quality on a service whose default is
//! [`RoutingChoice::EarliestFree`] (or vice versa): the batch head's
//! effective policy routes the whole batch, and an absent (or
//! default-equal) override is bit-for-bit the service default.
//!
//! **Event-log bounding** ([`ServiceBuilder::event_capacity`]): by
//! default the [`EventLog`] retains every event forever (bit-for-bit
//! the historical contract). Under heavy traffic that is O(jobs) live
//! memory, so a capacity bound turns the log into a ring keeping the
//! most recent `capacity` events; dropped events are counted in
//! [`ServiceReport::dropped_events`] and [`EventLog::dropped`].
//!
//! ```
//! use qucp_circuit::library;
//! use qucp_core::strategy;
//! use qucp_device::ibm;
//! use qucp_runtime::{Backfill, JobRequest, Service};
//!
//! # fn main() -> Result<(), qucp_runtime::RuntimeError> {
//! let mut service = Service::builder()
//!     .device(ibm::melbourne())
//!     .device(ibm::toronto())
//!     .strategy(strategy::qucp(4.0))
//!     .policy(Backfill::default())
//!     .max_parallel(2)
//!     .default_shots(256)
//!     .build()?;
//! for i in 0..4 {
//!     let circuit = library::by_name("bell").unwrap().circuit();
//!     let ticket = service.submit(JobRequest::new(circuit, i as f64 * 100.0))?;
//!     assert_eq!(ticket.seq, i);
//! }
//! let report = service.run_until_drained()?;
//! assert_eq!(report.job_results.len(), 4);
//! assert_eq!(report.per_device.len(), 2);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod campaign;
mod error;
mod event;
mod job;
mod pending;
mod policy;
mod registry;
mod service;
mod shape;

pub use campaign::{run_campaign, CampaignDriver, CampaignRun, CampaignStats};
pub use error::{CalibrationFault, RuntimeError};
pub use event::{Event, EventLog, ShrinkReason};
pub use job::{skewed_jobs, synthetic_jobs, Job, JobResult};
pub use policy::{AdmissionPolicy, Backfill, BatchBudget, JobView};
pub use registry::{CalibrationAware, DeviceId, DeviceRegistry, RouteQuery, RoutingChoice};
pub use service::{
    BatchReport, DeviceReport, EfsGate, JobRequest, JobTicket, QueueStats, RouteCacheStats,
    Service, ServiceBuilder, ServiceReport, MAX_DRIFT_STEPS_PER_ADVANCE,
};

// The shot mode and kernel travel with a `JobRequest`'s overrides;
// re-export them so service callers need not depend on `qucp-sim`
// directly.
pub use qucp_sim::{ShotParallelism, TrajectoryKernel};

// The drift types travel with `ServiceBuilder::drift` /
// `Service::advance_drift`; re-export them so live-fleet callers need
// not depend on `qucp-device` directly.
pub use qucp_device::{DriftModel, GaussianWalk};

// The `scheduler::tests::*` ids are part of the regression floor, so
// the module path outlives the file it once named.
#[cfg(test)]
#[path = "service/decisions.rs"]
mod scheduler;
