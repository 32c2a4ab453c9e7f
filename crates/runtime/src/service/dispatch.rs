//! The dispatch loop: stage the next batch (head choice, routing, the
//! ranked candidate walk through the plan cache, commit), execute it,
//! and fold its results.
//!
//! ## Who owns a member, when
//!
//! Until its batch commits a job is one `Pending` record in its slot of
//! the job table, and staging reads it there: the head's numbers are
//! copied into a [`HeadContext`] (no circuit), ranking, packing and the
//! gate's memo lookups fill the buffers of one [`DispatchScratch`] the
//! service keeps, and a plan-memo
//! hit shares the cached plan and its prepared-state slots behind their
//! `Arc`s. [`Service::commit`] then takes the members out of the table
//! **by value**, leaving their slots running, and turns each into one
//! [`Member`] of the [`StagedBatch`] — the circuit's name moved, the
//! circuit dropped — which execution reads by reference and
//! [`Service::finish_batch`] consumes: the name moves once more, into
//! the job's result, which goes back into the job's slot, shared from
//! then on behind one `Arc`. The batch's events share the device's
//! name, the service's interned routing name and one member-id list
//! with its [`BatchReport`]. What a steady-state batch still asks the
//! heap for is what it keeps: its members, its event block and id
//! list, its results, the report's device name. The admission policy
//! packs into the scratch too.

use std::sync::{Arc, OnceLock};

use qucp_core::pipeline::PlannedWorkload;
use qucp_core::{CoreError, ParallelConfig, PlanScratch, ProgramResult};
use qucp_device::Device;
use qucp_sim::{run_indexed, ExecutionConfig, ShotParallelism, TrajectoryKernel};

use super::gate::GateBuffers;
use super::route_cache::{ReplaySlots, SharedPlan};
use super::{BatchReport, EfsGate, JobTicket, Service};
use crate::error::RuntimeError;
use crate::event::Event;
use crate::job::JobResult;
use crate::policy::BatchBudget;
use crate::registry::{DeviceId, RouteQuery, RoutingChoice};
use crate::shape::Shape;

impl Service {
    /// Dispatches every batch that can start at or before `limit`, one
    /// at a time: a **staging** pass ([`Service::stage_one`] — every
    /// scheduling decision and queue/clock mutation, batch events
    /// buffered), execution, and a **finishing** pass
    /// ([`Service::finish_batch`] — results folded into the job table,
    /// statistics and the event log). No staging decision reads
    /// an execution result (completion times are plan-derived).
    pub(super) fn dispatch_until(&mut self, limit: f64) -> Result<(), RuntimeError> {
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

    /// Stages the next batch if one can start at or before `limit`:
    /// every scheduling decision (head choice, routing, packing,
    /// planning through the plan cache), every queue/clock mutation,
    /// and the batch's full event block — buffered on the returned
    /// [`StagedBatch`], not yet emitted. Execution and the event/stat
    /// fold happen in [`Service::finish_batch`].
    pub(super) fn stage_one(&mut self, limit: f64) -> Result<Option<StagedBatch>, RuntimeError> {
        // Taken, not borrowed: staging calls `&mut self` methods
        // while it fills the buffers.
        let mut scratch = std::mem::take(&mut self.scratch);
        let staged = self.stage_on(&mut scratch, limit);
        self.scratch = scratch;
        staged
    }

    /// [`Service::stage_one`] on the service's scratch buffers.
    fn stage_on(
        &mut self,
        scratch: &mut DispatchScratch,
        limit: f64,
    ) -> Result<Option<StagedBatch>, RuntimeError> {
        let Some(t_min) = self.jobs.first_arrival() else {
            return Ok(None);
        };

        // Earliest-free device (free time, then registration order):
        // the admission horizon at which the head is selected. Head
        // choice is the *admission* policy's business and always
        // happens at this horizon; the *routing* policy only ranks the
        // admitting candidates afterwards. An O(D) scan, as the ranking
        // below is.
        let clocks = self.states.iter().map(|s| s.clock);
        let free_at = clocks
            .min_by(f64::total_cmp)
            .ok_or(RuntimeError::NoDevices)?;
        let now0 = free_at.max(t_min);
        let head_view = {
            let arrived0 = self.jobs.arrived(now0);
            arrived0[self.policy.choose_head(arrived0)]
        };
        let p = self.jobs.get(head_view.seq)?;

        // The admitting devices, an O(D) filter like the clock scan
        // above: the ranked sort uses the total key (score, free time,
        // registration), so candidate input order never matters.
        scratch.admitting.clear();
        let width = p.circuit.width();
        scratch
            .admitting
            .extend(self.registry.admitting(width).map(DeviceId::index));
        let head = HeadContext {
            seq: head_view.seq,
            id: p.id,
            arrival: head_view.arrival,
            routing: p.routing.unwrap_or(self.routing),
            threshold: p.fidelity_threshold.or(self.fidelity_threshold),
            shape: p.shape.clone(),
            batch_index: self.batches.len(),
        };
        self.rank_candidates(scratch, &head)?;

        // The ranked walk: the committed winner is the first ranked
        // candidate whose plan succeeds. Every candidate that does not
        // commit — a chip that admits the head by count but has no
        // connected region for it — leaves its error here. Submit
        // refused every head no chip admits, so the ranking is empty
        // only for a fleet emptied under the service, which the initial
        // value reports.
        let mut failure = RuntimeError::NoDevices;
        for rank in 0..scratch.ranked.len() {
            let d = scratch.ranked[rank].2;
            let start = self.states[d].clock.max(head.arrival);
            if start > limit {
                // Head-of-line across the fleet: when the policy's
                // preferred viable candidate cannot start by `limit`,
                // the whole dispatch defers to a later tick instead of
                // falling through to a lower-ranked chip — a
                // finite-horizon tick sequence must stay a prefix of
                // the drain schedule, and planning failures (which are
                // horizon-independent) are the only way down the
                // ranking.
                return Ok(None);
            }
            let (pack, shared) = match self.plan_candidate(scratch, &head, d) {
                Ok(planned) => planned,
                Err(e @ RuntimeError::JobUnplaceable { .. }) => {
                    failure = e;
                    continue;
                }
                Err(e) => return Err(e),
            };
            debug_assert_eq!(pack.start.to_bits(), start.to_bits());
            return self.commit(scratch, head, rank, pack, shared).map(Some);
        }
        Err(failure)
    }

    /// Ranks the admitting candidates of `scratch.admitting` with the
    /// routing policy into `scratch.ranked`.
    ///
    /// # Errors
    ///
    /// The planning errors of a partition-score probe.
    fn rank_candidates(
        &mut self,
        scratch: &mut DispatchScratch,
        head: &HeadContext,
    ) -> Result<(), RuntimeError> {
        let DispatchScratch {
            admitting,
            ranked,
            planning,
            ..
        } = scratch;
        ranked.clear();
        // Only a policy that asks pays for the partition probes:
        // the default EarliestFree dispatch never touches the memo
        // here.
        let wants_score = head.routing.wants_partition_score();
        let best_start = admitting
            .iter()
            .map(|&d| self.states[d].clock.max(head.arrival))
            .fold(f64::INFINITY, f64::min);
        // (score, free time, registration index): scores compare
        // with `total_cmp` (NaN sorts last) and ties always fall
        // back to the earliest-free order, so any policy routes
        // deterministically.
        for &d in admitting.iter() {
            let partition_score = if wants_score {
                self.cached_solo_score(planning, head, d)?
            } else {
                None
            };
            let score = head.routing.score(&RouteQuery {
                free_at: self.states[d].clock,
                start: self.states[d].clock.max(head.arrival),
                best_start,
                partition_score,
            });
            ranked.push((score, self.states[d].clock, d));
        }
        ranked.sort_by(|a, b| {
            a.0.total_cmp(&b.0)
                .then(a.1.total_cmp(&b.1))
                .then(a.2.cmp(&b.2))
        });
        Ok(())
    }

    /// Commits the batch planned on candidate `rank`: takes its members
    /// (`scratch.member_seqs`) out of the job table's queue, buffers the
    /// batch's event block and applies every mutation the *next*
    /// staging decision reads — the device clock, the queue, the
    /// overtake counters. Statistics and the event fold wait for the
    /// finish pass.
    fn commit(
        &mut self,
        scratch: &mut DispatchScratch,
        head: HeadContext,
        rank: usize,
        pack: CandidatePack,
        shared: SharedPlan,
    ) -> Result<StagedBatch, RuntimeError> {
        let SharedPlan { plan, slots } = shared;
        let (score, _, d) = scratch.ranked[rank];
        let batch_index = head.batch_index;
        let start = pack.start;
        let makespan = plan.context.makespan;
        let completion = start + makespan;

        // The one fallible step, first: the table hands each member
        // over and the batch keeps what execution and the report read.
        let members =
            self.jobs
                .take_members(&scratch.member_seqs, &mut scratch.positions, |seq, p| {
                    Member {
                        seq,
                        id: p.id,
                        width: p.circuit.width(),
                        shots: p.shots,
                        parallelism: p.shot_parallelism.unwrap_or_default(),
                        kernel: p.trajectory_kernel.unwrap_or_default(),
                        wait: start - p.arrival,
                        turnaround: completion - p.arrival,
                        name: p.circuit.into_name(),
                    }
                })?;

        // The device the batch was planned on, held by the batch: an
        // install before execution replaces the registry's `Arc`, not
        // this one.
        let device = Arc::clone(self.registry.device_at(d));
        // The routing decision is recorded only for the device the
        // batch actually commits on (failed candidates leave no
        // trace, like their shrink events). The recorded policy is the
        // *effective* one: the head's override when present, the
        // service default otherwise.
        let shrinks = &mut scratch.gate.shrinks;
        let mut events: Vec<Event> = Vec::with_capacity(2 + shrinks.len() + members.len());
        events.push(Event::BatchRouted {
            batch_index,
            device: Arc::clone(device.shared_name()),
            policy: Arc::clone(self.routing_names.of(head.routing)),
            score,
            start,
            candidates: scratch.ranked.len(),
        });
        events.append(shrinks);
        // Built once, shared by the event and the batch's report.
        let job_ids: Arc<[u64]> = members.iter().map(|m| m.id).collect();
        events.push(Event::BatchPlanned {
            batch_index,
            device: Arc::clone(device.shared_name()),
            job_ids: Arc::clone(&job_ids),
            start,
            makespan,
        });
        for m in &members {
            events.push(Event::JobCompleted {
                job_id: m.id,
                seq: m.seq,
                batch_index,
                completion,
                turnaround: m.turnaround,
            });
            self.unreported.push((
                completion,
                JobTicket {
                    seq: m.seq,
                    id: m.id,
                },
            ));
        }

        self.states[d].clock = completion;

        // Starvation accounting: every arrived candidate that an
        // admitted later candidate jumped over was overtaken once.
        // Jobs wider than this whole chip are exempt — they could
        // never have run here, their service is governed by a
        // device that admits them, and turning them into barriers
        // on chips they cannot use would cost throughput for no
        // fairness gain. The admitted picks are the members: planning
        // only ever drops picks.
        let admitted = &scratch.member_seqs;
        let last_admitted_pos = scratch
            .picks
            .iter()
            .zip(&scratch.picks_seqs)
            .filter(|(_, seq)| admitted.contains(seq))
            .map(|(&pos, _)| pos)
            .max()
            .unwrap_or(pack.head_pos);
        let qubits = device.num_qubits();
        for &(seq, width) in scratch.pool.iter().take(last_admitted_pos) {
            if width <= qubits && !admitted.contains(&seq) {
                self.jobs.bump_skip(seq);
            }
        }
        Ok(StagedBatch {
            device,
            device_index: d,
            batch_index,
            plan,
            slots,
            start,
            completion,
            makespan,
            batch_seed: derive_batch_seed(self.seed, batch_index),
            members,
            job_ids,
            events,
        })
    }

    /// The finish half of one batch dispatch: emits the batch's
    /// buffered event block, folds the execution results into the
    /// members' slots of the job table — each behind the one `Arc`
    /// every later claim and report shares — and per-device statistics,
    /// and records the [`BatchReport`]. Called in batch order, so the
    /// event log and every floating-point accumulation sequence are
    /// deterministic.
    fn finish_batch(&mut self, staged: StagedBatch, results: Vec<ProgramResult>) {
        for event in staged.events {
            self.log.push(event);
        }
        let state = &mut self.states[staged.device_index];
        for (pos, (member, mut result)) in staged.members.into_iter().zip(results).enumerate() {
            // The result is named after the *current* member, moved in:
            // execution leaves the name empty (a replayed plan carries
            // the program names of the batch it was first planned for).
            result.name = member.name;
            state.jobs += 1;
            state.total_wait += member.wait;
            state.total_turnaround += member.turnaround;
            state.busy_qubit_time +=
                member.width as f64 * staged.plan.context.program_makespans[pos];
            self.jobs.finish(
                member.seq,
                JobResult {
                    job_id: member.id,
                    batch_index: staged.batch_index,
                    start: staged.start,
                    completion: staged.completion,
                    waiting: member.wait,
                    turnaround: member.turnaround,
                    result: Arc::new(result),
                },
            );
        }
        state.busy_time += staged.makespan;
        state.batches += 1;
        self.batches.push(BatchReport {
            batch_index: staged.batch_index,
            // The report's one copy of the name: its public field is a
            // `String`, compared with `&str` by callers.
            device: String::from(staged.device.name()),
            job_ids: staged.job_ids,
            start: staged.start,
            completion: staged.completion,
            makespan: staged.makespan,
            used_qubits: staged.plan.used_qubits(),
            conflict_count: staged.plan.context.conflict_count,
        });
    }

    /// One candidate device, start to finish: the head-only cap probe,
    /// the pack (left in `scratch.picks` / `picks_seqs` / `pool`), and
    /// the planning pass ([`GatePass::plan`](super::gate::GatePass::plan),
    /// timed): the EFS gate on memoized allocations, then the
    /// survivors' plan — reused from the memo when the same member list
    /// committed before at this epoch, routed and merged otherwise.
    /// Either way the committed members end up in `scratch.member_seqs`.
    /// A candidate the head cannot be placed on — by the cap probe or by
    /// planning — is a [`RuntimeError::JobUnplaceable`], which the
    /// ranked walk falls past; every other error ends the dispatch.
    fn plan_candidate(
        &mut self,
        scratch: &mut DispatchScratch,
        head: &HeadContext,
        d: usize,
    ) -> Result<(CandidatePack, SharedPlan), RuntimeError> {
        // Head-only EFS gate (Fig. 4): probe the admissible copy count
        // of the head circuit before packing, its lists [h; k] read
        // through the plan memo.
        let cap_probe = match (self.efs_gate, head.threshold) {
            (EfsGate::HeadOnly, Some(threshold)) => self
                .cached_head_cap(&mut scratch.planning, head, d, threshold)?
                .map(|c| c.max(1)),
            _ => Ok(self.max_parallel),
        };
        let cap = cap_probe.map_err(|e| RuntimeError::from_planning(head.id, e))?;
        let pack = self.pack_candidate(scratch, head, d, cap)?;
        let DispatchScratch {
            picks_seqs,
            member_seqs,
            gate,
            planning,
            ..
        } = scratch;
        member_seqs.clone_from(picks_seqs);
        let plan_started = std::time::Instant::now();
        let planned = self
            .gate_pass(gate, planning, d, head.batch_index, member_seqs)
            .and_then(|pass| pass.plan(member_seqs));
        self.plan_ns = self
            .plan_ns
            .saturating_add(plan_started.elapsed().as_nanos() as u64);
        Ok((pack, planned?))
    }

    /// One candidate device's admission pass: bind the arrived window
    /// at this candidate's start horizon, run the policy's pack into
    /// `scratch.picks`, and copy into the scratch what the commit path
    /// needs of the window: the picks' submission indices
    /// (`picks_seqs`) and `(seq, width)` of the window up to the last
    /// pick — the overtake-accounting `pool`.
    fn pack_candidate(
        &mut self,
        scratch: &mut DispatchScratch,
        head: &HeadContext,
        d: usize,
        cap: usize,
    ) -> Result<CandidatePack, RuntimeError> {
        let qubits = self.registry.device_at(d).num_qubits();
        let start = self.states[d].clock.max(head.arrival);
        let arrived = self.jobs.arrived(start);
        let head_pos = self
            .jobs
            .position_of(head.arrival, head.seq)
            .ok_or(RuntimeError::QueueCorrupted { seq: head.seq })?;
        let budget = BatchBudget {
            qubits,
            max_members: cap,
        };
        let picks = &mut scratch.picks;
        self.policy.pack(arrived, head_pos, &budget, picks);
        debug_assert_eq!(picks.first(), Some(&head_pos), "head must lead the batch");
        scratch.picks_seqs.clear();
        scratch
            .picks_seqs
            .extend(picks.iter().map(|&i| arrived[i].seq));
        let max_pick = picks.iter().copied().max().unwrap_or(head_pos);
        scratch.pool.clear();
        scratch
            .pool
            .extend(arrived[..=max_pick].iter().map(|v| (v.seq, v.width)));
        Ok(CandidatePack { start, head_pos })
    }
}

/// The buffers one dispatch step fills and the next reuses, owned by
/// the [`Service`]: ranking, packing, the plan-memo keys and the
/// members' removal run on memory requested once. Nothing in here
/// outlives a step as a *value* — every buffer is cleared before it is
/// read — only as capacity.
#[derive(Debug, Default)]
pub(super) struct DispatchScratch {
    /// Registration indices of the devices admitting the head.
    admitting: Vec<usize>,
    /// The ranked candidates, best first: `(score, free time,
    /// registration index)`.
    ranked: Vec<(f64, f64, usize)>,
    /// The admission policy's pack for the current candidate: positions
    /// into its arrived window, head first.
    picks: Vec<usize>,
    /// Submission indices of the current candidate's picks, head first.
    picks_seqs: Vec<usize>,
    /// `(seq, width)` of the current candidate's arrived window up to
    /// its last pick.
    pool: Vec<(usize, usize)>,
    /// The planning pass's buffers (empty between passes).
    gate: GateBuffers,
    /// Stages 1–3's working buffers, lent to every allocation, route
    /// and merge a plan-memo miss runs (`qucp_core::scratch`).
    planning: PlanScratch,
    /// The picks that survived planning: the batch's members.
    member_seqs: Vec<usize>,
    /// The members' slots in the job table's queue mirror.
    positions: Vec<usize>,
}

/// The display names of the two routing policies, interned once per
/// service: every [`Event::BatchRouted`] shares one of them.
#[derive(Debug)]
pub(super) struct RoutingNames {
    earliest_free: Arc<str>,
    calibration_aware: Arc<str>,
}

impl Default for RoutingNames {
    fn default() -> Self {
        let aware = RoutingChoice::CalibrationAware {
            pressure_per_ns: 0.0,
        };
        RoutingNames {
            earliest_free: Arc::from(RoutingChoice::EarliestFree.name()),
            calibration_aware: Arc::from(aware.name()),
        }
    }
}

impl RoutingNames {
    /// The interned display name of `routing`.
    fn of(&self, routing: RoutingChoice) -> &Arc<str> {
        match routing {
            RoutingChoice::EarliestFree => &self.earliest_free,
            RoutingChoice::CalibrationAware { .. } => &self.calibration_aware,
        }
    }
}

/// What the commit path needs from one candidate's admission pass
/// besides the scratch's `picks`, `picks_seqs` and `pool`.
struct CandidatePack {
    /// The batch's start on this candidate (device clock vs head
    /// arrival).
    start: f64,
    /// The head's position in the arrived window.
    head_pos: usize,
}

/// What one dispatch step knows about the batch head, fixed before any
/// candidate device is planned: everything
/// [`Service::plan_candidate`] reads besides the candidate itself.
/// The head's circuit stays in the job table — the probes borrow it
/// there, by `seq`.
pub(super) struct HeadContext {
    pub(super) seq: usize,
    pub(super) id: u64,
    pub(super) arrival: f64,
    /// The batch's effective routing: the head's override, else the
    /// service default.
    pub(super) routing: RoutingChoice,
    /// The head's effective EFS threshold (the head-only gate's input).
    pub(super) threshold: Option<f64>,
    /// The head circuit's shape (the probes' key component).
    pub(super) shape: Shape,
    pub(super) batch_index: usize,
}

/// One job of a staged batch: what execution and the finish pass read
/// of it, taken out of its `Pending` record when the batch committed.
struct Member {
    seq: usize,
    id: u64,
    /// The circuit's name, moved out of the spent circuit and on into
    /// the job's result: a replayed plan carries the names of the batch
    /// it was first planned for.
    name: String,
    width: usize,
    shots: usize,
    /// The job's effective shot mode and kernel: its per-request
    /// override or the simulator's default.
    parallelism: ShotParallelism,
    kernel: TrajectoryKernel,
    wait: f64,
    turnaround: f64,
}

/// One staged batch: every scheduling decision made, every queue/clock
/// mutation applied, and the batch's full event block buffered — with
/// execution and the event/statistics fold still pending
/// ([`Service::finish_batch`]). One self-contained record: the device
/// it was planned on, the plan and its cache entry's slots behind their
/// [`Arc`]s, the members by value — so the fan-out's threads run its
/// programs from a `&self` reference.
pub(super) struct StagedBatch {
    device: Arc<Device>,
    /// The device's registration index (its clock and statistics).
    device_index: usize,
    batch_index: usize,
    plan: Arc<PlannedWorkload>,
    /// The plan-cache entry's prepared-state slots: `None` on the
    /// plan's first execution (a cache miss).
    slots: Option<ReplaySlots>,
    start: f64,
    completion: f64,
    makespan: f64,
    batch_seed: u64,
    /// In program order of `plan`.
    members: Vec<Member>,
    /// The members' ids, in program order: shared by the batch's
    /// [`Event::BatchPlanned`] and its [`BatchReport`].
    job_ids: Arc<[u64]>,
    events: Vec<Event>,
}

/// Most heap bytes of prepared state a plan-cache entry keeps per
/// program (128 KiB): 28 B an outcome besides the events and gates, so
/// at 12 qubits the event stream decides (`ghz(12)` fits, `qft(12)` is
/// prepared per execution) and no 13-qubit program fits.
pub(super) const PREPARED_RETAIN_BYTES: usize = 128 * 1024;

/// Per-batch seed derivation: a distinct odd stride keeps batch streams
/// disjoint from the per-program golden-ratio stride of
/// [`PlannedWorkload::run_program`].
pub(crate) fn derive_batch_seed(base: u64, batch_index: usize) -> u64 {
    base.wrapping_add(0xD1B5_4A32_D192_ED03u64.wrapping_mul(batch_index as u64 + 1))
}

impl StagedBatch {
    /// Executes every program of the batch through the fan-out helper
    /// — inline unless the batch's work pays for helper threads —
    /// program `i`'s shot budget spread per its member's effective
    /// mode. Results come back in program order regardless of
    /// thread scheduling. On failure the error is the first in program
    /// order, and the programs after it still run (their results are
    /// dropped).
    ///
    /// Every job runs under the same noise flags
    /// (`ParallelConfig::default()`'s), so a program's prepared state
    /// depends on nothing the slots' cache entry does not key: a filled
    /// slot is replayed, an empty one is filled once with state of at
    /// most [`PREPARED_RETAIN_BYTES`] (larger state is prepared per
    /// execution), and without slots — a plan's first execution —
    /// nothing is kept.
    pub(super) fn execute(&self) -> Result<Vec<ProgramResult>, RuntimeError> {
        run_indexed(self.members.len(), self.work(), |pos| {
            let member = &self.members[pos];
            let exec = ExecutionConfig {
                shots: member.shots,
                seed: self.batch_seed,
                parallelism: member.parallelism,
                kernel: member.kernel,
                ..ParallelConfig::default().execution
            };
            self.run_program(pos, &exec).map_err(RuntimeError::Core)
        })
        .into_iter()
        .collect()
    }

    /// Program `pos` of the batch, from its slot's prepared state (see
    /// [`StagedBatch::execute`]), unnamed: the finish pass moves the
    /// member's name in.
    fn run_program(&self, pos: usize, exec: &ExecutionConfig) -> Result<ProgramResult, CoreError> {
        let slot = self.slots.as_ref().map(|slots| &slots[pos]);
        if let Some(prepared) = slot.and_then(OnceLock::get) {
            return Ok(self.plan.run_prepared(prepared, pos, exec));
        }
        let built = self.plan.prepare(&self.device, pos, exec)?;
        let prepared = match slot {
            Some(slot) if built.retained_bytes() <= PREPARED_RETAIN_BYTES => {
                slot.get_or_init(|| built)
            }
            _ => &built,
        };
        Ok(self.plan.run_prepared(prepared, pos, exec))
    }

    /// The batch's execution work in the fan-out helper's unit: shots
    /// times routed gates (a stand-in for scheduled events), summed
    /// over its programs.
    fn work(&self) -> u64 {
        let routed = self.plan.mapped.iter().map(|m| m.circuit.gate_count());
        self.members
            .iter()
            .zip(routed)
            .map(|(member, gates)| (member.shots as u64).saturating_mul(gates as u64))
            .sum()
    }
}
