//! The dispatch loop: stage the next batch (head choice, routing, the
//! ranked candidate walk through the plan cache, commit), execute it,
//! and fold its results.

use qucp_circuit::Circuit;
use qucp_core::pipeline::{Pipeline, PlannedWorkload};
use qucp_core::{CoreError, ParallelConfig, ProgramResult, Strategy};
use qucp_device::Device;
use qucp_sim::{run_indexed, ExecutionConfig, ShotParallelism, TrajectoryKernel};

use super::gate::{plan_gated_members, PlanMembers};
use super::route_cache::{replay_plan, PlannedParts};
use super::{EfsGate, JobTicket, Service};
use crate::event::Event;
use crate::job::JobResult;
use crate::pending::Pending;
use crate::policy::BatchBudget;
use crate::registry::{RouteQuery, RoutingChoice, RoutingPolicy};
use crate::scheduler::{BatchReport, RuntimeError};
use crate::shape::Shape;

impl Service {
    /// Dispatches every batch that can start at or before `limit`, one
    /// at a time: a **staging** pass ([`Service::stage_one`] — every
    /// scheduling decision and queue/clock mutation, batch events
    /// buffered), execution, and a **finishing** pass
    /// ([`Service::finish_batch`] — results folded into the result
    /// store, statistics and the event log). No staging decision reads
    /// an execution result (completion times are plan-derived).
    pub(super) fn dispatch_until(&mut self, limit: f64) -> Result<(), RuntimeError> {
        while let Some(staged) = self.stage_one(limit)? {
            let exec_started = std::time::Instant::now();
            // Nothing between staging and here can touch the registry,
            // so this is the device the batch was planned on.
            let results = staged.execute(self.registry.device_at(staged.device_index));
            self.exec_ns = self
                .exec_ns
                .saturating_add(exec_started.elapsed().as_nanos() as u64);
            self.finish_batch(staged, results?);
        }
        Ok(())
    }

    /// The stored pending job with submission index `seq`; a job that
    /// vanished from the store is an internal invariant violation
    /// surfaced as a typed [`RuntimeError::QueueCorrupted`] instead of
    /// a panic.
    pub(super) fn pending_by_seq(&self, seq: usize) -> Result<&Pending, RuntimeError> {
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
        let p = self.pending_by_seq(head_seq)?;
        let head_width = p.width;
        // The head's routing override (if any) routes this batch.
        let head_routing: Option<RoutingChoice> = p.routing;

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
        // Assembling a pipeline is cheap (it boxes four stage objects),
        // so each dispatch builds one for the head's effective strategy
        // rather than fighting the borrow checker over a cached copy.
        let strategy = self.pending.strategy(p.strategy_key).clone();
        let head = HeadContext {
            seq: head_seq,
            id: p.id,
            arrival: head_arrival,
            pipeline: Pipeline::from_strategy(&strategy),
            circuit: p.circuit.clone(),
            strategy,
            strategy_key: p.strategy_key,
            threshold: p.fidelity_threshold.or(self.cfg.fidelity_threshold),
            shape: p.shape.clone(),
            probe_widest: admitting.is_empty(),
            batch_index: self.batches.len(),
        };
        let batch_index = head.batch_index;
        let (candidates, route_scores): (Vec<usize>, Vec<f64>) = if head.probe_widest {
            let widest = self.registry.widest().expect("fleet is non-empty").index();
            (vec![widest], vec![f64::INFINITY])
        } else {
            // Only a policy that asks pays for the partition probes:
            // the default EarliestFree dispatch never touches the solo
            // cache.
            let wants_score = match &head_routing {
                Some(choice) => choice.wants_partition_score(),
                None => self.routing.wants_partition_score(),
            };
            let starts: Vec<f64> = admitting
                .iter()
                .map(|&d| self.states[d].clock.max(head.arrival))
                .collect();
            let best_start = starts.iter().copied().fold(f64::INFINITY, f64::min);
            let head_cx_count = head.circuit.cx_count();
            // (score, free time, registration index): scores compare
            // with `total_cmp` (NaN sorts last) and ties always fall
            // back to the earliest-free order, so any policy routes
            // deterministically.
            let mut ranked: Vec<(f64, f64, usize)> = Vec::with_capacity(admitting.len());
            for (i, &d) in admitting.iter().enumerate() {
                let partition_score = if wants_score {
                    self.cached_solo_score(&head, d)
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

        // The ranked walk: the committed winner is the first ranked
        // candidate whose plan succeeds.
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
                // ranking.
                return Ok(None);
            }
            let (pack, (plan, member_seqs, shrinks)) = match self.plan_candidate(&head, d) {
                Ok(planned) => planned,
                Err(e @ RuntimeError::JobUnplaceable { .. }) => {
                    last_unplaceable = Some(e);
                    continue;
                }
                Err(e) => return Err(e),
            };
            debug_assert_eq!(pack.start.to_bits(), start.to_bits());

            // Borrowed, not cloned: everything staged below touches
            // the queue, the clocks and the statistics, never the
            // registry.
            let device = self.registry.device_at(d);
            // The routing decision is recorded only for the device the
            // batch actually commits on (failed candidates leave no
            // trace, like their shrink events).
            // The recorded policy is the *effective* one: the head's
            // override when present, the service default otherwise.
            let mut events: Vec<Event> = Vec::with_capacity(2 + shrinks.len() + member_seqs.len());
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
            let n = member_seqs.len();
            let mut shots: Vec<usize> = Vec::with_capacity(n);
            let mut parallelism: Vec<ShotParallelism> = Vec::with_capacity(n);
            let mut kernels: Vec<TrajectoryKernel> = Vec::with_capacity(n);
            let mut job_ids: Vec<u64> = Vec::with_capacity(n);
            let mut names: Vec<String> = Vec::with_capacity(n);
            let mut widths: Vec<usize> = Vec::with_capacity(n);
            let mut waits: Vec<f64> = Vec::with_capacity(n);
            let mut turnarounds: Vec<f64> = Vec::with_capacity(n);
            for &s in &member_seqs {
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
            for (pos, &seq) in member_seqs.iter().enumerate() {
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
            self.pending.remove_members(&member_seqs);

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
                .filter(|s| member_seqs.contains(s))
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
                pipeline: head.pipeline,
                plan,
                start,
                completion,
                makespan,
                batch_seed: derive_batch_seed(self.cfg.seed, batch_index),
                member_seqs,
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
            device: self
                .registry
                .device_at(staged.device_index)
                .name()
                .to_string(),
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

    /// One candidate device, start to finish: the head-only cap probe,
    /// the pack, and the plan-cache lookup — a hit replays the memoized
    /// outcome against the current members (re-binding shrink events
    /// and unplaceable errors to current job ids), a miss plans the
    /// members fresh, timed, and memoizes the outcome. A candidate the
    /// head cannot be placed on — by the cap probe or by planning — is
    /// a [`RuntimeError::JobUnplaceable`], which the ranked walk falls
    /// past; every other error ends the dispatch.
    fn plan_candidate(
        &mut self,
        head: &HeadContext,
        d: usize,
    ) -> Result<(CandidatePack, PlannedParts), RuntimeError> {
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
                return Err(RuntimeError::JobUnplaceable {
                    job_id: head.id,
                    source: e,
                })
            }
            Err(e) => return Err(RuntimeError::Core(e)),
        };
        let pack = self.pack_candidate(head, d, cap)?;
        let key = self.plan_key(d, head.strategy_key, &pack.picks_seqs)?;
        let device = self.registry.device_at(d);
        if let Some(entry) = self.route_cache.plans.get(&key) {
            self.route_cache.plan_hits += 1;
            let seqs = pack.picks_seqs.clone();
            let planned = replay_plan(entry, head, device.name(), &self.pending, seqs)?;
            return Ok((pack, planned));
        }
        self.route_cache.plan_misses += 1;
        // Only a miss pays for the members' circuits.
        let members = self.plan_members(&pack.picks_seqs)?;
        let plan_started = std::time::Instant::now();
        let gated = plan_gated_members(
            &head.pipeline,
            device,
            head.batch_index,
            self.efs_gate,
            self.cfg.optimize,
            &head.strategy,
            members,
        );
        self.plan_ns = self
            .plan_ns
            .saturating_add(plan_started.elapsed().as_nanos() as u64);
        let planned = self.memoize_plan(key, gated)?;
        Ok((pack, planned))
    }

    /// One candidate device's admission pass: bind the arrived window
    /// at this candidate's start horizon, run the policy's pack, and
    /// copy out everything the commit path needs (the pack outlives the
    /// borrow of the store, which the commit path mutates).
    fn pack_candidate(
        &mut self,
        head: &HeadContext,
        d: usize,
        cap: usize,
    ) -> Result<CandidatePack, RuntimeError> {
        let qubits = self.registry.device_at(d).num_qubits();
        let start = self.states[d].clock.max(head.arrival);
        self.pending.prepare(start, Some(head.strategy_key));
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

    /// Resolves the per-member planning inputs from the store, so
    /// planning itself ([`plan_gated_members`]) runs without touching
    /// the service.
    fn plan_members(&self, seqs: &[usize]) -> Result<PlanMembers, RuntimeError> {
        let gated = self.efs_gate.reads_member_thresholds();
        let mut ids = Vec::with_capacity(seqs.len());
        let mut circuits = Vec::with_capacity(seqs.len());
        // Resolved only in the batch-gate modes, like the plan key's.
        let mut thresholds = Vec::with_capacity(if gated { seqs.len() } else { 0 });
        for &s in seqs {
            let p = self.pending_by_seq(s)?;
            ids.push(p.id);
            circuits.push(p.circuit.clone());
            if gated {
                thresholds.push(p.fidelity_threshold.or(self.cfg.fidelity_threshold));
            }
        }
        Ok(PlanMembers {
            seqs: seqs.to_vec(),
            ids,
            circuits,
            thresholds,
        })
    }
}

/// Everything the commit path needs from one candidate's admission
/// pass, copied out of the pending store (whose arrived window is bound
/// to this candidate's horizon only until the next
/// [`PendingStore::prepare`]).
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

/// What one dispatch step knows about the batch head, fixed before any
/// candidate device is planned: everything
/// [`Service::plan_candidate`] reads besides the candidate itself.
pub(super) struct HeadContext {
    pub(super) seq: usize,
    pub(super) id: u64,
    pub(super) arrival: f64,
    pub(super) circuit: Circuit,
    /// The head's effective strategy: it decides joinability, plans the
    /// batch and parameterizes the probes.
    pub(super) strategy: Strategy,
    pub(super) pipeline: Pipeline,
    /// The store's key of `strategy`: the strategy component of every
    /// plan and probe cache key, and the joinability filter.
    pub(super) strategy_key: u32,
    /// The head's effective EFS threshold (the head-only gate's input).
    pub(super) threshold: Option<f64>,
    /// The head circuit's shape (the probe caches' key component).
    pub(super) shape: Shape,
    /// No device admits the head: the widest is probed, head alone, so
    /// the precise placement error surfaces.
    pub(super) probe_widest: bool,
    pub(super) batch_index: usize,
}

/// One staged batch: every scheduling decision made, every queue/clock
/// mutation applied, and the batch's full event block buffered — with
/// execution and the event/statistics fold still pending
/// ([`Service::finish_batch`]). Holds everything execution needs but
/// the device by value (or behind [`Arc`][std::sync::Arc]), so the
/// fan-out's threads run its programs from a `&self` reference; the
/// device stays in the registry, which nothing touches between staging
/// and finishing.
struct StagedBatch {
    device_index: usize,
    batch_index: usize,
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

/// Per-batch seed derivation: a distinct odd stride keeps batch streams
/// disjoint from the per-program golden-ratio stride used inside the
/// backend.
pub(crate) fn derive_batch_seed(base: u64, batch_index: usize) -> u64 {
    base.wrapping_add(0xD1B5_4A32_D192_ED03u64.wrapping_mul(batch_index as u64 + 1))
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
    fn execute(&self, device: &Device) -> Result<Vec<ProgramResult>, RuntimeError> {
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
                .run_program(device, &self.plan, pos, &exec)
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
