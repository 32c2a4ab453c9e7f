//! The dispatch loop: stage the next batch (head choice, routing,
//! candidate preparation through the plan cache, commit), execute it,
//! and fold its results.

use qucp_circuit::Circuit;
use qucp_core::pipeline::{Pipeline, PlannedWorkload};
use qucp_core::{CoreError, ParallelConfig, ProgramResult, Strategy};
use qucp_device::Device;
use qucp_sim::{run_indexed, ExecutionConfig, ShotParallelism, TrajectoryKernel, WORK_UNIT_NS};

use super::gate::{plan_gated_members, GatedPlan, PlanMembers};
use super::route_cache::{replay_plan, PlanKey, PlannedParts};
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

        // Best-k speculation: prepare the top-k candidates' pack and
        // plan outcomes (planning concurrently) before walking the
        // ranking. The walk below consumes them for ranks < k and plans
        // one candidate at a time beyond — the same routine either way,
        // and the committed winner is the first ranked candidate whose
        // plan succeeds.
        let k = if !head.probe_widest && self.best_k > 1 && candidates.len() > 1 {
            self.best_k.min(candidates.len())
        } else {
            1
        };
        let mut speculated = if k > 1 {
            self.speculate(&head, &candidates[..k]).into_iter()
        } else {
            Vec::new().into_iter()
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
            // Ranks are visited in order, one outcome each.
            let outcome = match speculated.next() {
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
            let (plan, member_seqs, shrinks) = planned;
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

    /// Books one timed [`plan_gated_members`] run.
    fn record_planning(&mut self, ns: u64) {
        self.plan_ns = self.plan_ns.saturating_add(ns);
        self.plans_timed += 1;
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
            let key = self.plan_key(d, head.strategy_key, &pack.picks_seqs)?;
            Ok((pack, key))
        });
        let (pack, key) = match packed {
            Ok(packed) => packed,
            Err(e) => return Prepared::Done(CandidateOutcome::Failed(e)),
        };
        if let Some(entry) = self.route_cache.plans.get(&key) {
            self.route_cache.plan_hits += 1;
            let device_name = self.registry.device_at(d).name();
            let seqs = pack.picks_seqs.clone();
            let replayed = replay_plan(entry, head, device_name, &self.pending, seqs);
            return Prepared::Done(CandidateOutcome::Planned {
                pack,
                plan: Box::new(replayed),
            });
        }
        self.route_cache.plan_misses += 1;
        // Only a miss pays for the members' circuits.
        match self.plan_members(&pack.picks_seqs) {
            Ok(members) => Prepared::Ready { pack, members, key },
            Err(e) => Prepared::Done(CandidateOutcome::Failed(e)),
        }
    }

    /// Books and memoizes a ready candidate's fresh plan.
    fn conclude_candidate(
        &mut self,
        pack: CandidatePack,
        key: PlanKey,
        (gated, plan_ns): (Result<GatedPlan, RuntimeError>, u64),
    ) -> CandidateOutcome {
        self.record_planning(plan_ns);
        CandidateOutcome::Planned {
            pack,
            plan: Box::new(self.memoize_plan(key, gated)),
        }
    }

    /// One candidate, start to finish on the dispatching thread: the
    /// ranked walk's k = 1 default and every rank beyond a speculation
    /// window.
    fn plan_candidate(&mut self, head: &HeadContext, d: usize) -> CandidateOutcome {
        match self.prepare_candidate(head, d) {
            Prepared::Done(outcome) => outcome,
            Prepared::Ready { pack, members, key } => {
                let device = self.registry.device_at(d);
                let planned =
                    plan_prepared(head, device, self.efs_gate, self.cfg.optimize, members);
                self.conclude_candidate(pack, key, planned)
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
        let mut preps: Vec<Result<(CandidatePack, PlanKey), CandidateOutcome>> = Vec::new();
        for &d in ranked {
            preps.push(match self.prepare_candidate(head, d) {
                Prepared::Done(outcome) => Err(outcome),
                Prepared::Ready { pack, members, key } => {
                    slots.push((d, std::sync::Mutex::new(Some(members))));
                    Ok((pack, key))
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
                Ok((pack, key)) => {
                    let planned = planned.next().expect("one plan per ready candidate");
                    self.conclude_candidate(pack, key, planned)
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
    /// the service — off the main thread when speculating.
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

/// What one dispatch step knows about the batch head, fixed before any
/// candidate device is prepared: everything
/// [`Service::prepare_candidate`] and [`plan_prepared`] read besides
/// the candidate itself.
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

/// One candidate device after [`Service::prepare_candidate`].
enum Prepared {
    /// Packed, and its batch missed the plan cache: to be planned
    /// fresh and memoized under `key`.
    Ready {
        pack: CandidatePack,
        members: PlanMembers,
        key: PlanKey,
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
