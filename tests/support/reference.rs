//! A deliberately naive model of `qucp_runtime::Service`: the oracle of
//! the differential suite (`tests/integration_reference.rs`).
//!
//! It states the scheduler's *decisions* — which job is refused at
//! submit, which job heads a batch and who rides along, how the EFS
//! threshold sizes it, which member a shrink drops, who waits — with
//! none of production's mechanisms: the queue is a `Vec` re-sorted per
//! step, the earliest-free device an O(D) scan, the admission policies
//! a re-sort and a scan written here (production's
//! `AdmissionPolicy::choose_head` and `pack` are never called), every
//! probe and plan computed from scratch (the shrink loop re-runs
//! `Pipeline::plan`), one batch at a time, programs inline in program
//! order, public API only. Calibration ageing is [`LiveFleet`]'s part,
//! accounting [`Ledger`]'s.

use std::cmp::Ordering;
use std::sync::Arc;

use qucp_core::pipeline::{Pipeline, PlannedWorkload};
use qucp_core::threshold::{parallel_count_for_threshold, solo_efs_scores};
use qucp_core::{best_partition, CoreError, ParallelConfig, Strategy};
use qucp_device::Calibration;
use qucp_runtime::{
    AdmissionPolicy, Backfill, BatchReport, DeviceId, DeviceRegistry, EfsGate, Event, JobRequest,
    JobResult, JobTicket, RouteQuery, RuntimeError, ServiceReport, ShrinkReason,
};
use qucp_sim::ExecutionConfig;

use super::fleet::LiveFleet;
use super::ledger::{queue_report, Ledger};
use super::Config;

/// A queued job: the request plus what `submit` resolved.
struct Queued {
    ticket: JobTicket,
    shots: usize,
    skips: usize,
    /// The effective strategy's index in `strategies`.
    strategy_key: u32,
    req: JobRequest,
}

pub struct ReferenceScheduler {
    cfg: Config,
    fleet: LiveFleet,
    /// Per-device clocks and accounting, by registration index.
    ledgers: Vec<Ledger>,
    /// Pending jobs in submission order.
    queue: Vec<Queued>,
    /// Every effective strategy submitted, by value, in first-seen
    /// order: a job's key is its index, and jobs of equal keys may
    /// share a batch.
    strategies: Vec<Strategy>,
    batches: Vec<BatchReport>,
    results: Vec<Option<JobResult>>,
    claimed: Vec<bool>,
    unreported: Vec<(f64, JobTicket)>,
    /// Every event emitted; a capacity bound only truncates reads.
    events: Vec<Event>,
}

/// A placement failure rejects a candidate chip or a batch tail on behalf
/// of job `job_id`; any other planning error is fatal.
fn rejected(job_id: u64, source: CoreError) -> Result<RuntimeError, RuntimeError> {
    match source {
        CoreError::PartitionUnavailable { .. } | CoreError::ProgramTooWide { .. } => {
            Ok(RuntimeError::JobUnplaceable { job_id, source })
        }
        e => Err(RuntimeError::Core(e)),
    }
}

impl ReferenceScheduler {
    pub fn new(cfg: &Config) -> Self {
        let fleet = LiveFleet::new(cfg.fleet.build(), cfg.drift.boxed());
        ReferenceScheduler {
            ledgers: vec![Ledger::default(); fleet.ids().len()],
            fleet,
            cfg: cfg.clone(),
            queue: Vec::new(),
            strategies: Vec::new(),
            batches: Vec::new(),
            results: Vec::new(),
            claimed: Vec::new(),
            unreported: Vec::new(),
            events: Vec::new(),
        }
    }

    pub fn registry(&self) -> &DeviceRegistry {
        self.fleet.registry()
    }

    pub fn pending_len(&self) -> usize {
        self.queue.len()
    }

    /// The retained log: everything, or the most recent `capacity`.
    pub fn events(&self) -> &[Event] {
        let keep = self.cfg.event_capacity.unwrap_or(usize::MAX);
        &self.events[self.events.len().saturating_sub(keep)..]
    }

    /// Admits a job, taken as valid — input validation is no scheduling
    /// decision and is unit-tested where it lives — unless no chip has
    /// its width in qubits: that job is refused, against the widest
    /// chip, before it takes a seq or logs an event.
    pub fn submit(&mut self, req: JobRequest) -> Result<JobTicket, RuntimeError> {
        let seq = self.results.len();
        let id = req.id.unwrap_or(seq as u64);
        let width = req.circuit.width();
        let qubits = self
            .fleet
            .ids()
            .iter()
            .map(|&d| self.fleet.get(d).num_qubits());
        let widest = qubits.max().expect("fleet is non-empty");
        if width > widest {
            return Err(RuntimeError::JobUnplaceable {
                job_id: id,
                source: CoreError::ProgramTooWide {
                    program: 0,
                    width,
                    device: widest,
                },
            });
        }
        let shots = req.shots.unwrap_or(self.cfg.default_shots);
        self.events.push(Event::JobSubmitted {
            job_id: id,
            seq,
            arrival: req.arrival,
            width,
            shots,
        });
        let ticket = JobTicket { seq, id };
        let strategy = req.strategy.as_ref().unwrap_or(&self.cfg.strategy);
        let strategy_key = match self.strategies.iter().position(|s| s == strategy) {
            Some(key) => key,
            None => {
                self.strategies.push(strategy.clone());
                self.strategies.len() - 1
            }
        } as u32;
        self.queue.push(Queued {
            ticket,
            shots,
            skips: 0,
            strategy_key,
            req,
        });
        self.results.push(None);
        self.claimed.push(false);
        Ok(ticket)
    }

    pub fn tick(&mut self, now: f64) -> Result<Vec<JobTicket>, RuntimeError> {
        self.advance_dispatch(now)?;
        let (mut done, waiting): (Vec<_>, Vec<_>) =
            self.unreported.iter().partition(|&&(c, _)| c <= now);
        self.unreported = waiting;
        done.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.seq.cmp(&b.1.seq)));
        Ok(done.into_iter().map(|(_, t)| t).collect())
    }

    pub fn advance_dispatch(&mut self, now: f64) -> Result<(), RuntimeError> {
        while self.dispatch_one(now)? {}
        Ok(())
    }

    pub fn run_until_drained(&mut self) -> Result<ServiceReport, RuntimeError> {
        self.advance_dispatch(f64::INFINITY)?;
        self.unreported.clear();
        let devices = self.fleet.registry().iter().map(|(_, device)| device);
        let (stats, per_device) = queue_report(devices.zip(&self.ledgers), self.results.len());
        let results = self.results.iter().cloned();
        let results = results.map(|r| r.expect("a drained scheduler has every result"));
        Ok(ServiceReport {
            stats,
            per_device,
            batches: self.batches.clone(),
            job_results: results.collect(),
            events: self.events().to_vec(),
            dropped_events: self.events.len() - self.events().len(),
        })
    }

    /// A ticket whose id is not its job's claims nothing.
    pub fn take_result(&mut self, ticket: &JobTicket) -> Option<JobResult> {
        let result = self.results.get(ticket.seq)?.clone()?;
        if result.job_id != ticket.id {
            return None;
        }
        (!std::mem::replace(&mut self.claimed[ticket.seq], true)).then_some(result)
    }

    /// The queue positions of the jobs arrived by `now`, in FIFO
    /// `(arrival, submission)` order.
    fn arrived(&self, now: f64) -> Vec<usize> {
        let arrival = |q: usize| self.queue[q].req.arrival;
        let mut at: Vec<usize> = (0..self.queue.len()).collect();
        at.retain(|&q| arrival(q) <= now);
        // Stable, and the queue is in submission order: ties keep it.
        at.sort_by(|&a, &b| arrival(a).total_cmp(&arrival(b)));
        at
    }

    /// The SJF order of two queued jobs: circuit area (width × depth of
    /// the circuit as submitted), then arrival, then submission.
    fn sjf_cmp(&self, a: usize, b: usize) -> Ordering {
        let key = |q: usize| {
            let job = &self.queue[q];
            let circuit = &job.req.circuit;
            (
                circuit.width() * circuit.depth(),
                job.req.arrival,
                job.ticket.seq,
            )
        };
        let ((area_a, arrival_a, seq_a), (area_b, arrival_b, seq_b)) = (key(a), key(b));
        let by_area = area_a.cmp(&area_b).then(arrival_a.total_cmp(&arrival_b));
        by_area.then(seq_a.cmp(&seq_b))
    }

    /// The batch head among the arrived `at`: the first arrived under
    /// FIFO and Backfill, the least in SJF order under SJF.
    fn choose_head(&self, at: &[usize]) -> usize {
        match self.cfg.policy {
            AdmissionPolicy::Fifo | AdmissionPolicy::Backfill(_) => at[0],
            AdmissionPolicy::ShortestJobFirst => {
                let least = at.iter().copied().min_by(|&a, &b| self.sjf_cmp(a, b));
                least.expect("a job arrived")
            }
        }
    }

    /// The batch around `head` among the arrived `at` on a chip of
    /// `qubits` qubits, at most `cap` members: queue positions, head
    /// first. A rider shares the head's strategy key and the qubits
    /// left. The others are walked in FIFO order, or in SJF order under
    /// SJF: FIFO stops at the first that cannot ride; Backfill passes
    /// such a job over unless it fits the chip alone and has been
    /// overtaken `max_overtakes` times; SJF passes over every such job.
    fn pack(&self, at: &[usize], head: usize, qubits: usize, cap: usize) -> Vec<usize> {
        let job = |q: usize| &self.queue[q];
        let width = |q: usize| job(q).req.circuit.width();
        // Under FIFO and Backfill the head is the window's first job,
        // so the others are the jobs behind it.
        let mut order: Vec<usize> = at.iter().copied().filter(|&q| q != head).collect();
        if self.cfg.policy == AdmissionPolicy::ShortestJobFirst {
            order.sort_by(|&a, &b| self.sjf_cmp(a, b));
        }
        let mut picks = vec![head];
        let mut used = width(head);
        for q in order {
            if picks.len() >= cap {
                break;
            }
            if job(q).strategy_key == job(head).strategy_key && used + width(q) <= qubits {
                used += width(q);
                picks.push(q);
                continue;
            }
            match self.cfg.policy {
                AdmissionPolicy::Fifo => break,
                AdmissionPolicy::Backfill(Backfill { max_overtakes })
                    if width(q) <= qubits && job(q).skips >= max_overtakes =>
                {
                    break
                }
                _ => {}
            }
        }
        picks
    }

    /// Dispatches the next batch if it can start by `limit`.
    fn dispatch_one(&mut self, limit: f64) -> Result<bool, RuntimeError> {
        let arrivals = self.queue.iter().map(|job| job.req.arrival);
        let Some(first_arrival) = arrivals.min_by(f64::total_cmp) else {
            return Ok(false);
        };
        // The head is chosen at the earliest-free chip's horizon.
        let clock = |d: DeviceId| self.ledgers[d.index()].clock;
        let ids = self.fleet.ids().iter().copied();
        let earliest = ids.min_by(|&a, &b| clock(a).total_cmp(&clock(b)));
        let horizon = clock(earliest.expect("fleet is non-empty")).max(first_arrival);
        let head_q = self.choose_head(&self.arrived(horizon));
        let head = &self.queue[head_q];
        let (head_id, head_arrival) = (head.ticket.id, head.req.arrival);
        // The probes score the circuit the batch runs: folded if the
        // service optimizes.
        let mut circuit = head.req.circuit.clone();
        if self.cfg.optimize {
            circuit.cancel_adjacent_inverses();
        }
        let strategy = head.req.strategy.as_ref();
        let strategy = strategy.unwrap_or(&self.cfg.strategy).clone();
        let threshold = head.req.fidelity_threshold.or(self.cfg.threshold);
        let route = head.req.routing.unwrap_or(self.cfg.routing);

        // Rank the admitting chips by (score, free time, registration),
        // stated here, not asked of the registry. Submit refused every
        // job no chip admits, so there is one.
        let qubits = |d: DeviceId| self.fleet.get(d).num_qubits();
        let width = circuit.width();
        let ids = self.fleet.ids().iter().copied();
        let admitting: Vec<DeviceId> = ids.filter(|&d| (1..=qubits(d)).contains(&width)).collect();
        let mut ranked: Vec<(f64, f64, DeviceId)> = Vec::new();
        let starts = admitting.iter().map(|&d| clock(d).max(head_arrival));
        let best_start = starts.fold(f64::INFINITY, f64::min);
        for &d in &admitting {
            let device = self.fleet.get(d);
            let partition_score = match route.wants_partition_score() {
                true => best_partition(device, &circuit, &strategy.partition).ok(),
                false => None,
            };
            let score = route.score(&RouteQuery {
                free_at: clock(d),
                start: clock(d).max(head_arrival),
                best_start,
                partition_score: partition_score.map(|a| a.efs.score),
            });
            ranked.push((score, clock(d), d));
        }
        ranked.sort_by(|a, b| (a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1))).then(a.2.cmp(&b.2)));

        let (pipeline, batch_index) = (Pipeline::from_strategy(&strategy), self.batches.len());
        let mut last_rejection = None;
        for &(score, _, d) in &ranked {
            let start = self.ledgers[d.index()].clock.max(head_arrival);
            if start > limit {
                // Head of line across the fleet: never fall through to
                // a lower-ranked chip because the preferred one is busy.
                return Ok(false);
            }
            let device = self.fleet.get(d).clone();
            // The head-only gate caps the batch at the copies of the
            // head circuit that stay within its threshold (Fig. 4).
            let max = self.cfg.max_parallel;
            let head_only = self.cfg.gate == EfsGate::HeadOnly;
            let cap = match threshold.filter(|_| head_only) {
                Some(t) => parallel_count_for_threshold(&device, &circuit, t, max, &strategy),
                None => Ok(max),
            };
            let cap = match cap {
                Ok(cap) => cap.max(1),
                Err(e) => {
                    last_rejection = Some(rejected(head_id, e)?);
                    continue;
                }
            };
            let at = self.arrived(start);
            let picks = self.pack(&at, head_q, device.num_qubits(), cap);
            let mut members = picks.clone();
            let planned = self.plan_gated(&pipeline, d, batch_index, &strategy, &mut members);
            let (plan, shrinks) = match planned {
                Ok(planned) => planned,
                Err(e @ RuntimeError::JobUnplaceable { .. }) => {
                    last_rejection = Some(e);
                    continue;
                }
                Err(e) => return Err(e),
            };

            let name = device.name().to_string();
            let makespan = plan.context.makespan;
            let completion = start + makespan;
            let job_ids: Vec<u64> = members.iter().map(|&q| self.queue[q].ticket.id).collect();
            self.events.push(Event::BatchRouted {
                batch_index,
                device: name.as_str().into(),
                policy: route.name().into(),
                score,
                start,
                candidates: ranked.len(),
            });
            self.events.extend(shrinks);
            self.events.push(Event::BatchPlanned {
                batch_index,
                device: name.as_str().into(),
                job_ids: job_ids.as_slice().into(),
                start,
                makespan,
            });
            // Every arrived job in FIFO order before the last committed
            // pick was overtaken once, unless it rode along or is wider
            // than this chip.
            let position = |q: &usize| at.iter().position(|p| p == q);
            let committed = picks.iter().filter(|q| members.contains(q));
            let last_pick = committed.filter_map(position).max();
            let last_pick = last_pick.expect("the head is committed");
            for &q in &at[..last_pick] {
                let width = self.queue[q].req.circuit.width();
                if width <= device.num_qubits() && !members.contains(&q) {
                    self.queue[q].skips += 1;
                }
            }
            // Execute inline, in program order.
            let stride = 0xD1B5_4A32_D192_ED03u64.wrapping_mul(batch_index as u64 + 1);
            let seed = self.cfg.seed.wrapping_add(stride);
            let ledger = &mut self.ledgers[d.index()];
            for (pos, &q) in members.iter().enumerate() {
                let job = &self.queue[q];
                let exec = ExecutionConfig {
                    shots: job.shots,
                    seed,
                    parallelism: job.req.shot_parallelism.unwrap_or_default(),
                    kernel: job.req.trajectory_kernel.unwrap_or_default(),
                    ..ParallelConfig::default().execution
                };
                let result = plan.run_program(&device, pos, &exec);
                let result = result.map_err(RuntimeError::Core)?;
                let (waiting, turnaround) = (start - job.req.arrival, completion - job.req.arrival);
                self.events.push(Event::JobCompleted {
                    job_id: job.ticket.id,
                    seq: job.ticket.seq,
                    batch_index,
                    completion,
                    turnaround,
                });
                self.unreported.push((completion, job.ticket));
                let qubit_time =
                    job.req.circuit.width() as f64 * plan.context.program_makespans[pos];
                ledger.serve(waiting, turnaround, qubit_time);
                self.results[job.ticket.seq] = Some(JobResult {
                    job_id: job.ticket.id,
                    batch_index,
                    start,
                    completion,
                    waiting,
                    turnaround,
                    result: Arc::new(result),
                });
            }
            ledger.close_batch(completion, makespan);
            self.batches.push(BatchReport {
                batch_index,
                device: name,
                job_ids: job_ids.into(),
                start,
                completion,
                makespan,
                used_qubits: plan.used_qubits(),
                conflict_count: plan.context.conflict_count,
            });
            let served: Vec<JobTicket> = members.iter().map(|&q| self.queue[q].ticket).collect();
            self.queue.retain(|job| !served.contains(&job.ticket));
            return Ok(true);
        }
        Err(last_rejection.expect("a chip admits the head, and every one rejected it"))
    }

    /// Plans `members` (queue positions, head first) on device `d`,
    /// re-planning from scratch after every eviction: the tail on a
    /// placement failure; the tail or the worst-excess member when the
    /// batch gate finds a member over its threshold.
    fn plan_gated(
        &self,
        pipeline: &Pipeline,
        d: DeviceId,
        batch_index: usize,
        head_strategy: &Strategy,
        members: &mut Vec<usize>,
    ) -> Result<(PlannedWorkload, Vec<Event>), RuntimeError> {
        let device = self.fleet.get(d);
        let gated = matches!(self.cfg.gate, EfsGate::Batch | EfsGate::BatchWorstExcess);
        let mut shrinks = Vec::new();
        loop {
            let job = |&q: &usize| &self.queue[q];
            let circuits: Vec<_> = members.iter().map(|q| job(q).req.circuit.clone()).collect();
            let threshold = |q| job(q).req.fidelity_threshold.or(self.cfg.threshold);
            let thresholds: Vec<Option<f64>> = members.iter().map(threshold).collect();
            let (evict, reason) = match pipeline.plan(device, &circuits, self.cfg.optimize) {
                Ok(plan) => {
                    let mut over = false;
                    let mut excess = vec![0.0; members.len()];
                    if gated && members.len() > 1 && thresholds.iter().any(Option::is_some) {
                        let programs: Vec<_> = plan.programs.iter().collect();
                        let solo = solo_efs_scores(device, &programs, head_strategy)
                            .map_err(RuntimeError::Core)?;
                        for a in &plan.allocations {
                            let i = a.program_index;
                            excess[i] = (a.efs.score - solo[i]).max(0.0);
                            over |= thresholds[i].is_some_and(|t| excess[i] > t);
                        }
                    }
                    if !over {
                        return Ok((plan, shrinks));
                    }
                    // The plain batch gate drops the tail; worst-excess
                    // the largest excess among the riders, ties to the tail.
                    let evict = match self.cfg.gate {
                        EfsGate::BatchWorstExcess => (1..members.len())
                            .max_by(|&a, &b| excess[a].total_cmp(&excess[b]).then(a.cmp(&b)))
                            .expect("a gated batch has riders"),
                        _ => members.len() - 1,
                    };
                    (evict, ShrinkReason::FidelityGate)
                }
                Err(e) => {
                    let rejection = rejected(job(&members[0]).ticket.id, e)?;
                    if members.len() == 1 {
                        return Err(rejection);
                    }
                    (members.len() - 1, ShrinkReason::PartitionFailure)
                }
            };
            let dropped = members.remove(evict);
            shrinks.push(Event::BatchShrunk {
                batch_index,
                device: device.name().into(),
                dropped_job_id: job(&dropped).ticket.id,
                remaining: members.len(),
                reason,
            });
        }
    }

    pub fn recalibrate(&mut self, d: DeviceId, cal: Calibration) -> Result<u64, RuntimeError> {
        let (epoch, event) = self.fleet.recalibrate(d, cal)?;
        self.events.push(event);
        Ok(epoch)
    }

    pub fn advance_drift(&mut self, now: f64) -> Result<usize, RuntimeError> {
        let (events, bumps) = self.fleet.advance_drift(now);
        self.events.extend(events);
        bumps
    }
}
