//! The EFS gate on memoized allocations: allocate a packed batch,
//! evicting members while the allocator cannot place it or the gate
//! finds one over its threshold, then route and merge the members that
//! stayed.
//!
//! Every allocation the gate reads — each attempt's joint allocation
//! and each member's solo baseline, a one-member list — is a lookup in
//! the plan memo ([`RouteCache::plans`]) under the list's [`PlanKey`],
//! so only a list not yet seen on the device at its epoch reaches the
//! allocator. Thresholds are read from the job table on every pass
//! and are no key input: they choose which lists the loop visits, never
//! what a list allocates. The surviving list's entry then holds its
//! completed plan and prepared slots, so a survivor set is routed,
//! merged and prepared once per epoch, whatever thresholds committed
//! it.

use std::ops::Range;
use std::sync::{Arc, OnceLock};

use qucp_circuit::Circuit;
use qucp_core::pipeline::Pipeline;
use qucp_core::{Allocation, CoreError, PlanScratch, Strategy};
use qucp_device::Device;

use super::route_cache::{PlanEntry, PlanKey, RouteCache, SharedPlan};
use super::{EfsGate, Service};
use crate::error::RuntimeError;
use crate::event::{Event, ShrinkReason};
use crate::pending::JobTable;
use crate::shape::Shape;

/// The buffers of one gated pass, kept by the dispatch scratch and
/// empty between passes: a shape lives as long as a pending job or a
/// memo key holds it, not a buffer.
#[derive(Debug, Default)]
pub(super) struct GateBuffers {
    /// The key of the member list, its shapes evicted in step with the
    /// members.
    key: PlanKey,
    /// The list's shapes while the key holds one member's at a time
    /// (the solo scores); empty otherwise.
    list: Vec<Shape>,
    /// The members' effective thresholds, evicted in step; filled only
    /// in the batch-gate modes.
    thresholds: Vec<Option<f64>>,
    /// Per member, its solo score, then its EFS excess.
    excesses: Vec<f64>,
    /// The last pass's shrink events, buffered: the commit drains them
    /// if the batch commits on that candidate — a failed candidate must
    /// leave no trace — and the next pass starts by clearing them.
    pub(super) shrinks: Vec<Event>,
}

/// One candidate's planning pass: the memo it looks allocations up in,
/// the table it reads the members in, the device, the gate's settings,
/// and the working buffers planning borrows on a miss.
pub(super) struct GatePass<'a> {
    cache: &'a mut RouteCache,
    jobs: &'a JobTable,
    device: &'a Device,
    buffers: &'a mut GateBuffers,
    planning: &'a mut PlanScratch,
    gate: EfsGate,
    batch_index: usize,
}

impl Service {
    /// The planning pass of the member list `members` (head first) on
    /// device `d` under the head's `strategy` key, in `buffers`.
    pub(super) fn gate_pass<'a>(
        &'a mut self,
        buffers: &'a mut GateBuffers,
        planning: &'a mut PlanScratch,
        d: usize,
        strategy: u32,
        batch_index: usize,
        members: &[usize],
    ) -> Result<GatePass<'a>, RuntimeError> {
        buffers.thresholds.clear();
        if self.efs_gate.reads_member_thresholds() {
            for &s in members {
                let p = self.jobs.get(s)?;
                let threshold = p.fidelity_threshold.or(self.fidelity_threshold);
                buffers.thresholds.push(threshold);
            }
        }
        // Last, so that a failed lookup leaves no shape in a buffer.
        let shapes = std::mem::take(&mut buffers.key.shapes);
        buffers.key = self.plan_key(d, strategy, members, shapes)?;
        Ok(GatePass {
            cache: &mut self.route_cache,
            jobs: &self.jobs,
            device: self.registry.device_at(d),
            buffers,
            planning,
            gate: self.efs_gate,
            batch_index,
        })
    }
}

impl GatePass<'_> {
    /// The whole pass under the head's strategy: the gate loop on
    /// allocations ([`GatePass::run`]), then the survivors' plan
    /// ([`GatePass::complete`]). `members` ends as the survivors, the
    /// buffers empty but for the shrink events.
    pub(super) fn plan(
        mut self,
        members: &mut Vec<usize>,
        head_strategy: &Strategy,
    ) -> Result<SharedPlan, RuntimeError> {
        let pipeline = Pipeline::from_strategy(head_strategy);
        let device = self.device;
        let planned = self
            .run(members, |planning, circuits| {
                pipeline.allocate(planning, device, circuits)
            })
            .and_then(|circuits| self.complete(members, circuits, &pipeline));
        self.buffers.clear();
        planned
    }

    /// The gate loop: allocates `members` (stage 1 of the head's
    /// pipeline, through the memo), shrinking while the allocator
    /// cannot place them (tail eviction) and — in [`EfsGate::Batch`] /
    /// [`EfsGate::BatchWorstExcess`] mode — while any member's EFS
    /// excess over its solo baseline exceeds its own effective
    /// threshold (tail or worst-excess eviction respectively). The head
    /// is never evicted; a failure with the head alone is its
    /// [`RuntimeError::JobUnplaceable`].
    ///
    /// `allocate` is stage 1, called once per list the memo does not
    /// hold; the first call clones the members' circuits, once for the
    /// pass, and they are evicted in step with the members: the loop
    /// returns the survivors' circuits if a miss made it clone them. It
    /// is handed nothing that routes: routing and the
    /// schedule merge run once, after it, for the member set that
    /// survives ([`GatePass::complete`]). Each eviction's event is
    /// buffered in [`GateBuffers::shrinks`].
    pub(super) fn run(
        &mut self,
        members: &mut Vec<usize>,
        mut allocate: impl FnMut(&mut PlanScratch, &[Circuit]) -> Result<Vec<Allocation>, CoreError>,
    ) -> Result<Option<Vec<Circuit>>, RuntimeError> {
        let gated = self.gate.reads_member_thresholds();
        let mut circuits = None;
        self.buffers.shrinks.clear();
        loop {
            let all = 0..members.len();
            let failure = |entry: &PlanEntry| entry.allocations().err();
            let (found, failure) =
                self.memoized(members, all, &mut circuits, &mut allocate, failure)?;
            let (evict, reason) = match failure {
                Some(e) => {
                    // A placement failure evicts the tail while there is
                    // one to evict; with the head alone it is the head's,
                    // and any other planning error ends the pass.
                    let head = self.jobs.get(members[0])?.id;
                    match RuntimeError::from_planning(head, e) {
                        RuntimeError::JobUnplaceable { .. } if members.len() > 1 => {}
                        e => {
                            // The pass ends on the head's outcome: one
                            // found in the memo is a hit.
                            if found {
                                self.cache.plan_hits += 1;
                            } else {
                                self.cache.plan_misses += 1;
                            }
                            return Err(e);
                        }
                    }
                    (members.len() - 1, ShrinkReason::PartitionFailure)
                }
                None if gated
                    && members.len() > 1
                    && self.buffers.thresholds.iter().any(Option::is_some) =>
                {
                    match self.violation(members, &mut circuits, &mut allocate)? {
                        Some(evict) => (evict, ShrinkReason::FidelityGate),
                        None => return Ok(circuits),
                    }
                }
                None => return Ok(circuits),
            };
            let seq = members.remove(evict);
            self.buffers.key.shapes.remove(evict);
            if gated {
                self.buffers.thresholds.remove(evict);
            }
            if let Some(circuits) = circuits.as_mut() {
                circuits.remove(evict);
            }
            let dropped_job_id = self.jobs.get(seq)?.id;
            self.buffers.shrinks.push(Event::BatchShrunk {
                batch_index: self.batch_index,
                device: Arc::clone(self.device.shared_name()),
                dropped_job_id,
                remaining: members.len(),
                reason,
            });
        }
    }

    /// The gate's verdict on the allocated `members`: the position to
    /// evict if any member's EFS excess over its solo-best score — the
    /// allocation of its one-member list, under the head's strategy —
    /// exceeds its threshold, else `None`.
    fn violation(
        &mut self,
        members: &[usize],
        circuits: &mut Option<Vec<Circuit>>,
        allocate: &mut impl FnMut(&mut PlanScratch, &[Circuit]) -> Result<Vec<Allocation>, CoreError>,
    ) -> Result<Option<usize>, RuntimeError> {
        // The key holds one member's shape at a time, the list aside.
        let buffers = &mut *self.buffers;
        std::mem::swap(&mut buffers.key.shapes, &mut buffers.list);
        buffers.excesses.clear();
        for i in 0..members.len() {
            let shape = self.buffers.list[i].clone();
            self.buffers.key.shapes.clear();
            self.buffers.key.shapes.push(shape);
            let score = |entry: &PlanEntry| entry.allocations().map(|solo| solo[0].efs.score);
            let (_, score) = self.memoized(members, i..i + 1, circuits, allocate, score)?;
            self.buffers
                .excesses
                .push(score.map_err(RuntimeError::Core)?);
        }
        let GateBuffers {
            key,
            list,
            thresholds,
            excesses,
            ..
        } = &mut *self.buffers;
        key.shapes.clear();
        std::mem::swap(&mut key.shapes, list);
        // The joint list is in the memo: this attempt just looked it up.
        let joint = self.cache.plans[&*key].allocations();
        let joint = joint.map_err(RuntimeError::Core)?;
        for alloc in joint {
            let excess = &mut excesses[alloc.program_index];
            *excess = (alloc.efs.score - *excess).max(0.0);
        }
        let violated = thresholds
            .iter()
            .zip(excesses.iter())
            .any(|(t, &e)| t.is_some_and(|t| e > t));
        Ok(violated.then(|| match self.gate {
            EfsGate::BatchWorstExcess => worst_excess_position(excesses),
            _ => members.len() - 1,
        }))
    }

    /// What `read` makes of the memo entry of the list `members[span]`,
    /// under the buffers' key — that list's — and whether the memo held
    /// it ([`RouteCache::memoized`]). A miss allocates the list's
    /// circuits, cloning the members' on the pass's first miss.
    fn memoized<T>(
        &mut self,
        members: &[usize],
        span: Range<usize>,
        circuits: &mut Option<Vec<Circuit>>,
        allocate: &mut impl FnMut(&mut PlanScratch, &[Circuit]) -> Result<Vec<Allocation>, CoreError>,
        read: impl FnOnce(&PlanEntry) -> T,
    ) -> Result<(bool, T), RuntimeError> {
        let (jobs, planning) = (self.jobs, &mut *self.planning);
        let allocate_list = || {
            if circuits.is_none() {
                *circuits = Some(member_circuits(jobs, members)?);
            }
            let list = circuits.as_deref().map_or(&[][..], |c| &c[span]);
            Ok(allocate(planning, list))
        };
        self.cache.memoized(&self.buffers.key, allocate_list, read)
    }

    /// The survivors' plan: the memo entry's completed plan on a hit
    /// (its slots allocated on the first), else their allocation —
    /// moved out of the entry — routed and merged with their circuits
    /// ([`Pipeline::complete`]) and kept in the entry.
    pub(super) fn complete(
        &mut self,
        members: &[usize],
        circuits: Option<Vec<Circuit>>,
        pipeline: &Pipeline,
    ) -> Result<SharedPlan, RuntimeError> {
        let entry = self.cache.plans.get_mut(&self.buffers.key);
        let entry = entry.expect("the gate's last attempt memoized the survivors");
        let allocations = match entry {
            PlanEntry::Planned { plan, slots } => {
                self.cache.plan_hits += 1;
                let slots = slots
                    .get_or_insert_with(|| plan.programs.iter().map(|_| OnceLock::new()).collect());
                return Ok(SharedPlan {
                    plan: Arc::clone(plan),
                    slots: Some(Arc::clone(slots)),
                });
            }
            PlanEntry::Allocated(outcome) => match outcome {
                Ok(allocations) => std::mem::take(allocations),
                Err(e) => return Err(RuntimeError::Core(e.clone())),
            },
        };
        self.cache.plan_misses += 1;
        let circuits = match circuits {
            Some(circuits) => circuits,
            None => member_circuits(self.jobs, members)?,
        };
        let plan = pipeline.complete(self.planning, self.device, circuits, allocations);
        let plan = Arc::new(plan);
        *entry = PlanEntry::Planned {
            plan: Arc::clone(&plan),
            slots: None,
        };
        Ok(SharedPlan { plan, slots: None })
    }
}

impl GateBuffers {
    /// Empties every buffer, keeping its capacity.
    fn clear(&mut self) {
        self.key.shapes.clear();
        self.list.clear();
        self.thresholds.clear();
        self.excesses.clear();
    }
}

/// The circuits of `members` out of the table, as their batch runs
/// them (folded at submit): what a memo miss allocates and a completion
/// routes.
fn member_circuits(jobs: &JobTable, members: &[usize]) -> Result<Vec<Circuit>, RuntimeError> {
    members
        .iter()
        .map(|&seq| Ok(jobs.get(seq)?.circuit.clone()))
        .collect()
}

/// The position the worst-excess gate evicts: the member with the
/// largest EFS excess among the non-head members (the head anchors the
/// batch), ties resolved toward the tail.
pub(super) fn worst_excess_position(excesses: &[f64]) -> usize {
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
