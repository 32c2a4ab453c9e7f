//! The planning shrink loop: allocate a packed batch, evicting members
//! while the allocator cannot place it or the EFS gate finds one over
//! its threshold, then route and merge the members that stayed, once.

use qucp_circuit::Circuit;
use qucp_core::pipeline::{Pipeline, PlannedWorkload};
use qucp_core::threshold::solo_efs_scores;
use qucp_core::{Allocation, CoreError, Strategy};
use qucp_device::Device;

use super::{EfsGate, Service};
use crate::error::RuntimeError;
use crate::event::{Event, ShrinkReason};

/// Per-member planning inputs, resolved from the pending store on a
/// plan-cache miss so [`plan_gated_members`] can run without touching
/// the service. The planning loop mutates its copy in place as members
/// are evicted, so the returned `seqs`/`ids` are the committed batch.
pub(super) struct PlanMembers {
    pub(super) seqs: Vec<usize>,
    pub(super) ids: Vec<u64>,
    pub(super) circuits: Vec<Circuit>,
    /// Effective per-member thresholds; resolved only in the batch-gate
    /// modes (empty otherwise, matching the sequential path's laziness).
    pub(super) thresholds: Vec<Option<f64>>,
}

impl Service {
    /// Resolves the per-member planning inputs from the store, so
    /// planning itself ([`plan_gated_members`]) runs without touching
    /// the service. This is where a plan-cache miss pays for the
    /// members' circuits: the plan it builds owns its programs, and the
    /// jobs stay pending until a candidate commits.
    pub(super) fn plan_members(&self, seqs: &[usize]) -> Result<PlanMembers, RuntimeError> {
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
                thresholds.push(p.fidelity_threshold.or(self.fidelity_threshold));
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

/// A successful gated planning pass: its `plan` — the survivors'
/// allocations out of [`plan_gated_members`], their [`PlannedWorkload`]
/// once [completed](Gated::complete) — the surviving members, the
/// buffered shrink events, and the eviction `trace` that reproduces
/// them — `(position, reason)` per eviction, in order. The trace is
/// what the plan cache memoizes: replaying it against a future batch
/// with the same plan key re-derives the shrink events (bound to the
/// *current* job ids) without re-running the allocator.
pub(super) struct Gated<P> {
    pub(super) plan: P,
    pub(super) members: PlanMembers,
    pub(super) shrinks: Vec<Event>,
    pub(super) trace: Vec<(usize, ShrinkReason)>,
}

/// A gated pass with its members routed and merged.
pub(super) type GatedPlan = Gated<PlannedWorkload>;

impl Gated<Vec<Allocation>> {
    /// Routes and merges the surviving members, whose circuits move
    /// into the plan ([`Pipeline::complete`]).
    pub(super) fn complete(mut self, pipeline: &Pipeline, device: &Device) -> GatedPlan {
        let circuits = std::mem::take(&mut self.members.circuits);
        Gated {
            plan: pipeline.complete(device, circuits, self.plan),
            members: self.members,
            shrinks: self.shrinks,
            trace: self.trace,
        }
    }
}

/// Plans `members` on `device` under the head's strategy: the shrink
/// loop on allocations alone ([`plan_gated_members`]), then routing and
/// the schedule merge once, for the member set that survives.
pub(super) fn plan_batch(
    device: &Device,
    batch_index: usize,
    gate: EfsGate,
    optimize: bool,
    head_strategy: &Strategy,
    members: PlanMembers,
) -> Result<GatedPlan, RuntimeError> {
    let pipeline = Pipeline::from_strategy(head_strategy);
    let allocate = |circuits: &[Circuit]| pipeline.allocate(device, circuits);
    let gated = plan_gated_members(
        allocate,
        device,
        batch_index,
        gate,
        optimize,
        head_strategy,
        members,
    );
    Ok(gated?.complete(&pipeline, device))
}

/// Allocates `members` on `device` with `allocate` (stage 1 of the
/// head's pipeline), shrinking while it cannot place the batch (tail
/// eviction) and — in [`EfsGate::Batch`] / [`EfsGate::BatchWorstExcess`]
/// mode — while any member's EFS excess exceeds its own effective
/// threshold (tail or worst-excess eviction respectively). Returns the
/// survivors' allocations, the surviving members (circuits optimized),
/// and the buffered shrink events (recorded by the caller only if the
/// batch actually commits on `device` — a failed candidate must leave
/// no trace, or log replays would see phantom shrinks for a batch that
/// was eventually planned elsewhere).
///
/// `head_strategy` is the effective strategy of `members.seqs[0]` (the
/// head, which no eviction rule can remove): it parameterizes the
/// solo-EFS reference scores exactly as the sequential path always has.
///
/// A free function on purpose: its only inputs are the pre-resolved
/// members and shared device/strategy state — what the plan key names —
/// so its outcome can be memoized and replayed.
///
/// The shrink loop runs on **allocation alone** — the gate reads
/// nothing but each member's allocated EFS score, and a placement
/// failure is the allocator's — and is handed nothing that routes:
/// routing and the schedule merge run once, after it, for the member
/// set that survives ([`Gated::complete`]). Its per-member state is
/// cached: the circuits are peephole-optimized **once**, the
/// per-member thresholds are resolved once, and the solo-best EFS
/// scores are probed once on the first successful allocation; each
/// shrink step merely removes the evicted member's entry from every
/// cache. The first placement of every allocation and every solo
/// baseline are read from the device's region atlas
/// ([`Device::idle_regions`]) instead of re-grown.
pub(super) fn plan_gated_members(
    mut allocate: impl FnMut(&[Circuit]) -> Result<Vec<Allocation>, CoreError>,
    device: &Device,
    batch_index: usize,
    gate: EfsGate,
    optimize: bool,
    head_strategy: &Strategy,
    mut members: PlanMembers,
) -> Result<Gated<Vec<Allocation>>, RuntimeError> {
    if optimize {
        // Pre-optimized here exactly once: every allocation below and
        // the final plan see the optimized circuits.
        for c in &mut members.circuits {
            c.cancel_adjacent_inverses();
        }
    }
    let gated = gate.reads_member_thresholds();
    let mut shrinks: Vec<Event> = Vec::new();
    let mut trace: Vec<(usize, ShrinkReason)> = Vec::new();
    let mut solo_cache: Option<Vec<f64>> = None;
    loop {
        match allocate(&members.circuits) {
            Ok(allocations) => {
                if gated && members.seqs.len() > 1 && members.thresholds.iter().any(Option::is_some)
                {
                    // The joint partitions are allocated; only the solo
                    // scores need probing (deduplicated, cached
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
                        members.thresholds.remove(evict);
                        if let Some(cache) = solo_cache.as_mut() {
                            cache.remove(evict);
                        }
                        trace.push((evict, ShrinkReason::FidelityGate));
                        shrinks.push(Event::BatchShrunk {
                            batch_index,
                            device: device.name().to_string(),
                            dropped_job_id: dropped_id,
                            remaining: members.seqs.len(),
                            reason: ShrinkReason::FidelityGate,
                        });
                        continue;
                    }
                }
                return Ok(Gated {
                    plan: allocations,
                    members,
                    shrinks,
                    trace,
                });
            }
            Err(e) => {
                // A placement failure evicts the tail while there is one
                // to evict; with the head alone it is the head's, and any
                // other planning error ends the pass.
                match RuntimeError::from_planning(members.ids[0], e) {
                    RuntimeError::JobUnplaceable { .. } if members.seqs.len() > 1 => {}
                    e => return Err(e),
                }
                trace.push((members.seqs.len() - 1, ShrinkReason::PartitionFailure));
                members.seqs.pop().expect("len > 1");
                let dropped_id = members.ids.pop().expect("len > 1");
                members.circuits.pop();
                if gated {
                    members.thresholds.pop();
                }
                if let Some(cache) = solo_cache.as_mut() {
                    cache.pop();
                }
                shrinks.push(Event::BatchShrunk {
                    batch_index,
                    device: device.name().to_string(),
                    dropped_job_id: dropped_id,
                    remaining: members.seqs.len(),
                    reason: ShrinkReason::PartitionFailure,
                });
            }
        }
    }
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
