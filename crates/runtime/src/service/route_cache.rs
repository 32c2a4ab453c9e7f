//! The cross-batch planning cache: memoized partition probes and whole
//! committed plans, the fingerprints that key them, and plan replay.

use std::collections::HashMap;

use qucp_circuit::Circuit;
use qucp_core::pipeline::PlannedWorkload;
use qucp_core::threshold::parallel_count_for_threshold;
use qucp_core::{best_partition, CoreError, PartitionPolicy, Strategy};

use super::dispatch::HeadContext;
use super::gate::{GatedPlan, PlanMembers};
use super::{EfsGate, Service};
use crate::event::{Event, ShrinkReason};
use crate::registry::DeviceId;
use crate::scheduler::RuntimeError;

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
pub(super) struct RouteCache {
    /// Solo-best EFS partition score of a circuit shape on a device;
    /// `None` records — and caches — "no placement on this chip".
    pub(super) solo: HashMap<(usize, u64, u64), Option<f64>>,
    /// Head-only EFS-gate copy counts, additionally keyed by the
    /// threshold bits. Planning errors are cached alongside successes:
    /// the probe is deterministic either way.
    pub(super) head_cap: HashMap<(usize, u64, u64, u64), Result<usize, CoreError>>,
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
    pub(super) plans: HashMap<(usize, u64), PlanEntry>,
    pub(super) hits: usize,
    pub(super) misses: usize,
    pub(super) invalidated: usize,
    pub(super) plan_hits: usize,
    pub(super) plan_misses: usize,
    pub(super) plan_invalidated: usize,
}

/// One memoized planning outcome (see [`RouteCache::plans`]).
#[derive(Debug, Clone)]
pub(super) struct PlanEntry {
    /// The eviction trace of the original planning run: `(position,
    /// reason)` per shrink, in order. Replay applies it to the current
    /// batch's members to regenerate the surviving member list and the
    /// [`Event::BatchShrunk`] stream with current job ids.
    pub(super) trace: Vec<(usize, ShrinkReason)>,
    /// The plan the surviving members committed with, or the
    /// `JobUnplaceable` source when the batch shrank to one member and
    /// still failed (the head is never evicted, so replay re-binds the
    /// error to the current head's id).
    pub(super) outcome: Result<std::sync::Arc<PlannedWorkload>, CoreError>,
}

impl RouteCache {
    /// Drops every entry keyed by `device_index` (one device's epoch
    /// bumped; other devices' entries stay valid) and returns how many
    /// entries were dropped.
    pub(super) fn invalidate_device(&mut self, device_index: usize) -> usize {
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
pub(super) fn circuit_shape_fingerprint(circuit: &Circuit) -> u64 {
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
pub(super) fn partition_policy_fingerprint(policy: &PartitionPolicy) -> u64 {
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
pub(super) fn strategy_fingerprint(strategy: &Strategy) -> u64 {
    use std::fmt::Write as _;
    use std::hash::Hasher as _;
    let mut h = std::collections::hash_map::DefaultHasher::new();
    let _ = write!(HashWriter(&mut h), "{strategy:?}");
    h.finish()
}

/// Fingerprint of the service-lifetime plan-key bits: the EFS gate mode
/// (it decides the eviction rule baked into a cached shrink trace) and
/// the optimize flag (it decides the planned gate sequences).
pub(super) fn plan_cfg_fingerprint(gate: EfsGate, optimize: bool) -> u64 {
    use std::fmt::Write as _;
    use std::hash::Hasher as _;
    let mut h = std::collections::hash_map::DefaultHasher::new();
    let _ = write!(HashWriter(&mut h), "{gate:?}");
    std::hash::Hasher::write_u8(&mut h, optimize as u8);
    h.finish()
}

impl Service {
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

    /// The plan-cache key of one candidate's batch: device epoch, gate
    /// mode/optimize bits, the head's effective strategy, and the
    /// ordered member shapes (plus per-member thresholds in the
    /// batch-gate modes — the only modes whose eviction decisions read
    /// them). Job ids, names and the batch index are deliberately
    /// excluded: replay re-binds all three.
    pub(super) fn plan_fingerprint(
        &self,
        d: usize,
        strategy_fp: u64,
        members: &PlanMembers,
    ) -> u64 {
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
    pub(super) fn memoize_plan(
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

    /// The head circuit's solo-best EFS partition score on a device,
    /// memoized across batches by (device, shape, partition policy);
    /// `None` records — and caches — "no placement on this chip".
    pub(super) fn cached_solo_score(
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
    pub(super) fn cached_head_cap(
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
}

/// A committed candidate's plan in shared form: the (fresh or replayed)
/// workload plan behind an [`Arc`][std::sync::Arc] so cache entries and
/// staged batches share one allocation, the surviving members, and the
/// buffered shrink events.
pub(super) type PlannedParts = (std::sync::Arc<PlannedWorkload>, PlanMembers, Vec<Event>);

/// Replays a memoized plan entry against the current batch members:
/// a memoized unplaceable outcome re-binds to the current head's job
/// id, and a memoized plan re-applies the recorded eviction trace so
/// the shrink events carry the *current* dropped job ids. The cached
/// [`PlannedWorkload`] itself is shared untouched — replay is an `Arc`
/// clone plus O(trace) bookkeeping, never a partitioner call.
pub(super) fn replay_plan(
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
