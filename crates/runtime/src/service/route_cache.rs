//! The cross-batch planning cache: memoized partition probes and whole
//! committed plans with their prepared simulator state, the typed keys
//! they live under, and plan replay.
//!
//! Every key is the literal tuple of what its entry is a function of —
//! device index, calibration epoch, gate mode, optimize flag, the
//! head's interned strategy key, interned [`Shape`] handles, threshold
//! bit patterns — with derived `Hash + Eq`. The map's hash only finds
//! the bucket; an entry is replayed because its key *equals* the
//! batch's, and shape handles are equal only for gate-by-gate equal
//! circuits (see [`crate::shape`]).

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use qucp_core::pipeline::{PlannedWorkload, PreparedProgram};
use qucp_core::threshold::parallel_count_for_threshold;
use qucp_core::{best_partition, CoreError};

use super::dispatch::HeadContext;
use super::gate::GatedPlan;
use super::{EfsGate, Service};
use crate::error::RuntimeError;
use crate::event::{Event, ShrinkReason};
use crate::pending::PendingStore;
use crate::registry::DeviceId;
use crate::shape::Shape;

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
/// *(device, circuit shape, strategy[, threshold])* **at a fixed
/// calibration epoch**: an entry is valid for exactly one epoch of its
/// device, and the service drops a device's entries whenever its epoch
/// bumps (recalibration or a changing drift step). A frozen fleet never
/// bumps, so its entries live for the service's lifetime.
#[derive(Debug, Default)]
pub(super) struct RouteCache {
    /// Solo-best EFS partition score by `(device, head shape, head
    /// strategy key)`; `None` records — and caches — "no placement on
    /// this chip".
    pub(super) solo: HashMap<(usize, Shape, u32), Option<f64>>,
    /// Head-only EFS-gate copy counts, additionally keyed by the
    /// threshold bits. Planning errors are cached alongside successes:
    /// the probe is deterministic either way.
    pub(super) head_cap: HashMap<(usize, Shape, u32, u64), Result<usize, CoreError>>,
    /// Whole committed plans by [`PlanKey`] — every input
    /// [`plan_gated_members`](super::gate::plan_gated_members)
    /// consults. A hit skips planning entirely: the shrink *trace*
    /// replays against the current members' ids, and the
    /// [`PlannedWorkload`] and the entry's [`ReplaySlots`] are shared
    /// clone-free behind their `Arc`s.
    /// `JobUnplaceable` outcomes are cached alongside successes
    /// (planning is deterministic either way); hard
    /// [`RuntimeError::Core`] outcomes are not.
    pub(super) plans: HashMap<PlanKey, PlanEntry>,
    pub(super) hits: usize,
    pub(super) misses: usize,
    pub(super) invalidated: usize,
    pub(super) plan_hits: usize,
    pub(super) plan_misses: usize,
    pub(super) plan_invalidated: usize,
}

/// What a committed plan is a function of. Job ids, names and the batch
/// index are deliberately not: replay re-binds all three.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(super) struct PlanKey {
    pub(super) device: usize,
    /// The device's calibration epoch, so a stale plan could not replay
    /// even if the eager drop on the bump were missed.
    pub(super) epoch: u64,
    /// The gate mode decides the eviction rule baked into the cached
    /// shrink trace, the optimize flag the planned gate sequences.
    pub(super) gate: EfsGate,
    pub(super) optimize: bool,
    /// The head's strategy key (it plans the whole batch).
    pub(super) strategy: u32,
    /// The members' shapes, in batch order.
    pub(super) shapes: Vec<Shape>,
    /// The members' effective thresholds as bit patterns, in the
    /// batch-gate modes — the only ones whose eviction decisions read
    /// them; empty otherwise.
    pub(super) thresholds: Vec<Option<u64>>,
}

/// One memoized planning outcome (see [`RouteCache::plans`]) and, once
/// it has been replayed, the prepared simulator state of its programs.
///
/// An entry lives for one calibration epoch of its device: its key
/// holds the epoch and the bump drops it. Everything it holds is
/// therefore valid by the key — the plan, and the
/// [`PreparedProgram`]s, which are a pure function of the plan, the
/// device's calibration and the noise flags, the same for every job
/// the runtime runs. No calibration is compared: an epoch bump drops
/// the slots with their entry.
#[derive(Debug)]
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
    pub(super) outcome: Result<Arc<PlannedWorkload>, CoreError>,
    /// One prepared-state slot per program of the plan, allocated on
    /// the entry's first hit. A miss is a plan's first execution and a
    /// hit its second, so a plan that never hits — most of a churning
    /// cache — retains nothing; keeping state from the first execution
    /// cost the benchmark's `plan_churn` +8.5 % `peak_rss_mb` and
    /// +3.2 % `alloc_kb_per_job` for state nobody replays.
    pub(super) slots: Option<ReplaySlots>,
}

/// The prepared-state slots of one cached plan, one per program in
/// plan order: filled at most once each, by the batch execution that
/// first finds them empty, and replayed by every later one (see
/// `StagedBatch::execute`).
pub(super) type ReplaySlots = Arc<[OnceLock<PreparedProgram>]>;

/// A batch's plan as staging hands it to execution: the (fresh or
/// replayed) plan behind the `Arc` its cache entry shares, the entry's
/// slots on a hit (`None` on a miss: a plan's first execution keeps
/// nothing), and the buffered shrink events.
pub(super) struct SharedPlan {
    pub(super) plan: Arc<PlannedWorkload>,
    pub(super) slots: Option<ReplaySlots>,
    pub(super) shrinks: Vec<Event>,
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
        self.plans.retain(|k, _| k.device != device_index);
        let plans_dropped = plans_before - self.plans.len();
        self.plan_invalidated += plans_dropped;
        dropped + plans_dropped
    }
}

impl Service {
    /// Statistics of the cross-batch planning cache: how many
    /// partition/candidate probes the dispatch loop answered from memo
    /// instead of recomputing. Entries are keyed by *(device, circuit
    /// shape, strategy[, threshold])* and are valid for exactly one
    /// calibration **epoch** of their device: a
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

    /// The plan-cache key of the batch `seqs` (head first) on device
    /// `d` under the head's `strategy` key, built in the two (empty)
    /// vectors handed in — the dispatch loop lends the same two to
    /// every lookup and clones a key only into the cache.
    pub(super) fn plan_key(
        &self,
        d: usize,
        strategy: u32,
        seqs: &[usize],
        mut shapes: Vec<Shape>,
        mut thresholds: Vec<Option<u64>>,
    ) -> Result<PlanKey, RuntimeError> {
        debug_assert!(shapes.is_empty() && thresholds.is_empty());
        let gated = self.efs_gate.reads_member_thresholds();
        for &s in seqs {
            let p = self.pending_by_seq(s)?;
            shapes.push(p.shape.clone());
            if gated {
                let threshold = p.fidelity_threshold.or(self.fidelity_threshold);
                thresholds.push(threshold.map(f64::to_bits));
            }
        }
        Ok(PlanKey {
            device: d,
            epoch: self.registry.epoch(DeviceId::from_index(d)),
            gate: self.efs_gate,
            optimize: self.optimize,
            strategy,
            shapes,
            thresholds,
        })
    }

    /// Folds a fresh planning outcome into the plan cache under `key`
    /// and converts it to the shared-plan form the commit path
    /// consumes, with the surviving members' submission indices.
    /// `Ok` and `JobUnplaceable` outcomes are memoized — planning is
    /// deterministic either way — hard `Core` errors are not.
    pub(super) fn memoize_plan(
        &mut self,
        key: PlanKey,
        fresh: Result<GatedPlan, RuntimeError>,
    ) -> Result<(SharedPlan, Vec<usize>), RuntimeError> {
        match fresh {
            Ok(gated) => {
                let plan = Arc::new(gated.plan);
                let entry = PlanEntry {
                    trace: gated.trace,
                    outcome: Ok(Arc::clone(&plan)),
                    slots: None,
                };
                self.route_cache.plans.insert(key, entry);
                let shared = SharedPlan {
                    plan,
                    slots: None,
                    shrinks: gated.shrinks,
                };
                Ok((shared, gated.members.seqs))
            }
            Err(RuntimeError::JobUnplaceable { job_id, source }) => {
                let entry = PlanEntry {
                    trace: Vec::new(),
                    outcome: Err(source.clone()),
                    slots: None,
                };
                self.route_cache.plans.insert(key, entry);
                Err(RuntimeError::JobUnplaceable { job_id, source })
            }
            Err(e) => Err(e),
        }
    }

    /// The head circuit's solo-best EFS partition score on a device,
    /// memoized across batches by (device, shape, strategy); `None`
    /// records — and caches — "no placement on this chip". Only a miss
    /// reads the circuit, in the pending store.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::QueueCorrupted`] if a miss does not find the
    /// head in the store.
    pub(super) fn cached_solo_score(
        &mut self,
        head: &HeadContext,
        device_index: usize,
    ) -> Result<Option<f64>, RuntimeError> {
        let key = (device_index, head.shape.clone(), head.strategy_key);
        if let Some(&cached) = self.route_cache.solo.get(&key) {
            self.route_cache.hits += 1;
            return Ok(cached);
        }
        self.route_cache.misses += 1;
        let device = self.registry.device_at(device_index);
        let circuit = &self.pending_by_seq(head.seq)?.circuit;
        let score = best_partition(device, circuit, &head.strategy.partition)
            .ok()
            .map(|alloc| alloc.efs.score);
        self.route_cache.solo.insert(key, score);
        Ok(score)
    }

    /// The head-only EFS gate's admissible copy count on a device,
    /// memoized across batches by (device, shape, strategy, threshold)
    /// — the inner result, planning errors included. Only a miss reads
    /// the circuit, in the pending store.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::QueueCorrupted`] if a miss does not find the
    /// head in the store.
    pub(super) fn cached_head_cap(
        &mut self,
        head: &HeadContext,
        device_index: usize,
        threshold: f64,
    ) -> Result<Result<usize, CoreError>, RuntimeError> {
        let key = (
            device_index,
            head.shape.clone(),
            head.strategy_key,
            threshold.to_bits(),
        );
        if let Some(cached) = self.route_cache.head_cap.get(&key) {
            self.route_cache.hits += 1;
            return Ok(cached.clone());
        }
        self.route_cache.misses += 1;
        let result = parallel_count_for_threshold(
            self.registry.device_at(device_index),
            &self.pending_by_seq(head.seq)?.circuit,
            threshold,
            self.max_parallel,
            &head.strategy,
        );
        self.route_cache.head_cap.insert(key, result.clone());
        Ok(result)
    }
}

/// Replays a memoized plan entry against the current batch members
/// `seqs` (head first; the evicted ones are removed in place): a
/// memoized unplaceable outcome re-binds to the current head's job id,
/// and a memoized plan re-applies the recorded eviction trace so the
/// shrink events carry the *current* dropped job ids. The cached
/// [`PlannedWorkload`] itself is shared untouched — replay is two `Arc`
/// clones plus O(trace) bookkeeping, never a partitioner call, and it
/// is the entry's [`PlanKey`] that vouches for the plan fitting these
/// members. The entry's slots are allocated here, on its first hit.
pub(super) fn replay_plan(
    entry: &mut PlanEntry,
    head: &HeadContext,
    device_name: &str,
    pending: &PendingStore,
    seqs: &mut Vec<usize>,
) -> Result<SharedPlan, RuntimeError> {
    let plan = entry.outcome.as_ref().map_err(|source| {
        // The head is never evicted, so a whole-batch planning failure
        // is always attributed to it.
        RuntimeError::JobUnplaceable {
            job_id: head.id,
            source: source.clone(),
        }
    })?;
    let mut shrinks = Vec::with_capacity(entry.trace.len());
    for &(evict, reason) in &entry.trace {
        let seq = seqs.remove(evict);
        let dropped = pending
            .get(seq)
            .ok_or(RuntimeError::QueueCorrupted { seq })?;
        shrinks.push(Event::BatchShrunk {
            batch_index: head.batch_index,
            device: device_name.to_string(),
            dropped_job_id: dropped.id,
            remaining: seqs.len(),
            reason,
        });
    }
    let slots = entry
        .slots
        .get_or_insert_with(|| plan.programs.iter().map(|_| OnceLock::new()).collect());
    Ok(SharedPlan {
        plan: Arc::clone(plan),
        slots: Some(Arc::clone(slots)),
        shrinks,
    })
}
