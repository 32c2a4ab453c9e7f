//! The cross-batch planning cache: memoized partition probes and the
//! plan memo — the allocation of every member list the EFS gate looked
//! up, and the completed plan and prepared simulator state of every
//! list that committed as a batch — with the typed keys they live
//! under.
//!
//! Every key is the literal tuple of what its entry is a function of —
//! device index, calibration epoch, optimize flag, the head's interned
//! strategy key, interned [`Shape`] handles (and, for the head-only
//! gate's probe, the threshold bits) — with derived `Hash + Eq`. The
//! map's hash only finds the bucket; an entry is used because its key
//! *equals* the lookup's, and shape handles are equal only for
//! gate-by-gate equal circuits (see [`crate::shape`]). A member's
//! threshold is no input of a plan entry: it decides which lists the
//! gate visits (see [`super::gate`]), never what a list allocates.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use qucp_core::pipeline::{PlannedWorkload, PreparedProgram};
use qucp_core::threshold::parallel_count_for_threshold;
use qucp_core::{best_partition, Allocation, CoreError};

use super::dispatch::HeadContext;
use super::Service;
use crate::error::RuntimeError;
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
    /// Candidate plannings whose outcome came from the memo: the
    /// surviving members' completed plan was reused, or the head's
    /// memoized placement failure was re-bound to the current head.
    pub plan_hits: usize,
    /// Candidate plannings that routed and merged their surviving
    /// members (or found the head unplaceable afresh).
    pub plan_misses: usize,
    /// Member lists currently memoized: every joint attempt and every
    /// one-member solo baseline the EFS gate allocated at its device's
    /// current epoch, whether or not the list committed as a batch.
    pub plan_entries: usize,
    /// Memoized member lists dropped by calibration-epoch
    /// invalidations. The epoch is also part of the plan *key*, so a
    /// stale-epoch entry could not be used even if a drop were missed.
    pub plan_invalidated: usize,
}

/// Cross-batch memo of the planning work the dispatch loop repeats for
/// similar jobs: the routing policy's solo-partition score, the
/// head-only EFS gate's copy count, and the plan memo. All are pure
/// functions of their keys **at a fixed calibration epoch**: an entry
/// is valid for exactly one epoch of its device, and the service drops
/// a device's entries whenever its epoch bumps (recalibration or a
/// changing drift step). A frozen fleet never bumps, so its entries
/// live for the service's lifetime.
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
    /// The plan memo by [`PlanKey`]: one entry per ordered member list
    /// the gate looked up — a joint attempt or a member's one-member
    /// solo baseline — holding its allocation (placement errors
    /// included: allocation is deterministic either way) and, once the
    /// list committed as a batch, its completed plan. The gate reads
    /// allocations here, so only a list not yet seen at the device's
    /// epoch reaches the allocator, and a survivor set is routed,
    /// merged and prepared once per epoch.
    pub(super) plans: HashMap<PlanKey, PlanEntry>,
    pub(super) hits: usize,
    pub(super) misses: usize,
    pub(super) invalidated: usize,
    pub(super) plan_hits: usize,
    pub(super) plan_misses: usize,
    pub(super) plan_invalidated: usize,
}

/// What stage 1 — and so every plan-memo entry — is a function of. Job
/// ids, names, thresholds and the batch index are deliberately not:
/// the gate reads thresholds on every pass, and the commit re-binds the
/// rest.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub(super) struct PlanKey {
    pub(super) device: usize,
    /// The device's calibration epoch, so a stale entry could not be
    /// used even if the eager drop on the bump were missed.
    pub(super) epoch: u64,
    /// The optimize flag decides the planned gate sequences.
    pub(super) optimize: bool,
    /// The head's strategy key (it plans the whole batch).
    pub(super) strategy: u32,
    /// The members' shapes, in list order.
    pub(super) shapes: Vec<Shape>,
}

/// One memoized member list (see [`RouteCache::plans`]).
///
/// An entry lives for one calibration epoch of its device: its key
/// holds the epoch and the bump drops it. Everything it holds is
/// therefore valid by the key — the allocation, the plan, and the
/// [`PreparedProgram`]s, which are a pure function of the plan, the
/// device's calibration and the noise flags, the same for every job
/// the runtime runs. No calibration is compared: an epoch bump drops
/// the slots with their entry.
#[derive(Debug)]
pub(super) enum PlanEntry {
    /// Stage 1's outcome for the list: one allocation per member, or
    /// the placement error.
    Allocated(Result<Vec<Allocation>, CoreError>),
    /// The list committed as a batch: its completed plan, which holds
    /// the allocation moved out of [`PlanEntry::Allocated`].
    Planned {
        plan: Arc<PlannedWorkload>,
        /// One prepared-state slot per program of the plan, allocated
        /// on the entry's first hit. A miss is a plan's first execution
        /// and a hit its second, so a plan that never hits retains
        /// nothing; keeping state from the first execution cost the
        /// benchmark's `plan_churn` +8.5 % `peak_rss_mb` and +3.2 %
        /// `alloc_kb_per_job` for state nobody replays.
        slots: Option<ReplaySlots>,
    },
}

impl PlanEntry {
    /// The list's allocation, wherever the entry keeps it.
    pub(super) fn allocations(&self) -> Result<&[Allocation], &CoreError> {
        match self {
            PlanEntry::Allocated(outcome) => outcome.as_deref(),
            PlanEntry::Planned { plan, .. } => Ok(&plan.allocations),
        }
    }
}

/// The prepared-state slots of one cached plan, one per program in
/// plan order: filled at most once each, by the batch execution that
/// first finds them empty, and replayed by every later one (see
/// `StagedBatch::execute`).
pub(super) type ReplaySlots = Arc<[OnceLock<PreparedProgram>]>;

/// A batch's plan as staging hands it to execution: the (fresh or
/// reused) plan behind the `Arc` its memo entry shares, and the entry's
/// slots on a hit (`None` on a miss: a plan's first execution keeps
/// nothing).
pub(super) struct SharedPlan {
    pub(super) plan: Arc<PlannedWorkload>,
    pub(super) slots: Option<ReplaySlots>,
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
    /// instead of recomputing, and how many candidate plannings reused
    /// a memoized plan. Probes are keyed by *(device, circuit shape,
    /// strategy[, threshold])*, plans by *(device, epoch, optimize,
    /// strategy, member shapes)*; every entry is valid for exactly one
    /// calibration **epoch** of its device: a
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

    /// The plan-memo key of the member list `seqs` on device `d` under
    /// the head's `strategy` key, built in the (empty) vector handed in
    /// — the dispatch loop lends the same one to every pass and clones
    /// a key only into the memo.
    pub(super) fn plan_key(
        &self,
        d: usize,
        strategy: u32,
        seqs: &[usize],
        mut shapes: Vec<Shape>,
    ) -> Result<PlanKey, RuntimeError> {
        debug_assert!(shapes.is_empty());
        for &s in seqs {
            shapes.push(self.pending_by_seq(s)?.shape.clone());
        }
        Ok(PlanKey {
            device: d,
            epoch: self.registry.epoch(DeviceId::from_index(d)),
            optimize: self.optimize,
            strategy,
            shapes,
        })
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
