//! The cross-batch planning cache: the plan memo — the allocation of
//! every member list the EFS gate or a probe looked up, and the
//! completed plan and prepared simulator state of every list that
//! committed as a batch — with the typed key it lives under, and the
//! two probes that read it.
//!
//! Every key is the literal tuple of what its entry is a function of —
//! device index, calibration epoch and the interned [`Shape`] handles
//! of the members' circuits as their batch runs them (folded at
//! submit) — with derived `Hash + Eq`; the strategy is the service's
//! one, fixed for the memo's life. The map's hash only finds the
//! bucket; an entry is used because its key
//! *equals* the lookup's, and shape handles are equal only for
//! gate-by-gate equal circuits (see [`crate::shape`]). A threshold is no
//! input of an entry: it decides which lists the gate and the copy-count
//! probe visit (see [`super::gate`]), never what a list allocates. The
//! probes read lists of head copies: `[h]` and, for the Fig. 4 walk, `[h; k]`.

use std::collections::HashMap;
use std::convert::Infallible;
use std::sync::{Arc, OnceLock};

use qucp_core::pipeline::PlannedWorkload;
use qucp_core::threshold::{copies_within_threshold, mean_efs_score};
use qucp_core::{allocate_partitions_in, Allocation, CoreError, PlanScratch};
use qucp_sim::PreparedJob;

use super::dispatch::HeadContext;
use super::Service;
use crate::error::RuntimeError;
use crate::registry::DeviceId;
use crate::shape::Shape;

/// Observable statistics of the service's cross-batch planning cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouteCacheStats {
    /// Probes — a routing score or a head-only copy count — that
    /// allocated no list: every list they read was memoized.
    pub hits: usize,
    /// Probes that allocated at least one list.
    pub misses: usize,
    /// Entries currently cached: the plan memo is the one map, so this
    /// always equals `plan_entries`. Kept, like `invalidated`, because
    /// v1/v2 clients decode only the first four fields.
    pub entries: usize,
    /// Entries dropped by calibration-epoch invalidations (0 on a
    /// frozen fleet): always equal to `plan_invalidated`.
    pub invalidated: usize,
    /// Candidate plannings whose outcome came from the memo: the
    /// surviving members' completed plan was reused, or the head's
    /// memoized placement failure was re-bound to the current head.
    pub plan_hits: usize,
    /// Candidate plannings that routed and merged their surviving
    /// members (or found the head unplaceable afresh).
    pub plan_misses: usize,
    /// Member lists currently memoized: every joint attempt and every
    /// one-member solo baseline the EFS gate allocated, and every list of
    /// head copies a probe allocated, at its device's current epoch,
    /// whether or not the list committed as a batch.
    pub plan_entries: usize,
    /// Memoized member lists dropped by calibration-epoch
    /// invalidations. The epoch is also part of the plan *key*, so a
    /// stale-epoch entry could not be used even if a drop were missed.
    pub plan_invalidated: usize,
}

/// Cross-batch memo of the planning work the dispatch loop repeats for
/// similar jobs: one entry per member list — the EFS gate's and the
/// probes' alike. Every entry is a pure function of its key **at a fixed
/// calibration epoch**: it is valid for exactly one epoch of its device,
/// and the service drops a device's entries whenever its epoch bumps
/// (recalibration or a changing drift step). A frozen fleet never
/// bumps, so its entries live for the service's lifetime.
#[derive(Debug, Default)]
pub(super) struct RouteCache {
    /// The plan memo by [`PlanKey`]: one entry per ordered member list
    /// looked up — a joint attempt, a member's one-member solo baseline
    /// or a probe's copies of the head — holding its allocation
    /// (placement errors included: allocation is deterministic either
    /// way) and, once the list committed as a batch, its completed plan.
    /// Only a list not yet seen at the device's epoch reaches the
    /// allocator, and a survivor set is routed, merged and prepared once
    /// per epoch.
    pub(super) plans: HashMap<PlanKey, PlanEntry>,
    /// The probes' key shapes, lent to each probe and left empty.
    probe: Vec<Shape>,
    pub(super) hits: usize,
    pub(super) misses: usize,
    pub(super) plan_hits: usize,
    pub(super) plan_misses: usize,
    pub(super) plan_invalidated: usize,
}

/// What stage 1 — and so every plan-memo entry — is a function of. Job
/// ids, names, thresholds and the batch index are deliberately not:
/// the gate reads thresholds on every pass, and the commit re-binds the
/// rest. Nor are the service's strategy and optimize flag: both are
/// fixed for the service's life (and so for its memo's), and a circuit
/// is folded before its shape is interned.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub(super) struct PlanKey {
    pub(super) device: usize,
    /// The device's calibration epoch, so a stale entry could not be
    /// used even if the eager drop on the bump were missed.
    pub(super) epoch: u64,
    /// The members' shapes, in list order.
    pub(super) shapes: Vec<Shape>,
}

/// One memoized member list (see [`RouteCache::plans`]).
///
/// An entry lives for one calibration epoch of its device: its key
/// holds the epoch and the bump drops it. Everything it holds is
/// therefore valid by the key — the allocation, the plan, and the
/// [`PreparedJob`]s, which are a pure function of the plan, the
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
    /// The list's allocation, wherever the entry keeps it, or a copy of
    /// its placement error.
    pub(super) fn allocations(&self) -> Result<&[Allocation], CoreError> {
        match self {
            PlanEntry::Allocated(outcome) => outcome.as_deref().map_err(Clone::clone),
            PlanEntry::Planned { plan, .. } => Ok(&plan.allocations),
        }
    }
}

/// The prepared-state slots of one cached plan, one per program in
/// plan order: filled at most once each, by the batch execution that
/// first finds them empty, and replayed by every later one (see
/// `StagedBatch::execute`).
pub(super) type ReplaySlots = Arc<[OnceLock<PreparedJob>]>;

/// A batch's plan as staging hands it to execution: the (fresh or
/// reused) plan behind the `Arc` its memo entry shares, and the entry's
/// slots on a hit (`None` on a miss: a plan's first execution keeps
/// nothing).
pub(super) struct SharedPlan {
    pub(super) plan: Arc<PlannedWorkload>,
    pub(super) slots: Option<ReplaySlots>,
}

impl RouteCache {
    /// What `read` makes of the memo entry under `key`, and whether the
    /// memo held it: the one lookup of every list the gate and the probes
    /// read. A miss runs stage 1 — `allocate`, which fails only if it
    /// cannot find its circuits — and memoizes the outcome.
    pub(super) fn memoized<T, E>(
        &mut self,
        key: &PlanKey,
        allocate: impl FnOnce() -> Result<Result<Vec<Allocation>, CoreError>, E>,
        read: impl FnOnce(&PlanEntry) -> T,
    ) -> Result<(bool, T), E> {
        if let Some(entry) = self.plans.get(key) {
            return Ok((true, read(entry)));
        }
        let entry = PlanEntry::Allocated(allocate()?);
        let value = read(&entry);
        self.plans.insert(key.clone(), entry);
        Ok((false, value))
    }

    /// Drops every entry keyed by `device_index` (one device's epoch
    /// bumped; other devices' entries stay valid) and returns how many
    /// entries were dropped.
    pub(super) fn invalidate_device(&mut self, device_index: usize) -> usize {
        let before = self.plans.len();
        self.plans.retain(|k, _| k.device != device_index);
        let dropped = before - self.plans.len();
        self.plan_invalidated += dropped;
        dropped
    }
}

impl Service {
    /// Statistics of the cross-batch planning cache: how many probes
    /// the dispatch loop answered from the memo without allocating, and
    /// how many candidate plannings reused a memoized plan. Every entry
    /// is one member list keyed by *(device, epoch, member shapes)* and
    /// valid for exactly one calibration **epoch** of its device: a
    /// [`Service::recalibrate`] or a changing
    /// [`Service::advance_drift`] step bumps the device's epoch and drops
    /// that device's entries, counted in
    /// [`RouteCacheStats::plan_invalidated`]. With one map,
    /// [`RouteCacheStats::entries`] / [`RouteCacheStats::invalidated`]
    /// equal `plan_entries` / `plan_invalidated`. On a frozen fleet
    /// epochs never bump and entries live for the service's lifetime.
    pub fn route_cache_stats(&self) -> RouteCacheStats {
        let cache = &self.route_cache;
        RouteCacheStats {
            hits: cache.hits,
            misses: cache.misses,
            entries: cache.plans.len(),
            invalidated: cache.plan_invalidated,
            plan_hits: cache.plan_hits,
            plan_misses: cache.plan_misses,
            plan_entries: cache.plans.len(),
            plan_invalidated: cache.plan_invalidated,
        }
    }

    /// The plan-memo key of the member list `seqs` on device `d`, built
    /// in the (empty) vector handed in — the dispatch loop lends the
    /// same one to every pass and clones a key only into the memo.
    pub(super) fn plan_key(
        &self,
        d: usize,
        seqs: &[usize],
        mut shapes: Vec<Shape>,
    ) -> Result<PlanKey, RuntimeError> {
        debug_assert!(shapes.is_empty());
        for &s in seqs {
            shapes.push(self.jobs.get(s)?.shape.clone());
        }
        Ok(PlanKey {
            device: d,
            epoch: self.registry.epoch(DeviceId::from_index(d)),
            shapes,
        })
    }

    /// The head circuit's solo-best EFS partition score on device `d`:
    /// the entry of its one-member list `[h]`, under the key of the EFS
    /// gate's solo baseline; `None` if the head has no placement there.
    /// A miss allocates on `planning`'s buffers.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::QueueCorrupted`] if the head is not queued.
    pub(super) fn cached_solo_score(
        &mut self,
        planning: &mut PlanScratch,
        head: &HeadContext,
        d: usize,
    ) -> Result<Option<f64>, RuntimeError> {
        self.probe_copies(planning, head, d, |mean_score| mean_score(1).ok())
    }

    /// The head-only EFS gate's admissible copy count on device `d`:
    /// the Fig. 4 walk over the entries of `[h]` and `[h; k]` — the inner
    /// result, planning errors included.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::QueueCorrupted`] if the head is not queued.
    pub(super) fn cached_head_cap(
        &mut self,
        planning: &mut PlanScratch,
        head: &HeadContext,
        d: usize,
        threshold: f64,
    ) -> Result<Result<usize, CoreError>, RuntimeError> {
        let k_max = self.max_parallel;
        self.probe_copies(planning, head, d, |mean_score| {
            copies_within_threshold(threshold, k_max, mean_score)
        })
    }

    /// One probe on device `d`: `walk` reads `mean_score(k)`, the mean
    /// EFS score of `k` copies of the head allocated together — the memo
    /// entry of `[h; k]`, allocated on a miss from the pending circuit,
    /// borrowed `k` times. The probe is a hit if it allocated no list.
    fn probe_copies<T>(
        &mut self,
        planning: &mut PlanScratch,
        head: &HeadContext,
        d: usize,
        walk: impl FnOnce(&mut dyn FnMut(usize) -> Result<f64, CoreError>) -> T,
    ) -> Result<T, RuntimeError> {
        let shapes = std::mem::take(&mut self.route_cache.probe);
        let mut key = self.plan_key(d, &[], shapes)?;
        let circuit = &self.jobs.get(head.seq)?.circuit;
        let (device, partition) = (self.registry.device_at(d), &self.strategy.partition);
        let cache = &mut self.route_cache;
        let mut allocated = false;
        let value = walk(&mut |k| {
            key.shapes.clear();
            key.shapes.resize(k, head.shape.clone());
            let copies = || {
                let copy = |_| circuit;
                Ok::<_, Infallible>(allocate_partitions_in(planning, device, k, copy, partition))
            };
            let read = |entry: &PlanEntry| entry.allocations().map(mean_efs_score);
            let Ok((found, score)) = cache.memoized(&key, copies, read);
            allocated |= !found;
            score
        });
        key.shapes.clear();
        cache.probe = key.shapes;
        cache.misses += usize::from(allocated);
        cache.hits += usize::from(!allocated);
        Ok(value)
    }
}
