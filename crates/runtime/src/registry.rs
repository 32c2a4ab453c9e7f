//! The device registry and the routing policies: which chip of the
//! fleet a batch is dispatched to.
//!
//! The paper's queue argument is told for a single device; a cloud
//! provider runs many — and their calibrations differ by integer
//! factors day to day. A [`DeviceRegistry`] holds the static fleet;
//! per-device *runtime* state (clocks, busy accounting,
//! [`QueueStats`](crate::QueueStats)) lives inside the
//! [`Service`](crate::Service), which ranks the admitting candidates
//! for every batch by a [`RoutingChoice`], held by value:
//!
//! - [`RoutingChoice::EarliestFree`] (the default) scores a candidate
//!   by its clock — bit-for-bit the pre-seam dispatch rule
//!   (earliest-free device, registration order breaks ties), pinned by
//!   the service equivalence suite.
//! - [`RoutingChoice::CalibrationAware`] scores a candidate by the head
//!   circuit's solo-best EFS partition score on that chip (probed
//!   through the service's cross-batch cache; a chip with no placement
//!   for the head ranks last), blended with queue pressure: each
//!   nanosecond of extra wait over the earliest-free choice costs
//!   [`CalibrationAware::pressure_per_ns`] EFS units. A well-calibrated
//!   chip therefore wins until its backlog outweighs its quality edge.
//!
//! Scores are compared with `total_cmp` and ties always fall back to
//! the earliest-free order (free time, then registration index), so
//! routing stays deterministic for any pressure — even a NaN one:
//! [`RoutingChoice::score`] returns every NaN as `f64::NAN`, which
//! sorts after `+∞`, whatever sign the arithmetic left on it.
//!
//! ## Calibration epochs and cross-batch caching
//!
//! Planning work is memoized across batches in one map, the *plan
//! memo*, a pure function of calibration state: the allocation of
//! every ordered member list looked up and, for a list that committed
//! as a batch, its
//! [`PlannedWorkload`](qucp_core::pipeline::PlannedWorkload), keyed by
//! what allocation reads: *(device, **epoch**, ordered member
//! shapes)*, no threshold (the strategy is the service's one). The EFS gate reads its joint attempts
//! and each member's solo baseline there, and the partition probes behind
//! [`CalibrationAware`] and the head-only EFS gate read the lists of
//! head copies `[h]` and `[h; k]` there, so a stream of same-shape jobs
//! pays the candidate growth once per chip instead of once per batch. A
//! batch whose survivors committed before shares their plan
//! clone-free, skipping partitioning, mapping and merging entirely.
//!
//! The keys are those tuples themselves, compared by equality: a
//! *shape* is the handle a circuit's width and gate sequence were
//! interned to at submit (shared only after a gate-for-gate
//! comparison, dropped with its last pending job and cache key). No
//! entry is found by a hash of a `Debug` rendering, and none is
//! replayed because two hashes agreed.
//!
//! The fleet is *live*: calibrations change after build, through
//! [`Service::recalibrate`](crate::Service::recalibrate) (a fresh
//! snapshot arrives) or
//! [`Service::advance_drift`](crate::Service::advance_drift) (a
//! [`DriftModel`](qucp_device::DriftModel) ages them in simulated
//! time). A device is never edited in place: the registry holds each
//! behind an [`Arc`], and a change is one [`DeviceRegistry::install`]
//! of a new device ([`Device::with_state`]) that replaces the old `Arc`
//! — a batch staged on the old device keeps running on it. Every
//! install bumps that device's **calibration epoch** — a monotone
//! per-device counter readable via [`DeviceRegistry::epoch`].
//!
//! **Invalidation rules:** cached entries are valid for exactly one
//! epoch of their device. On an epoch bump the service drops every
//! entry keyed by that device (other
//! devices' entries survive — invalidation is per device, never
//! fleet-wide) and emits
//! [`Event::DeviceRecalibrated`](crate::Event::DeviceRecalibrated), so
//! the next dispatch re-probes and re-plans against the *current*
//! calibration. While a device's epoch stays put its entries stay
//! valid indefinitely — a frozen fleet (no drift model, no
//! recalibration calls) therefore behaves exactly like the
//! pre-live-fleet runtime: epochs stay 0 and entries never invalidate.
//! Entries carry the epoch **inside their key** as well as being
//! dropped eagerly on the bump, so a stale entry could not be read even
//! if a drop were missed — the eager drop is garbage collection.
//! Invalidations are observable via
//! [`Service::route_cache_stats`](crate::Service::route_cache_stats)
//! (`plan_invalidated`, which `invalidated` equals).

use std::sync::Arc;

use qucp_device::{Calibration, CrosstalkModel, Device};

/// Opaque handle of a registered device (its registration index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DeviceId(usize);

impl DeviceId {
    /// The registration index the id wraps.
    pub fn index(self) -> usize {
        self.0
    }

    /// Internal constructor for the service dispatch loop, which keys
    /// per-device runtime state by registration index.
    pub(crate) fn from_index(index: usize) -> Self {
        DeviceId(index)
    }
}

/// An ordered fleet of devices. Each device is an immutable value
/// behind an `Arc`, so a clone of the registry shares them.
///
/// ```
/// use qucp_device::ibm;
/// use qucp_runtime::DeviceRegistry;
///
/// let mut fleet = DeviceRegistry::new();
/// let toronto = fleet.register(ibm::toronto());
/// let melbourne = fleet.register(ibm::melbourne());
/// assert_eq!(fleet.len(), 2);
/// assert_eq!(fleet.get(toronto).num_qubits(), 27);
/// // A 20-qubit program only fits Toronto.
/// let admitting: Vec<_> = fleet.admitting(20).collect();
/// assert_eq!(admitting, vec![toronto]);
/// assert_ne!(toronto, melbourne);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DeviceRegistry {
    /// The current device of every registration index, each replaced
    /// whole by [`DeviceRegistry::install`].
    devices: Vec<Arc<Device>>,
    /// Per-device calibration epoch: bumped on every install, parallel
    /// to `devices`.
    epochs: Vec<u64>,
}

impl DeviceRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        DeviceRegistry::default()
    }

    /// A registry holding a single device.
    pub fn single(device: Device) -> Self {
        DeviceRegistry {
            devices: vec![Arc::new(device)],
            epochs: vec![0],
        }
    }

    /// Adds a device; later registrations lose routing ties. The new
    /// device starts at calibration epoch 0.
    pub fn register(&mut self, device: Device) -> DeviceId {
        let index = self.devices.len();
        self.devices.push(Arc::new(device));
        self.epochs.push(0);
        DeviceId(index)
    }

    /// The device's calibration epoch: 0 at registration, bumped once
    /// per [`DeviceRegistry::install`]. Cached planning probes are
    /// valid for exactly one epoch.
    ///
    /// # Panics
    ///
    /// Panics if `id` came from a different registry and is out of
    /// range.
    pub fn epoch(&self, id: DeviceId) -> u64 {
        self.epochs[id.0]
    }

    /// Replaces the device with the same chip under a new calibration
    /// state ([`Device::with_state`]), bumps its epoch unconditionally
    /// (a fresh snapshot is fresh information even when numerically
    /// identical) and returns the new epoch. Holders of the old device's
    /// `Arc` keep the old device.
    ///
    /// This is the raw swap: callers wanting validation (finite
    /// entries, topology coverage) and cache invalidation should go
    /// through [`Service::recalibrate`](crate::Service::recalibrate).
    ///
    /// # Panics
    ///
    /// Panics if the calibration's qubit count does not match the
    /// device or if `id` is out of range.
    pub fn install(
        &mut self,
        id: DeviceId,
        calibration: Calibration,
        crosstalk: CrosstalkModel,
    ) -> u64 {
        let device = &mut self.devices[id.0];
        *device = Arc::new(device.with_state(calibration, crosstalk));
        self.epochs[id.0] += 1;
        self.epochs[id.0]
    }

    /// Internal positional access for the service dispatch loop, which
    /// keys per-device runtime state by registration index.
    pub(crate) fn device_at(&self, index: usize) -> &Arc<Device> {
        &self.devices[index]
    }

    /// The device behind an id.
    ///
    /// # Panics
    ///
    /// Panics if `id` came from a different registry and is out of
    /// range.
    pub fn get(&self, id: DeviceId) -> &Device {
        &self.devices[id.0]
    }

    /// Number of registered devices.
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// Whether the fleet is empty.
    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }

    /// Ids and devices in registration order.
    pub fn iter(&self) -> impl Iterator<Item = (DeviceId, &Device)> {
        self.devices
            .iter()
            .enumerate()
            .map(|(i, d)| (DeviceId(i), &**d))
    }

    /// Ids of the devices whose topology admits a `width`-qubit
    /// program ([`Device::admits`]), in registration order.
    pub fn admitting(&self, width: usize) -> impl Iterator<Item = DeviceId> + '_ {
        self.iter()
            .filter(move |(_, device)| device.admits(width))
            .map(|(id, _)| id)
    }
}

/// What a routing policy reads of one admitting candidate when a batch
/// is dispatched.
#[derive(Debug, Clone, Copy)]
pub struct RouteQuery {
    /// When the candidate frees up (its clock, ns).
    pub free_at: f64,
    /// Earliest start of the batch head on this candidate:
    /// `max(free_at, head arrival)`.
    pub start: f64,
    /// The earliest `start` among all admitting candidates — the
    /// queue-pressure baseline: `start - best_start` is the extra wait
    /// this candidate costs over the earliest-free choice.
    pub best_start: f64,
    /// Solo-best EFS partition score of the head circuit on this
    /// candidate (lower is better), served from the service's
    /// cross-batch cache. `None` when the policy did not request it
    /// ([`RoutingChoice::wants_partition_score`]) or when the probe
    /// found no placement on this chip.
    pub partition_score: Option<f64>,
}

/// The parameter of [`RoutingChoice::CalibrationAware`]: prefer the
/// chip where the head circuit keeps the most fidelity, unless the
/// backlog there outweighs the quality edge.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CalibrationAware {
    /// EFS units one nanosecond of extra wait costs (relative to the
    /// earliest-free candidate). `0.0` routes purely by quality;
    /// `f64::INFINITY` restricts the choice to the earliest-starting
    /// candidates, quality (then the earliest-free tie-break) deciding
    /// among them.
    pub pressure_per_ns: f64,
}

impl CalibrationAware {
    /// Default queue-pressure weight: 2×10⁻⁶ EFS per ns, i.e. a chip
    /// must be ~0.1 EFS better to justify ~50 µs of extra queueing —
    /// the right order for the few-hundred-ns gate times and 10⁴–10⁵ ns
    /// batch makespans of the modeled IBM chips.
    pub const DEFAULT_PRESSURE_PER_NS: f64 = 2e-6;
}

impl Default for CalibrationAware {
    fn default() -> Self {
        CalibrationAware {
            pressure_per_ns: Self::DEFAULT_PRESSURE_PER_NS,
        }
    }
}

/// Ranks the admitting devices of the fleet for one batch dispatch: the
/// service's default ([`ServiceBuilder::routing`](crate::ServiceBuilder::routing))
/// and a job's override ([`JobRequest::with_routing`](crate::JobRequest::with_routing))
/// alike.
///
/// Semantics of an override: the override of the batch **head** routes
/// the whole batch (riders' overrides are ignored). A request without an
/// override routes with the service default, bit-for-bit — and an
/// explicit override equal to the service default is observationally
/// identical to no override (pinned by the campaign test suite). The
/// choice is a closed enum held by value, so requests stay
/// `Clone + PartialEq` and wire-encodable through the daemon protocol.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub enum RoutingChoice {
    /// Route to the earliest-free admitting device, registration order
    /// breaking ties: the pre-seam dispatch rule. Calibration-blind;
    /// the default, pinned bit-for-bit by the service equivalence
    /// suite.
    #[default]
    EarliestFree,
    /// Route by calibration quality blended with queue pressure.
    ///
    /// The score is `quality + pressure_per_ns · (start − best_start)`,
    /// where `quality` is the head's solo-best EFS partition score on
    /// the candidate (the same Eq.-1 metric that drives partitioning,
    /// probed through the service's cross-batch cache) and the pressure
    /// term converts extra waiting into EFS units. A candidate whose
    /// probe found **no placement** for the head scores `f64::INFINITY`:
    /// a planning attempt there can only refail with the same
    /// `PartitionUnavailable` the probe saw, so every placeable chip is
    /// tried first (the unplaceable ones stay last-resort, preserving
    /// the precise error-surfacing when *nothing* can place the job).
    CalibrationAware {
        /// EFS units one nanosecond of extra wait costs (see
        /// [`CalibrationAware::pressure_per_ns`]).
        pressure_per_ns: f64,
    },
}

impl From<CalibrationAware> for RoutingChoice {
    fn from(CalibrationAware { pressure_per_ns }: CalibrationAware) -> Self {
        RoutingChoice::CalibrationAware { pressure_per_ns }
    }
}

impl RoutingChoice {
    /// Display name (reports, telemetry events, benches).
    pub fn name(self) -> &'static str {
        match self {
            RoutingChoice::EarliestFree => "EarliestFree",
            RoutingChoice::CalibrationAware { .. } => "CalibrationAware",
        }
    }

    /// Whether the service should probe (and cache) the head circuit's
    /// solo-best partition score on every candidate before scoring: the
    /// probe costs a candidate growth per (device, circuit shape) on
    /// first sight, so only calibration-aware routing pays it.
    pub fn wants_partition_score(self) -> bool {
        matches!(self, RoutingChoice::CalibrationAware { .. })
    }

    /// Scores one admitting candidate; **lower is better**. A NaN score
    /// (a NaN pressure times a positive wait) is returned as
    /// `f64::NAN`, which `total_cmp` ranks after every number: a NaN
    /// of either sign ranks the waiting chip last, never first.
    pub fn score(self, query: &RouteQuery) -> f64 {
        let score = match self {
            RoutingChoice::EarliestFree => query.free_at,
            RoutingChoice::CalibrationAware { pressure_per_ns } => {
                // Probes were requested, so an absent score means the
                // probe found no placement for the head on this chip —
                // rank it behind every placeable candidate (planning
                // there could only refail with the probe's
                // PartitionUnavailable).
                let Some(quality) = query.partition_score else {
                    return f64::INFINITY;
                };
                let wait = query.start - query.best_start;
                // Charged only for a strictly positive wait: `pressure *
                // 0.0` would turn an infinite weight into NaN for the
                // very candidate the degenerate mode is meant to prefer.
                if wait > 0.0 {
                    quality + pressure_per_ns * wait
                } else {
                    quality
                }
            }
        };
        if score.is_nan() {
            f64::NAN
        } else {
            score
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qucp_device::ibm;

    #[test]
    fn routing_queries_are_deterministic() {
        let mut fleet = DeviceRegistry::new();
        assert!(fleet.is_empty());
        let mel = fleet.register(ibm::melbourne());
        let tor = fleet.register(ibm::toronto());
        let man = fleet.register(ibm::manhattan());
        assert_eq!(fleet.len(), 3);
        // A 14-qubit job fits everything, in registration order.
        assert_eq!(fleet.admitting(14).collect::<Vec<_>>(), vec![mel, tor, man]);
        // A 40-qubit job only fits Manhattan (65q).
        assert_eq!(fleet.admitting(40).collect::<Vec<_>>(), vec![man]);
        assert_eq!(fleet.admitting(99).count(), 0);
        assert_eq!(fleet.get(tor).name(), ibm::toronto().name());
        assert_eq!(fleet.iter().count(), 3);
    }

    /// Registered out of width order, two of them of equal width: the
    /// admitting devices come in registration order.
    #[test]
    fn admitting_is_in_registration_order() {
        let mut fleet = DeviceRegistry::new();
        let tor = fleet.register(ibm::toronto());
        let man = fleet.register(ibm::manhattan());
        let mel = fleet.register(ibm::melbourne());
        let man2 = fleet.register(ibm::manhattan());
        let admitting = |width| fleet.admitting(width).collect::<Vec<_>>();
        assert_eq!(admitting(15), vec![tor, man, mel, man2]);
        assert_eq!(admitting(16), vec![tor, man, man2]);
        assert_eq!(admitting(28), vec![man, man2]);
        assert_eq!(admitting(0), vec![], "no device admits width 0");
        let single = DeviceRegistry::single(ibm::melbourne());
        assert_eq!(single.admitting(15).collect::<Vec<_>>(), [DeviceId(0)]);
    }

    #[test]
    fn epochs_bump_on_calibration_mutation_only() {
        let mut fleet = DeviceRegistry::new();
        let tor = fleet.register(ibm::toronto());
        let mel = fleet.register(ibm::melbourne());
        assert_eq!(fleet.epoch(tor), 0);
        assert_eq!(fleet.epoch(mel), 0);
        // An install bumps only the touched device, and replaces it.
        let before = fleet.get(tor).clone();
        let mut cal = before.calibration().clone();
        cal.set_readout_error(0, 0.3);
        assert_eq!(fleet.install(tor, cal, before.crosstalk().clone()), 1);
        assert_eq!(fleet.epoch(tor), 1);
        assert_eq!(fleet.epoch(mel), 0);
        assert_eq!(fleet.get(tor).calibration().readout_error(0), 0.3);
        assert_ne!(before.calibration().readout_error(0), 0.3);
        assert_eq!(fleet.get(tor).name(), before.name());
        // An install bumps unconditionally, even of the same state.
        let same = fleet.get(tor).calibration().clone();
        let xt = fleet.get(tor).crosstalk().clone();
        assert_eq!(fleet.install(tor, same, xt), 2);
        assert_eq!(fleet.epoch(tor), 2);
    }

    #[test]
    #[should_panic(expected = "calibration does not match topology")]
    fn mismatched_recalibration_panics_at_registry_level() {
        let mut fleet = DeviceRegistry::new();
        let tor = fleet.register(ibm::toronto());
        let wrong = ibm::melbourne();
        fleet.install(tor, wrong.calibration().clone(), wrong.crosstalk().clone());
    }

    fn query(free_at: f64, start: f64, score: Option<f64>) -> RouteQuery {
        RouteQuery {
            free_at,
            start,
            best_start: 100.0,
            partition_score: score,
        }
    }

    #[test]
    fn earliest_free_scores_by_clock_only() {
        let policy = RoutingChoice::EarliestFree;
        assert!(!policy.wants_partition_score());
        assert_eq!(policy.score(&query(7.0, 100.0, Some(0.9))), 7.0);
        assert_eq!(policy.score(&query(0.0, 500.0, None)), 0.0);
    }

    #[test]
    fn calibration_aware_blends_quality_and_pressure() {
        let policy = RoutingChoice::CalibrationAware {
            pressure_per_ns: 1e-3,
        };
        assert!(policy.wants_partition_score());
        // At the earliest-free start, the score is pure quality.
        let base = policy.score(&query(0.0, 100.0, Some(0.25)));
        assert!((base - 0.25).abs() < 1e-12);
        // Every ns past the best start costs pressure_per_ns.
        let pressured = policy.score(&query(0.0, 300.0, Some(0.25)));
        assert!((pressured - (0.25 + 0.2)).abs() < 1e-12);
    }

    #[test]
    fn infinite_pressure_degenerates_to_earliest_start() {
        // INF · 0 would be NaN: the earliest-start candidate must keep
        // its finite quality score while every later start scores +∞.
        let policy = RoutingChoice::CalibrationAware {
            pressure_per_ns: f64::INFINITY,
        };
        let at_best_start = policy.score(&query(0.0, 100.0, Some(0.3)));
        assert_eq!(at_best_start, 0.3);
        assert_eq!(policy.score(&query(0.0, 100.5, Some(0.3))), f64::INFINITY);
    }

    #[test]
    fn calibration_aware_ranks_unplaceable_chips_last() {
        // An absent partition score means "probed, no placement": the
        // chip must lose to any placeable candidate, however bad its
        // calibration — planning there could only refail.
        let policy = RoutingChoice::from(CalibrationAware::default());
        assert_eq!(policy.score(&query(0.0, 100.0, None)), f64::INFINITY);
        let terrible_but_placeable = policy.score(&query(0.0, 100.0, Some(1e6)));
        assert!(terrible_but_placeable < f64::INFINITY);
    }

    #[test]
    fn a_nan_score_of_either_sign_ranks_after_infinity() {
        for pressure_per_ns in [f64::NAN, -f64::NAN] {
            let policy = RoutingChoice::CalibrationAware { pressure_per_ns };
            let waiting = policy.score(&query(0.0, 300.0, Some(0.25)));
            assert_eq!(waiting.to_bits(), f64::NAN.to_bits());
            assert!(waiting.total_cmp(&f64::INFINITY).is_gt());
            // No wait, no pressure term: the quality stands.
            assert_eq!(policy.score(&query(0.0, 100.0, Some(0.25))), 0.25);
        }
    }

    #[test]
    fn names_are_the_event_strings() {
        let aware = RoutingChoice::from(CalibrationAware::default());
        assert_eq!(RoutingChoice::default().name(), "EarliestFree");
        assert_eq!(aware.name(), "CalibrationAware");
    }
}
