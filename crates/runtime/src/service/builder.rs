//! [`ServiceBuilder`]: the service's configuration surface and its
//! validation.

use qucp_core::{strategy, CrosstalkTreatment, PartitionPolicy, Strategy};
use qucp_device::{Device, DriftModel};

use super::dispatch::{DispatchScratch, RoutingNames};
use super::route_cache::RouteCache;
use super::{DeviceState, EfsGate, Service};
use crate::error::RuntimeError;
use crate::event::EventLog;
use crate::pending::JobTable;
use crate::policy::AdmissionPolicy;
use crate::registry::{DeviceRegistry, RoutingChoice};
use crate::shape::ShapeTable;

/// Builds a [`Service`]; validation happens in [`ServiceBuilder::build`].
pub struct ServiceBuilder {
    registry: DeviceRegistry,
    strategy: Strategy,
    policy: AdmissionPolicy,
    routing: RoutingChoice,
    max_parallel: usize,
    fidelity_threshold: Option<f64>,
    seed: u64,
    optimize: bool,
    efs_gate: EfsGate,
    default_shots: usize,
    drift: Option<Box<dyn DriftModel>>,
    event_capacity: Option<usize>,
}

impl std::fmt::Debug for ServiceBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServiceBuilder")
            .field("devices", &self.registry.len())
            .field("strategy", &self.strategy.name)
            .field("policy", &self.policy)
            .field("routing", &self.routing)
            .field("max_parallel", &self.max_parallel)
            .field("fidelity_threshold", &self.fidelity_threshold)
            .field("seed", &self.seed)
            .field("optimize", &self.optimize)
            .field("efs_gate", &self.efs_gate)
            .field("default_shots", &self.default_shots)
            .field("drift", &self.drift)
            .finish_non_exhaustive()
    }
}

impl Default for ServiceBuilder {
    fn default() -> Self {
        ServiceBuilder::new()
    }
}

impl ServiceBuilder {
    /// A builder with an empty fleet, QuCP strategy, FIFO admission,
    /// earliest-free routing, at most 4 jobs to a batch, no default
    /// fidelity threshold, seed `0x5EED`, the cancellation pass on, the
    /// head-only EFS gate, and 1024 default shots.
    pub fn new() -> Self {
        ServiceBuilder {
            registry: DeviceRegistry::new(),
            strategy: strategy::qucp(strategy::DEFAULT_SIGMA),
            policy: AdmissionPolicy::Fifo,
            routing: RoutingChoice::EarliestFree,
            max_parallel: 4,
            fidelity_threshold: None,
            seed: 0x5EED,
            optimize: true,
            efs_gate: EfsGate::default(),
            default_shots: 1024,
            drift: None,
            event_capacity: None,
        }
    }

    /// Registers a device (repeatable; registration order breaks
    /// routing ties).
    #[must_use]
    pub fn device(mut self, device: Device) -> Self {
        self.registry.register(device);
        self
    }

    /// Replaces the whole fleet at once.
    #[must_use]
    pub fn registry(mut self, registry: DeviceRegistry) -> Self {
        self.registry = registry;
        self
    }

    /// Sets the execution strategy: it plans every batch.
    #[must_use]
    pub fn strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Sets the admission policy (a [`Backfill`](crate::Backfill)
    /// converts into its variant).
    #[must_use]
    pub fn policy(mut self, policy: impl Into<AdmissionPolicy>) -> Self {
        self.policy = policy.into();
        self
    }

    /// Sets the routing policy deciding which admitting device each
    /// batch dispatches to. [`RoutingChoice::EarliestFree`] (the
    /// default) is bit-for-bit the pre-seam dispatch rule; a
    /// [`CalibrationAware`](crate::CalibrationAware) (which converts
    /// into its variant) routes by the head circuit's calibration
    /// quality blended with queue pressure.
    #[must_use]
    pub fn routing(mut self, routing: impl Into<RoutingChoice>) -> Self {
        self.routing = routing.into();
        self
    }

    /// Caps the co-schedule width (1 = dedicated mode).
    #[must_use]
    pub fn max_parallel(mut self, max_parallel: usize) -> Self {
        self.max_parallel = max_parallel;
        self
    }

    /// Sets the default EFS fidelity threshold (`None` disables the
    /// gate for jobs without their own override).
    #[must_use]
    pub fn fidelity_threshold(mut self, threshold: Option<f64>) -> Self {
        self.fidelity_threshold = threshold;
        self
    }

    /// Chooses how the threshold gate evaluates a batch.
    #[must_use]
    pub fn efs_gate(mut self, gate: EfsGate) -> Self {
        self.efs_gate = gate;
        self
    }

    /// Sets the base RNG seed: batch `b`, program `i` derive their
    /// trajectory seeds from `(seed, b, i)` only.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enables or disables the cancellation peephole pass, which folds
    /// each circuit once, at submit (default: enabled).
    #[must_use]
    pub fn optimize(mut self, optimize: bool) -> Self {
        self.optimize = optimize;
        self
    }

    /// Default shot budget for requests without an override.
    #[must_use]
    pub fn default_shots(mut self, shots: usize) -> Self {
        self.default_shots = shots;
        self
    }

    /// Attaches a fleet-wide calibration [`DriftModel`]: every device
    /// ages along its own deterministic trajectory (salted by
    /// registration index) as the caller advances simulated time with
    /// [`Service::advance_drift`]. Without a model the fleet stays
    /// frozen — `advance_drift` is then a no-op.
    #[must_use]
    pub fn drift(mut self, model: impl DriftModel + 'static) -> Self {
        self.drift = Some(Box::new(model));
        self
    }

    /// Bounds the retained event log (see the [`EventLog`] capacity
    /// contract): `None` — the default — retains every event for the
    /// service's lifetime, bit-for-bit the prior behaviour;
    /// `Some(capacity)` keeps only the `capacity` most-recent events
    /// live and counts the rest in
    /// [`ServiceReport::dropped_events`](crate::ServiceReport::dropped_events).
    #[must_use]
    pub fn event_capacity(mut self, capacity: Option<usize>) -> Self {
        self.event_capacity = capacity;
        self
    }

    /// Validates the configuration and builds the service.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::NoDevices`] on an empty fleet,
    /// [`RuntimeError::ZeroParallel`] on a zero batch cap,
    /// [`RuntimeError::ZeroShots`] on a zero default shot budget,
    /// [`RuntimeError::InvalidThreshold`] on a NaN, infinite or
    /// negative default threshold, [`RuntimeError::InvalidStrategy`] on
    /// a strategy with a NaN or infinite crosstalk factor.
    pub fn build(self) -> Result<Service, RuntimeError> {
        if self.registry.is_empty() {
            return Err(RuntimeError::NoDevices);
        }
        if self.max_parallel == 0 {
            return Err(RuntimeError::ZeroParallel);
        }
        if self.default_shots == 0 {
            return Err(RuntimeError::ZeroShots);
        }
        if let Some(t) = self.fidelity_threshold {
            if !t.is_finite() || t < 0.0 {
                return Err(RuntimeError::InvalidThreshold { value: t });
            }
        }
        if let Some(value) = non_finite_factor(&self.strategy) {
            return Err(RuntimeError::InvalidStrategy { value });
        }
        let states = vec![DeviceState::default(); self.registry.len()];
        let drift_steps = vec![0u64; self.registry.len()];
        Ok(Service {
            strategy: self.strategy,
            policy: self.policy,
            routing: self.routing,
            routing_names: RoutingNames::default(),
            max_parallel: self.max_parallel,
            fidelity_threshold: self.fidelity_threshold,
            seed: self.seed,
            optimize: self.optimize,
            efs_gate: self.efs_gate,
            default_shots: self.default_shots,
            registry: self.registry,
            states,
            jobs: JobTable::default(),
            shapes: ShapeTable::default(),
            batches: Vec::new(),
            unreported: Vec::new(),
            route_cache: RouteCache::default(),
            scratch: DispatchScratch::default(),
            log: EventLog::with_capacity_limit(self.event_capacity),
            drift: self.drift,
            drift_steps,
            exec_ns: 0,
            plan_ns: 0,
        })
    }
}

/// The first NaN or infinite crosstalk factor of `strategy` — QuCP's σ
/// or a measured QuMC ratio — if it has one.
fn non_finite_factor(strategy: &Strategy) -> Option<f64> {
    match &strategy.partition {
        PartitionPolicy::NoiseAware(CrosstalkTreatment::Sigma(sigma)) => Some(*sigma),
        PartitionPolicy::NoiseAware(CrosstalkTreatment::Measured(ratios)) => {
            ratios.values().copied().find(|r| !r.is_finite())
        }
        _ => None,
    }
    .filter(|value| !value.is_finite())
}
