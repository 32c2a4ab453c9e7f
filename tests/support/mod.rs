//! Shared test support: the naive [`ReferenceScheduler`] oracle, the
//! generators that drive it ([`arbitrary`]), and the differential
//! harness [`assert_matches_reference`] — production `Service` against
//! the reference, op by op, bit for bit.
//!
//! Included with `mod support;` by every integration suite that
//! compares against the oracle; each uses a different subset.
#![allow(dead_code)]

pub mod arbitrary;
pub mod fleet;
pub mod ledger;
pub mod reference;

use qucp_circuit::{library, Circuit};
use qucp_core::{strategy, Strategy};
use qucp_device::{ibm, Calibration, CrosstalkModel, Device, DriftModel, GaussianWalk, Topology};
use qucp_runtime::{
    AdmissionPolicy, DeviceId, DeviceRegistry, EfsGate, JobRequest, JobTicket, RoutingChoice,
    Service, ServiceReport,
};

pub use reference::ReferenceScheduler;

/// The fleets the suite schedules on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Fleet {
    /// One Melbourne (15 qubits).
    Melbourne,
    /// One Toronto (27 qubits).
    Toronto,
    /// Melbourne (15 qubits) then Toronto (27).
    MelbourneToronto,
    /// `qucp_bench::skewed_fleet`: the noisy Toronto twin, then Toronto.
    Skewed,
    /// `qucp_bench::mega_fleet` of this many chips (8/12/16/27 qubits).
    Mega(usize),
    /// One chip of eight qubits in two disconnected lines of four: a
    /// job of five to eight qubits fits it by count, but no connected
    /// region holds it.
    Split,
}

impl Fleet {
    pub fn build(self) -> DeviceRegistry {
        let of = |devices: Vec<Device>| {
            let mut fleet = DeviceRegistry::new();
            for device in devices {
                fleet.register(device);
            }
            fleet
        };
        match self {
            Fleet::Melbourne => of(vec![ibm::melbourne()]),
            Fleet::Toronto => of(vec![ibm::toronto()]),
            Fleet::MelbourneToronto => of(vec![ibm::melbourne(), ibm::toronto()]),
            Fleet::Skewed => qucp_bench::skewed_fleet(),
            Fleet::Mega(n) => qucp_bench::mega_fleet(n, qucp_bench::EXPERIMENT_SEED),
            Fleet::Split => {
                let lines = [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7)];
                let topology = Topology::new(8, &lines);
                let calibration = Calibration::uniform(&topology, 0.01, 0.001, 0.02);
                let chip = Device::new("split", topology, calibration, CrosstalkModel::none());
                of(vec![chip])
            }
        }
    }
}

/// A deterministic cross-fade: the device with salt 0 (the noisy twin
/// of the skewed fleet) improves by `1/rate` per step while every other
/// device degrades by `rate`, so the fleet's quality order flips at a
/// predictable step. No RNG.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeesawDrift {
    pub rate: f64,
    pub interval_ns: f64,
}

impl DriftModel for SeesawDrift {
    fn steps_at(&self, now: f64) -> u64 {
        qucp_device::interval_steps(now, self.interval_ns)
    }

    fn apply_step(
        &self,
        _: u64,
        salt: u64,
        cal: &mut Calibration,
        xt: &mut CrosstalkModel,
    ) -> bool {
        let factor = if salt == 0 {
            1.0 / self.rate
        } else {
            self.rate
        };
        let mut changed = false;
        let mut scale = |v: &mut f64| {
            let next = (*v * factor).clamp(1e-6, 0.45);
            changed |= next != *v;
            *v = next;
        };
        cal.cx_errors_mut().for_each(|(_, e)| scale(e));
        cal.sq_errors_mut().iter_mut().for_each(&mut scale);
        cal.readout_errors_mut().iter_mut().for_each(&mut scale);
        for (_, g) in xt.gammas_mut() {
            let next = (1.0 + (*g - 1.0) * factor).clamp(1.0, 64.0);
            changed |= next != *g;
            *g = next;
        }
        changed
    }
}

/// A [`GaussianWalk`] that writes a NaN at `step` on the device salted
/// `salt`: every earlier step and every other device drifts normally,
/// so an advance across `step` must roll exactly that step back.
#[derive(Debug, Clone, Copy)]
pub struct PoisonAt {
    pub walk: GaussianWalk,
    pub step: u64,
    pub salt: u64,
}

impl DriftModel for PoisonAt {
    fn steps_at(&self, now: f64) -> u64 {
        self.walk.steps_at(now)
    }

    fn apply_step(
        &self,
        step: u64,
        salt: u64,
        cal: &mut Calibration,
        xt: &mut CrosstalkModel,
    ) -> bool {
        if step >= self.step && salt == self.salt {
            cal.set_readout_error(0, f64::NAN);
            return true;
        }
        self.walk.apply_step(step, salt, cal, xt)
    }
}

/// The drift processes, as data.
#[derive(Debug, Clone, Copy)]
pub enum Drift {
    None,
    Walk(GaussianWalk),
    Seesaw(SeesawDrift),
    Poison(PoisonAt),
}

impl Drift {
    pub fn boxed(self) -> Option<Box<dyn DriftModel>> {
        match self {
            Drift::None => None,
            Drift::Walk(m) => Some(Box::new(m)),
            Drift::Seesaw(m) => Some(Box::new(m)),
            Drift::Poison(m) => Some(Box::new(m)),
        }
    }
}

/// Everything both schedulers are configured with.
#[derive(Debug, Clone)]
pub struct Config {
    pub fleet: Fleet,
    pub policy: AdmissionPolicy,
    pub routing: RoutingChoice,
    pub gate: EfsGate,
    pub threshold: Option<f64>,
    pub strategy: Strategy,
    pub max_parallel: usize,
    pub default_shots: usize,
    pub seed: u64,
    pub optimize: bool,
    pub drift: Drift,
    pub event_capacity: Option<usize>,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            fleet: Fleet::Toronto,
            policy: AdmissionPolicy::Fifo,
            routing: RoutingChoice::EarliestFree,
            gate: EfsGate::HeadOnly,
            threshold: None,
            strategy: strategy::qucp(4.0),
            max_parallel: 3,
            default_shots: 8,
            seed: 42,
            optimize: true,
            drift: Drift::None,
            event_capacity: None,
        }
    }
}

impl Config {
    /// The production service under this configuration.
    pub fn service(&self) -> Service {
        let builder = Service::builder()
            .registry(self.fleet.build())
            .strategy(self.strategy.clone())
            .policy(self.policy)
            .routing(self.routing)
            .efs_gate(self.gate)
            .fidelity_threshold(self.threshold)
            .max_parallel(self.max_parallel)
            .default_shots(self.default_shots)
            .seed(self.seed)
            .optimize(self.optimize)
            .event_capacity(self.event_capacity);
        let builder = match self.drift {
            Drift::None => builder,
            Drift::Walk(m) => builder.drift(m),
            Drift::Seesaw(m) => builder.drift(m),
            Drift::Poison(m) => builder.drift(m),
        };
        builder
            .build()
            .expect("the suite's configurations are valid")
    }
}

/// A library circuit (or, for names `ghz<N>`, an `N`-qubit GHZ chain;
/// for names `<base>+cx_cx`, the circuit `<base>` followed by the
/// adjacent inverse pair `cx 0 1; cx 0 1`, which the peephole fold
/// removes) renamed `label` — names never influence scheduling, only
/// reports.
pub fn circuit(name: &str, label: impl Into<String>) -> Circuit {
    let mut circuit = if let Some(width) = name.strip_prefix("ghz") {
        let width: usize = width.parse().expect("ghz<N>");
        let mut c = Circuit::new(width);
        c.h(0);
        for q in 1..width {
            c.cx(q - 1, q);
        }
        c
    } else if let Some(base) = name.strip_suffix("+cx_cx") {
        let mut c = circuit(base, "");
        c.cx(0, 1).cx(0, 1);
        c
    } else {
        library::by_name(name).expect("library benchmark").circuit()
    };
    circuit.set_name(label);
    circuit
}

/// One step of a differential run. Device and ticket operands are
/// taken modulo what exists, so any generated value is meaningful.
#[derive(Debug, Clone)]
pub enum Op {
    Submit(JobRequest),
    Tick(f64),
    AdvanceDispatch(f64),
    AdvanceDrift(f64),
    /// Install `donor`'s current calibration, readout errors scaled by
    /// `scale`, on `device` (a NaN scale or a foreign donor must be
    /// rejected with the same typed error on both sides).
    Recalibrate {
        device: usize,
        donor: usize,
        scale: f64,
    },
    TakeResult(usize),
    Drain,
}

/// What a differential run leaves behind, for scenario-specific
/// assertions on top of the equivalence.
pub struct Outcome {
    pub service: Service,
    /// The final drained report (`None` when the drain failed — with
    /// the same error on both sides).
    pub report: Option<ServiceReport>,
}

/// Runs `ops`, then a final drain, on a production [`Service`] and on a
/// [`ReferenceScheduler`] under `cfg`, asserting after every op that
/// both returned the same value (tickets, claimed results, epochs,
/// typed errors, reports) and hold the same event log, queue depth and
/// fleet calibration state — bit for bit. `RouteCacheStats` are
/// production mechanism and deliberately not compared.
pub fn assert_matches_reference(ops: &[Op], cfg: &Config) -> Outcome {
    let mut service = cfg.service();
    let mut reference = ReferenceScheduler::new(cfg);
    let mut tickets: Vec<JobTicket> = Vec::new();
    let mut report = None;
    let device = |i: usize, fleet: &DeviceRegistry| -> DeviceId {
        fleet
            .iter()
            .nth(i % fleet.len())
            .expect("non-empty fleet")
            .0
    };
    for (i, op) in ops.iter().chain([&Op::Drain]).enumerate() {
        // Formatted only when an assertion fails.
        let at = || format!("op {i} {op:?} of {ops:?} under {cfg:?}");
        match op {
            Op::Submit(req) => {
                let ticket = service.submit(req.clone());
                assert_eq!(ticket, reference.submit(req.clone()), "{}", at());
                tickets.extend(ticket);
            }
            Op::Tick(now) => assert_eq!(service.tick(*now), reference.tick(*now), "{}", at()),
            Op::AdvanceDispatch(now) => assert_eq!(
                service.advance_dispatch(*now),
                reference.advance_dispatch(*now),
                "{}",
                at()
            ),
            Op::AdvanceDrift(now) => assert_eq!(
                service.advance_drift(*now),
                reference.advance_drift(*now),
                "{}",
                at()
            ),
            Op::Recalibrate {
                device: target,
                donor,
                scale,
            } => {
                let fleet = reference.registry();
                let (target, donor) = (device(*target, fleet), device(*donor, fleet));
                let mut snapshot = fleet.get(donor).calibration().clone();
                for e in snapshot.readout_errors_mut() {
                    *e = (*e * scale).min(0.45);
                }
                assert_eq!(
                    service.recalibrate(target, snapshot.clone()),
                    reference.recalibrate(target, snapshot),
                    "{}",
                    at()
                );
            }
            Op::TakeResult(which) => {
                if let Some(ticket) = tickets.get(which % tickets.len().max(1)) {
                    assert_eq!(
                        service.take_result(ticket),
                        reference.take_result(ticket),
                        "{}",
                        at()
                    );
                }
            }
            Op::Drain => {
                let drained = service.run_until_drained();
                assert_eq!(drained, reference.run_until_drained(), "{}", at());
                report = drained.ok();
            }
        }
        assert_eq!(service.events(), reference.events(), "{}", at());
        assert_eq!(service.pending_len(), reference.pending_len(), "{}", at());
        assert_eq!(service.registry(), reference.registry(), "{}", at());
    }
    Outcome { service, report }
}
