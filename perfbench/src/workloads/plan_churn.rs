//! `plan_churn` — one caller stepping a drifting fleet.
//!
//! Why it exists: it uses the same runtime layer as `sched_flood` the
//! other way round. Calibration drift bumps every device's epoch every
//! few hundred jobs and the per-job thresholds vary, so the route/plan
//! cache is *written and invalidated* instead of read: `qucp-core`
//! partitioning, mapping and merging and the routing probes dominate.
//! A cache-key change that speeds hits but slows inserts, invalidation
//! or drift shows here and not in `sched_flood`.

use qucp_circuit::Circuit;
use qucp_core::strategy::{self, Strategy};
use qucp_runtime::{
    Backfill, CalibrationAware, DeviceRegistry, EfsGate, GaussianWalk, JobRequest, JobResult,
    JobTicket, Service, ServiceReport,
};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use super::sched_flood::{fleet, poisson_requests, Order};
use crate::probes;
use crate::trace::{self, NO_ID};
use crate::workload::{
    check_claims, exact_of, sample_batches, Counters, Ledger, Metric, PassOutcome, Scale, Workload,
};

/// Jobs of one pass at full scale.
const JOBS: usize = 2_400;

/// Mean Poisson gap, simulated ns: about twice the fleet's service
/// time per job, so a step's jobs complete by the next tick and the
/// caller's latency is the system's, not the length of a backlog.
const MEAN_GAP_NS: f64 = 800.0;

/// Arrivals the caller submits between two `advance_drift` + `tick`.
const STEP: usize = 10;

const SHOTS: usize = 8;

/// Simulated ns between drift steps: 250 mean arrival gaps, so every
/// device's epoch bumps about every 250 jobs.
const DRIFT_INTERVAL_NS: f64 = 250.0 * MEAN_GAP_NS;

/// EFS-excess thresholds the jobs cycle through: none, loose, tight.
/// The seed scales each one by up to a fifth either way, so no two
/// thresholded jobs ask for the same bits. That is all the seed does
/// here: the stream runs the fleet near the point where a queue forms,
/// and with the stamps or the shuffle seeded as well, two seeds were
/// two different queues (submit-to-claim latency apart by a quarter)
/// rather than two samples of one.
const THRESHOLDS: [Option<f64>; 3] = [None, Some(0.5), Some(0.05)];

pub struct PlanChurn {
    scale: Scale,
    fleet: DeviceRegistry,
    requests: Vec<JobRequest>,
    strategy: Strategy,
    sample: Vec<(qucp_device::Device, Vec<Circuit>)>,
}

pub struct Pass {
    service: Service,
    requests: Vec<JobRequest>,
    ledger: Ledger,
}

pub struct Done {
    service: Service,
    report: Option<ServiceReport>,
    tickets: Vec<JobTicket>,
    claimed: Vec<JobResult>,
    ledger: Ledger,
}

/// The results claimed so far, and which tickets are still open.
struct Claims {
    claimed: Vec<JobResult>,
    open: Vec<bool>,
}

impl Claims {
    fn claim(&mut self, service: &mut Service, ledger: &mut Ledger, ticket: &JobTicket) {
        let taken = trace::span("runtime.take_result", ticket.seq as u64, || {
            service.take_result(ticket)
        });
        self.claimed.extend(ledger.claimed(ticket.seq, taken));
        self.open[ticket.seq] = false;
    }
}

impl PlanChurn {
    fn service(&self) -> Service {
        Service::builder()
            .registry(self.fleet.clone())
            .routing(CalibrationAware::default())
            .policy(Backfill::default())
            .efs_gate(EfsGate::Batch)
            .drift(GaussianWalk::new(
                qucp_bench::EXPERIMENT_SEED,
                DRIFT_INTERVAL_NS,
            ))
            .build()
            .expect("a registered fleet builds")
    }
}

impl Workload for PlanChurn {
    const NAME: &'static str = "plan_churn";
    type Pass = Pass;
    type Done = Done;

    fn new(seed: u64, scale: Scale) -> Self {
        let mut requests = poisson_requests(
            scale.of(JOBS),
            MEAN_GAP_NS,
            SHOTS,
            qucp_bench::EXPERIMENT_SEED,
            Order::Shuffled,
        );
        let mut rng = StdRng::seed_from_u64(seed ^ 0x7E55);
        for (i, request) in requests.iter_mut().enumerate() {
            request.fidelity_threshold =
                THRESHOLDS[i % THRESHOLDS.len()].map(|t| t * rng.gen_range(0.8..1.2));
        }
        PlanChurn {
            scale,
            fleet: fleet(),
            requests,
            strategy: strategy::qucp(strategy::DEFAULT_SIGMA),
            sample: Vec::new(),
        }
    }

    fn span_capacity(&self) -> usize {
        2 * self.requests.len() + 2 * self.requests.len().div_ceil(STEP) + 2
    }

    fn prepare(&mut self) -> Pass {
        Pass {
            service: self.service(),
            requests: self.requests.clone(),
            ledger: Ledger::with_capacity(self.requests.len()),
        }
    }

    fn run(&mut self, pass: Pass) -> Done {
        let Pass {
            mut service,
            requests,
            mut ledger,
        } = pass;
        let mut tickets = Vec::with_capacity(requests.len());
        let mut claims = Claims {
            claimed: Vec::with_capacity(requests.len()),
            open: vec![true; requests.len()],
        };
        let mut requests = requests.into_iter().peekable();
        while requests.peek().is_some() {
            let mut now = 0.0;
            for request in requests.by_ref().take(STEP) {
                now = request.arrival;
                let id = ledger.submitting() as u64;
                let submitted = trace::span("runtime.submit", id, || service.submit(request));
                tickets.extend(ledger.call(submitted));
            }
            let drifted = trace::span("runtime.advance_drift", NO_ID, || {
                service.advance_drift(now)
            });
            ledger.call(drifted);
            let ticked = trace::span("runtime.tick", NO_ID, || service.tick(now));
            for ticket in ledger.call(ticked).unwrap_or_default() {
                claims.claim(&mut service, &mut ledger, &ticket);
            }
        }
        // The flood outruns the fleet, so the last steps leave a
        // backlog: drain it and claim what no tick has returned yet.
        let drained = trace::span("runtime.run_until_drained", NO_ID, || {
            service.run_until_drained()
        });
        let report = ledger.call(drained);
        for ticket in &tickets {
            if claims.open[ticket.seq] {
                claims.claim(&mut service, &mut ledger, ticket);
            }
        }
        let claimed = claims.claimed;
        Done {
            service,
            report,
            tickets,
            claimed,
            ledger,
        }
    }

    fn digest(&mut self, done: Done) -> PassOutcome {
        let Done {
            mut service,
            report,
            tickets,
            claimed,
            ledger,
        } = done;
        let mut problems = Vec::new();
        let mut counters = Counters::default();
        let mut exact = Default::default();
        match &report {
            Some(report) => {
                check_claims(&mut service, &tickets, &claimed, report, &mut problems);
                counters.absorb(&service, report);
                exact = exact_of(&[report]);
                let requests = &self.requests;
                self.sample = sample_batches(
                    report,
                    &self.fleet,
                    |id| requests[id as usize].circuit.clone(),
                    self.scale.of(64),
                );
            }
            None => problems.push("the drain returned no report".into()),
        }
        PassOutcome {
            jobs: claimed.len() as u64,
            attempted: ledger.attempted,
            failed: ledger.failed,
            latencies_ns: ledger.latencies_ns,
            exact,
            counters,
            phases: None,
            extras: Vec::new(),
            problems,
        }
    }

    fn probes(&self) -> Vec<Metric> {
        let mut metrics = probes::core(&self.sample, &self.strategy, true);
        if let Some((device, plan)) = probes::first_plan(&self.sample, &self.strategy, true) {
            metrics.extend(probes::sim(&device, &plan, &self.strategy));
        }
        metrics
    }
}
