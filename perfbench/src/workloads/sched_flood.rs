//! `sched_flood` — offline drain of a Poisson flood of 1-shot jobs.
//!
//! Why it exists: with one shot per job, planning memoised and no wire,
//! `qucp-runtime` bookkeeping (submit fingerprint, indexed queue,
//! admission, plan-cache *hits*, staging, finish/report) and the
//! simulator's per-program set-up are most of the wall time. It is the
//! workload a queue, cache-hit or report optimisation must move, and
//! the one a planner or wire change must leave alone.

use qucp_circuit::Circuit;
use qucp_core::strategy::{self, Strategy};
use qucp_runtime::{DeviceRegistry, JobRequest, JobResult, JobTicket, Service, ServiceReport};

use crate::alloc::AllocSnapshot;
use crate::probes;
use crate::trace::{self, NO_ID};
use crate::workload::{
    check_claims, exact_of, sample_batches, shuffle, Counters, Ledger, Metric, PassOutcome,
    PhaseAllocs, Scale, Workload,
};

/// Chips of the fleet: four of each `mega_fleet` topology class.
const DEVICES: usize = 16;

/// Jobs of one pass at full scale.
const JOBS: usize = 8_000;

/// Mean Poisson gap, simulated ns: far below a batch's service time,
/// so the queue is deep from the first dispatch on.
const MEAN_GAP_NS: f64 = 100.0;

pub struct SchedFlood {
    scale: Scale,
    fleet: DeviceRegistry,
    requests: Vec<JobRequest>,
    strategy: Strategy,
    /// Batches of the last pass, for the planner and simulator probes.
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
    phases: PhaseAllocs,
}

/// The fleet of the two scheduler workloads. Its calibrations are
/// frozen inputs: the seed draws the traffic, not the chips, so that
/// two seeds differ by sampling noise and not by a different fleet.
pub fn fleet() -> DeviceRegistry {
    qucp_bench::mega_fleet(DEVICES, qucp_bench::EXPERIMENT_SEED)
}

/// How a stream orders the six library circuits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Order {
    /// The library's cycle, entered where the seed says: the stream
    /// repeats its shapes, as the jobs of one application do, and the
    /// plan cache lives on that.
    Cycle,
    /// Every job's circuit drawn by the seed: consecutive batches share
    /// as little as six circuits allow.
    Shuffled,
}

/// A stream of library jobs with Poisson stamps from the seed.
pub fn poisson_requests(
    jobs: usize,
    mean_gap_ns: f64,
    shots: usize,
    seed: u64,
    order: Order,
) -> Vec<JobRequest> {
    const CYCLE: usize = 6;
    let stream = qucp_bench::poisson_jobs(jobs, mean_gap_ns, shots, seed);
    let mut donors: Vec<usize> = (0..jobs).collect();
    match order {
        Order::Cycle => {
            let phase = 2 * (seed % 3) as usize;
            for (i, donor) in donors.iter_mut().enumerate() {
                *donor = (i - i % CYCLE + (i + phase) % CYCLE).min(jobs - 1);
            }
        }
        Order::Shuffled => shuffle(&mut donors, seed ^ 0xC1C0),
    }
    stream
        .iter()
        .zip(donors)
        .map(|(job, donor)| {
            JobRequest::new(stream[donor].circuit.clone(), job.arrival)
                .with_id(job.id)
                .with_shots(shots)
        })
        .collect()
}

impl Workload for SchedFlood {
    const NAME: &'static str = "sched_flood";
    type Pass = Pass;
    type Done = Done;

    fn new(seed: u64, scale: Scale) -> Self {
        SchedFlood {
            scale,
            fleet: fleet(),
            requests: poisson_requests(scale.of(JOBS), MEAN_GAP_NS, 1, seed, Order::Cycle),
            strategy: strategy::qucp(strategy::DEFAULT_SIGMA),
            sample: Vec::new(),
        }
    }

    fn span_capacity(&self) -> usize {
        2 * self.requests.len() + 1
    }

    fn prepare(&mut self) -> Pass {
        Pass {
            service: Service::builder()
                .registry(self.fleet.clone())
                .build()
                .expect("a registered fleet builds"),
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
        let start = AllocSnapshot::now();
        let mut tickets = Vec::with_capacity(requests.len());
        for request in requests {
            let id = ledger.submitting() as u64;
            let submitted = trace::span("runtime.submit", id, || service.submit(request));
            tickets.extend(ledger.call(submitted));
        }
        let submitted = AllocSnapshot::now();
        let drained = trace::span("runtime.run_until_drained", NO_ID, || {
            service.run_until_drained()
        });
        let report = ledger.call(drained);
        let drained = AllocSnapshot::now();
        let mut claimed = Vec::with_capacity(tickets.len());
        for (index, ticket) in tickets.iter().enumerate() {
            let taken = trace::span("runtime.take_result", index as u64, || {
                service.take_result(ticket)
            });
            claimed.extend(ledger.claimed(index, taken));
        }
        Done {
            service,
            report,
            tickets,
            claimed,
            ledger,
            phases: PhaseAllocs {
                start,
                submitted,
                drained,
            },
        }
    }

    fn digest(&mut self, done: Done) -> PassOutcome {
        let Done {
            mut service,
            report,
            tickets,
            claimed,
            ledger,
            phases,
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
            phases: Some(phases),
            extras: Vec::new(),
            problems,
        }
    }

    fn probes(&self) -> Vec<Metric> {
        let build_ns = probes::quiet_ns(|| {
            std::hint::black_box(Service::builder().registry(self.fleet.clone()).build().ok());
        });
        let mut metrics = vec![("runtime.build_ns", build_ns)];
        metrics.extend(probes::core(&self.sample, &self.strategy, true));
        if let Some((device, plan)) = probes::first_plan(&self.sample, &self.strategy, true) {
            metrics.extend(probes::sim(&device, &plan, &self.strategy));
        }
        let devices: Vec<&qucp_device::Device> = self.fleet.iter().map(|(_, d)| d).collect();
        let circuits: Vec<Circuit> = self
            .requests
            .iter()
            .take(64)
            .map(|r| r.circuit.clone())
            .collect();
        metrics.extend(probes::device_and_circuit(&devices, &circuits));
        metrics
    }
}
