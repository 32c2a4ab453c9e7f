//! `sim_campaigns` — the paper's applications at the paper's shots.
//!
//! Why it exists: at 8192 shots per circuit the `qucp-sim` trajectory
//! loop is nearly all of the wall time, in both regimes the repository
//! serves: tiny registers at high shot counts (the H2 VQE grid, the ZNE
//! ladder) and wide registers (GHZ, QFT, W, QAOA on 27-qubit Toronto)
//! under both trajectory kernels and both shot-parallelism modes.
//! Scheduler, planner and wire are negligible here, so a runtime or
//! daemon optimisation must predict "no change" and a kernel or
//! sharding change must show.

use std::time::Instant;

use qucp_circuit::{library, Circuit};
use qucp_core::strategy::{self, Strategy};
use qucp_device::{ibm, Calibration, CrosstalkModel, Device, Topology};
use qucp_runtime::{
    run_campaign, CampaignDriver, CampaignRun, DeviceRegistry, JobRequest, JobResult, JobTicket,
    Service, ServiceReport, ShotParallelism, TrajectoryKernel,
};
use qucp_sim::noiseless_probabilities;
use qucp_vqe::{
    group_energy_exact, h2_hamiltonian, measurement_circuit, tied_ansatz, VqeCampaign,
    VqeCampaignOutput,
};
use qucp_zne::{scale_ladder, ZneCampaign, ZneCampaignOutput};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::probes;
use crate::trace::{self, NO_ID};
use crate::workload::{
    check_claims, exact_of, layer, ns_per_call, sample_batches, Counters, Layers, Ledger, Metric,
    PassOutcome, Scale, Workload,
};

/// The paper's shot count.
const SHOTS: usize = 8192;

/// θ grid points and ansatz repetitions of the H2 campaign (the
/// `vqe_shootout` grid).
const THETA_POINTS: usize = 8;
const REPS: usize = 2;

/// Rungs of the ZNE ladder: scales 1.0, 1.5, … 3.0.
const ZNE_RUNGS: usize = 5;

/// Wide jobs of one pass at full scale.
const WIDE_JOBS: usize = 12;

/// How far the VQE grid minimum may sit from the noiseless grid
/// minimum, Ha: ten times chemical accuracy, as in `vqe_shootout`.
const ENERGY_TOL_HA: f64 = 0.016;

/// The quiet 3×4 chip of `vqe_shootout`: wide enough to co-schedule
/// both measurement groups of a round, quiet enough that the energy
/// gate measures the campaign and not the device.
fn quiet_device() -> Device {
    let topology = Topology::grid(3, 4);
    let calibration = Calibration::uniform(&topology, 1e-3, 1e-5, 2e-3);
    Device::new("quiet-3x4", topology, calibration, CrosstalkModel::none())
}

/// The lowest noiseless energy on the campaign's θ grid.
fn noiseless_grid_min() -> f64 {
    let h = h2_hamiltonian();
    let groups = h.commuting_groups();
    (0..THETA_POINTS)
        .map(|i| {
            let theta = -std::f64::consts::PI
                + 2.0 * std::f64::consts::PI * (i as f64 + 0.5) / THETA_POINTS as f64;
            let ansatz = tied_ansatz(h.num_qubits(), REPS, theta);
            groups
                .iter()
                .map(|group| {
                    let strings: Vec<_> = group.iter().map(|&t| &h.terms()[t].0).collect();
                    let circuit = measurement_circuit(&ansatz, &strings);
                    group_energy_exact(&h, group, &noiseless_probabilities(&circuit))
                })
                .sum::<f64>()
        })
        .fold(f64::INFINITY, f64::min)
}

/// A campaign driver with spans around `next_batch` and `fold`, and
/// the wall time of every round from its requests leaving `next_batch`
/// to its results reaching `fold` — the submit→result latency of the
/// round's jobs, taken from outside `run_campaign`.
struct Timed<D> {
    inner: D,
    next_batch: &'static str,
    fold: &'static str,
    handed_over: Instant,
    latencies_ns: Vec<u64>,
}

impl<D> Timed<D> {
    fn new(inner: D, next_batch: &'static str, fold: &'static str) -> Self {
        Timed {
            inner,
            next_batch,
            fold,
            handed_over: Instant::now(),
            latencies_ns: Vec::new(),
        }
    }
}

impl<D: CampaignDriver> CampaignDriver for Timed<D> {
    type Output = (D::Output, Vec<u64>);

    fn next_batch(&mut self, round: usize) -> Option<Vec<JobRequest>> {
        let inner = &mut self.inner;
        let batch = trace::span(self.next_batch, round as u64, || inner.next_batch(round));
        self.handed_over = Instant::now();
        batch
    }

    fn fold(&mut self, round: usize, results: &[JobResult]) {
        let latency = self.handed_over.elapsed().as_nanos() as u64;
        self.latencies_ns
            .extend(std::iter::repeat_n(latency, results.len()));
        let inner = &mut self.inner;
        trace::span(self.fold, round as u64, || inner.fold(round, results));
    }

    fn finish(self) -> Self::Output {
        (self.inner.finish(), self.latencies_ns)
    }
}

pub struct SimCampaigns {
    scale: Scale,
    seed: u64,
    toronto: DeviceRegistry,
    zne_circuit: Circuit,
    wide: Vec<JobRequest>,
    noiseless_min: f64,
    strategy: Strategy,
    sample: Vec<(Device, Vec<Circuit>)>,
}

pub struct Pass {
    vqe_service: Service,
    zne_service: Service,
    wide_service: Service,
    vqe: Timed<VqeCampaign>,
    zne: Timed<ZneCampaign>,
    wide: Vec<JobRequest>,
    ledger: Ledger,
}

type Campaign<O> = Option<CampaignRun<(O, Vec<u64>)>>;

pub struct Done {
    vqe_service: Service,
    zne_service: Service,
    wide_service: Service,
    vqe: Campaign<VqeCampaignOutput>,
    zne: Campaign<ZneCampaignOutput>,
    wide_report: Option<ServiceReport>,
    tickets: Vec<JobTicket>,
    claimed: Vec<JobResult>,
    ledger: Ledger,
}

impl SimCampaigns {
    fn shots(&self) -> usize {
        self.scale.of(SHOTS)
    }
}

impl Workload for SimCampaigns {
    const NAME: &'static str = "sim_campaigns";
    type Pass = Pass;
    type Done = Done;

    fn new(seed: u64, scale: Scale) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let shots = scale.of(SHOTS);
        // Every circuit meets three of the four kernel × shot-mode
        // pairs, in a fixed rotation, and the jobs keep their order:
        // which batch a job rides decides its random stream, and with
        // it what the survival kernel allocates. The seed draws the
        // QAOA angles.
        let pairs = [
            (TrajectoryKernel::Replay, ShotParallelism::Serial),
            (TrajectoryKernel::SurvivalSkip, ShotParallelism::Serial),
            (TrajectoryKernel::Replay, ShotParallelism::Auto),
            (TrajectoryKernel::SurvivalSkip, ShotParallelism::Auto),
        ];
        let wide: Vec<JobRequest> = (0..scale.of(WIDE_JOBS).max(4))
            .map(|i| {
                let circuit = match i % 4 {
                    0 => library::ghz(8),
                    1 => library::qft(6),
                    2 => library::w_state(8),
                    _ => library::qaoa_maxcut_ring(
                        8,
                        rng.gen_range(0.6..0.8),
                        rng.gen_range(0.6..0.8),
                    ),
                };
                let (kernel, mode) = pairs[(i % 4 + i / 4) % 4];
                JobRequest::new(circuit, 0.0)
                    .with_id(i as u64)
                    .with_shots(shots)
                    .with_trajectory_kernel(kernel)
                    .with_shot_parallelism(mode)
            })
            .collect();
        SimCampaigns {
            scale,
            seed,
            toronto: DeviceRegistry::single(ibm::toronto()),
            zne_circuit: library::by_name("fredkin")
                .expect("fredkin is in the library")
                .circuit(),
            wide,
            noiseless_min: noiseless_grid_min(),
            strategy: strategy::qucp(strategy::DEFAULT_SIGMA),
            sample: Vec::new(),
        }
    }

    fn span_capacity(&self) -> usize {
        2 * (THETA_POINTS + 1) + 2 * self.wide.len() + 8
    }

    fn prepare(&mut self) -> Pass {
        let build = |builder: qucp_runtime::ServiceBuilder| {
            builder.build().expect("a registered fleet builds")
        };
        Pass {
            // `optimize(false)` keeps the ansatz and the folds intact.
            vqe_service: build(Service::builder().device(quiet_device()).optimize(false)),
            zne_service: build(
                Service::builder()
                    .registry(self.toronto.clone())
                    .optimize(false),
            ),
            wide_service: build(Service::builder().registry(self.toronto.clone())),
            vqe: Timed::new(
                VqeCampaign::h2(THETA_POINTS, REPS, self.shots()),
                "vqe.next_batch",
                "vqe.fold",
            ),
            zne: Timed::new(
                ZneCampaign::new(
                    self.zne_circuit.clone(),
                    scale_ladder(ZNE_RUNGS, 0.5),
                    qucp_bench::EXPERIMENT_SEED,
                    self.shots(),
                ),
                "zne.next_batch",
                "zne.fold",
            ),
            wide: self.wide.clone(),
            ledger: Ledger::with_capacity(self.wide.len()),
        }
    }

    fn run(&mut self, pass: Pass) -> Done {
        let Pass {
            mut vqe_service,
            mut zne_service,
            mut wide_service,
            vqe,
            zne,
            wide,
            mut ledger,
        } = pass;
        let ran = trace::span("vqe.run_campaign", NO_ID, || {
            run_campaign(&mut vqe_service, vqe)
        });
        let vqe = ledger.call(ran);
        let ran = trace::span("zne.run_campaign", NO_ID, || {
            run_campaign(&mut zne_service, zne)
        });
        let zne = ledger.call(ran);

        let mut tickets = Vec::with_capacity(wide.len());
        for request in wide {
            let id = ledger.submitting() as u64;
            let submitted = trace::span("runtime.submit", id, || wide_service.submit(request));
            tickets.extend(ledger.call(submitted));
        }
        let drained = trace::span("runtime.run_until_drained", NO_ID, || {
            wide_service.run_until_drained()
        });
        let wide_report = ledger.call(drained);
        let mut claimed = Vec::with_capacity(tickets.len());
        for (index, ticket) in tickets.iter().enumerate() {
            let taken = trace::span("runtime.take_result", index as u64, || {
                wide_service.take_result(ticket)
            });
            claimed.extend(ledger.claimed(index, taken));
        }
        Done {
            vqe_service,
            zne_service,
            wide_service,
            vqe,
            zne,
            wide_report,
            tickets,
            claimed,
            ledger,
        }
    }

    fn digest(&mut self, done: Done) -> PassOutcome {
        let Done {
            mut vqe_service,
            mut zne_service,
            mut wide_service,
            vqe,
            zne,
            wide_report,
            tickets,
            claimed,
            mut ledger,
        } = done;
        let mut problems = Vec::new();
        let mut extras = Vec::new();
        let mut counters = Counters::default();
        let mut jobs = claimed.len();

        // The campaigns have drained their services; draining again
        // only assembles the reports.
        let vqe_report = vqe_service.run_until_drained().ok();
        let zne_report = zne_service.run_until_drained().ok();
        if let Some(run) = vqe {
            let (output, latencies) = run.output;
            let error = (output.min_energy - self.noiseless_min).abs();
            // At smoke scale the shot noise alone exceeds the gate.
            if self.scale == Scale::FULL && error > ENERGY_TOL_HA {
                problems.push(format!(
                    "VQE grid minimum {} is {error} Ha from the noiseless {}",
                    output.min_energy, self.noiseless_min
                ));
            }
            let rounds = run.stats.rounds.max(1) as f64;
            extras.push(("vqe.jobs_per_round", run.stats.jobs as f64 / rounds));
            extras.push(("vqe.batches_per_round", run.stats.batches as f64 / rounds));
            extras.push(("vqe.energy_error_mha", error * 1e3));
            extras.push(("vqe.rounds", rounds));
            jobs += run.stats.jobs;
            ledger.latencies_ns.extend(latencies);
        }
        if let Some(run) = zne {
            let (output, latencies) = run.output;
            extras.push(("zne.mitigated_error", output.error));
            jobs += run.stats.jobs;
            ledger.latencies_ns.extend(latencies);
        }
        if let Some(report) = &wide_report {
            check_claims(&mut wide_service, &tickets, &claimed, report, &mut problems);
            let wide = &self.wide;
            self.sample = sample_batches(
                report,
                &self.toronto,
                |id| wide[id as usize].circuit.clone(),
                self.scale.of(4),
            );
        }
        let reports = [
            (&vqe_service, &vqe_report),
            (&zne_service, &zne_report),
            (&wide_service, &wide_report),
        ];
        let mut drained = Vec::new();
        for (service, report) in reports {
            match report {
                Some(report) => {
                    counters.absorb(service, report);
                    drained.push(report);
                }
                None => problems.push("a service returned no report".into()),
            }
        }
        if drained.iter().map(|r| r.job_results.len()).sum::<usize>() != jobs {
            problems.push("the reports and the claims disagree on the job count".into());
        }
        PassOutcome {
            jobs: jobs as u64,
            attempted: ledger.attempted,
            failed: ledger.failed,
            latencies_ns: ledger.latencies_ns,
            exact: exact_of(&drained),
            counters,
            phases: None,
            extras,
            problems,
        }
    }

    fn layer_metrics(&self, outcome: &PassOutcome, layers: &Layers, _wall_ns: u64) -> Vec<Metric> {
        let extra = |name: &str| {
            outcome
                .extras
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(f64::NAN, |(_, v)| *v)
        };
        let campaign_s = layer(layers, "vqe.run_campaign").total_ns as f64 / 1e9;
        vec![
            ("vqe.iters_per_s", extra("vqe.rounds") / campaign_s),
            (
                "vqe.generate_ns_per_round",
                ns_per_call(layers, "vqe.next_batch"),
            ),
            ("vqe.fold_ns_per_round", ns_per_call(layers, "vqe.fold")),
            ("vqe.jobs_per_round", extra("vqe.jobs_per_round")),
            ("vqe.batches_per_round", extra("vqe.batches_per_round")),
            ("vqe.energy_error_mha", extra("vqe.energy_error_mha")),
            ("zne.mitigated_error", extra("zne.mitigated_error")),
        ]
    }

    fn probes(&self) -> Vec<Metric> {
        let mut metrics = probes::zne(&self.zne_circuit, &scale_ladder(ZNE_RUNGS, 0.5), self.seed);
        metrics.extend(probes::core(&self.sample, &self.strategy, true));
        if let Some((device, plan)) = probes::first_plan(&self.sample, &self.strategy, true) {
            metrics.extend(probes::sim(&device, &plan, &self.strategy));
        }
        metrics
    }
}
