//! # qucp-bench
//!
//! Shared fixtures for the experiment-regeneration binaries and the
//! Criterion benchmarks: the exact benchmark combinations of the
//! paper's figures and the standard experiment configurations.
//!
//! Regenerate any paper artifact with, e.g.:
//!
//! ```text
//! cargo run --release -p qucp-bench --bin table1
//! cargo run --release -p qucp-bench --bin fig3
//! ```

#![warn(missing_docs)]

pub mod srb_campaign;

use qucp_circuit::{library, Circuit};

/// The Fig. 3a workloads (JSD benchmarks, three simultaneous circuits):
/// four same-benchmark triples and four mixed triples, in figure order.
pub const FIG3A_COMBOS: [[&str; 3]; 8] = [
    ["lin", "lin", "lin"],
    ["qec", "qec", "qec"],
    ["var", "var", "var"],
    ["bell", "bell", "bell"],
    ["qec", "var", "bell"],
    ["qec", "bell", "lin"],
    ["var", "bell", "lin"],
    ["qec", "var", "lin"],
];

/// The Fig. 3b workloads (PST benchmarks).
pub const FIG3B_COMBOS: [[&str; 3]; 8] = [
    ["adder", "adder", "adder"],
    ["4mod", "4mod", "4mod"],
    ["fred", "fred", "fred"],
    ["alu", "alu", "alu"],
    ["adder", "fred", "alu"],
    ["adder", "4mod", "alu"],
    ["adder", "fred", "4mod"],
    ["4mod", "fred", "alu"],
];

/// A display label for a combination (`qec-var-bell` or `lin ×3`).
pub fn combo_label(combo: &[&str; 3]) -> String {
    if combo[0] == combo[1] && combo[1] == combo[2] {
        format!("{} x3", combo[0])
    } else {
        combo.join("-")
    }
}

/// Materializes a combination into circuits (instances get unique
/// names so reports stay readable).
///
/// # Panics
///
/// Panics if a name is not in the benchmark library.
pub fn combo_circuits(combo: &[&str; 3]) -> Vec<Circuit> {
    combo
        .iter()
        .enumerate()
        .map(|(i, name)| {
            let mut c = library::by_name(name)
                .unwrap_or_else(|| panic!("unknown benchmark `{name}`"))
                .circuit();
            c.set_name(format!("{name}#{i}"));
            c
        })
        .collect()
}

/// The shot count used by the paper's jobs.
pub const PAPER_SHOTS: usize = 8192;

/// The workspace-wide experiment seed.
pub const EXPERIMENT_SEED: u64 = 20220314;

/// The trajectory-engine benchmark job: an 8-qubit GHZ chain planned
/// solo on IBM Q Toronto by the QuCP pipeline. Shared between the
/// Criterion `trajectory` bench and the `trajectory` bin so both
/// measure exactly the same mapped job.
///
/// # Panics
///
/// Panics if the GHZ chain cannot be planned on Toronto (which would
/// be a pipeline regression).
pub fn trajectory_job() -> (qucp_device::Device, qucp_core::pipeline::PlannedWorkload) {
    use qucp_core::pipeline::Pipeline;
    use qucp_core::strategy;
    let device = qucp_device::ibm::toronto();
    let ghz = library::ghz(8);
    let plan = Pipeline::from_strategy(&strategy::qucp(4.0))
        .plan(&device, &[ghz], true)
        .expect("GHZ-8 must plan on Toronto");
    (device, plan)
}

/// Runs program 0 of a [`trajectory_job`] plan under `parallelism`
/// with [`PAPER_SHOTS`] shots on the default
/// [`Replay`](qucp_sim::TrajectoryKernel::Replay) kernel.
///
/// # Panics
///
/// Panics if the mapped job is rejected by the simulator.
pub fn run_trajectory_job(
    device: &qucp_device::Device,
    plan: &qucp_core::pipeline::PlannedWorkload,
    parallelism: qucp_sim::ShotParallelism,
) -> qucp_sim::Counts {
    run_trajectory_job_with_kernel(
        device,
        plan,
        parallelism,
        qucp_sim::TrajectoryKernel::Replay,
    )
}

/// [`run_trajectory_job`] with an explicit trajectory kernel — the
/// benchmark's kernel dimension.
///
/// # Panics
///
/// Panics if the mapped job is rejected by the simulator.
pub fn run_trajectory_job_with_kernel(
    device: &qucp_device::Device,
    plan: &qucp_core::pipeline::PlannedWorkload,
    parallelism: qucp_sim::ShotParallelism,
    kernel: qucp_sim::TrajectoryKernel,
) -> qucp_sim::Counts {
    let exec = qucp_sim::ExecutionConfig::default()
        .with_shots(PAPER_SHOTS)
        .with_seed(EXPERIMENT_SEED)
        .with_parallelism(parallelism)
        .with_kernel(kernel);
    let mapped = &plan.mapped[0];
    qucp_sim::run_noisy_with_idle(
        &mapped.circuit,
        &mapped.layout,
        device,
        &plan.context.scalings[0],
        &plan.context.tail_idle[0],
        &exec,
    )
    .expect("mapped GHZ job must simulate")
}

/// The clean-shot probability of the [`trajectory_job`] workload — the
/// fraction of trajectories the `SurvivalSkip` kernel answers from the
/// cached ideal state (see [`qucp_sim::clean_shot_probability`]).
///
/// # Panics
///
/// Panics if the mapped job is rejected by the simulator.
pub fn trajectory_clean_shot_fraction(
    device: &qucp_device::Device,
    plan: &qucp_core::pipeline::PlannedWorkload,
) -> f64 {
    let mapped = &plan.mapped[0];
    qucp_sim::clean_shot_probability(
        &mapped.circuit,
        &mapped.layout,
        device,
        &plan.context.scalings[0],
        &plan.context.tail_idle[0],
        &qucp_sim::ExecutionConfig::default(),
    )
    .expect("mapped GHZ job must simulate")
}

/// Calibration seed of the [`noisy_toronto_twin`].
pub const NOISY_TWIN_SEED: u64 = 2700;

/// A chip with IBM Q Toronto's topology but a calibration degraded
/// roughly 3× across the board (CNOT error, readout error, and a hotter
/// crosstalk landscape) — the "bad day" twin of [`qucp_device::ibm::toronto`].
/// Together they form the skewed fleet of [`skewed_fleet`], the fixture
/// on which calibration-aware routing must beat earliest-free on
/// delivered fidelity.
pub fn noisy_toronto_twin() -> qucp_device::Device {
    use qucp_device::{Calibration, CrosstalkModel, CrosstalkProfile, NoiseProfile};
    let topo = qucp_device::ibm::toronto_topology();
    let base = NoiseProfile::default();
    let profile = NoiseProfile {
        cx_error: (base.cx_error.0 * 3.0, base.cx_error.1 * 3.0),
        readout_error: (base.readout_error.0 * 3.0, base.readout_error.1 * 3.0),
        sq_error: (base.sq_error.0 * 3.0, base.sq_error.1 * 3.0),
        ..base
    };
    let cal = Calibration::synthesize(&topo, NOISY_TWIN_SEED, &profile);
    let xtalk = CrosstalkModel::synthesize(
        &topo,
        NOISY_TWIN_SEED + qucp_device::ibm::CROSSTALK_SEED_OFFSET,
        &CrosstalkProfile {
            strong_fraction: 0.4,
            ..CrosstalkProfile::default()
        },
    );
    qucp_device::Device::new("ibmq_toronto_noisy", topo, cal, xtalk)
}

/// The two-chip skewed fleet of the routing shoot-out: the **noisy**
/// twin registered first (so the earliest-free tie-break favours it —
/// calibration-aware routing has to *overcome* registration order, not
/// ride it), the well-calibrated Toronto second.
pub fn skewed_fleet() -> qucp_runtime::DeviceRegistry {
    let mut fleet = qucp_runtime::DeviceRegistry::new();
    fleet.register(noisy_toronto_twin());
    fleet.register(qucp_device::ibm::toronto());
    fleet
}

/// Outcome of one routing shoot-out run on the skewed fleet.
#[derive(Debug, Clone, PartialEq)]
pub struct ShootoutOutcome {
    /// Routing policy display name.
    pub policy: String,
    /// Mean EFS score over all delivered jobs (lower is better — the
    /// deterministic, execution-free fidelity estimate).
    pub mean_efs: f64,
    /// Mean JSD of the delivered counts against the ideal distribution
    /// (lower is better).
    pub mean_jsd: f64,
    /// Mean turnaround (ns).
    pub mean_turnaround: f64,
    /// Jobs served per device, in registration order
    /// `(device name, jobs)`.
    pub per_device_jobs: Vec<(String, usize)>,
    /// Planning-cache statistics after the drain.
    pub cache: qucp_runtime::RouteCacheStats,
}

/// Runs the routing shoot-out burst (18 small library jobs, 1024 shots)
/// on the [`skewed_fleet`] under `routing` and `mode`, and reduces the
/// drained report to the delivered-fidelity metrics. Deterministic:
/// serial and concurrent execution produce identical outcomes.
///
/// # Panics
///
/// Panics if the service rejects the fixture workload (a runtime
/// regression).
pub fn routing_shootout(
    routing: impl qucp_runtime::RoutingPolicy + 'static,
    mode: qucp_runtime::ExecutionMode,
) -> ShootoutOutcome {
    use qucp_runtime::{JobRequest, Service};
    let mut service = Service::builder()
        .registry(skewed_fleet())
        .strategy(qucp_core::strategy::qucp(4.0))
        .routing(routing)
        .max_parallel(3)
        .mode(mode)
        .seed(EXPERIMENT_SEED)
        .build()
        .expect("shoot-out service must build");
    for job in qucp_runtime::synthetic_jobs(18, 400.0, 1024, 0xF1EE7) {
        service
            .submit(JobRequest::from_job(&job))
            .expect("fixture job must submit");
    }
    let report = service
        .run_until_drained()
        .expect("shoot-out burst must drain");
    let n = report.job_results.len() as f64;
    ShootoutOutcome {
        policy: service.routing_name().to_string(),
        mean_efs: report.job_results.iter().map(|r| r.result.efs).sum::<f64>() / n,
        mean_jsd: report.job_results.iter().map(|r| r.result.jsd).sum::<f64>() / n,
        mean_turnaround: report.stats.mean_turnaround,
        per_device_jobs: report
            .per_device
            .iter()
            .map(|d| (d.device.clone(), d.jobs))
            .collect(),
        cache: service.route_cache_stats(),
    }
}

/// Simulated nanoseconds per drift step of the drift shoot-out.
pub const DRIFT_INTERVAL_NS: f64 = 50_000.0;

/// Drift steps the shoot-out advances between its two bursts.
pub const DRIFT_STEPS: u64 = 3;

/// Per-step seesaw rate: after [`DRIFT_STEPS`] steps the degrading chip
/// is `rate^steps ≈ 3.4×` worse and the improving chip `3.4×` better —
/// enough to decisively flip the skewed fleet's quality ordering.
pub const SEESAW_RATE: f64 = 1.5;

/// A deterministic cross-fade [`DriftModel`](qucp_device::DriftModel)
/// for the drift shoot-out: the device with salt 0 (the noisy twin,
/// registered first in [`skewed_fleet`]) *improves* by `1/rate` per
/// step while every other device *degrades* by `rate` — no RNG at all,
/// so the fleet's quality ordering flips at an exactly predictable
/// step. Crosstalk excesses (γ − 1) fade with the same factors.
///
/// This is deliberately not a realistic noise process (that is
/// [`GaussianWalk`](qucp_device::GaussianWalk)'s job); it is the
/// controlled experiment that isolates what stale routing data costs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeesawDrift {
    /// Per-step multiplicative rate (> 1).
    pub rate: f64,
    /// Simulated nanoseconds per step.
    pub interval_ns: f64,
}

impl qucp_device::DriftModel for SeesawDrift {
    fn steps_at(&self, now: f64) -> u64 {
        qucp_device::interval_steps(now, self.interval_ns)
    }

    fn apply_step(
        &self,
        _step: u64,
        device_salt: u64,
        calibration: &mut qucp_device::Calibration,
        crosstalk: &mut qucp_device::CrosstalkModel,
    ) -> bool {
        let factor = if device_salt == 0 {
            1.0 / self.rate
        } else {
            self.rate
        };
        let mut changed = false;
        let mut scale = |v: &mut f64| {
            let next = (*v * factor).clamp(1e-6, 0.45);
            if next != *v {
                *v = next;
                changed = true;
            }
        };
        for (_, e) in calibration.cx_errors_mut() {
            scale(e);
        }
        for e in calibration.sq_errors_mut() {
            scale(e);
        }
        for e in calibration.readout_errors_mut() {
            scale(e);
        }
        for (_, g) in crosstalk.gammas_mut() {
            let next = (1.0 + (*g - 1.0) * factor).clamp(1.0, 64.0);
            if next != *g {
                *g = next;
                changed = true;
            }
        }
        changed
    }
}

/// Outcome of one drift shoot-out run (see [`drift_shootout`]).
#[derive(Debug, Clone, PartialEq)]
pub struct DriftOutcome {
    /// The cache mode the run used.
    pub invalidation: qucp_runtime::CacheInvalidation,
    /// Mean EFS of the pre-drift burst (must agree between modes — the
    /// fleets are identical until the drift).
    pub mean_efs_before: f64,
    /// Mean JSD of the pre-drift burst.
    pub mean_jsd_before: f64,
    /// Mean EFS of the post-drift burst — the discriminating metric.
    pub mean_efs_after: f64,
    /// Mean JSD of the post-drift burst.
    pub mean_jsd_after: f64,
    /// Fleet-wide mean turnaround over both bursts (ns).
    pub mean_turnaround: f64,
    /// Calibration-epoch bumps the drift advance performed.
    pub epoch_bumps: usize,
    /// Post-drift jobs served per device, in registration order.
    pub fresh_jobs_per_device: Vec<(String, usize)>,
    /// Planning-cache statistics after both drains.
    pub cache: qucp_runtime::RouteCacheStats,
}

/// Runs the calibration-drift shoot-out on the [`skewed_fleet`] under
/// `invalidation` and `mode`: a 9-job burst on the original
/// calibrations, then [`DRIFT_STEPS`] [`SeesawDrift`] steps that flip
/// which chip is good (the noisy twin anneals, the good Toronto
/// degrades ~3.4×), then a second 9-job burst. `CalibrationAware`
/// routing probes through the cross-batch cache both times — under
/// [`CacheInvalidation::EpochAware`](qucp_runtime::CacheInvalidation)
/// the epoch bumps drop the stale probes and the second burst re-routes
/// to the *currently* good chip; under `Never` the second burst keeps
/// chasing the pre-drift ranking. Deterministic: serial and concurrent
/// execution produce identical outcomes.
///
/// # Panics
///
/// Panics if the service rejects the fixture workload (a runtime
/// regression).
pub fn drift_shootout(
    invalidation: qucp_runtime::CacheInvalidation,
    mode: qucp_runtime::ExecutionMode,
) -> DriftOutcome {
    use qucp_runtime::{CalibrationAware, JobRequest, Service};
    let mut service = Service::builder()
        .registry(skewed_fleet())
        .strategy(qucp_core::strategy::qucp(4.0))
        .routing(CalibrationAware::default())
        .drift(SeesawDrift {
            rate: SEESAW_RATE,
            interval_ns: DRIFT_INTERVAL_NS,
        })
        .cache_invalidation(invalidation)
        .max_parallel(3)
        .mode(mode)
        .seed(EXPERIMENT_SEED)
        .build()
        .expect("drift shoot-out service must build");
    let burst = qucp_runtime::synthetic_jobs(9, 400.0, 1024, 0xF1EE7);
    for job in &burst {
        service
            .submit(JobRequest::from_job(job))
            .expect("fixture job must submit");
    }
    service
        .run_until_drained()
        .expect("pre-drift burst must drain");

    // The calibrations cross-fade; with epoch-aware caching every bump
    // also drops the bumped chip's cached probes.
    let epoch_bumps = service
        .advance_drift(DRIFT_STEPS as f64 * DRIFT_INTERVAL_NS)
        .expect("drift advance must succeed");

    // Same workload again, long after the first burst drained; ids are
    // offset so the two bursts stay distinguishable in the report.
    const FRESH_ID_OFFSET: u64 = 100;
    const FRESH_ARRIVAL_OFFSET: f64 = 1e7;
    for job in &burst {
        service
            .submit(
                JobRequest::new(job.circuit.clone(), job.arrival + FRESH_ARRIVAL_OFFSET)
                    .with_id(job.id + FRESH_ID_OFFSET)
                    .with_shots(job.shots),
            )
            .expect("fixture job must submit");
    }
    let report = service
        .run_until_drained()
        .expect("post-drift burst must drain");

    let n = burst.len();
    let mean = |f: &dyn Fn(&qucp_runtime::JobResult) -> f64, range: std::ops::Range<usize>| {
        report.job_results[range.clone()].iter().map(f).sum::<f64>() / range.len() as f64
    };
    let mut fresh_jobs_per_device: Vec<(String, usize)> = report
        .per_device
        .iter()
        .map(|d| (d.device.clone(), 0))
        .collect();
    for batch in &report.batches {
        if batch.job_ids.iter().any(|&id| id >= FRESH_ID_OFFSET) {
            if let Some(slot) = fresh_jobs_per_device
                .iter_mut()
                .find(|(name, _)| *name == batch.device)
            {
                slot.1 += batch.job_ids.len();
            }
        }
    }
    DriftOutcome {
        invalidation,
        mean_efs_before: mean(&|r| r.result.efs, 0..n),
        mean_jsd_before: mean(&|r| r.result.jsd, 0..n),
        mean_efs_after: mean(&|r| r.result.efs, n..2 * n),
        mean_jsd_after: mean(&|r| r.result.jsd, n..2 * n),
        mean_turnaround: report.stats.mean_turnaround,
        epoch_bumps,
        fresh_jobs_per_device,
        cache: service.route_cache_stats(),
    }
}

// ---------------------------------------------------------------------------
// Fleet scale-out: the mega-fleet fixture and the heavy-traffic workload.
// ---------------------------------------------------------------------------

/// Error-rate scale cycle of the [`mega_fleet`] calibrations: each chip
/// takes the next factor, so the fleet mixes well-calibrated and noisy
/// chips of every topology class.
pub const FLEET_NOISE_SCALES: [f64; 5] = [1.0, 1.8, 0.7, 2.6, 1.3];

/// A generated heterogeneous fleet of `devices` chips for the
/// heavy-traffic shoot-out. Topologies cycle through four classes — an
/// 8-qubit ring, a 3×4 grid, a 16-qubit line, and IBM Q Toronto's
/// 27-qubit heavy-hex graph — and every chip gets its own synthesized
/// calibration (seeded by `seed + index`) with the error-rate scale
/// cycling through [`FLEET_NOISE_SCALES`]. Deterministic in
/// `(devices, seed)`; names encode position and width
/// (`mega-007-w16`).
pub fn mega_fleet(devices: usize, seed: u64) -> qucp_runtime::DeviceRegistry {
    use qucp_device::{Calibration, CrosstalkModel, CrosstalkProfile, NoiseProfile, Topology};
    let mut fleet = qucp_runtime::DeviceRegistry::new();
    for i in 0..devices {
        let topo = match i % 4 {
            0 => Topology::ring(8),
            1 => Topology::grid(3, 4),
            2 => Topology::line(16),
            _ => qucp_device::ibm::toronto_topology(),
        };
        let base = NoiseProfile::default();
        let scale = FLEET_NOISE_SCALES[i % FLEET_NOISE_SCALES.len()];
        let profile = NoiseProfile {
            cx_error: (base.cx_error.0 * scale, base.cx_error.1 * scale),
            sq_error: (base.sq_error.0 * scale, base.sq_error.1 * scale),
            readout_error: (base.readout_error.0 * scale, base.readout_error.1 * scale),
            ..base
        };
        let chip_seed = seed.wrapping_add(i as u64);
        let cal = Calibration::synthesize(&topo, chip_seed, &profile);
        let xtalk = CrosstalkModel::synthesize(
            &topo,
            chip_seed.wrapping_add(qucp_device::ibm::CROSSTALK_SEED_OFFSET),
            &CrosstalkProfile::default(),
        );
        let width = topo.num_qubits();
        fleet.register(qucp_device::Device::new(
            format!("mega-{i:03}-w{width}"),
            topo,
            cal,
            xtalk,
        ));
    }
    fleet
}

/// Generates a deterministic heavy-traffic job stream: `n` small
/// library circuits with **exponential** inter-arrival gaps of mean
/// `mean_gap_ns` — a Poisson arrival process, the open-system traffic
/// of the paper's Sec. II-A queue model — cycling the same six
/// benchmarks as [`qucp_runtime::synthetic_jobs`].
pub fn poisson_jobs(n: usize, mean_gap_ns: f64, shots: usize, seed: u64) -> Vec<qucp_runtime::Job> {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    const NAMES: [&str; 6] = [
        "bell",
        "fredkin",
        "linearsolver",
        "variation",
        "alu-v0_27",
        "qec",
    ];
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = 0.0;
    (0..n)
        .map(|i| {
            // Inverse-CDF exponential sample; `1 - u` keeps the `ln`
            // argument in (0, 1] so every gap is finite.
            let u: f64 = rng.gen();
            t += -mean_gap_ns.max(f64::MIN_POSITIVE) * (1.0 - u).ln();
            let name = NAMES[i % NAMES.len()];
            let mut circuit = library::by_name(name)
                .unwrap_or_else(|| panic!("library benchmark {name} missing"))
                .circuit();
            circuit.set_name(format!("{name}#{i}"));
            qucp_runtime::Job {
                id: i as u64,
                circuit,
                shots,
                arrival: t,
            }
        })
        .collect()
}

/// Mean Poisson inter-arrival gap of the fleet shoot-out workload (ns).
/// Far below per-batch service time, so the queue backs up and the
/// dispatch loop operates deep in the heavy-traffic regime the index
/// layer exists for.
pub const FLEET_MEAN_GAP_NS: f64 = 100.0;

/// Outcome of one heavy-traffic fleet shoot-out run (see
/// [`fleet_shootout`]). Timings are wall-clock and therefore
/// machine-dependent; the simulated-schedule fields
/// (`mean_turnaround_ns`, `p99_turnaround_ns`) are deterministic.
#[derive(Debug, Clone)]
pub struct FleetOutcome {
    /// Fleet size the run used.
    pub devices: usize,
    /// Jobs submitted (all complete by drain).
    pub jobs: usize,
    /// Queue path of the run ([`QueueIndexing::Linear`] is the
    /// seed-path ablation).
    ///
    /// [`QueueIndexing::Linear`]: qucp_runtime::QueueIndexing::Linear
    pub indexing: qucp_runtime::QueueIndexing,
    /// Wall-clock nanoseconds spent scheduling: submit + dispatch-loop
    /// time with the simulator's execution wall time *and* the
    /// planner's mapping/partitioning wall time subtracted out (see
    /// `qucp_runtime::Service::execution_time_ns` and
    /// `qucp_runtime::Service::planning_time_ns`) — both are workload
    /// costs identical on either queue path.
    pub dispatch_ns: u64,
    /// Dispatch-loop nanoseconds per job — the headline metric.
    pub dispatch_ns_per_job: f64,
    /// Scheduling throughput: jobs per wall-clock second of dispatch
    /// time.
    pub jobs_per_sec: f64,
    /// Mean simulated turnaround (ns).
    pub mean_turnaround_ns: f64,
    /// 99th-percentile simulated turnaround (ns).
    pub p99_turnaround_ns: f64,
    /// Plan-memoization mode of the run ([`PlanMemo::Never`] is the
    /// every-batch-replans ablation).
    ///
    /// [`PlanMemo::Never`]: qucp_runtime::PlanMemo::Never
    pub plan_memo: qucp_runtime::PlanMemo,
    /// Dispatch-sharding mode of the run.
    pub sharding: qucp_runtime::DispatchSharding,
    /// Wall-clock planning nanoseconds per job
    /// (`Service::planning_time_ns` over the job count) — what the plan
    /// cache exists to cut. Cache hits contribute nothing here: replay
    /// is bookkeeping, not planning.
    pub planning_ns_per_job: f64,
    /// Plan-cache hit rate over all lookups (0 under
    /// [`PlanMemo::Never`], which never looks up).
    ///
    /// [`PlanMemo::Never`]: qucp_runtime::PlanMemo::Never
    pub plan_hit_rate: f64,
}

/// Runs the heavy-traffic fleet shoot-out: `jobs` Poisson-arrival
/// library jobs ([`poisson_jobs`], 1 shot each so scheduling dominates
/// the wall clock) drained FIFO through a [`mega_fleet`] of `devices`
/// chips under `indexing`, with earliest-free routing and up to 4
/// circuits per batch. Returns the wall-clock outcome plus the full
/// drained report; both queue paths must produce identical reports
/// (asserted by the `fleet_shootout` bin and the `integration_fleet`
/// suite).
///
/// # Panics
///
/// Panics if `jobs` is zero or the service rejects the fixture
/// workload (a runtime regression).
pub fn fleet_shootout(
    devices: usize,
    jobs: usize,
    indexing: qucp_runtime::QueueIndexing,
    mode: qucp_runtime::ExecutionMode,
) -> (FleetOutcome, qucp_runtime::ServiceReport) {
    fleet_shootout_with(
        devices,
        jobs,
        indexing,
        mode,
        qucp_runtime::PlanMemo::default(),
        qucp_runtime::DispatchSharding::default(),
        None,
    )
}

/// [`fleet_shootout`] with the planning and sharding seams exposed:
/// `plan_memo` toggles whole-plan memoization ([`PlanMemo::Never`] is
/// the every-batch-replans ablation), `sharding` +
/// `device_groups` run execution as per-group fan-out tasks. All
/// configurations must produce bit-identical drained reports (asserted
/// by the `fleet_shootout` bin and the `integration_fleet` suite).
///
/// [`PlanMemo::Never`]: qucp_runtime::PlanMemo::Never
///
/// # Panics
///
/// Panics if `jobs` is zero or the service rejects the fixture
/// workload (a runtime regression).
pub fn fleet_shootout_with(
    devices: usize,
    jobs: usize,
    indexing: qucp_runtime::QueueIndexing,
    mode: qucp_runtime::ExecutionMode,
    plan_memo: qucp_runtime::PlanMemo,
    sharding: qucp_runtime::DispatchSharding,
    device_groups: Option<usize>,
) -> (FleetOutcome, qucp_runtime::ServiceReport) {
    use qucp_runtime::{JobRequest, Service};
    assert!(jobs > 0, "fleet shoot-out needs at least one job");
    let mut builder = Service::builder()
        .registry(mega_fleet(devices, EXPERIMENT_SEED))
        .strategy(qucp_core::strategy::qucp(4.0))
        .max_parallel(4)
        .mode(mode)
        .seed(EXPERIMENT_SEED)
        .queue_indexing(indexing)
        .plan_memo(plan_memo)
        .dispatch_sharding(sharding);
    if let Some(groups) = device_groups {
        builder = builder.device_groups(groups);
    }
    let mut service = builder.build().expect("fleet shoot-out service must build");
    let stream = poisson_jobs(jobs, FLEET_MEAN_GAP_NS, 1, 0xF1EE7);
    let started = std::time::Instant::now();
    for job in &stream {
        service
            .submit(JobRequest::from_job(job))
            .expect("fixture job must submit");
    }
    let report = service
        .run_until_drained()
        .expect("fleet shoot-out must drain");
    let wall_ns = started.elapsed().as_nanos() as u64;
    // Execution (trajectory simulation) and planning (mapping /
    // partitioning) are workload costs, identical on both queue paths;
    // what remains after subtracting them is the dispatch loop itself —
    // the queue bookkeeping this shoot-out exists to measure.
    let dispatch_ns = wall_ns
        .saturating_sub(service.execution_time_ns())
        .saturating_sub(service.planning_time_ns())
        .max(1);
    let mut turnarounds: Vec<f64> = report.job_results.iter().map(|r| r.turnaround).collect();
    turnarounds.sort_by(f64::total_cmp);
    let p99_turnaround_ns =
        turnarounds[((turnarounds.len() as f64 * 0.99).ceil() as usize).saturating_sub(1)];
    let cache = service.route_cache_stats();
    let plan_lookups = cache.plan_hits + cache.plan_misses;
    let outcome = FleetOutcome {
        devices,
        jobs,
        indexing,
        dispatch_ns,
        dispatch_ns_per_job: dispatch_ns as f64 / jobs as f64,
        jobs_per_sec: jobs as f64 / (dispatch_ns as f64 * 1e-9),
        mean_turnaround_ns: report.stats.mean_turnaround,
        p99_turnaround_ns,
        plan_memo,
        sharding,
        planning_ns_per_job: service.planning_time_ns() as f64 / jobs as f64,
        plan_hit_rate: if plan_lookups > 0 {
            cache.plan_hits as f64 / plan_lookups as f64
        } else {
            0.0
        },
    };
    (outcome, report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn skewed_fleet_is_actually_skewed() {
        let good = qucp_device::ibm::toronto();
        let noisy = noisy_toronto_twin();
        assert_eq!(good.topology(), noisy.topology());
        assert!(
            noisy.calibration().mean_cx_error() > 2.0 * good.calibration().mean_cx_error(),
            "noisy twin must be clearly worse"
        );
        assert!(
            noisy.calibration().mean_readout_error()
                > 2.0 * good.calibration().mean_readout_error()
        );
        let fleet = skewed_fleet();
        assert_eq!(fleet.len(), 2);
        // Noisy first: the earliest-free tie-break must favour it.
        assert_eq!(fleet.iter().next().unwrap().1.name(), "ibmq_toronto_noisy");
    }

    #[test]
    fn combos_reference_known_benchmarks() {
        for combo in FIG3A_COMBOS.iter().chain(FIG3B_COMBOS.iter()) {
            let circuits = combo_circuits(combo);
            assert_eq!(circuits.len(), 3);
        }
    }

    #[test]
    fn labels() {
        assert_eq!(combo_label(&["lin", "lin", "lin"]), "lin x3");
        assert_eq!(combo_label(&["qec", "var", "bell"]), "qec-var-bell");
    }

    #[test]
    fn fig3a_is_distribution_benchmarks() {
        use qucp_circuit::library::ResultKind;
        for combo in &FIG3A_COMBOS {
            for name in combo {
                let b = library::by_name(name).unwrap();
                assert_eq!(b.result, ResultKind::Distribution, "{name}");
            }
        }
    }

    #[test]
    fn mega_fleet_is_deterministic_and_heterogeneous() {
        let a = mega_fleet(9, EXPERIMENT_SEED);
        let b = mega_fleet(9, EXPERIMENT_SEED);
        assert_eq!(a.len(), 9);
        for ((_, da), (_, db)) in a.iter().zip(b.iter()) {
            assert_eq!(da.name(), db.name());
            assert_eq!(da.topology(), db.topology());
            assert_eq!(da.calibration(), db.calibration());
        }
        // All four topology classes appear, and names encode widths.
        let widths: std::collections::BTreeSet<usize> =
            a.iter().map(|(_, d)| d.num_qubits()).collect();
        assert_eq!(widths, [8, 12, 16, 27].into_iter().collect());
        assert_eq!(a.iter().next().unwrap().1.name(), "mega-000-w8");
        // Different seeds give different calibrations.
        let c = mega_fleet(9, EXPERIMENT_SEED + 1);
        assert_ne!(
            a.iter().next().unwrap().1.calibration(),
            c.iter().next().unwrap().1.calibration()
        );
    }

    #[test]
    fn poisson_jobs_are_deterministic_ordered_and_heavy_traffic() {
        let a = poisson_jobs(64, 100.0, 1, 0xF1EE7);
        assert_eq!(a, poisson_jobs(64, 100.0, 1, 0xF1EE7));
        assert!(a.windows(2).all(|w| w[0].arrival <= w[1].arrival));
        assert!(a.iter().all(|j| j.arrival.is_finite() && j.arrival >= 0.0));
        // The empirical mean gap lands near the configured mean.
        let mean_gap = a.last().unwrap().arrival / a.len() as f64;
        assert!(
            (20.0..500.0).contains(&mean_gap),
            "mean gap {mean_gap} implausible for 100 ns"
        );
    }

    #[test]
    fn fleet_shootout_paths_agree_on_a_tiny_config() {
        use qucp_runtime::{ExecutionMode, QueueIndexing};
        let (indexed, indexed_report) =
            fleet_shootout(3, 12, QueueIndexing::Indexed, ExecutionMode::Concurrent);
        let (_, linear_report) =
            fleet_shootout(3, 12, QueueIndexing::Linear, ExecutionMode::Concurrent);
        assert_eq!(indexed_report, linear_report);
        assert_eq!(indexed_report.job_results.len(), 12);
        assert_eq!(indexed.jobs, 12);
        assert!(indexed.dispatch_ns >= 1);
        // p99 is read off the sorted turnarounds, so it can never fall
        // below the median of the simulated schedule.
        let mut sorted: Vec<f64> = indexed_report
            .job_results
            .iter()
            .map(|r| r.turnaround)
            .collect();
        sorted.sort_by(f64::total_cmp);
        assert!(indexed.p99_turnaround_ns >= sorted[sorted.len() / 2]);
    }

    #[test]
    fn fig3b_is_deterministic_benchmarks() {
        use qucp_circuit::library::ResultKind;
        for combo in &FIG3B_COMBOS {
            for name in combo {
                let b = library::by_name(name).unwrap();
                assert_eq!(b.result, ResultKind::Deterministic, "{name}");
            }
        }
    }
}
