//! Regenerates `BENCH_vqe_shootout.json`: the H2 VQE grid driven as a
//! streaming campaign through the runtime [`Service`], multiprogrammed
//! versus serialized, against the direct-pipeline baseline.
//!
//! Three executions of the same θ grid (commuting-group measurement
//! circuits, [`VqeCampaign`]):
//!
//! - **multiprogrammed** — campaign rounds co-scheduled through a
//!   Service with batching headroom, so each round's measurement
//!   groups share one dispatch;
//! - **serialized** — the identical campaign on a `max_parallel = 1`
//!   Service (one batch per job, the no-multiprogramming ablation);
//! - **direct** — the commuting groups run one circuit at a time
//!   through [`execute_parallel`], the pre-Service pipeline baseline.
//!
//! Doubles as the CI smoke check of the campaign seam — it **asserts**:
//!
//! - the Service campaign is reproducible **bit-for-bit**
//!   (identical [`CampaignRun`]s, energies and scheduling stats);
//! - all three paths land on the same grid-minimum energy within a
//!   noise tolerance, and within chemical-accuracy scale of the
//!   noiseless grid minimum (the quiet fixture makes that bar honest);
//! - the grid minimum sits in the well around the exact H2 ground
//!   energy from the eigensolver;
//! - multiprogramming strictly reduces scheduler batches *and*
//!   campaign makespan versus the serialized Service.
//!
//! ```text
//! cargo run --release -p qucp-bench --bin vqe_shootout            # full shots
//! cargo run --release -p qucp-bench --bin vqe_shootout -- --smoke # quick CI run
//! ```
//!
//! [`Service`]: qucp_runtime::Service
//! [`VqeCampaign`]: qucp_vqe::VqeCampaign
//! [`CampaignRun`]: qucp_runtime::CampaignRun
//! [`execute_parallel`]: qucp_core::execute_parallel

use qucp_core::{execute_parallel, strategy, ParallelConfig};
use qucp_device::{Calibration, CrosstalkModel, Device, Topology};
use qucp_runtime::{run_campaign, CampaignStats, Service};
use qucp_sim::{noiseless_probabilities, ExecutionConfig};
use qucp_vqe::{
    group_energy, group_energy_exact, h2_exact_ground_energy, h2_hamiltonian, measurement_circuit,
    tied_ansatz, VqeCampaign,
};

/// θ grid points (the paper's Table III row (a)).
const THETA_POINTS: usize = 8;

/// Ansatz repetitions.
const REPS: usize = 2;

/// Fixture seed.
const SEED: u64 = qucp_bench::EXPERIMENT_SEED;

/// Shot-noise tolerance for cross-path energy agreement (Ha). The
/// three paths draw different noise realizations, so they agree only
/// statistically; on the quiet fixture the spread is well under this.
const AGREE_TOL: f64 = 0.05;

/// Bar against the noiseless grid minimum (Ha): chemical-accuracy
/// *scale* (~10× the 1.6 mHa chemical accuracy), achievable because
/// the fixture chip is quiet and the shot budget high.
const NEAR_SIM_TOL: f64 = 0.016;

/// The tied one-parameter ansatz cannot reach the exact ground state,
/// so against the eigensolver the bar is the well depth, not chemical
/// accuracy: the minimum must land in the bonding well.
const NEAR_EXACT_TOL: f64 = 0.25;

/// A quiet 12-qubit chip: enough width to co-schedule both commuting
/// groups of one round, calibrated ~30× better than the IBM fixtures
/// so the energy bars measure the campaign seam, not device noise.
fn quiet_device() -> Device {
    let topo = Topology::grid(3, 4);
    let cal = Calibration::uniform(&topo, 1e-3, 1e-5, 2e-3);
    Device::new("quiet-3x4", topo, cal, CrosstalkModel::none())
}

fn service(max_parallel: usize) -> Service {
    Service::builder()
        .device(quiet_device())
        .strategy(strategy::qucp(4.0))
        .max_parallel(max_parallel)
        .seed(SEED)
        // Keep the ansatz structure untouched, as the direct runner does.
        .optimize(false)
        .build()
        .expect("vqe shoot-out service must build")
}

/// One path's outcome.
struct PathOutcome {
    label: &'static str,
    energies: Vec<f64>,
    min_energy: f64,
    /// θ points evaluated per wall-clock second.
    iterations_per_sec: f64,
    /// Campaign scheduling stats (absent for the direct pipeline).
    stats: Option<CampaignStats>,
}

fn run_service_path(label: &'static str, shots: usize, max_parallel: usize) -> PathOutcome {
    let started = std::time::Instant::now();
    let mut svc = service(max_parallel);
    let run = run_campaign(&mut svc, VqeCampaign::h2(THETA_POINTS, REPS, shots))
        .expect("vqe campaign must drain");
    let elapsed = started.elapsed().as_secs_f64();
    PathOutcome {
        label,
        min_energy: run.output.min_energy,
        energies: run.output.energies,
        iterations_per_sec: THETA_POINTS as f64 / elapsed,
        stats: Some(run.stats),
    }
}

/// The pre-Service baseline: every measurement circuit through the
/// core pipeline one at a time (the independent-execution shape of the
/// paper's Table III PG row).
fn run_direct_path(shots: usize) -> PathOutcome {
    let device = quiet_device();
    let h = h2_hamiltonian();
    let groups = h.commuting_groups();
    let st = strategy::qucp(4.0);
    let started = std::time::Instant::now();
    let mut energies = Vec::with_capacity(THETA_POINTS);
    for ti in 0..THETA_POINTS {
        let theta = -std::f64::consts::PI
            + 2.0 * std::f64::consts::PI * (ti as f64 + 0.5) / THETA_POINTS as f64;
        let ansatz = tied_ansatz(h.num_qubits(), REPS, theta);
        let mut energy = 0.0;
        for (gi, group) in groups.iter().enumerate() {
            let strings: Vec<_> = group.iter().map(|&i| &h.terms()[i].0).collect();
            let circuit = measurement_circuit(&ansatz, &strings);
            let cfg = ParallelConfig {
                execution: ExecutionConfig::default()
                    .with_shots(shots)
                    .with_seed(SEED.wrapping_add((ti * groups.len() + gi) as u64 * 101)),
                optimize: false,
            };
            let out = execute_parallel(&device, std::slice::from_ref(&circuit), &st, &cfg)
                .expect("direct vqe circuit must run");
            energy += group_energy(&h, group, &out.programs[0].counts);
        }
        energies.push(energy);
    }
    let elapsed = started.elapsed().as_secs_f64();
    PathOutcome {
        label: "direct",
        min_energy: energies.iter().copied().fold(f64::INFINITY, f64::min),
        energies,
        iterations_per_sec: THETA_POINTS as f64 / elapsed,
        stats: None,
    }
}

/// The noiseless grid minimum — the fixture's own "best achievable"
/// reference for the near-sim bar.
fn noiseless_min() -> f64 {
    let h = h2_hamiltonian();
    let groups = h.commuting_groups();
    (0..THETA_POINTS)
        .map(|ti| {
            let theta = -std::f64::consts::PI
                + 2.0 * std::f64::consts::PI * (ti as f64 + 0.5) / THETA_POINTS as f64;
            let ansatz = tied_ansatz(h.num_qubits(), REPS, theta);
            groups
                .iter()
                .map(|group| {
                    let strings: Vec<_> = group.iter().map(|&i| &h.terms()[i].0).collect();
                    let circuit = measurement_circuit(&ansatz, &strings);
                    group_energy_exact(&h, group, &noiseless_probabilities(&circuit))
                })
                .sum::<f64>()
        })
        .fold(f64::INFINITY, f64::min)
}

fn print_outcome(o: &PathOutcome) {
    match &o.stats {
        Some(s) => println!(
            "  {:<16} min {:>10.6} Ha  {:>6.2} iters/s  {:>3} batches  makespan {:>12.0} ns  \
             mean turnaround {:>12.0} ns",
            o.label,
            o.min_energy,
            o.iterations_per_sec,
            s.batches,
            s.makespan,
            s.total_turnaround / s.jobs as f64,
        ),
        None => println!(
            "  {:<16} min {:>10.6} Ha  {:>6.2} iters/s",
            o.label, o.min_energy, o.iterations_per_sec,
        ),
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let shots = if smoke { 4096 } else { 16384 };
    println!(
        "vqe shoot-out: H2 grid ({THETA_POINTS} points, {shots} shots, {} mode)\n",
        if smoke { "smoke" } else { "full" }
    );

    // Determinism first: the Service campaign must not depend on
    // per-batch thread scheduling.
    {
        let run = || {
            let mut svc = service(4);
            run_campaign(&mut svc, VqeCampaign::h2(THETA_POINTS, REPS, shots))
                .expect("vqe campaign must drain")
        };
        assert_eq!(run(), run(), "vqe campaign must be reproducible");
    }

    let multi = run_service_path("multiprogrammed", shots, 4);
    let serial = run_service_path("serialized", shots, 1);
    let direct = run_direct_path(shots);
    let exact = h2_exact_ground_energy();
    let sim_min = noiseless_min();

    print_outcome(&multi);
    print_outcome(&serial);
    print_outcome(&direct);
    println!("\n  noiseless grid min {sim_min:>10.6} Ha");
    println!("  exact ground       {exact:>10.6} Ha");

    // Energy agreement: all three paths estimate the same grid.
    for other in [&serial, &direct] {
        for (ti, (&a, &b)) in multi.energies.iter().zip(&other.energies).enumerate() {
            assert!(
                (a - b).abs() < AGREE_TOL,
                "θ point {ti}: multiprogrammed {a} vs {} {b} beyond {AGREE_TOL} Ha",
                other.label
            );
        }
    }

    // Accuracy: noise-limited against the noiseless grid minimum,
    // ansatz-limited against the eigensolver.
    for o in [&multi, &serial, &direct] {
        assert!(
            (o.min_energy - sim_min).abs() < NEAR_SIM_TOL,
            "{}: grid min {} vs noiseless {} beyond {NEAR_SIM_TOL} Ha",
            o.label,
            o.min_energy,
            sim_min
        );
        assert!(
            (o.min_energy - exact).abs() < NEAR_EXACT_TOL,
            "{}: grid min {} vs exact {} beyond {NEAR_EXACT_TOL} Ha",
            o.label,
            o.min_energy,
            exact
        );
    }

    // Multiprogramming must pay: strictly fewer scheduler batches and
    // a strictly shorter simulated campaign than the serialized run.
    let (ms, ss) = (multi.stats.unwrap(), serial.stats.unwrap());
    assert!(
        ms.batches < ss.batches,
        "multiprogramming must reduce batches: {} !< {}",
        ms.batches,
        ss.batches
    );
    assert!(
        ms.makespan < ss.makespan,
        "multiprogramming must reduce makespan: {} !< {}",
        ms.makespan,
        ss.makespan
    );

    let path_json = |o: &PathOutcome| {
        let stats = match &o.stats {
            Some(s) => format!(
                ", \"batches\": {}, \"makespan_ns\": {:.1}, \"mean_turnaround_ns\": {:.1}",
                s.batches,
                s.makespan,
                s.total_turnaround / s.jobs as f64
            ),
            None => String::new(),
        };
        format!(
            "    {{ \"path\": \"{}\", \"min_energy\": {:.9}, \"iterations_per_sec\": {:.2}{} }}",
            o.label, o.min_energy, o.iterations_per_sec, stats
        )
    };
    let json = format!(
        "{{\n  \"bench\": \"vqe_shootout\",\n  \"mode\": \"{}\",\n  \"theta_points\": {},\n  \
         \"shots\": {},\n  \"exact_energy\": {:.9},\n  \"noiseless_grid_min\": {:.9},\n  \
         \"paths\": [\n{}\n  ]\n}}\n",
        if smoke { "smoke" } else { "full" },
        THETA_POINTS,
        shots,
        exact,
        sim_min,
        [&multi, &serial, &direct]
            .iter()
            .map(|o| path_json(o))
            .collect::<Vec<_>>()
            .join(",\n"),
    );
    std::fs::write("BENCH_vqe_shootout.json", &json).expect("write BENCH_vqe_shootout.json");
    println!("\nwrote BENCH_vqe_shootout.json");
}
