//! # qucp-bench
//!
//! The reproduction of the paper, run through the system that is
//! benchmarked: [`repro`] holds every table, figure and ablation as a
//! function of a shot budget plus the claim ledger (`REPRO.json`), and
//! [`runner`] the one way they run a parallel workload — jobs and
//! campaigns submitted at t = 0 to a
//! [`Service`](qucp_runtime::Service) and drained. The one binary
//! prints them:
//!
//! ```text
//! cargo run --release -p qucp-bench --bin repro                # every section
//! cargo run --release -p qucp-bench --bin repro -- fig3 table3 # some sections
//! cargo run --release -p qucp-bench --bin repro -- --ledger    # REPRO.json
//! ```
//!
//! The crate root keeps the shared fixtures — the exact benchmark
//! combinations of the paper's figures, the scheduler fleets and job
//! streams — and hosts the repository's examples and integration tests.

#![warn(missing_docs)]

pub mod repro;
pub mod runner;

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
/// on the [`skewed_fleet`] under `routing`, and reduces the drained
/// report to the delivered-fidelity metrics. Deterministic.
///
/// # Panics
///
/// Panics if the service rejects the fixture workload (a runtime
/// regression).
pub fn routing_shootout(routing: qucp_runtime::RoutingChoice) -> ShootoutOutcome {
    use qucp_runtime::{JobRequest, Service};
    let mut service = Service::builder()
        .registry(skewed_fleet())
        .strategy(qucp_core::strategy::qucp(4.0))
        .routing(routing)
        .max_parallel(3)
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

// ---------------------------------------------------------------------------
// Fleet scale-out: the mega-fleet fixture and the heavy-traffic workload.
// ---------------------------------------------------------------------------

/// Error-rate scale cycle of the [`mega_fleet`] calibrations: each chip
/// takes the next factor, so the fleet mixes well-calibrated and noisy
/// chips of every topology class.
pub const FLEET_NOISE_SCALES: [f64; 5] = [1.0, 1.8, 0.7, 2.6, 1.3];

/// A generated heterogeneous fleet of `devices` chips for
/// heavy-traffic workloads. Topologies cycle through four classes — an
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
/// of the paper's Sec. II-A cloud queue — cycling the same six
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
