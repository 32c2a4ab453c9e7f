//! VQE scenario (paper Sec. IV-C): estimate the H2 ground-state energy
//! with Pauli-grouped simultaneous measurement. One `VqeCampaign` runs
//! on two services over a model of IBM Q 65 Manhattan: every
//! measurement circuit alone (PG), then all sixteen at once (QuCP + PG).
//!
//! ```text
//! cargo run --release -p qucp-bench --example vqe_h2
//! ```

use qucp_core::strategy;
use qucp_device::ibm;
use qucp_runtime::{run_campaign, RuntimeError, Service};
use qucp_vqe::{h2_exact_ground_energy, h2_hamiltonian, VqeCampaign};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let h = h2_hamiltonian();
    println!("H2 at 0.735 A, parity-mapped to {} qubits:", h.num_qubits());
    for (p, c) in h.terms() {
        println!("  {c:+.6} * {p}");
    }
    println!(
        "commuting groups: {} (naive measurement would need {} circuits per point)\n",
        h.commuting_groups().len(),
        h.terms().len()
    );

    // The whole 8-point θ grid as one round: 16 co-arriving jobs.
    let campaign = VqeCampaign::h2_grid(8, 2, 4096);
    let run_with = |max_parallel: usize| {
        let mut service = Service::builder()
            .device(ibm::manhattan())
            .strategy(strategy::qucp(4.0))
            .max_parallel(max_parallel)
            .seed(42)
            // Keep the ansatz gate for gate, as the campaign docs require.
            .optimize(false)
            .build()?;
        let run = run_campaign(&mut service, campaign.clone())?;
        Ok::<_, RuntimeError>((run, service.run_until_drained()?))
    };
    let pg = run_with(1)?;
    let parallel = run_with(campaign.jobs_per_round())?;

    println!("theta      E(noiseless)  E(PG)     E(QuCP+PG)");
    for (i, noiseless) in campaign.noiseless_energies().iter().enumerate() {
        println!(
            "{:>+6.3}    {noiseless:>10.4}  {:>8.4}  {:>10.4}",
            pg.0.output.thetas[i], pg.0.output.energies[i], parallel.0.output.energies[i]
        );
    }
    println!("\nexact ground energy : {:.5} Ha", h2_exact_ground_energy());
    for (name, (run, report)) in [("PG     ", &pg), ("QuCP+PG", &parallel)] {
        let widest = report.batches.iter().max_by_key(|b| b.job_ids.len());
        let widest = widest.expect("the campaign dispatched");
        println!(
            "{name} : E_min {:.5}  {} batches  makespan {:.0} ns  {} circuits at once on {} of 65 qubits",
            run.output.min_energy,
            run.stats.batches,
            run.stats.makespan,
            widest.job_ids.len(),
            widest.used_qubits
        );
    }
    Ok(())
}
