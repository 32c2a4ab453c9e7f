//! Error-mitigation scenario (paper Sec. IV-D): zero-noise extrapolation
//! with the folded circuits executed in one parallel batch via QuCP,
//! reducing the ZNE job overhead to a single execution. One
//! `ZneCampaign` on two services: fold by fold, then the ladder at once.
//!
//! ```text
//! cargo run --release -p qucp-bench --example zne_mitigation
//! ```

use qucp_circuit::library;
use qucp_core::strategy;
use qucp_device::ibm;
use qucp_runtime::{run_campaign, Service};
use qucp_zne::{fold_gates_at_random, scale_ladder, ZneCampaign};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let circuit = library::by_name("fredkin").unwrap().circuit();
    println!("benchmark: {circuit}");

    // Show the folded ladder.
    let ladder = scale_ladder(4, 0.5);
    for &s in &ladder {
        let folded = fold_gates_at_random(&circuit, s, 1);
        println!(
            "  scale {s:.1}: {} gates ({} CNOTs)",
            folded.gate_count(),
            folded.cx_count()
        );
    }
    println!();

    let campaign = ZneCampaign::new(circuit, ladder.clone(), 3, 8192);
    for (process, max_parallel) in [("serial ZNE", 1), ("QuCP+ZNE  ", ladder.len())] {
        let mut service = Service::builder()
            .device(ibm::manhattan())
            .strategy(strategy::qucp(4.0))
            .max_parallel(max_parallel)
            .seed(3)
            // The peephole would cancel the folds back to scale 1.
            .optimize(false)
            .build()?;
        let run = run_campaign(&mut service, campaign.clone())?;
        let out = run.output;
        // The scale-1 rung is the unfolded circuit: no mitigation.
        let unmitigated = (out.ideal - out.samples[0].1).abs();
        let winner = out
            .factory
            .map_or_else(|e| e.to_string(), |f| f.to_string());
        println!(
            "{process}: ideal {:+.4}, |error| {unmitigated:.4} unmitigated -> {:.4} mitigated \
             ({winner}), {} folds in {} job(s)",
            out.ideal, out.error, run.stats.jobs, run.stats.batches
        );
    }
    Ok(())
}
