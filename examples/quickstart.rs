//! Quickstart: run two benchmark circuits *simultaneously* on a model of
//! IBM Q 27 Toronto with the QuCP crosstalk-aware policy, and inspect
//! fidelity, throughput and runtime gain. The 8192-shot trajectory
//! loops themselves run shot-sharded across the host's cores
//! (deterministic in the shard count, independent of the core count)
//! on the survival-skip kernel, which samples clean shots from a
//! cached alias table instead of replaying every gate.
//!
//! ```text
//! cargo run --release -p qucp-bench --example quickstart
//! ```

use qucp_circuit::library;
use qucp_core::{strategy, ParallelConfig, Pipeline};
use qucp_device::ibm;
use qucp_sim::{ExecutionConfig, ShotParallelism, TrajectoryKernel};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A NISQ device model: topology + calibration + crosstalk.
    let device = ibm::toronto();
    println!(
        "device: {} ({} qubits, {} links)",
        device.name(),
        device.num_qubits(),
        device.topology().num_links()
    );

    // Two programs from the paper's Table II benchmark suite.
    let programs = vec![
        library::by_name("fredkin").unwrap().circuit(),
        library::by_name("adder").unwrap().circuit(),
    ];
    for p in &programs {
        println!("program: {p}");
    }

    // QuCP with the paper's σ = 4: crosstalk-aware partitioning with no
    // characterization overhead. Each program's 8192 shots split into 8
    // deterministic shards executed on all available cores, and each
    // shot runs on the fast survival-skip kernel (counts stay a pure
    // function of seed, shards, and kernel).
    let qucp = strategy::qucp(4.0);
    let cfg = ParallelConfig {
        execution: ExecutionConfig::default()
            .with_shots(8192)
            .with_parallelism(ShotParallelism::sharded(8))
            .with_kernel(TrajectoryKernel::SurvivalSkip),
        optimize: true,
    };
    let outcome = Pipeline::from_strategy(&qucp).execute(&device, &programs, &cfg)?;

    println!();
    for r in &outcome.programs {
        println!(
            "{:<10} partition {:?}  swaps {}  PST {}  JSD {:.3}",
            r.name,
            r.partition,
            r.swap_count,
            r.pst.map_or("-".into(), |p| format!("{p:.3}")),
            r.jsd,
        );
    }
    println!();
    println!("hardware throughput : {:.1}%", 100.0 * outcome.throughput);
    println!(
        "cross-program CNOT conflicts suffered: {}",
        outcome.conflict_count
    );
    println!(
        "runtime: {:.0} ns merged vs {:.0} ns serial ({:.1}x reduction)",
        outcome.makespan,
        outcome.serial_runtime,
        outcome.runtime_reduction()
    );
    Ok(())
}
