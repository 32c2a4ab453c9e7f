//! Hardware-limits scenario (paper Sec. IV-B / Fig. 4): how many copies
//! of a circuit can IBM Q 65 Manhattan run at once before fidelity
//! collapses? Six copies queue with a per-job fidelity threshold; the
//! service's head-only EFS gate decides how many share the first batch.
//!
//! ```text
//! cargo run --release -p qucp-bench --example hardware_limits
//! ```

use qucp_circuit::library;
use qucp_core::{efs_difference, strategy};
use qucp_device::ibm;
use qucp_runtime::{JobRequest, Service};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let device = ibm::manhattan();
    let circuit = library::by_name("4mod5-v1_22").unwrap().circuit();
    let strat = strategy::qucp(4.0);
    println!("circuit: {circuit}");
    println!(
        "device : {} ({} qubits)\n",
        device.name(),
        device.num_qubits()
    );

    // EFS-estimated fidelity cost of each parallelism level.
    println!("copies  estimated fidelity difference (EFS)");
    for k in 1..=6 {
        let d = efs_difference(&device, &circuit, k, &strat)?;
        println!("{k:>6}  {d:.4}");
    }

    // Thresholds spanning the admission range.
    println!("\nthreshold  copies  throughput  avg PST");
    for threshold in [0.0, 0.01, 0.03, 0.05, 0.08, 0.50] {
        let mut service = Service::builder()
            .device(device.clone())
            .strategy(strat.clone())
            .max_parallel(6)
            .default_shots(4096)
            .build()?;
        for _ in 0..6 {
            let job = JobRequest::new(circuit.clone(), 0.0).with_fidelity_threshold(threshold);
            service.submit(job)?;
        }
        let report = service.run_until_drained()?;
        // The head batch is what the gate admitted; the rest follow.
        let head = &report.batches[0];
        let psts: Vec<f64> = (report.job_results.iter())
            .filter(|r| r.batch_index == 0)
            .filter_map(|r| r.result.pst)
            .collect();
        println!(
            "{threshold:>9.3}  {:>6}  {:>9.1}%  {:>7.3}",
            head.job_ids.len(),
            100.0 * head.used_qubits as f64 / device.num_qubits() as f64,
            psts.iter().sum::<f64>() / psts.len() as f64
        );
    }
    println!("\nPick the threshold where the PST you can tolerate meets the");
    println!("throughput you need — the paper finds the knee near 38% throughput.");
    Ok(())
}
