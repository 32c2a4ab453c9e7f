//! Jobs entering the batch scheduler and their per-job outcomes.

use std::sync::Arc;

use qucp_circuit::{library, Circuit};
use qucp_core::ProgramResult;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One user job: a circuit to execute with a shot budget, arriving at a
/// given time.
#[derive(Debug, Clone, PartialEq)]
pub struct Job {
    /// Caller-assigned identifier (reported back in [`JobResult`]).
    pub id: u64,
    /// The logical circuit to run.
    pub circuit: Circuit,
    /// Measurement shots requested.
    pub shots: usize,
    /// Arrival time in nanoseconds (same unit as schedule makespans).
    pub arrival: f64,
}

/// The outcome of one job after its batch executed.
///
/// Its scored result is immutable and shared: the service keeps one
/// copy per job, and a claim, a peek's clone, the drained report and
/// the daemon's answers all hold it behind the same [`Arc`], so
/// cloning a `JobResult` copies its numbers and bumps one count.
#[derive(Debug, Clone, PartialEq)]
pub struct JobResult {
    /// The job's identifier.
    pub job_id: u64,
    /// Index of the batch that carried the job.
    pub batch_index: usize,
    /// Time the job's batch started (ns).
    pub start: f64,
    /// Time the job's batch completed (ns).
    pub completion: f64,
    /// Waiting time: start − arrival (ns).
    pub waiting: f64,
    /// Turnaround: completion − arrival (ns).
    pub turnaround: f64,
    /// The scored execution result (counts, PST, JSD, partition, EFS),
    /// shared with the service's copy.
    pub result: Arc<ProgramResult>,
}

/// Generates a deterministic synthetic job stream from the paper's
/// benchmark library: `n` small circuits arriving in a burst, with
/// inter-arrival gaps of 0–`gap_ns` nanoseconds.
///
/// The circuits cycle through the small (3–5 qubit) library benchmarks
/// so several consecutive jobs pack onto a 27-qubit chip.
pub fn synthetic_jobs(n: usize, gap_ns: f64, shots: usize, seed: u64) -> Vec<Job> {
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
            t += rng.gen_range(0.0..gap_ns.max(f64::MIN_POSITIVE));
            let name = NAMES[i % NAMES.len()];
            let mut circuit = library::by_name(name)
                .unwrap_or_else(|| panic!("library benchmark {name} missing"))
                .circuit();
            circuit.set_name(format!("{name}#{i}"));
            Job {
                id: i as u64,
                circuit,
                shots,
                arrival: t,
            }
        })
        .collect()
}

/// Generates a deterministic **skewed** job stream for policy
/// comparisons: mostly small library circuits with every third job a
/// wide GHZ chain of `heavy_width` qubits.
///
/// On a chip where `heavy_width + smallest_small > num_qubits`, the
/// heavy jobs cannot ride along with anything — under FIFO they block
/// the queue head (nothing behind them packs), which is exactly the
/// head-of-line pattern `Backfill` and `ShortestJobFirst` exist to
/// exploit.
pub fn skewed_jobs(n: usize, heavy_width: usize, gap_ns: f64, shots: usize, seed: u64) -> Vec<Job> {
    const SMALL: [&str; 3] = ["bell", "fredkin", "linearsolver"];
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = 0.0;
    // Small jobs rotate on their own counter: indexing by `i` would
    // collide with the heavy-slot modulus and skip SMALL[1] forever.
    let mut small_count = 0usize;
    (0..n)
        .map(|i| {
            t += rng.gen_range(0.0..gap_ns.max(f64::MIN_POSITIVE));
            let circuit = if i % 3 == 1 {
                let mut c = Circuit::with_name(heavy_width, format!("ghz{heavy_width}#{i}"));
                c.h(0);
                for q in 1..heavy_width {
                    c.cx(q - 1, q);
                }
                c
            } else {
                let name = SMALL[small_count % SMALL.len()];
                small_count += 1;
                let mut c = library::by_name(name)
                    .unwrap_or_else(|| panic!("library benchmark {name} missing"))
                    .circuit();
                c.set_name(format!("{name}#{i}"));
                c
            };
            Job {
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
    fn synthetic_jobs_are_deterministic_and_ordered() {
        let a = synthetic_jobs(12, 500.0, 128, 9);
        let b = synthetic_jobs(12, 500.0, 128, 9);
        assert_eq!(a, b);
        assert_eq!(a.len(), 12);
        assert!(a.windows(2).all(|w| w[0].arrival <= w[1].arrival));
        assert!(a.iter().all(|j| j.circuit.width() <= 5));
        // Ids are unique and sequential.
        for (i, j) in a.iter().enumerate() {
            assert_eq!(j.id, i as u64);
        }
    }

    #[test]
    fn skewed_jobs_mix_heavy_and_small() {
        let a = skewed_jobs(8, 13, 100.0, 64, 3);
        let b = skewed_jobs(8, 13, 100.0, 64, 3);
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0].arrival <= w[1].arrival));
        for (i, j) in a.iter().enumerate() {
            if i % 3 == 1 {
                assert_eq!(j.circuit.width(), 13);
                assert!(j.circuit.name().starts_with("ghz13"));
            } else {
                assert!(j.circuit.width() <= 5);
            }
        }
    }
}
