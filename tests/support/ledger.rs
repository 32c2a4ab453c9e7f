//! The reference model's accounting: one ledger per device, in which
//! every served job and every closed batch is booked in dispatch order,
//! and the queue statistics a drained scheduler reports from them.

use qucp_device::Device;
use qucp_runtime::{DeviceReport, QueueStats};

/// A device's clock and what it has served so far.
#[derive(Clone, Default)]
pub struct Ledger {
    /// When the device frees up (ns).
    pub clock: f64,
    busy_time: f64,
    busy_qubit_time: f64,
    batches: usize,
    jobs: usize,
    total_wait: f64,
    total_turnaround: f64,
}

impl Ledger {
    /// Books one served job; `qubit_time` is its width times its
    /// program's makespan inside the batch.
    pub fn serve(&mut self, waiting: f64, turnaround: f64, qubit_time: f64) {
        self.jobs += 1;
        self.total_wait += waiting;
        self.total_turnaround += turnaround;
        self.busy_qubit_time += qubit_time;
    }

    /// Books a batch that keeps the device busy until `completion`.
    pub fn close_batch(&mut self, completion: f64, makespan: f64) {
        self.clock = completion;
        self.busy_time += makespan;
        self.batches += 1;
    }

    /// Queue statistics over `jobs` jobs; `qubit_capacity` is the
    /// busy time weighted by the qubits that were on offer.
    fn stats(&self, jobs: usize, qubit_capacity: f64) -> QueueStats {
        QueueStats {
            mean_waiting: self.total_wait / jobs.max(1) as f64,
            mean_turnaround: self.total_turnaround / jobs.max(1) as f64,
            makespan: self.clock,
            mean_throughput: match qubit_capacity > 0.0 {
                true => self.busy_qubit_time / qubit_capacity,
                false => 0.0,
            },
            batches: self.batches,
        }
    }
}

/// Fleet-wide statistics over `jobs` submitted jobs (the ledgers summed
/// in registration order) and the per-device breakdown.
pub fn queue_report<'a>(
    devices: impl Iterator<Item = (&'a Device, &'a Ledger)>,
    jobs: usize,
) -> (QueueStats, Vec<DeviceReport>) {
    let mut fleet = Ledger::default();
    let mut fleet_capacity = 0.0;
    let mut per_device = Vec::new();
    for (device, ledger) in devices {
        let capacity = ledger.busy_time * device.num_qubits() as f64;
        fleet.clock = fleet.clock.max(ledger.clock);
        fleet.total_wait += ledger.total_wait;
        fleet.total_turnaround += ledger.total_turnaround;
        fleet.busy_qubit_time += ledger.busy_qubit_time;
        fleet.batches += ledger.batches;
        fleet_capacity += capacity;
        per_device.push(DeviceReport {
            device: device.name().to_string(),
            jobs: ledger.jobs,
            stats: ledger.stats(ledger.jobs, capacity),
        });
    }
    (fleet.stats(jobs, fleet_capacity), per_device)
}
