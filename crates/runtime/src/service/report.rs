//! The drained [`ServiceReport`] and how it is folded from the
//! per-device accounting.

use super::Service;
use crate::error::RuntimeError;
use crate::event::Event;
use crate::job::JobResult;

/// Queue statistics of a drained service, fleet-wide or for one
/// device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueueStats {
    /// Mean waiting time (start − arrival).
    pub mean_waiting: f64,
    /// Mean turnaround (completion − arrival).
    pub mean_turnaround: f64,
    /// Time the last job completes.
    pub makespan: f64,
    /// Mean hardware throughput while the device was busy (used qubits /
    /// device qubits, time-averaged over busy periods).
    pub mean_throughput: f64,
    /// Number of execution batches dispatched.
    pub batches: usize,
}

/// One dispatched batch of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchReport {
    /// Batch position in dispatch order.
    pub batch_index: usize,
    /// Name of the device that executed the batch.
    pub device: String,
    /// Ids of the jobs the batch carried, in program order.
    pub job_ids: Vec<u64>,
    /// Simulated start time (ns).
    pub start: f64,
    /// Simulated completion time (ns): start + merged makespan.
    pub completion: f64,
    /// Merged-schedule makespan of the batch (ns).
    pub makespan: f64,
    /// Physical qubits the batch occupied.
    pub used_qubits: usize,
    /// Cross-program one-hop CNOT overlaps in the merged schedule.
    pub conflict_count: usize,
}

/// Per-device queue statistics of a drained service.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceReport {
    /// Device name.
    pub device: String,
    /// Jobs the device served.
    pub jobs: usize,
    /// Queue statistics over those jobs (waiting/turnaround means,
    /// device-clock makespan, utilization-weighted throughput).
    pub stats: QueueStats,
}

/// The complete outcome of a drained service.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceReport {
    /// Fleet-wide queue statistics (waiting/turnaround means, fleet
    /// makespan, qubit-weighted throughput over every busy period).
    pub stats: QueueStats,
    /// Per-device breakdown, in registration order.
    pub per_device: Vec<DeviceReport>,
    /// Every dispatched batch, in dispatch order.
    pub batches: Vec<BatchReport>,
    /// Per-job results, in submission order.
    pub job_results: Vec<JobResult>,
    /// The retained telemetry log (every event ever emitted under the
    /// default unbounded [`ServiceBuilder::event_capacity`](crate::ServiceBuilder::event_capacity); only the
    /// most recent `capacity` under a bound).
    pub events: Vec<Event>,
    /// Events the [`ServiceBuilder::event_capacity`](crate::ServiceBuilder::event_capacity) bound dropped from
    /// the retained log (always 0 when unbounded).
    pub dropped_events: usize,
}

impl Service {
    /// The report of a drained service (every job's slot done).
    ///
    /// # Errors
    ///
    /// [`RuntimeError::QueueCorrupted`] naming the first job whose
    /// result is missing.
    pub(super) fn drained_report(&self) -> Result<ServiceReport, RuntimeError> {
        let job_results = self.jobs.results()?;
        let n = job_results.len().max(1) as f64;
        let total_wait: f64 = self.states.iter().map(|s| s.total_wait).sum();
        let total_turnaround: f64 = self.states.iter().map(|s| s.total_turnaround).sum();
        let busy_qubit_time: f64 = self.states.iter().map(|s| s.busy_qubit_time).sum();
        let weighted_busy: f64 = self
            .states
            .iter()
            .enumerate()
            .map(|(i, s)| s.busy_time * self.registry.device_at(i).num_qubits() as f64)
            .sum();
        let makespan = self
            .states
            .iter()
            .map(|s| s.clock)
            .fold(0.0f64, |a, b| a.max(b));
        let stats = QueueStats {
            mean_waiting: total_wait / n,
            mean_turnaround: total_turnaround / n,
            makespan,
            mean_throughput: if weighted_busy > 0.0 {
                busy_qubit_time / weighted_busy
            } else {
                0.0
            },
            batches: self.batches.len(),
        };
        let per_device = self
            .states
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let device = self.registry.device_at(i);
                DeviceReport {
                    device: device.name().to_string(),
                    jobs: s.jobs,
                    stats: QueueStats {
                        mean_waiting: s.total_wait / (s.jobs.max(1) as f64),
                        mean_turnaround: s.total_turnaround / (s.jobs.max(1) as f64),
                        makespan: s.clock,
                        mean_throughput: if s.busy_time > 0.0 {
                            s.busy_qubit_time / (s.busy_time * device.num_qubits() as f64)
                        } else {
                            0.0
                        },
                        batches: s.batches,
                    },
                }
            })
            .collect();
        Ok(ServiceReport {
            stats,
            per_device,
            batches: self.batches.clone(),
            job_results,
            events: self.log.events().to_vec(),
            dropped_events: self.log.dropped(),
        })
    }
}
