//! Telemetry events of the service lifecycle.
//!
//! Every state transition of a [`Service`](crate::Service) — a job
//! entering the queue, a batch being planned or shrunk, a job
//! completing — is recorded as an [`Event`] in the service's
//! [`EventLog`], which [`Service::events`](crate::Service::events), the
//! drained report and the daemon's event request read.
//! Timestamps are simulated nanoseconds on the owning device's clock,
//! so a log can be replayed to reconstruct the exact admission
//! decisions (the property tests use this to check the backfill
//! starvation bound).
//!
//! A batch's event block (`BatchRouted`, any `BatchShrunk`s,
//! `BatchPlanned`, the `JobCompleted`s) is *buffered at staging time*
//! and emitted contiguously when the batch finishes, in batch order:
//! execution threads never interleave into the log.
//!
//! An event shares what the service already keeps instead of copying
//! it: a device's name is the `Arc<str>` every device of the chip
//! holds, a routing policy's name is interned once per service, and a
//! planned batch's member ids are the one `Arc<[u64]>` its
//! [`BatchReport`](crate::BatchReport) also holds. Cloning an event —
//! the drained report clones the log — copies no string and no id list.

use std::sync::Arc;

/// Why a planned batch lost its tail member.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShrinkReason {
    /// The partitioner ran out of connected regions for the full batch.
    PartitionFailure,
    /// The heterogeneous EFS gate found a member exceeding its
    /// fidelity-threshold tolerance.
    FidelityGate,
}

/// One service lifecycle transition.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A job entered the pending queue.
    JobSubmitted {
        /// Effective job id (caller-assigned or service-assigned).
        job_id: u64,
        /// Service-assigned submission index (unique even when job ids
        /// collide).
        seq: usize,
        /// Arrival time (ns).
        arrival: f64,
        /// Logical width of the submitted circuit.
        width: usize,
        /// Effective shot budget.
        shots: usize,
    },
    /// The routing policy chose an admitting device for a batch (the
    /// decision precedes planning; the event is recorded only when the
    /// batch actually commits on that device).
    BatchRouted {
        /// Batch position in global dispatch order.
        batch_index: usize,
        /// Name of the winning device.
        device: Arc<str>,
        /// Display name of the routing policy that decided.
        policy: Arc<str>,
        /// The winning candidate's routing score (lower is better: the
        /// device clock under `EarliestFree`, blended
        /// quality-plus-pressure under `CalibrationAware`).
        score: f64,
        /// When the batch can start on the winning device (ns).
        start: f64,
        /// How many admitting candidates competed.
        candidates: usize,
    },
    /// A batch was planned and dispatched to a device.
    BatchPlanned {
        /// Batch position in global dispatch order.
        batch_index: usize,
        /// Name of the device the batch was routed to.
        device: Arc<str>,
        /// Ids of the members, in program order (shared with the
        /// batch's [`BatchReport`](crate::BatchReport)).
        job_ids: Arc<[u64]>,
        /// Simulated start time (ns).
        start: f64,
        /// Merged-schedule makespan (ns).
        makespan: f64,
    },
    /// A batch lost its tail member during planning or gating.
    BatchShrunk {
        /// Batch position in global dispatch order.
        batch_index: usize,
        /// Name of the device the batch was being planned for.
        device: Arc<str>,
        /// Id of the member dropped back into the queue consideration.
        dropped_job_id: u64,
        /// Members remaining after the drop.
        remaining: usize,
        /// What forced the shrink.
        reason: ShrinkReason,
    },
    /// A device's calibration state changed — an explicit
    /// [`Service::recalibrate`](crate::Service::recalibrate), a drift
    /// step that moved values, or a drift-scheduled recalibration
    /// reset. Every such event corresponds to exactly one calibration
    /// **epoch bump** (and one per-device invalidation of the
    /// cross-batch planning cache).
    DeviceRecalibrated {
        /// Name of the device whose calibration changed.
        device: Arc<str>,
        /// The device's new calibration epoch.
        epoch: u64,
    },
    /// A job's batch finished executing.
    JobCompleted {
        /// Effective job id.
        job_id: u64,
        /// Service-assigned submission index.
        seq: usize,
        /// Batch that carried the job.
        batch_index: usize,
        /// Completion time (ns).
        completion: f64,
        /// Turnaround: completion − arrival (ns).
        turnaround: f64,
    },
}

/// An ordered record of every [`Event`] a service emitted.
///
/// ## Capacity contract
///
/// By default the log is **unbounded**: every event is retained for the
/// service's lifetime, bit-for-bit the original behaviour. Under heavy
/// traffic a 100k-job run would hold 100k+ [`Event::JobCompleted`]
/// entries live, so [`EventLog::with_capacity_limit`] (reachable via
/// [`ServiceBuilder::event_capacity`](crate::ServiceBuilder::event_capacity))
/// turns the log into a ring: at most `capacity` **most-recent** events
/// stay live, older ones are dropped oldest-first and counted in
/// [`EventLog::dropped`]. [`EventLog::events`] always returns a
/// contiguous slice in emission order. Pushes stay amortized O(1): the
/// ring is a vector with a dead front that compacts once it reaches
/// half the buffer.
#[derive(Debug, Clone, Default)]
pub struct EventLog {
    events: Vec<Event>,
    /// First live index into `events` (dead prefix below it awaits
    /// compaction).
    start: usize,
    /// Retention bound; `None` = unbounded.
    capacity: Option<usize>,
    /// Events dropped by the retention bound, oldest-first.
    dropped: usize,
}

/// Equality compares the *logical* content (live events, capacity,
/// dropped count), never the ring representation: two logs that
/// recorded the same stream are equal regardless of when each
/// compacted its dead prefix.
impl PartialEq for EventLog {
    fn eq(&self, other: &Self) -> bool {
        self.events() == other.events()
            && self.capacity == other.capacity
            && self.dropped == other.dropped
    }
}

impl EventLog {
    /// An empty, unbounded log.
    pub fn new() -> Self {
        EventLog::default()
    }

    /// An empty log retaining at most `capacity` most-recent events
    /// (`None` = unbounded, exactly [`EventLog::new`]).
    pub fn with_capacity_limit(capacity: Option<usize>) -> Self {
        EventLog {
            capacity,
            ..EventLog::default()
        }
    }

    /// How many events the retention bound has dropped (always 0 on an
    /// unbounded log).
    pub fn dropped(&self) -> usize {
        self.dropped
    }

    /// Appends an event, evicting the oldest live one when the
    /// retention bound is full.
    pub fn push(&mut self, event: Event) {
        match self.capacity {
            None => self.events.push(event),
            Some(0) => self.dropped += 1,
            Some(cap) => {
                self.events.push(event);
                let live = self.events.len() - self.start;
                if live > cap {
                    self.start += live - cap;
                    self.dropped += live - cap;
                }
                // Compact once the dead prefix reaches half the buffer:
                // each element is drained at most once, so pushes stay
                // amortized O(1) and memory stays within 2 × capacity.
                if self.start > 0 && self.start * 2 >= self.events.len() {
                    self.events.drain(..self.start);
                    self.start = 0;
                }
            }
        }
    }

    /// All live events, in emission order (everything ever recorded on
    /// an unbounded log; the most recent `capacity` under a bound).
    pub fn events(&self) -> &[Event] {
        &self.events[self.start..]
    }

    /// Number of live events.
    pub fn len(&self) -> usize {
        self.events.len() - self.start
    }

    /// Whether nothing is live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Ids of all completed jobs, in completion order.
    pub fn completed_ids(&self) -> Vec<u64> {
        self.events()
            .iter()
            .filter_map(|e| match e {
                Event::JobCompleted { job_id, .. } => Some(*job_id),
                _ => None,
            })
            .collect()
    }

    /// The planned batches as `(device, member ids)` pairs, in dispatch
    /// order.
    pub fn planned_batches(&self) -> Vec<(&str, &[u64])> {
        self.events()
            .iter()
            .filter_map(|e| match e {
                Event::BatchPlanned {
                    device, job_ids, ..
                } => Some((&**device, &**job_ids)),
                _ => None,
            })
            .collect()
    }

    /// The routing decisions as `(device, winning score)` pairs, in
    /// dispatch order.
    pub fn routed(&self) -> Vec<(&str, f64)> {
        self.events()
            .iter()
            .filter_map(|e| match e {
                Event::BatchRouted { device, score, .. } => Some((&**device, *score)),
                _ => None,
            })
            .collect()
    }

    /// The calibration-state changes as `(device, new epoch)` pairs, in
    /// emission order.
    pub fn recalibrations(&self) -> Vec<(&str, u64)> {
        self.events()
            .iter()
            .filter_map(|e| match e {
                Event::DeviceRecalibrated { device, epoch } => Some((&**device, *epoch)),
                _ => None,
            })
            .collect()
    }

    /// How many shrink events were recorded for `reason`.
    pub fn shrink_count(&self, reason: ShrinkReason) -> usize {
        self.events()
            .iter()
            .filter(|e| matches!(e, Event::BatchShrunk { reason: r, .. } if *r == reason))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_accumulates_and_queries() {
        let mut log = EventLog::new();
        assert!(log.is_empty());
        log.push(Event::JobSubmitted {
            job_id: 3,
            seq: 0,
            arrival: 0.0,
            width: 2,
            shots: 64,
        });
        log.push(Event::BatchRouted {
            batch_index: 0,
            device: "d".into(),
            policy: "EarliestFree".into(),
            score: 0.0,
            start: 0.0,
            candidates: 1,
        });
        log.push(Event::BatchPlanned {
            batch_index: 0,
            device: "d".into(),
            job_ids: Arc::from([3]),
            start: 0.0,
            makespan: 10.0,
        });
        log.push(Event::JobCompleted {
            job_id: 3,
            seq: 0,
            batch_index: 0,
            completion: 10.0,
            turnaround: 10.0,
        });
        assert_eq!(log.len(), 4);
        assert_eq!(log.completed_ids(), vec![3]);
        assert_eq!(log.planned_batches(), vec![("d", &[3u64][..])]);
        assert_eq!(log.routed(), vec![("d", 0.0)]);
        assert_eq!(log.shrink_count(ShrinkReason::PartitionFailure), 0);
    }
}
