//! Fleet scale-out integration suite (PR 8): the bounded event log's
//! contract. (Queue-index, plan-cache and thread-order equivalence are
//! pinned by `integration_reference.rs`.)

use qucp_bench::EXPERIMENT_SEED;
use qucp_core::strategy;
use qucp_runtime::{Event, JobRequest, Service, ServiceReport};

/// The bounded event log: a capacity keeps only the most recent events
/// and counts the overflow in `ServiceReport::dropped_events`, while
/// observers still see every event at emission time and the scheduling
/// outcome (results, batches, stats) is untouched.
#[test]
fn event_capacity_bounds_the_log_without_losing_observers_or_results() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    let run = |capacity: Option<usize>| -> (ServiceReport, usize) {
        let observed = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&observed);
        let mut service = Service::builder()
            .device(qucp_device::ibm::toronto())
            .strategy(strategy::qucp(4.0))
            .max_parallel(2)
            .seed(EXPERIMENT_SEED)
            .event_capacity(capacity)
            .observer(move |_: &Event| {
                counter.fetch_add(1, Ordering::Relaxed);
            })
            .build()
            .expect("bounded-log service must build");
        for job in qucp_runtime::synthetic_jobs(8, 300.0, 32, 7) {
            service
                .submit(JobRequest::from_job(&job))
                .expect("fixture job must submit");
        }
        let report = service.run_until_drained().expect("bounded-log drain");
        (report, observed.load(Ordering::Relaxed))
    };

    let (unbounded, unbounded_seen) = run(None);
    assert_eq!(unbounded.dropped_events, 0);
    assert_eq!(unbounded.events.len(), unbounded_seen);
    let total = unbounded.events.len();
    assert!(total > 4, "fixture must emit more events than the cap");

    let (bounded, bounded_seen) = run(Some(4));
    assert_eq!(bounded.events.len(), 4);
    assert_eq!(bounded.dropped_events, total - 4);
    // The ring keeps the *most recent* events.
    assert_eq!(bounded.events[..], unbounded.events[total - 4..]);
    // Observers and the schedule itself are unaffected by the cap.
    assert_eq!(bounded_seen, total);
    assert_eq!(bounded.job_results, unbounded.job_results);
    assert_eq!(bounded.batches, unbounded.batches);
    assert_eq!(bounded.stats, unbounded.stats);
}
