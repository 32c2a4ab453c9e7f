//! Fleet scale-out integration suite (PR 8): the bounded event log's
//! contract. (Queue-index, plan-cache and thread-order equivalence are
//! pinned by `integration_reference.rs`.)

use qucp_bench::EXPERIMENT_SEED;
use qucp_core::strategy;
use qucp_runtime::{JobRequest, Service, ServiceReport};

/// The bounded event log: a capacity keeps only the most recent events
/// and counts the overflow in `ServiceReport::dropped_events`, while the
/// scheduling outcome (results, batches, stats) is untouched.
#[test]
fn event_capacity_bounds_the_log_without_losing_observers_or_results() {
    let run = |capacity: Option<usize>| -> ServiceReport {
        let mut service = Service::builder()
            .device(qucp_device::ibm::toronto())
            .strategy(strategy::qucp(4.0))
            .max_parallel(2)
            .seed(EXPERIMENT_SEED)
            .event_capacity(capacity)
            .build()
            .expect("bounded-log service must build");
        for job in qucp_runtime::synthetic_jobs(8, 300.0, 32, 7) {
            service
                .submit(JobRequest::from_job(&job))
                .expect("fixture job must submit");
        }
        service.run_until_drained().expect("bounded-log drain")
    };

    let unbounded = run(None);
    assert_eq!(unbounded.dropped_events, 0);
    let total = unbounded.events.len();
    assert!(total > 4, "fixture must emit more events than the cap");

    let bounded = run(Some(4));
    assert_eq!(bounded.events.len(), 4);
    assert_eq!(bounded.dropped_events, total - 4);
    // The ring keeps the *most recent* events.
    assert_eq!(bounded.events[..], unbounded.events[total - 4..]);
    // The schedule itself is unaffected by the cap.
    assert_eq!(bounded.job_results, unbounded.job_results);
    assert_eq!(bounded.batches, unbounded.batches);
    assert_eq!(bounded.stats, unbounded.stats);
}
