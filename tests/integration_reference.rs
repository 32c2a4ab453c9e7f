//! The differential suite: production `Service` == the naive
//! `ReferenceScheduler` (`tests/support/reference.rs`) — tickets from
//! every `tick`, every `take_result`, the event stream, typed errors
//! and the drained `ServiceReport`, bit for bit — over random
//! interleavings × every policy axis, plus named deterministic cases so
//! a regression names itself.
//!
//! The reference has no queue index, no route or plan cache and no
//! threads, so a stale cache entry, a wrong plan replay, a queue-index
//! slip or a thread-order dependence each make production diverge from
//! it.

mod support;

use proptest::prelude::*;
use qucp_core::efs::CrosstalkTreatment;
use qucp_core::{strategy, PartitionPolicy};
use qucp_device::{ibm, GaussianWalk};
use qucp_runtime::{
    synthetic_jobs, EfsGate, Event, JobRequest, RoutingChoice, RuntimeError, ShrinkReason,
};
use support::arbitrary::{config, interleaving};
use support::{assert_matches_reference, circuit, Config, Drift, Fleet, Op, PoisonAt, SeesawDrift};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn service_matches_the_reference(cfg in config(), ops in interleaving(28, 4)) {
        assert_matches_reference(&ops, &cfg);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(320))]

    /// The same property at CI depth (`cargo test --release -p
    /// qucp-bench --test integration_reference -- --ignored`).
    #[test]
    #[ignore = "long run; a CI step"]
    fn service_matches_the_reference_at_depth(cfg in config(), ops in interleaving(40, 8)) {
        assert_matches_reference(&ops, &cfg);
    }
}

fn submit(name: &str, id: u64, arrival: f64) -> Op {
    Op::Submit(JobRequest::new(circuit(name, format!("{name}#{id}")), arrival).with_id(id))
}

/// A head the split chip admits by count but cannot place fails there,
/// and the failure is memoized; a same-shape job that later takes the
/// queue front replays it under its own id.
#[test]
fn memoized_unplaceable_replays_under_the_later_heads_id() {
    let ops = [
        submit("ghz5", 7, 100.0),
        Op::Tick(200.0),
        submit("ghz5", 9, 50.0),
        Op::Tick(200.0),
    ];
    let cfg = Config {
        fleet: Fleet::Split,
        ..Config::default()
    };
    let mut run = assert_matches_reference(&ops, &cfg);
    assert!(run.report.is_none());
    let stats = run.service.route_cache_stats();
    assert_eq!((stats.plan_misses, stats.plan_hits), (1, 2));
    assert!(matches!(
        run.service.tick(200.0),
        Err(RuntimeError::JobUnplaceable { job_id: 9, .. })
    ));
}

/// Six programs queue for Melbourne's 15 qubits under per-member
/// thresholds: the head batch loses two members to the fidelity gate;
/// the same burst again replays the plan, its `BatchShrunk` events
/// naming the new jobs.
#[test]
fn a_twice_shrunk_batch_replays_with_current_ids() {
    let names = [
        "alu-v0_27",
        "qec",
        "fredkin",
        "alu-v0_27",
        "variation",
        "qec",
    ];
    let thresholds = [None, Some(0.02), Some(1e-4), Some(0.5), None, None];
    let burst = |base: u64, arrival: f64| {
        names
            .iter()
            .zip(thresholds)
            .enumerate()
            .map(move |(i, (name, t))| {
                let id = base + i as u64;
                let mut req = JobRequest::new(circuit(name, format!("{name}#{id}")), arrival);
                req.fidelity_threshold = t;
                Op::Submit(req.with_id(id))
            })
    };
    let ops: Vec<Op> = (burst(100, 0.0).chain([Op::Drain]))
        .chain(burst(200, 1e7))
        .collect();
    for gate in [EfsGate::Batch, EfsGate::BatchWorstExcess] {
        let cfg = Config {
            fleet: Fleet::Melbourne,
            gate,
            max_parallel: 6,
            ..Config::default()
        };
        let run = assert_matches_reference(&ops, &cfg);
        assert!(run.service.route_cache_stats().plan_hits > 0, "{gate:?}");
        let shrunk = |batch: usize| -> Vec<(u64, ShrinkReason)> {
            let events = run.service.events().iter();
            events
                .filter_map(|e| match e {
                    Event::BatchShrunk {
                        batch_index,
                        dropped_job_id,
                        reason,
                        ..
                    } if *batch_index == batch => Some((*dropped_job_id, *reason)),
                    _ => None,
                })
                .collect()
        };
        let first = shrunk(0);
        assert!(first.len() >= 2, "{gate:?}: {first:?}");
        let batches = run.report.expect("drained").batches;
        let replayed_at = batches
            .iter()
            .position(|b| b.job_ids[0] >= 200)
            .expect("burst 2");
        let replayed: Vec<_> = first.iter().map(|&(id, r)| (id + 100, r)).collect();
        assert_eq!(shrunk(replayed_at), replayed, "{gate:?}");
    }
}

/// QuMC's `Measured` treatment (Toronto's ground-truth map) as the
/// service's strategy, through the probe caches (calibration-aware
/// routing, the head-only gate) and the plan cache: the second burst
/// is served from memo.
#[test]
fn measured_crosstalk_strategies_run_through_the_plan_and_probe_caches() {
    let qumc = strategy::qumc_with_ground_truth(&ibm::toronto());
    assert!(matches!(
        &qumc.partition,
        PartitionPolicy::NoiseAware(CrosstalkTreatment::Measured(map)) if !map.is_empty()
    ));
    let names = ["bell", "fredkin", "bell", "qec", "variation", "qec"];
    let burst = |base: u64, arrival: f64| {
        names.iter().enumerate().map(move |(i, name)| {
            let id = base + i as u64;
            let req = JobRequest::new(circuit(name, format!("{name}#{id}")), arrival);
            Op::Submit(req.with_id(id))
        })
    };
    let ops: Vec<Op> = (burst(0, 0.0).chain([Op::Drain]))
        .chain(burst(100, 1e7))
        .collect();
    let cfg = Config {
        fleet: Fleet::Skewed,
        routing: RoutingChoice::CalibrationAware {
            pressure_per_ns: 2e-6,
        },
        strategy: qumc,
        threshold: Some(0.4),
        ..Config::default()
    };
    let run = assert_matches_reference(&ops, &cfg);
    let stats = run.service.route_cache_stats();
    // A burst forms two batches. Per head, one solo probe on each of
    // the two chips and one copy-count probe on the chip that took the
    // batch, holding the lists [h] on each chip and [h; 2], [h; 3] on
    // that one; beside them the two member lists that committed. The
    // second burst allocates nothing and plans nothing.
    assert_eq!(
        (stats.entries, stats.misses, stats.hits),
        (2 * 4 + 2, 2 * 3, 2 * 3),
        "{stats:?}"
    );
    assert_eq!((stats.plan_misses, stats.plan_hits), (2, 2), "{stats:?}");
}

/// A drift model that writes a NaN at step 3 of one device: the advance
/// fails typed on both sides, steps 1–2 of that device and all five of
/// the other stand.
#[test]
fn a_poisoning_drift_step_is_rolled_back_mid_advance() {
    let cfg = Config {
        fleet: Fleet::Skewed,
        routing: RoutingChoice::CalibrationAware {
            pressure_per_ns: 2e-6,
        },
        drift: Drift::Poison(PoisonAt {
            walk: GaussianWalk::new(11, 1000.0),
            step: 3,
            salt: 1,
        }),
        ..Config::default()
    };
    let ops = [
        submit("bell", 0, 0.0),
        submit("qec", 1, 10.0),
        Op::Tick(500.0),
        Op::AdvanceDrift(5000.0),
        submit("bell", 2, 6000.0),
        submit("qec", 3, 6000.0),
        Op::AdvanceDrift(7000.0),
    ];
    let run = assert_matches_reference(&ops, &cfg);
    let epochs: Vec<u64> = run
        .service
        .registry()
        .iter()
        .map(|(id, _)| run.service.device_epoch(id))
        .collect();
    assert_eq!(epochs, [7, 2]);
}

/// The old `drift_shootout` scenario: between two bursts the seesaw
/// drift flips which twin of the skewed fleet is the good one, and
/// calibration-aware routing follows — the cached pre-drift scores must
/// not survive the epoch bumps.
#[test]
fn seesaw_drift_flips_the_skewed_fleet_between_two_bursts() {
    let cfg = Config {
        fleet: Fleet::Skewed,
        routing: RoutingChoice::CalibrationAware {
            pressure_per_ns: 2e-6,
        },
        drift: Drift::Seesaw(SeesawDrift {
            rate: 1.5,
            interval_ns: 50_000.0,
        }),
        default_shots: 32,
        ..Config::default()
    };
    let burst = synthetic_jobs(9, 400.0, 32, 0xF1EE7);
    let mut ops: Vec<Op> = burst
        .iter()
        .map(|j| Op::Submit(JobRequest::from_job(j)))
        .collect();
    ops.extend([Op::Drain, Op::AdvanceDrift(150_000.0)]);
    ops.extend(burst.iter().map(|j| {
        Op::Submit(JobRequest::new(j.circuit.clone(), j.arrival + 1e7).with_id(j.id + 100))
    }));
    let report = assert_matches_reference(&ops, &cfg)
        .report
        .expect("drained");
    let on_noisy_twin = |fresh: bool| -> usize {
        let batches = report.batches.iter();
        batches
            .filter(|b| b.device == "ibmq_toronto_noisy" && (b.job_ids[0] >= 100) == fresh)
            .map(|b| b.job_ids.len())
            .sum()
    };
    assert!(
        on_noisy_twin(false) < 5,
        "pre-drift, Toronto is the good chip"
    );
    assert!(on_noisy_twin(true) > 4, "post-drift, the annealed twin is");
}

/// A per-job calibration-aware override whose pressure is a NaN —
/// which `submit` accepts and the wire carries bit for bit — routes the
/// same whatever the NaN's sign: a waiting chip scores NaN and ranks
/// last, so a free noisy twin takes the batches a busy Toronto would
/// have queued. A negative NaN once ranked the waiting chip first.
#[test]
fn a_negative_nan_pressure_routes_like_a_positive_one() {
    let drained = |pressure_per_ns: f64| {
        let routing = RoutingChoice::CalibrationAware { pressure_per_ns };
        let jobs = synthetic_jobs(9, 400.0, 8, 0xF1EE7);
        let ops: Vec<Op> = jobs
            .iter()
            .map(|j| Op::Submit(JobRequest::from_job(j).with_routing(routing)))
            .collect();
        let cfg = Config {
            fleet: Fleet::Skewed,
            ..Config::default()
        };
        assert_matches_reference(&ops, &cfg)
            .report
            .expect("drained")
    };
    let positive = drained(f64::NAN);
    assert_eq!(drained(-f64::NAN), positive);
    let devices: Vec<&str> = positive.batches.iter().map(|b| b.device.as_str()).collect();
    assert!(devices.contains(&"ibmq_toronto"), "{devices:?}");
    assert!(devices.contains(&"ibmq_toronto_noisy"), "{devices:?}");
}

/// A bounded event log retains the reference's full log truncated to
/// its tail, and counts the rest.
#[test]
fn a_bounded_event_log_is_the_full_log_truncated() {
    let cfg = Config {
        event_capacity: Some(5),
        ..Config::default()
    };
    let mut ops: Vec<Op> = synthetic_jobs(8, 300.0, 8, 7)
        .iter()
        .map(|j| Op::Submit(JobRequest::from_job(j)))
        .collect();
    ops.insert(4, Op::Tick(600.0));
    let report = assert_matches_reference(&ops, &cfg)
        .report
        .expect("drained");
    assert_eq!(report.events.len(), 5);
    assert!(report.dropped_events > 16);
}
