use std::sync::Arc;

use super::gate::{worst_excess_position, GateBuffers};
use super::route_cache::{PlanEntry, ReplaySlots};
use super::*;
use crate::error::CalibrationFault;
use crate::event::ShrinkReason;
use crate::job::synthetic_jobs;
use crate::policy::{AdmissionPolicy, Backfill};
use crate::registry::DeviceId;
use qucp_circuit::Circuit;
use qucp_core::best_partition;
use qucp_core::pipeline::{Pipeline, PlannedWorkload};
use qucp_core::{strategy, PlanScratch, Strategy};
use qucp_device::{ibm, Calibration, CrosstalkModel, Device};
use qucp_sim::{ShotParallelism, TrajectoryKernel};

fn fifo_service(max_parallel: usize) -> Service {
    Service::builder()
        .device(ibm::toronto())
        .strategy(strategy::qucp(4.0))
        .max_parallel(max_parallel)
        .seed(42)
        .build()
        .unwrap()
}

fn submit_all(service: &mut Service, n: usize) -> Vec<JobTicket> {
    synthetic_jobs(n, 200.0, 128, 7)
        .iter()
        .map(|j| service.submit(JobRequest::from_job(j)).unwrap())
        .collect()
}

#[test]
fn drained_service_serves_every_job() {
    let mut service = fifo_service(3);
    let tickets = submit_all(&mut service, 8);
    let report = service.run_until_drained().unwrap();
    assert_eq!(report.job_results.len(), 8);
    for (ticket, r) in tickets.iter().zip(&report.job_results) {
        assert_eq!(r.job_id, ticket.id);
        assert_eq!(service.result(*ticket).unwrap(), r);
    }
    assert_eq!(service.event_log().completed_ids().len(), 8);
    assert_eq!(report.per_device.len(), 1);
    assert_eq!(report.per_device[0].jobs, 8);
}

#[test]
fn tick_reports_completions_incrementally() {
    let mut service = fifo_service(2);
    let tickets = submit_all(&mut service, 4);
    // Nothing can have completed before the first arrival.
    assert!(service.tick(0.0).unwrap().len() <= tickets.len());
    let mut seen: Vec<JobTicket> = Vec::new();
    let mut t = 0.0;
    while seen.len() < 4 {
        t += 50_000.0;
        seen.extend(service.tick(t).unwrap());
        assert!(t < 1e12, "tick never drained");
    }
    assert_eq!(seen.len(), 4);
    // Every ticket reported exactly once.
    let mut ids: Vec<usize> = seen.iter().map(|t| t.seq).collect();
    ids.sort_unstable();
    assert_eq!(ids, vec![0, 1, 2, 3]);
    // Draining afterwards reports nothing new.
    assert!(service.tick(f64::INFINITY).unwrap().is_empty());
}

#[test]
fn incremental_ticks_match_one_shot_drain() {
    let jobs = synthetic_jobs(6, 300.0, 128, 11);
    let run = |ticked: bool| {
        let mut service = fifo_service(3);
        for j in &jobs {
            service.submit(JobRequest::from_job(j)).unwrap();
        }
        if ticked {
            let mut t = 0.0;
            for _ in 0..200 {
                t += 10_000.0;
                service.tick(t).unwrap();
            }
        }
        service.run_until_drained().unwrap()
    };
    assert_eq!(run(false), run(true));
}

#[test]
fn builder_validation_rejects_bad_configs() {
    assert!(matches!(
        Service::builder().build().unwrap_err(),
        RuntimeError::NoDevices
    ));
    assert!(matches!(
        Service::builder()
            .device(ibm::toronto())
            .max_parallel(0)
            .build()
            .unwrap_err(),
        RuntimeError::ZeroParallel
    ));
    assert!(matches!(
        Service::builder()
            .device(ibm::toronto())
            .default_shots(0)
            .build()
            .unwrap_err(),
        RuntimeError::ZeroShots
    ));
    assert!(matches!(
        Service::builder()
            .device(ibm::toronto())
            .fidelity_threshold(Some(f64::NAN))
            .build()
            .unwrap_err(),
        RuntimeError::InvalidThreshold { .. }
    ));
    assert!(matches!(
        Service::builder()
            .device(ibm::toronto())
            .fidelity_threshold(Some(-0.5))
            .build()
            .unwrap_err(),
        RuntimeError::InvalidThreshold { .. }
    ));
}

#[test]
fn submit_validation_rejects_bad_requests() {
    let mut service = fifo_service(2);
    let bell = qucp_circuit::library::by_name("bell").unwrap().circuit();
    assert!(matches!(
        service
            .submit(JobRequest::new(bell.clone(), f64::NAN))
            .unwrap_err(),
        RuntimeError::NonFiniteTime { .. }
    ));
    assert!(matches!(
        service
            .submit(JobRequest::new(bell.clone(), f64::INFINITY))
            .unwrap_err(),
        RuntimeError::NonFiniteTime { .. }
    ));
    assert!(matches!(
        service
            .submit(JobRequest::new(bell.clone(), 0.0).with_shots(0))
            .unwrap_err(),
        RuntimeError::ZeroShots
    ));
    assert!(matches!(
        service
            .submit(JobRequest::new(bell.clone(), 0.0).with_fidelity_threshold(-1.0))
            .unwrap_err(),
        RuntimeError::InvalidThreshold { .. }
    ));
    assert!(matches!(
        service
            .submit(JobRequest::new(qucp_circuit::Circuit::new(0), 0.0))
            .unwrap_err(),
        RuntimeError::EmptyCircuit
    ));
    // A rejected submission leaves no trace, and takes no seq.
    assert_eq!(service.pending_len(), 0);
    assert!(service.event_log().is_empty());
    let ticket = service.submit(JobRequest::new(bell, 0.0)).unwrap();
    assert_eq!(ticket.seq, 0);
    // Queued: nothing to peek at or claim, and the claim spends nothing.
    assert!(service.result(ticket).is_none());
    assert!(service.take_result(&ticket).is_none());
    assert_eq!(service.tick(f64::INFINITY).unwrap(), vec![ticket]);
    assert!(service.take_result(&ticket).is_some());
    assert!(service.take_result(&ticket).is_none());
}

/// A job wider than every chip is refused at submit with the sentence
/// a drain used to return for it, takes no seq and logs nothing, so the
/// job behind it runs on the next tick instead of waiting behind an
/// error forever.
#[test]
fn a_job_no_chip_admits_is_refused_at_submit_and_holds_up_nothing() {
    let mut service = fifo_service(2);
    let err = service
        .submit(JobRequest::new(Circuit::new(64), 0.0))
        .unwrap_err();
    assert_eq!(
        err.to_string(),
        "job 0 cannot be placed: program 0 needs 64 qubits but the device has 27"
    );
    assert!(matches!(
        err,
        RuntimeError::JobUnplaceable {
            job_id: 0,
            source: qucp_core::CoreError::ProgramTooWide {
                program: 0,
                width: 64,
                device: 27
            }
        }
    ));
    assert!(service.event_log().is_empty());
    let bell = qucp_circuit::library::by_name("bell").unwrap().circuit();
    let ticket = service.submit(JobRequest::new(bell, 10.0)).unwrap();
    assert_eq!(ticket.seq, 0);
    assert_eq!(service.tick(f64::INFINITY).unwrap(), vec![ticket]);
    assert!(service.result(ticket).is_some());
    assert_eq!(service.pending_len(), 0);
    // On a fleet the error names the widest chip, and a job that chip
    // alone admits is queued.
    let mut fleet = Service::builder()
        .device(ibm::melbourne())
        .device(ibm::toronto())
        .build()
        .unwrap();
    let err = fleet.submit(JobRequest::new(Circuit::new(28), 0.0).with_id(5));
    assert_eq!(
        err.unwrap_err().to_string(),
        "job 5 cannot be placed: program 0 needs 28 qubits but the device has 27"
    );
    fleet
        .submit(JobRequest::new(Circuit::new(27), 0.0))
        .unwrap();
    assert_eq!(fleet.pending_len(), 1);
}

/// A strategy with a NaN or infinite crosstalk factor — as σ or as a
/// measured QuMC ratio — is refused when the service is built, with
/// the offending value; finite factors, σ = 0 included, build and
/// drain.
#[test]
fn a_non_finite_crosstalk_factor_is_refused_at_build() {
    use qucp_device::{Link, LinkPair};
    let pair = |a, b, c, d| LinkPair::new(Link::new(a, b), Link::new(c, d));
    let measured =
        |ratio: f64| strategy::qumc([(pair(0, 1, 2, 3), 2.5), (pair(4, 7, 10, 12), ratio)].into());
    let build = |strategy: Strategy| {
        Service::builder()
            .device(ibm::toronto())
            .strategy(strategy)
            .max_parallel(2)
            .build()
    };
    for value in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        for strategy in [strategy::qucp(value), measured(value)] {
            match build(strategy).unwrap_err() {
                RuntimeError::InvalidStrategy { value: got } => {
                    assert_eq!(got.to_bits(), value.to_bits());
                }
                e => panic!("{value}: {e:?}"),
            }
        }
    }
    let bell = qucp_circuit::library::by_name("bell").unwrap().circuit();
    for strategy in [strategy::qucp(0.0), measured(3.0)] {
        let mut service = build(strategy).unwrap();
        service.submit(JobRequest::new(bell.clone(), 0.0)).unwrap();
        service.submit(JobRequest::new(bell.clone(), 0.0)).unwrap();
        let report = service.run_until_drained().unwrap();
        assert_eq!(report.job_results.len(), 2);
    }
}

#[test]
fn per_job_shots_override_applies() {
    let mut service = fifo_service(2);
    let bell = qucp_circuit::library::by_name("bell").unwrap().circuit();
    service
        .submit(JobRequest::new(bell.clone(), 0.0).with_shots(64))
        .unwrap();
    service.submit(JobRequest::new(bell, 0.0)).unwrap();
    let report = service.run_until_drained().unwrap();
    assert_eq!(report.job_results[0].result.counts.shots(), 64);
    assert_eq!(report.job_results[1].result.counts.shots(), 1024);
}

#[test]
fn backfill_and_sjf_conserve_jobs() {
    for policy in ["backfill", "sjf"] {
        let mut builder = Service::builder()
            .device(ibm::toronto())
            .max_parallel(3)
            .seed(9);
        builder = match policy {
            "backfill" => builder.policy(Backfill::default()),
            _ => builder.policy(AdmissionPolicy::ShortestJobFirst),
        };
        let mut service = builder.build().unwrap();
        let tickets = submit_all(&mut service, 9);
        let report = service.run_until_drained().unwrap();
        assert_eq!(report.job_results.len(), 9, "{policy}");
        let mut served: Vec<u64> = report
            .batches
            .iter()
            .flat_map(|b| b.job_ids.iter().copied())
            .collect();
        served.sort_unstable();
        let mut expected: Vec<u64> = tickets.iter().map(|t| t.id).collect();
        expected.sort_unstable();
        assert_eq!(served, expected, "{policy}");
    }
}

#[test]
fn tick_neg_infinity_is_a_noop_and_only_nan_is_rejected() {
    // The time contract is asymmetric: submit requires finite
    // arrivals (pinned elsewhere), tick only rejects NaN. −∞ is a
    // valid horizon by which nothing can start or complete.
    let mut service = fifo_service(2);
    submit_all(&mut service, 3);
    let done = service.tick(f64::NEG_INFINITY).unwrap();
    assert!(done.is_empty());
    assert_eq!(service.pending_len(), 3, "−∞ must not dispatch anything");
    assert!(service.event_log().planned_batches().is_empty());
    assert!(matches!(
        service.tick(f64::NAN).unwrap_err(),
        RuntimeError::NonFiniteTime { .. }
    ));
    // +∞ drains; the earlier −∞ tick must not have disturbed state.
    let done = service.tick(f64::INFINITY).unwrap();
    assert_eq!(done.len(), 3);
    assert!(service.tick(f64::NEG_INFINITY).unwrap().is_empty());
}

#[test]
fn earliest_free_routing_skips_partition_probes() {
    // The default policy never asks for partition scores, so the
    // routing path must not add a list to the memo — keeping the
    // default dispatch exactly as cheap as before the seam.
    let mut service = fifo_service(2);
    submit_all(&mut service, 4);
    service.run_until_drained().unwrap();
    let stats = service.route_cache_stats();
    assert_eq!(stats.hits + stats.misses, 0);
    // Every entry is a list the gate planned.
    assert_eq!(stats.entries, stats.plan_misses, "{stats:?}");
    assert_eq!(service.routing_name(), "EarliestFree");
    // Every committed batch still records its routing decision.
    assert_eq!(
        service.event_log().routed().len(),
        service.event_log().planned_batches().len()
    );
}

#[test]
fn head_only_gate_probes_are_cached_across_batches() {
    // Four identical-shape jobs under a head-only threshold force
    // one probe per (device, shape, threshold) — every subsequent
    // batch hits the memo, and the schedule is unchanged by it.
    let run = |jobs: usize| {
        let mut service = Service::builder()
            .device(ibm::toronto())
            .strategy(strategy::qucp(4.0))
            .max_parallel(2)
            .fidelity_threshold(Some(0.05))
            .default_shots(32)
            .seed(3)
            .build()
            .unwrap();
        let bell = qucp_circuit::library::by_name("bell").unwrap().circuit();
        for i in 0..jobs {
            let mut c = bell.clone();
            c.set_name(format!("bell#{i}"));
            service
                .submit(JobRequest::new(c, 0.0).with_id(i as u64))
                .unwrap();
        }
        let report = service.run_until_drained().unwrap();
        (report, service.route_cache_stats())
    };
    let (report, stats) = run(6);
    assert_eq!(report.job_results.len(), 6);
    assert!(report.stats.batches >= 2, "several batches must dispatch");
    assert_eq!(stats.misses, 1, "one probe per (device, shape, threshold)");
    assert_eq!(stats.hits, report.stats.batches - 1);
    // The memoized run must schedule exactly like a shorter burst
    // scaled up: batch memberships are a pure function of the jobs.
    let (short, _) = run(2);
    assert_eq!(
        report.batches[0].job_ids, short.batches[0].job_ids,
        "cache must not change scheduling decisions"
    );
}

#[test]
fn calibration_aware_caches_solo_scores_per_device_and_shape() {
    let mut service = Service::builder()
        .device(ibm::melbourne())
        .device(ibm::toronto())
        .strategy(strategy::qucp(4.0))
        .routing(crate::registry::CalibrationAware::default())
        .max_parallel(2)
        .default_shots(16)
        .seed(8)
        .build()
        .unwrap();
    assert_eq!(service.routing_name(), "CalibrationAware");
    let bell = qucp_circuit::library::by_name("bell").unwrap().circuit();
    for i in 0..6u64 {
        let mut c = bell.clone();
        c.set_name(format!("bell#{i}"));
        service.submit(JobRequest::new(c, 0.0).with_id(i)).unwrap();
    }
    let report = service.run_until_drained().unwrap();
    assert_eq!(report.job_results.len(), 6);
    let stats = service.route_cache_stats();
    // One solo probe per (device, shape): two devices, one shape.
    assert_eq!(stats.misses, 2);
    assert!(stats.hits > 0, "repeat dispatches must hit the memo");
    // The two solo lists [h], and the pair every batch committed.
    assert_eq!(stats.entries, 3, "{stats:?}");
}

#[test]
fn a_circuit_and_its_fold_schedule_alike_under_the_head_only_gate() {
    // `bell` followed by the inverse pair `cx 0 1; cx 0 1` folds to
    // `bell`. The threshold sits between the two circuits' Fig. 4
    // differences at two copies, so a probe that read the unfolded
    // circuit would cap its batches at one copy and the fold's at two.
    let bell = qucp_circuit::library::by_name("bell").unwrap().circuit();
    let mut padded = bell.clone();
    padded.cx(0, 1).cx(0, 1);
    let mut folded = padded.clone();
    assert_eq!(folded.cancel_adjacent_inverses(), 2);
    assert_eq!(folded.gates(), bell.gates());
    let qucp = strategy::qucp(4.0);
    let difference =
        |c: &Circuit| qucp_core::threshold::efs_difference(&ibm::toronto(), c, 2, &qucp).unwrap();
    let (low, high) = (difference(&folded), difference(&padded));
    assert!(low < high, "the pair must cost EFS: {low} vs {high}");
    let service = || {
        Service::builder()
            .device(ibm::toronto())
            .strategy(qucp.clone())
            .routing(crate::registry::CalibrationAware::default())
            .efs_gate(EfsGate::HeadOnly)
            .fidelity_threshold(Some((low + high) / 2.0))
            .max_parallel(2)
            .default_shots(16)
            .seed(5)
            .build()
            .unwrap()
    };
    let drained = |circuit: &Circuit| {
        let mut service = service();
        for i in 0..4u64 {
            let request = JobRequest::new(circuit.clone(), 0.0).with_id(i);
            service.submit(request).unwrap();
        }
        service.run_until_drained().unwrap()
    };
    let report = drained(&padded);
    assert_eq!(report.stats.batches, 2, "two copies per batch");
    assert_eq!(report, drained(&folded));
    // One shape handle for both: the fold runs before interning.
    let mut service = service();
    for circuit in [&padded, &folded] {
        service
            .submit(JobRequest::new(circuit.clone(), 0.0))
            .unwrap();
    }
    let shape = |seq| service.jobs.get(seq).unwrap().shape.clone();
    assert_eq!(shape(0), shape(1));
}

#[test]
fn colliding_shapes_get_their_own_plans() {
    // Two different circuits of one width, back to back on one chip:
    // their codes open with the same width word, and the shape set's
    // word-by-word equality — never the hash alone — keeps the second
    // batch off the first batch's plan.
    let bell = qucp_circuit::library::by_name("bell").unwrap().circuit();
    let mut flipped = Circuit::new(bell.width());
    flipped.x(0).x(1).cx(1, 0);
    let circuits = [&bell, &flipped, &bell, &flipped];
    let mut service = fifo_service(1);
    for (id, circuit) in circuits.into_iter().enumerate() {
        let request = JobRequest::new(circuit.clone(), id as f64).with_id(id as u64);
        service.submit(request.with_shots(256)).unwrap();
    }
    let report = service.run_until_drained().unwrap();
    // Each shape planned once — both misses — and replayed once.
    let stats = service.route_cache_stats();
    assert_eq!((stats.plan_misses, stats.plan_hits), (2, 2), "{stats:?}");
    assert_eq!(stats.plan_entries, 2);
    // What the uncached reference does, bit for bit: every batch (one
    // job each here, batch `i` serving job `i`) planned from scratch
    // and run under its batch seed.
    let device = ibm::toronto();
    let qucp = strategy::qucp(4.0);
    let pipeline = Pipeline::from_strategy(&qucp);
    for (i, (circuit, served)) in circuits.into_iter().zip(&report.job_results).enumerate() {
        assert_eq!((served.job_id, served.batch_index), (i as u64, i));
        let plan = pipeline
            .plan(&device, std::slice::from_ref(circuit), service.optimize)
            .unwrap();
        let exec = qucp_sim::ExecutionConfig::default()
            .with_shots(256)
            .with_seed(super::dispatch::derive_batch_seed(service.seed, i));
        let fresh = plan.run_program(&device, 0, &exec);
        assert_eq!(*served.result, fresh.unwrap(), "job {i}");
    }
    // The two circuits really do measure differently.
    assert_ne!(
        report.job_results[0].result.counts,
        report.job_results[1].result.counts
    );
}

#[test]
fn the_plan_key_tells_apart_everything_planning_reads() {
    let bell = qucp_circuit::library::by_name("bell").unwrap().circuit();
    let fredkin = qucp_circuit::library::by_name("fredkin").unwrap().circuit();
    let mut service = fifo_service(2);
    service.efs_gate = EfsGate::Batch;
    let mut submit = |circuit: &Circuit, threshold: Option<f64>| {
        let mut request = JobRequest::new(circuit.clone(), 0.0);
        request.fidelity_threshold = threshold;
        service.submit(request).unwrap().seq
    };
    let a = submit(&bell, Some(0.1));
    let b = submit(&fredkin, None);
    let a_again = submit(&bell, Some(0.1));
    let a_looser = submit(&bell, Some(f64::from_bits(0.1f64.to_bits() + 1)));
    let key = |service: &Service, seqs: &[usize]| service.plan_key(0, seqs, Vec::new()).unwrap();

    // Same inputs, same key — a renamed copy included — and the same
    // bucket of the map.
    let base = key(&service, &[a, b]);
    assert_eq!(base, key(&service, &[a_again, b]));
    let held: std::collections::HashSet<_> = [base.clone()].into();
    assert!(held.contains(&key(&service, &[a_again, b])));
    // Member order and one member's shape.
    assert_ne!(base, key(&service, &[b, a]));
    assert_ne!(base, key(&service, &[a, a_again]));
    // Not a member's threshold bits: stage 1 never reads them, and the
    // gate reads them on every pass.
    assert_eq!(base, key(&service, &[a_looser, b]));
    assert!(held.contains(&key(&service, &[a_looser, b])));
    // Not the gate mode either (it decides which lists the gate visits,
    // not what a list allocates), nor the optimize flag (fixed per
    // service, and applied at submit, before the shape is interned;
    // flipped in place here so nothing else differs).
    for gate in [EfsGate::BatchWorstExcess, EfsGate::HeadOnly] {
        service.efs_gate = gate;
        assert_eq!(base, key(&service, &[a, b]));
    }
    service.efs_gate = EfsGate::Batch;
    service.optimize = !service.optimize;
    assert_eq!(base, key(&service, &[a, b]));
    service.optimize = !service.optimize;
    // The calibration epoch: a recalibrated device never shares a key
    // with its former self, whether or not the eager drop on the bump
    // ran.
    let snapshot = ibm::toronto().calibration().clone();
    service
        .recalibrate(DeviceId::from_index(0), snapshot)
        .unwrap();
    assert_ne!(base, key(&service, &[a, b]));
}

#[test]
fn shapes_die_with_their_last_job_and_cache_entry() {
    // A VQE sweep's worth of distinct angles through a two-chip fleet
    // under calibration-aware routing, so plan and probe keys both
    // hold shapes.
    let mut service = aware_two_chip_service();
    for i in 0..500u32 {
        let mut ansatz = Circuit::new(2);
        ansatz.ry(0, f64::from(i) * 1e-3).cx(0, 1);
        service
            .submit(JobRequest::new(ansatz, f64::from(i)).with_shots(1))
            .unwrap();
    }
    assert_eq!(service.shapes.len(), 500);
    service.run_until_drained().unwrap();
    let warm = service.route_cache_stats();
    assert!(warm.plan_entries > 0 && warm.entries > 0, "{warm:?}");
    assert!(service.shapes.len() > 0, "the cache keys hold their shapes");
    let snapshots: Vec<_> = service.registry().iter().collect();
    let snapshots = snapshots
        .into_iter()
        .map(|(id, d)| (id, d.calibration().clone()));
    for (id, calibration) in snapshots.collect::<Vec<_>>() {
        service.recalibrate(id, calibration).unwrap();
    }
    let cold = service.route_cache_stats();
    assert_eq!((cold.plan_entries, cold.entries), (0, 0));
    assert_eq!(service.shapes.len(), 0);
}

#[test]
fn worst_excess_position_skips_head_and_ties_to_tail() {
    // The head's excess never makes it evictable.
    assert_eq!(worst_excess_position(&[9.0, 1.0, 5.0]), 2);
    assert_eq!(worst_excess_position(&[0.0, 5.0, 1.0]), 1);
    // Ties resolve toward the tail (tail-shrink parity on uniform
    // excesses).
    assert_eq!(worst_excess_position(&[0.0, 2.0, 2.0]), 2);
    assert_eq!(worst_excess_position(&[3.0, 0.0]), 1);
}

#[test]
fn advance_drift_without_model_is_a_noop_and_rejects_nonfinite() {
    let mut service = fifo_service(2);
    submit_all(&mut service, 2);
    assert_eq!(service.advance_drift(1e9).unwrap(), 0);
    assert_eq!(service.device_epoch(DeviceId::from_index(0)), 0);
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        assert!(matches!(
            service.advance_drift(bad).unwrap_err(),
            RuntimeError::NonFiniteTime { .. }
        ));
    }
    assert!(service.event_log().recalibrations().is_empty());
}

fn aware_two_chip_service() -> Service {
    Service::builder()
        .device(ibm::melbourne())
        .device(ibm::toronto())
        .strategy(strategy::qucp(4.0))
        .routing(crate::registry::CalibrationAware::default())
        .max_parallel(2)
        .default_shots(16)
        .seed(8)
        .build()
        .unwrap()
}

#[test]
fn recalibration_bumps_epoch_invalidates_cache_and_emits_event() {
    let mut service = aware_two_chip_service();
    submit_all(&mut service, 4);
    service.run_until_drained().unwrap();
    let warm = service.route_cache_stats();
    // Every shape was probed on both chips: each holds entries.
    let on = |service: &Service, d| {
        service
            .route_cache
            .plans
            .keys()
            .filter(|k| k.device == d)
            .count()
    };
    let on_mel = on(&service, 0);
    assert!(on_mel > 0 && on(&service, 1) > 0, "{warm:?}");
    assert_eq!(warm.invalidated, 0);

    let mel = DeviceId::from_index(0);
    let fresh = ibm::melbourne().calibration().clone();
    let epoch = service.recalibrate(mel, fresh).unwrap();
    assert_eq!(epoch, 1);
    assert_eq!(service.device_epoch(mel), 1);
    assert_eq!(service.device_epoch(DeviceId::from_index(1)), 0);
    let stats = service.route_cache_stats();
    // Only Melbourne's entries dropped; Toronto's survive.
    assert_eq!(stats.entries, warm.entries - on_mel);
    assert_eq!(stats.invalidated, on_mel);
    assert_eq!(
        service.event_log().recalibrations(),
        vec![(ibm::melbourne().name(), 1)]
    );
    // The next same-shape dispatch re-probes the recalibrated chip.
    submit_all(&mut service, 2);
    service.run_until_drained().unwrap();
    assert!(service.route_cache_stats().entries > stats.entries);
    assert!(service.route_cache_stats().misses > warm.misses);
}

#[test]
fn invalid_recalibrations_are_rejected_typed_without_side_effects() {
    let mut service = aware_two_chip_service();
    submit_all(&mut service, 4);
    service.run_until_drained().unwrap();
    let warm = service.route_cache_stats();
    let mel = DeviceId::from_index(0);

    // NaN entries must not reach the device or the cache.
    let mut poisoned = ibm::melbourne().calibration().clone();
    poisoned.set_readout_error(3, f64::NAN);
    let err = service.recalibrate(mel, poisoned).unwrap_err();
    assert!(matches!(
        err,
        RuntimeError::InvalidCalibration {
            fault: crate::error::CalibrationFault::NonFinite,
            ..
        }
    ));

    // Wrong qubit count.
    let wrong = ibm::toronto().calibration().clone();
    assert!(matches!(
        service.recalibrate(mel, wrong).unwrap_err(),
        RuntimeError::InvalidCalibration {
            fault: crate::error::CalibrationFault::QubitCountMismatch { .. },
            ..
        }
    ));

    // Right qubit count, wrong link set.
    let line = qucp_device::Topology::line(ibm::melbourne().num_qubits());
    let uncovering = Calibration::uniform(&line, 0.02, 3e-4, 0.03);
    assert!(matches!(
        service.recalibrate(mel, uncovering).unwrap_err(),
        RuntimeError::InvalidCalibration {
            fault: crate::error::CalibrationFault::MissingLinks,
            ..
        }
    ));

    // No side effects: epoch, cache and telemetry untouched.
    assert_eq!(service.device_epoch(mel), 0);
    assert_eq!(service.route_cache_stats(), warm);
    assert!(service.event_log().recalibrations().is_empty());
}

#[test]
fn drift_steps_bump_epochs_and_recalibration_resets_restore_baseline() {
    let baseline = ibm::toronto().calibration().clone();
    let mut service = Service::builder()
        .device(ibm::toronto())
        .strategy(strategy::qucp(4.0))
        .drift(qucp_device::GaussianWalk::new(3, 1000.0))
        .max_parallel(2)
        .seed(42)
        .build()
        .unwrap();
    let tor = DeviceId::from_index(0);
    // Three drift steps: three bumps, calibration has moved.
    assert_eq!(service.advance_drift(3000.0).unwrap(), 3);
    assert_eq!(service.device_epoch(tor), 3);
    assert_ne!(service.registry().get(tor).calibration(), &baseline);
    // A recalibration installs the baseline again; drift walks on
    // from it.
    assert_eq!(service.recalibrate(tor, baseline.clone()).unwrap(), 4);
    assert_eq!(service.registry().get(tor).calibration(), &baseline);
    // Time never runs backwards; replaying an old horizon is a noop.
    assert_eq!(service.advance_drift(2000.0).unwrap(), 0);
    assert_eq!(service.device_epoch(tor), 4);
    assert_eq!(service.registry().get(tor).calibration(), &baseline);
    assert_eq!(service.advance_drift(4000.0).unwrap(), 1);
    assert_ne!(service.registry().get(tor).calibration(), &baseline);
    // Telemetry recorded one event per bump, epochs ascending.
    assert_eq!(
        service
            .event_log()
            .recalibrations()
            .iter()
            .map(|&(_, e)| e)
            .collect::<Vec<_>>(),
        vec![1, 2, 3, 4, 5]
    );
}

#[test]
fn poisoning_drift_steps_are_rolled_back_with_a_typed_error() {
    // A misbehaving model (no clamps) writing NaN must hit the same
    // gate as an explicit NaN recalibration: typed error, step
    // rolled back, nothing bumped or emitted.
    #[derive(Debug)]
    struct PoisonDrift;
    impl DriftModel for PoisonDrift {
        fn steps_at(&self, now: f64) -> u64 {
            qucp_device::interval_steps(now, 1000.0)
        }
        fn apply_step(
            &self,
            _step: u64,
            _salt: u64,
            calibration: &mut Calibration,
            _crosstalk: &mut CrosstalkModel,
        ) -> bool {
            calibration.set_readout_error(0, f64::NAN);
            true
        }
    }
    let mut service = Service::builder()
        .device(ibm::toronto())
        .strategy(strategy::qucp(4.0))
        .drift(PoisonDrift)
        .max_parallel(2)
        .seed(42)
        .build()
        .unwrap();
    let baseline = ibm::toronto().calibration().clone();
    let err = service.advance_drift(3000.0).unwrap_err();
    assert!(matches!(
        err,
        RuntimeError::InvalidCalibration {
            fault: CalibrationFault::NonFinite,
            ..
        }
    ));
    let tor = DeviceId::from_index(0);
    assert_eq!(service.device_epoch(tor), 0, "poisoned step must not bump");
    assert_eq!(service.registry().get(tor).calibration(), &baseline);
    assert!(service.event_log().recalibrations().is_empty());
}

#[test]
fn a_finite_out_of_range_calibration_is_refused_before_a_tick_can_run_it() {
    // A readout error of 1.5 or -0.1 is finite. Installed, it failed
    // the simulator's readout draw inside the next tick; now an
    // explicit snapshot and a drift step holding one are both refused
    // with the typed fault, and the next tick runs on the old state.
    #[derive(Debug)]
    struct OutOfRangeDrift(f64);
    impl DriftModel for OutOfRangeDrift {
        fn steps_at(&self, now: f64) -> u64 {
            qucp_device::interval_steps(now, 1000.0)
        }
        fn apply_step(
            &self,
            _step: u64,
            _salt: u64,
            calibration: &mut Calibration,
            _crosstalk: &mut CrosstalkModel,
        ) -> bool {
            calibration.set_readout_error(0, self.0);
            true
        }
    }
    let out_of_range = |fault: &RuntimeError| {
        matches!(
            fault,
            RuntimeError::InvalidCalibration {
                fault: CalibrationFault::OutOfRange,
                ..
            }
        )
    };
    let baseline = ibm::toronto().calibration().clone();
    let tor = DeviceId::from_index(0);
    for readout in [1.5, -0.1] {
        let mut service = Service::builder()
            .device(ibm::toronto())
            .strategy(strategy::qucp(4.0))
            .drift(OutOfRangeDrift(readout))
            .max_parallel(2)
            .seed(42)
            .build()
            .unwrap();
        let mut snapshot = baseline.clone();
        for q in 0..snapshot.num_qubits() {
            snapshot.set_readout_error(q, readout);
        }
        assert!(out_of_range(
            &service.recalibrate(tor, snapshot).unwrap_err()
        ));
        assert!(out_of_range(&service.advance_drift(3000.0).unwrap_err()));
        assert_eq!(service.device_epoch(tor), 0, "nothing was installed");
        assert_eq!(service.registry().get(tor).calibration(), &baseline);
        submit_all(&mut service, 4);
        assert_eq!(service.tick(f64::INFINITY).unwrap().len(), 4);
    }
    // Every bound is inclusive: the rates 0 and 1 and zero times pass.
    let mut edge = baseline.clone();
    edge.set_readout_error(0, 1.0);
    edge.set_readout_error(1, 0.0);
    assert!(edge.in_range());
    edge.set_readout_error(1, -0.0);
    assert!(edge.in_range());
    edge.set_readout_error(1, f64::NAN);
    assert!(!edge.in_range());
}

#[test]
fn runaway_drift_horizons_are_refused_not_truncated() {
    // A clock-unit mismatch (e.g. seconds against a nanosecond
    // interval) must fail loudly with state untouched, never spin
    // through quadrillions of steps or silently skip some.
    let mut service = Service::builder()
        .device(ibm::toronto())
        .strategy(strategy::qucp(4.0))
        .drift(qucp_device::GaussianWalk::new(3, 1.0))
        .max_parallel(2)
        .seed(42)
        .build()
        .unwrap();
    let horizon = (MAX_DRIFT_STEPS_PER_ADVANCE + 1) as f64;
    let err = service.advance_drift(horizon).unwrap_err();
    assert!(matches!(
        err,
        RuntimeError::DriftHorizonTooFar {
            steps,
            max: MAX_DRIFT_STEPS_PER_ADVANCE,
        } if steps == MAX_DRIFT_STEPS_PER_ADVANCE + 1
    ));
    assert_eq!(service.device_epoch(DeviceId::from_index(0)), 0);
    assert!(service.event_log().recalibrations().is_empty());
    // The refusal is recoverable (the model is restored) and the
    // bound is per advance: bounded hops still make progress.
    assert!(service.advance_drift(10.0).unwrap() > 0);
    assert!(service.advance_drift(60.0).unwrap() > 0);
}

#[test]
fn per_job_shot_parallelism_override_applies() {
    // Two identical jobs in one service, one overriding to sharded:
    // the override job's counts must match a run where both jobs
    // override, the other job must match the serial default — which is
    // what an explicit `Serial` override runs too.
    let bell = qucp_circuit::library::by_name("bell").unwrap().circuit();
    let run = |overrides: [Option<ShotParallelism>; 2]| {
        let mut service = Service::builder()
            .device(ibm::toronto())
            .strategy(strategy::qucp(4.0))
            .max_parallel(1)
            .default_shots(256)
            .seed(7)
            .build()
            .unwrap();
        for (i, mode) in (0..2u64).zip(overrides) {
            let mut req = JobRequest::new(bell.clone(), 0.0).with_id(i);
            req.shot_parallelism = mode;
            service.submit(req).unwrap();
        }
        service.run_until_drained().unwrap()
    };
    let sharded = Some(ShotParallelism::sharded(4));
    let mixed = run([sharded, None]);
    let all_serial = run([None, None]);
    let all_sharded = run([sharded, sharded]);
    assert_eq!(all_serial, run([Some(ShotParallelism::Serial); 2]));
    assert_eq!(
        mixed.job_results[0].result.counts, all_sharded.job_results[0].result.counts,
        "override job runs sharded"
    );
    assert_eq!(
        mixed.job_results[1].result.counts, all_serial.job_results[1].result.counts,
        "non-override job keeps the service default"
    );
    assert_ne!(
        mixed.job_results[0].result.counts, all_serial.job_results[0].result.counts,
        "the override must actually change the sample"
    );
}

#[test]
fn per_job_trajectory_kernel_override_applies() {
    // Two identical jobs in one service, one overriding to the
    // survival-skip kernel: the override job's counts must match a run
    // where both jobs override, the other job must match the replay
    // default — which is what an explicit `Replay` override runs too.
    let bell = qucp_circuit::library::by_name("bell").unwrap().circuit();
    let run = |overrides: [Option<TrajectoryKernel>; 2]| {
        let mut service = Service::builder()
            .device(ibm::toronto())
            .strategy(strategy::qucp(4.0))
            .max_parallel(1)
            .default_shots(256)
            .seed(7)
            .build()
            .unwrap();
        for (i, kernel) in (0..2u64).zip(overrides) {
            let mut req = JobRequest::new(bell.clone(), 0.0).with_id(i);
            req.trajectory_kernel = kernel;
            service.submit(req).unwrap();
        }
        service.run_until_drained().unwrap()
    };
    let survival = Some(TrajectoryKernel::SurvivalSkip);
    let mixed = run([survival, None]);
    let all_replay = run([None, None]);
    let all_survival = run([survival, survival]);
    assert_eq!(all_replay, run([Some(TrajectoryKernel::Replay); 2]));
    assert_eq!(
        mixed.job_results[0].result.counts, all_survival.job_results[0].result.counts,
        "override job runs the survival-skip kernel"
    );
    assert_eq!(
        mixed.job_results[1].result.counts, all_replay.job_results[1].result.counts,
        "non-override job keeps the service default"
    );
    assert_ne!(
        mixed.job_results[0].result.counts, all_replay.job_results[0].result.counts,
        "the override must actually change the sample"
    );
}

#[test]
fn a_forged_ticket_peeks_and_claims_nothing() {
    let bell = qucp_circuit::library::by_name("bell").unwrap().circuit();
    let mut service = fifo_service(2);
    let owner = service
        .submit(JobRequest::new(bell, 0.0).with_id(7).with_shots(64))
        .unwrap();
    service.run_until_drained().unwrap();
    let forged = JobTicket {
        seq: owner.seq,
        id: 8,
    };
    assert!(service.result(forged).is_none());
    assert!(service.take_result(&forged).is_none());
    assert!(service.result(owner).is_some());
    assert_eq!(service.take_result(&owner).unwrap().job_id, 7);
    assert!(service.take_result(&owner).is_none());
}

#[test]
fn a_staged_batch_runs_on_the_device_it_was_planned_on() {
    // `install_before` / `install_after`: a changed calibration is
    // installed on the batch's device before staging / between staging
    // and execution.
    let run = |install_before: bool, install_after: bool| {
        let bell = qucp_circuit::library::by_name("bell").unwrap().circuit();
        let mut service = fifo_service(2);
        for i in 0..2u64 {
            let request = JobRequest::new(bell.clone(), 0.0).with_id(i);
            service.submit(request.with_shots(512)).unwrap();
        }
        let tor = DeviceId::from_index(0);
        let install = |service: &mut Service| {
            let mut drifted = service.registry().get(tor).calibration().clone();
            for e in drifted.readout_errors_mut() {
                *e = (*e * 4.0).min(0.4);
            }
            service.recalibrate(tor, drifted).unwrap();
        };
        if install_before {
            install(&mut service);
        }
        let staged = service.stage_one(f64::INFINITY).unwrap().unwrap();
        if install_after {
            install(&mut service);
            assert_eq!(service.device_epoch(tor), 1);
        }
        staged.execute().unwrap()
    };
    let untouched = run(false, false);
    assert_eq!(run(false, true), untouched);
    assert_ne!(run(true, false), untouched, "the install must matter");
}

#[test]
fn plan_cache_replays_repeated_batches_and_counts_lookups() {
    let bell = qucp_circuit::library::by_name("bell").unwrap().circuit();
    let mut service = fifo_service(2);
    // Four identical jobs, packed two per batch: the second batch's
    // member shapes are the first's, key for key, so its committed
    // plan replays from the cache.
    for i in 0..4u64 {
        service
            .submit(JobRequest::new(bell.clone(), i as f64 * 100.0).with_id(i))
            .unwrap();
    }
    let report = service.run_until_drained().unwrap();
    let stats = service.route_cache_stats();
    assert!(stats.plan_misses >= 1, "the first batch must plan fresh");
    assert!(
        stats.plan_hits >= 1,
        "identical batches must replay: {stats:?}"
    );
    assert_eq!(
        stats.plan_hits + stats.plan_misses,
        report.stats.batches,
        "every dispatched batch does exactly one plan-cache lookup"
    );
    assert_eq!(
        stats.plan_entries, stats.plan_misses,
        "each miss memoizes exactly one entry"
    );
    assert_eq!(stats.plan_invalidated, 0);
}

#[test]
fn prepared_slots_fill_on_the_first_hit_and_die_with_their_entry() {
    use super::dispatch::{derive_batch_seed, PREPARED_RETAIN_BYTES};
    // One batch shape, `ghz(14)` + `bell`, dispatched five times: twice
    // more after the first, then twice after an epoch bump.
    let circuits = [
        qucp_circuit::library::ghz(14),
        qucp_circuit::library::by_name("bell").unwrap().circuit(),
    ];
    let qucp = strategy::qucp(4.0);
    let pipeline = Pipeline::from_strategy(&qucp);
    let mut service = fifo_service(2);
    let tor = DeviceId::from_index(0);
    // Dispatches the next batch and holds both results to a freshly
    // planned batch's on the service's current device; returns the
    // plan-cache (hits, misses) and the one entry's slots.
    let dispatch = |service: &mut Service| {
        let tickets: Vec<JobTicket> = circuits
            .iter()
            .map(|c| {
                let request = JobRequest::new(c.clone(), 0.0).with_shots(64);
                service.submit(request).unwrap()
            })
            .collect();
        service.run_until_drained().unwrap();
        let device = service.registry().get(tor);
        let plan = pipeline.plan(device, &circuits, service.optimize).unwrap();
        let batch = service.batches_run() - 1;
        let exec = qucp_sim::ExecutionConfig::default()
            .with_shots(64)
            .with_seed(derive_batch_seed(service.seed, batch));
        for (pos, &ticket) in tickets.iter().enumerate() {
            let served = service.result(ticket).unwrap();
            assert_eq!(served.batch_index, batch);
            let fresh = plan.run_program(device, pos, &exec).unwrap();
            assert_eq!(*served.result, fresh, "batch {batch}, program {pos}");
        }
        let stats = service.route_cache_stats();
        assert_eq!(stats.plan_entries, 1, "{stats:?}");
        let entry = service.route_cache.plans.values().next().unwrap();
        let PlanEntry::Planned { slots, .. } = entry else {
            panic!("the batch committed: {entry:?}");
        };
        ((stats.plan_hits, stats.plan_misses), slots.clone())
    };
    let filled = |slots: &ReplaySlots| slots.iter().map(|s| s.get().is_some()).collect::<Vec<_>>();

    // A miss is the plan's first execution: no slot exists.
    let (lookups, slots) = dispatch(&mut service);
    assert_eq!((lookups, slots.is_none()), ((0, 1), true));
    // The first hit allocates the slots and fills them, but `ghz(14)`'s
    // state is past the cap and is never kept.
    let (lookups, slots) = dispatch(&mut service);
    let slots = slots.expect("allocated on the first hit");
    assert_eq!((lookups, filled(&slots)), ((1, 1), vec![false, true]));
    let bell: *const _ = slots[1].get().unwrap();
    // The second hit replays the filled slot and still rebuilds the
    // oversized one.
    let (lookups, again) = dispatch(&mut service);
    let again = again.unwrap();
    assert!(Arc::ptr_eq(&slots, &again) && std::ptr::eq(bell, again[1].get().unwrap()));
    assert_eq!((lookups, filled(&again)), ((2, 1), vec![false, true]));
    let device = service.registry().get(tor);
    let plan = pipeline.plan(device, &circuits, service.optimize).unwrap();
    let exec = qucp_core::ParallelConfig::default().execution;
    let retained = |pos| plan.prepare(device, pos, &exec).unwrap().retained_bytes();
    assert!(retained(0) > PREPARED_RETAIN_BYTES && retained(1) <= PREPARED_RETAIN_BYTES);
    // The cap falls among 12-qubit programs planned alone: `ghz(12)`'s
    // prepared state (118 480 B) and `w_state(12)`'s (125 000 B) fit,
    // `qft(12)`'s (167 960 B), with its denser event stream, does not.
    use qucp_circuit::library::{ghz, qft, w_state};
    let solo = |circuit: Circuit| {
        let plan = pipeline.plan(device, &[circuit], true).unwrap();
        plan.prepare(device, 0, &exec).unwrap().retained_bytes()
    };
    let [fits, fits_too, past] = [ghz(12), w_state(12), qft(12)].map(solo);
    assert!(fits <= PREPARED_RETAIN_BYTES && fits_too <= PREPARED_RETAIN_BYTES);
    assert!(past > PREPARED_RETAIN_BYTES);

    // An epoch bump drops the slots with their entry.
    let held = Arc::downgrade(&slots);
    drop((slots, again));
    let mut drifted = device.calibration().clone();
    for e in drifted.readout_errors_mut() {
        *e *= 0.5;
    }
    service.recalibrate(tor, drifted).unwrap();
    assert_eq!(service.route_cache_stats().plan_entries, 0);
    assert!(held.upgrade().is_none());
    // The new epoch's entry starts over, against the new calibration.
    let (lookups, slots) = dispatch(&mut service);
    assert_eq!((lookups, slots.is_none()), ((2, 2), true));
    let (lookups, slots) = dispatch(&mut service);
    assert_eq!(
        (lookups, filled(&slots.unwrap())),
        ((3, 2), vec![false, true])
    );
}

/// Eight qubits in two disconnected lines of four: a job of five fits
/// by count, but no connected region holds it.
fn split_chip() -> Device {
    let lines = [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7)];
    let topology = qucp_device::Topology::new(8, &lines);
    let calibration = Calibration::uniform(&topology, 0.01, 0.001, 0.02);
    Device::new("split", topology, calibration, CrosstalkModel::none())
}

#[test]
fn memoized_unplaceable_outcome_replays_from_the_cache() {
    let mut service = Service::builder()
        .device(split_chip())
        .max_parallel(2)
        .build()
        .unwrap();
    // The split chip admits a five-qubit GHZ chain by count but cannot
    // place it; the failed plan is memoized like a committed one.
    let mut ghz = Circuit::new(5);
    ghz.h(0).cx(0, 1).cx(1, 2).cx(2, 3).cx(3, 4);
    service
        .submit(JobRequest::new(ghz, 0.0).with_id(7))
        .unwrap();
    let err = service.run_until_drained().unwrap_err();
    assert!(matches!(
        err,
        RuntimeError::JobUnplaceable {
            job_id: 7,
            source: qucp_core::CoreError::PartitionUnavailable { .. }
        }
    ));
    let stats = service.route_cache_stats();
    assert_eq!((stats.plan_hits, stats.plan_misses), (0, 1));
    // The job stays queued; retrying replays the memoized failure
    // (a hit, not a second fresh plan) re-bound to the batch head.
    let err = service.run_until_drained().unwrap_err();
    assert!(matches!(
        err,
        RuntimeError::JobUnplaceable { job_id: 7, .. }
    ));
    let stats = service.route_cache_stats();
    assert_eq!((stats.plan_hits, stats.plan_misses), (1, 1));
}

/// Staging never assumes a fleet it cannot see: with the registry
/// emptied by hand (no public route does it — `build` refuses an empty
/// fleet and nothing unregisters a chip) the head is admitted nowhere,
/// the ranking is empty, and the dispatch ends in the typed error
/// `build` would have given, where it used to `expect`.
#[test]
fn a_fleet_emptied_under_the_service_is_a_typed_error_not_a_panic() {
    let mut service = fifo_service(2);
    let bell = qucp_circuit::library::by_name("bell").unwrap().circuit();
    service.submit(JobRequest::new(bell, 0.0)).unwrap();
    service.registry = DeviceRegistry::new();
    assert!(matches!(
        service.run_until_drained(),
        Err(RuntimeError::NoDevices)
    ));
    assert_eq!(service.pending_len(), 1);
}

#[test]
fn recalibration_drops_plan_entries_with_the_probes() {
    let bell = qucp_circuit::library::by_name("bell").unwrap().circuit();
    let mut service = fifo_service(2);
    for i in 0..2u64 {
        service
            .submit(JobRequest::new(bell.clone(), i as f64 * 100.0).with_id(i))
            .unwrap();
    }
    service.run_until_drained().unwrap();
    let before = service.route_cache_stats();
    assert!(before.plan_entries >= 1);
    let (id, snapshot) = {
        let (id, d) = service.registry().iter().next().unwrap();
        (id, d.calibration().clone())
    };
    service.recalibrate(id, snapshot).unwrap();
    let after = service.route_cache_stats();
    assert_eq!(
        after.plan_entries, 0,
        "the epoch bump drops the device's plans"
    );
    assert_eq!(after.plan_invalidated, before.plan_entries);
}

/// The shrink loop as it was: one full [`Pipeline::plan`] per
/// attempt, the gate reading the plan's allocations against solo scores
/// probed afresh. `members` are `(id, circuit, threshold)`, head first.
/// Returns the plan, the surviving ids and the eviction trace.
fn replanning_gate(
    pipeline: &Pipeline,
    device: &Device,
    gate: EfsGate,
    head_strategy: &Strategy,
    mut members: Vec<(u64, Circuit, Option<f64>)>,
) -> (PlannedWorkload, Vec<u64>, Vec<(usize, ShrinkReason)>) {
    let mut trace = Vec::new();
    loop {
        let circuits: Vec<Circuit> = members.iter().map(|m| m.1.clone()).collect();
        let evict = match pipeline.plan(device, &circuits, false) {
            Ok(plan) => {
                let solo = |c: &Circuit| {
                    let alloc = best_partition(device, c, &head_strategy.partition);
                    alloc.unwrap().efs.score
                };
                let mut excesses = vec![0.0; members.len()];
                for a in &plan.allocations {
                    let c = &plan.programs[a.program_index];
                    excesses[a.program_index] = (a.efs.score - solo(c)).max(0.0);
                }
                let violated = members
                    .iter()
                    .zip(&excesses)
                    .any(|(m, &e)| m.2.is_some_and(|t| e > t));
                if members.len() == 1 || !violated {
                    let ids = members.iter().map(|m| m.0).collect();
                    return (plan, ids, trace);
                }
                trace.push((
                    match gate {
                        EfsGate::BatchWorstExcess => worst_excess_position(&excesses),
                        _ => members.len() - 1,
                    },
                    ShrinkReason::FidelityGate,
                ));
                trace.last().expect("just pushed").0
            }
            Err(_) => {
                trace.push((members.len() - 1, ShrinkReason::PartitionFailure));
                members.len() - 1
            }
        };
        members.remove(evict);
    }
}

/// The survivors' plan is completed from the memo entry the gate's
/// last attempt looked up; a memo without that list is a typed error
/// naming the head, not a panic, and counts neither a hit nor a miss.
#[test]
fn completing_a_list_the_memo_lacks_is_a_typed_error() {
    let qucp = strategy::qucp(4.0);
    let mut service = fifo_service(2);
    let bell = qucp_circuit::library::by_name("bell").unwrap().circuit();
    let seqs: Vec<usize> = (0..2)
        .map(|i| {
            service
                .submit(JobRequest::new(bell.clone(), f64::from(i)))
                .unwrap()
                .seq
        })
        .collect();
    let (mut buffers, mut planning) = (GateBuffers::default(), PlanScratch::default());
    let mut pass = service
        .gate_pass(&mut buffers, &mut planning, 0, 0, &seqs)
        .unwrap();
    let completed = pass.complete(&seqs, &Pipeline::from_strategy(&qucp));
    assert_eq!(
        completed.err(),
        Some(RuntimeError::QueueCorrupted { seq: seqs[0] })
    );
    let stats = service.route_cache_stats();
    assert_eq!((stats.plan_hits, stats.plan_misses), (0, 0));
}

#[test]
fn a_batch_that_shrinks_k_times_routes_and_merges_once() {
    let lib = |name: &str| qucp_circuit::library::by_name(name).unwrap().circuit();
    let strategy = strategy::qucp(4.0);
    // Melbourne's 15 qubits cannot host four 5-qubit programs (two
    // placement failures), and the tolerances below cannot all be
    // met by what fits (fidelity evictions).
    let device = ibm::melbourne();
    let circuits = vec![
        lib("alu-v0_27"),
        lib("qec"),
        lib("fredkin"),
        lib("alu-v0_27"),
        lib("variation"),
        lib("qec"),
    ];
    let thresholds = [None, Some(0.02), Some(1e-4), Some(0.5), None, None];
    let ids: Vec<u64> = (100..100 + circuits.len() as u64).collect();
    for gate in [EfsGate::Batch, EfsGate::BatchWorstExcess] {
        let pipeline = Pipeline::from_strategy(&strategy);
        let members = ids.iter().zip(&circuits).zip(thresholds);
        let members = members.map(|((&id, c), t)| (id, c.clone(), t)).collect();
        let (plan, survivors, trace) =
            replanning_gate(&pipeline, &device, gate, &strategy, members);
        let reasons: Vec<ShrinkReason> = trace.iter().map(|&(_, r)| r).collect();
        assert!(
            reasons.contains(&ShrinkReason::PartitionFailure),
            "{gate:?}"
        );
        assert!(reasons.contains(&ShrinkReason::FidelityGate), "{gate:?}");
        // The replanning loop routed and merged once per attempt that
        // allocated: at least three times here.
        let successful_plans = 1 + reasons
            .iter()
            .filter(|&&r| r == ShrinkReason::FidelityGate)
            .count();
        assert!(successful_plans >= 3, "{gate:?}: {trace:?}");
        // The events are the trace bound to the dropped ids, and the
        // lists it tried are the packed list minus each eviction so far.
        let name_of = |id: u64| circuits[(id - ids[0]) as usize].name().to_string();
        let mut live = ids.clone();
        let mut attempts = vec![live.clone()];
        let events: Vec<Event> = trace
            .iter()
            .map(|&(evict, reason)| {
                let dropped_job_id = live.remove(evict);
                attempts.push(live.clone());
                Event::BatchShrunk {
                    batch_index: 7,
                    device: device.name().into(),
                    dropped_job_id,
                    remaining: live.len(),
                    reason,
                }
            })
            .collect();

        // The service's gate on the same six jobs, twice. The loop is
        // handed stage 1 and nothing that routes, and it reads every
        // allocation — joint or solo — through the memo: each distinct
        // list is allocated once, in the first pass, and the plan is
        // completed once, after it, for the members that stayed.
        let mut service = Service::builder()
            .device(ibm::melbourne())
            .strategy(strategy.clone())
            .max_parallel(circuits.len())
            .efs_gate(gate)
            .optimize(false)
            .build()
            .unwrap();
        let mut seqs = Vec::new();
        for ((&id, circuit), threshold) in ids.iter().zip(&circuits).zip(thresholds) {
            let mut request = JobRequest::new(circuit.clone(), 0.0).with_id(id);
            request.fidelity_threshold = threshold;
            seqs.push(service.submit(request).unwrap().seq);
        }
        // A list allocated, by its circuits' names (equal names, equal
        // shapes here).
        let mut allocated: Vec<Vec<String>> = Vec::new();
        let mut first_pass = 0;
        let mut plans = Vec::new();
        for pass in 0..2 {
            let mut buffers = GateBuffers::default();
            let mut members = seqs.clone();
            let mut planning = PlanScratch::default();
            let mut gate_pass = service
                .gate_pass(&mut buffers, &mut planning, 0, 7, &members)
                .unwrap();
            gate_pass
                .run(&mut members, |planning, count, circuit| {
                    allocated.push((0..count).map(|i| circuit(i).name().to_string()).collect());
                    pipeline.allocate(planning, &device, count, circuit)
                })
                .unwrap();
            let shared = gate_pass.complete(&members, &pipeline).unwrap();
            assert_eq!(buffers.shrinks, events, "{gate:?}, pass {pass}");
            assert_eq!(*shared.plan, plan, "{gate:?}, pass {pass}");
            assert_eq!(shared.slots.is_some(), pass == 1, "a hit the second time");
            let kept: Vec<u64> = members.iter().map(|&s| ids[s]).collect();
            assert_eq!(kept, survivors, "{gate:?}, pass {pass}");
            plans.push(shared.plan);
            if pass == 0 {
                // Every joint attempt, in order, and the one-member solo lists
                // between them, each distinct list once: an attempt of
                // the head alone is its solo baseline, already held.
                let distinct: std::collections::HashSet<_> = allocated.iter().collect();
                assert_eq!(distinct.len(), allocated.len(), "{gate:?}: {allocated:?}");
                let joint: Vec<_> = allocated.iter().filter(|l| l.len() > 1).collect();
                let tried: Vec<Vec<String>> = attempts
                    .iter()
                    .filter(|ids| ids.len() > 1)
                    .map(|ids| ids.iter().map(|&id| name_of(id)).collect())
                    .collect();
                assert_eq!(joint, tried.iter().collect::<Vec<_>>(), "{gate:?}");
                first_pass = allocated.len();
            }
        }
        assert_eq!(
            allocated.len(),
            first_pass,
            "{gate:?}: the second pass allocates nothing"
        );
        let stats = service.route_cache_stats();
        assert_eq!((stats.plan_misses, stats.plan_hits), (1, 1), "{gate:?}");
        assert_eq!(
            stats.plan_entries, first_pass,
            "{gate:?}: one entry per list"
        );
        assert!(Arc::ptr_eq(&plans[0], &plans[1]), "{gate:?}");
    }
}

#[test]
fn thresholded_batches_that_keep_the_same_survivors_share_one_plan() {
    // The six jobs of the shrink test, twice on Melbourne under the
    // batch gate: the second burst's thresholds are the first's one ulp
    // looser — other bits, the same evictions.
    let names = [
        "alu-v0_27",
        "qec",
        "fredkin",
        "alu-v0_27",
        "variation",
        "qec",
    ];
    let thresholds = [None, Some(0.02), Some(1e-4), Some(0.5), None, None];
    let qucp = strategy::qucp(4.0);
    let mut service = Service::builder()
        .device(ibm::melbourne())
        .strategy(qucp.clone())
        .max_parallel(names.len())
        .efs_gate(EfsGate::Batch)
        .default_shots(64)
        .seed(42)
        .build()
        .unwrap();
    let mut circuits = std::collections::HashMap::new();
    let mut burst = |service: &mut Service, base: u64, arrival: f64, loosen: bool| {
        for (i, (name, threshold)) in names.iter().zip(thresholds).enumerate() {
            let id = base + i as u64;
            let mut circuit = qucp_circuit::library::by_name(name).unwrap().circuit();
            circuit.set_name(format!("{name}#{id}"));
            circuits.insert(id, circuit.clone());
            let mut request = JobRequest::new(circuit, arrival).with_id(id);
            request.fidelity_threshold =
                threshold.map(|t: f64| f64::from_bits(t.to_bits() + u64::from(loosen)));
            service.submit(request).unwrap();
        }
    };
    burst(&mut service, 100, 0.0, false);
    service.run_until_drained().unwrap();
    let first = service.route_cache_stats();
    let first_batches = service.batches_run();
    burst(&mut service, 200, 1e7, true);
    let report = service.run_until_drained().unwrap();
    let second = service.route_cache_stats();

    // Every batch of the second burst is a plan hit, and it allocated
    // no list at all: its gate found every list it looked up, joint or
    // solo, in the memo.
    let batches = service.batches_run() - first_batches;
    assert_eq!(batches, first_batches);
    assert_eq!(second.plan_hits - first.plan_hits, batches, "{second:?}");
    assert_eq!(second.plan_misses, first.plan_misses, "{second:?}");
    assert_eq!(second.plan_entries, first.plan_entries, "{second:?}");

    // Its shrink events are the first burst's, naming its own jobs.
    let shrunk = |batch: usize| -> Vec<(u64, ShrinkReason)> {
        let events = service.events().iter();
        let shrinks = events.filter_map(|e| match e {
            Event::BatchShrunk {
                batch_index,
                dropped_job_id,
                reason,
                ..
            } if *batch_index == batch => Some((*dropped_job_id, *reason)),
            _ => None,
        });
        shrinks.collect()
    };
    let evicted = shrunk(0);
    assert!(evicted.len() >= 2, "{evicted:?}");
    let renamed: Vec<_> = evicted.iter().map(|&(id, r)| (id + 100, r)).collect();
    assert_eq!(shrunk(first_batches), renamed);

    // Every result is a fresh plan of its batch's survivors, run under
    // the batch seed, bit for bit.
    let device = service.registry().get(DeviceId::from_index(0));
    let pipeline = Pipeline::from_strategy(&qucp);
    for batch in &report.batches {
        let programs: Vec<Circuit> = batch
            .job_ids
            .iter()
            .map(|id| circuits[id].clone())
            .collect();
        let plan = pipeline.plan(device, &programs, service.optimize).unwrap();
        let exec = qucp_sim::ExecutionConfig::default()
            .with_shots(64)
            .with_seed(super::dispatch::derive_batch_seed(
                service.seed,
                batch.batch_index,
            ));
        for (pos, id) in batch.job_ids.iter().enumerate() {
            let served = report.job_results.iter().find(|r| r.job_id == *id).unwrap();
            assert_eq!(served.batch_index, batch.batch_index);
            let fresh = plan.run_program(device, pos, &exec).unwrap();
            assert_eq!(*served.result, fresh, "job {id}");
        }
    }
}
