//! Integration tests for the live-fleet refactor: frozen-fleet
//! equivalence under zero drift (property), typed rejection of poisoned
//! recalibrations, epoch-aware re-routing after a recalibration flips
//! the fleet's quality ordering, the per-job shot-parallelism
//! overrides (thread-count
//! invariance, `Auto` resolution), and the whole-plan cache's
//! epoch-keyed invalidation under drift (only the bumped device's plan
//! entries drop; cached plans replay bit-for-bit the fresh planner).

mod support;

use proptest::prelude::*;
use qucp_core::strategy;
use qucp_device::{ibm, DriftModel, GaussianWalk};
use qucp_runtime::{
    synthetic_jobs, AdmissionPolicy, Backfill, CalibrationAware, CalibrationFault, JobRequest,
    RuntimeError, Service, ServiceBuilder, ServiceReport, ShotParallelism,
};
use qucp_sim::auto_shard_count;
use support::{assert_matches_reference, Config, Drift, Fleet, Op};

/// A [`GaussianWalk`] confined to the device with the given salt: every
/// other device's steps report "nothing changed", so only one chip's
/// epoch ever bumps. Lets the plan-cache tests pin that invalidation is
/// per-device, not fleet-wide.
#[derive(Debug, Clone, Copy)]
struct OneDeviceWalk {
    inner: GaussianWalk,
    salt: u64,
}

impl DriftModel for OneDeviceWalk {
    fn steps_at(&self, now: f64) -> u64 {
        self.inner.steps_at(now)
    }

    fn apply_step(
        &self,
        step: u64,
        device_salt: u64,
        calibration: &mut qucp_device::Calibration,
        crosstalk: &mut qucp_device::CrosstalkModel,
    ) -> bool {
        device_salt == self.salt
            && self
                .inner
                .apply_step(step, device_salt, calibration, crosstalk)
    }
}

fn aware_fleet_builder(seed: u64) -> ServiceBuilder {
    Service::builder()
        .registry(qucp_bench::skewed_fleet())
        .strategy(strategy::qucp(4.0))
        .routing(CalibrationAware::default())
        .max_parallel(3)
        .default_shots(64)
        .seed(seed)
}

/// Drains `n` fixture jobs, interleaving `tick`s (and, when `drift` is
/// true, `advance_drift`s) at the given horizons before the final
/// drain.
fn drain_with_horizons(
    builder: ServiceBuilder,
    n: usize,
    horizons: &[f64],
    drift: bool,
) -> (ServiceReport, Vec<u64>) {
    let mut service = builder.build().expect("build");
    for job in synthetic_jobs(n, 300.0, 64, 0xD21F7) {
        service.submit(JobRequest::from_job(&job)).expect("submit");
    }
    for &t in horizons {
        if drift {
            service.advance_drift(t).expect("advance");
        }
        service.tick(t).expect("tick");
    }
    let report = service.run_until_drained().expect("drain");
    let epochs: Vec<u64> = (0..service.registry().len())
        .map(|i| {
            let id = service.registry().iter().nth(i).expect("device").0;
            service.device_epoch(id)
        })
        .collect();
    (report, epochs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Frozen-fleet equivalence: a zero-sigma drift walk may tick its
    /// steps as often as it likes — no epoch ever bumps, no cache entry
    /// ever drops, no event is emitted, and the service report is
    /// bit-for-bit the report of a service with no drift model at all.
    #[test]
    fn zero_drift_advance_never_bumps_an_epoch_or_changes_results(
        n in 3usize..7,
        seed in 0u64..200,
        interval in prop_oneof![Just(1_000.0), Just(25_000.0), Just(400_000.0)],
        horizons in proptest::collection::vec(0.0f64..2e6, 0usize..4),
    ) {
        let (frozen, frozen_epochs) =
            drain_with_horizons(aware_fleet_builder(seed), n, &horizons, false);
        let walk = GaussianWalk::new(seed ^ 0xD21F7, interval).frozen();
        let (drifted, drifted_epochs) =
            drain_with_horizons(aware_fleet_builder(seed).drift(walk), n, &horizons, true);
        prop_assert_eq!(&frozen, &drifted);
        prop_assert_eq!(frozen_epochs, vec![0, 0]);
        prop_assert_eq!(drifted_epochs, vec![0, 0]);
        prop_assert!(drifted
            .events
            .iter()
            .all(|e| !matches!(e, qucp_runtime::Event::DeviceRecalibrated { .. })));
    }

    /// Whole-plan memoization is observationally invisible under live
    /// drift: on any admission policy and any random submit/tick/drift
    /// interleaving, the service — which replays cached plans and
    /// prepared simulator state — hands out the same tickets from every
    /// tick and drains a bit-identical report to the reference
    /// scheduler, which plans every batch fresh: replayed plans equal
    /// fresh plans, and epoch-keyed invalidation never serves a stale
    /// one. Every job draws its own kernel and shot-parallelism
    /// override.
    #[test]
    fn cached_plans_match_fresh_plans_under_drift(
        n in 3usize..8,
        seed in 0u64..200,
        policy in 0u8..3,
        interval in prop_oneof![Just(40_000.0), Just(250_000.0)],
        split_frac in 0f64..1.0,
        horizons in proptest::collection::vec(0.0f64..2e6, 1usize..4),
        overrides in proptest::collection::vec(0u8..6, 8),
    ) {
        let request = |(i, job): (usize, &qucp_runtime::Job)| {
            let mut req = JobRequest::from_job(job);
            if overrides[i] % 2 == 1 {
                req = req.with_trajectory_kernel(qucp_runtime::TrajectoryKernel::SurvivalSkip);
            }
            Op::Submit(match overrides[i] / 2 {
                1 => req.with_shot_parallelism(ShotParallelism::Sharded { shards: 3, threads: 2 }),
                2 => req.with_shot_parallelism(ShotParallelism::Auto),
                _ => req,
            })
        };
        let cfg = Config {
            fleet: Fleet::Skewed,
            routing: CalibrationAware::default().into(),
            policy: [
                AdmissionPolicy::Fifo,
                Backfill::default().into(),
                AdmissionPolicy::ShortestJobFirst,
            ][policy as usize],
            drift: Drift::Walk(GaussianWalk::new(seed ^ 0xCAFE, interval)),
            default_shots: 64,
            seed,
            ..Config::default()
        };
        let jobs = synthetic_jobs(n, 300.0, 64, 0xD21F7);
        let split = ((n as f64) * split_frac) as usize;
        let mut ops: Vec<Op> = jobs.iter().enumerate().take(split).map(request).collect();
        for &t in &horizons {
            ops.extend([Op::AdvanceDrift(t), Op::Tick(t)]);
        }
        ops.extend(jobs.iter().enumerate().skip(split).map(request));
        let run = assert_matches_reference(&ops, &cfg);
        let stats = run.service.route_cache_stats();
        prop_assert!(stats.plan_hits + stats.plan_misses > 0);
    }
}

/// Regression: a drift step that changes nothing installs nothing, so
/// the registry keeps the same device, region atlas included — it used
/// to take the calibration mutably before deciding, which emptied the
/// atlas, so a frozen walk threw away every grown width with no epoch
/// bump. A step that does change the calibration installs a new device
/// whose atlas is the new calibration's.
#[test]
fn a_drift_step_that_changes_nothing_keeps_the_region_atlas() {
    let widths = [2, 5, 9];
    let service = |walk: GaussianWalk| {
        let service = Service::builder()
            .device(ibm::toronto())
            .drift(walk)
            .build()
            .expect("build");
        let id = service.registry().iter().next().expect("device").0;
        (service, id)
    };
    // Grows (or reads) the atlas at every width: where each answer lives.
    let grown = |service: &Service, id| {
        let device = service.registry().get(id);
        widths.map(|w| device.idle_regions(w).as_ptr())
    };
    let walk = GaussianWalk::new(0xA71A5, 1_000.0);
    let (mut frozen, id) = service(walk.frozen());
    let before = grown(&frozen, id);
    let installed: *const qucp_device::Device = frozen.registry().get(id);
    // The clone shares the atlas and keeps it alive, so a replaced
    // atlas could not regrow its widths at the same addresses.
    let kept = frozen.registry().get(id).clone();
    for step in 1..=40 {
        let now = f64::from(step) * 1_000.0;
        assert_eq!(frozen.advance_drift(now).expect("advance"), 0);
    }
    assert_eq!(frozen.device_epoch(id), 0);
    assert_eq!(grown(&frozen, id), before);
    assert_eq!(kept.idle_regions(widths[0]).as_ptr(), before[0]);
    // Nothing was installed: the registry holds the same device.
    assert!(std::ptr::eq(frozen.registry().get(id), installed));

    let (mut service, id) = service(walk);
    grown(&service, id);
    assert_eq!(service.advance_drift(1_000.0).expect("advance"), 1);
    let device = service.registry().get(id);
    let fresh = qucp_device::Device::new(
        device.name(),
        device.topology().clone(),
        device.calibration().clone(),
        device.crosstalk().clone(),
    );
    for w in widths {
        assert_eq!(device.idle_regions(w), fresh.idle_regions(w), "width {w}");
        assert_ne!(device.idle_regions(w), ibm::toronto().idle_regions(w));
    }
}

/// Regression: a drift-driven epoch bump invalidates the whole-plan
/// cache *per device*. On the skewed fleet every plan lands on the
/// well-calibrated Toronto (salt 1), so the two sides of "only the
/// bumped device" split cleanly: bumping the idle noisy twin (salt 0)
/// drops nothing and the cached plans keep replaying, while bumping the
/// loaded chip drops its entries and forces the next burst to re-plan.
#[test]
fn drift_epoch_bump_drops_only_the_bumped_devices_plan_entries() {
    let jobs = synthetic_jobs(8, 300.0, 64, 0x9E0);
    let run = |salt: u64| {
        let walk = OneDeviceWalk {
            inner: GaussianWalk::new(0xD81F7, 50_000.0),
            salt,
        };
        let mut service = aware_fleet_builder(29).drift(walk).build().expect("build");
        for job in &jobs {
            service.submit(JobRequest::from_job(job)).expect("submit");
        }
        let first = service.run_until_drained().expect("drain 1");
        assert!(
            first.batches.iter().all(|b| b.device == "ibmq_toronto"),
            "the skewed fleet must route every batch to the good chip"
        );
        let before = service.route_cache_stats();
        assert!(
            before.plan_entries > 0,
            "the drain must have memoized plans"
        );
        assert_eq!(before.plan_invalidated, 0);

        // One drift interval elapses: exactly the salted chip's
        // calibration walks and its epoch bumps.
        assert_eq!(service.advance_drift(60_000.0).expect("advance"), 1);
        let ids: Vec<_> = service.registry().iter().map(|(id, _)| id).collect();
        for (index, id) in ids.iter().enumerate() {
            let expected = u64::from(index as u64 == salt);
            assert_eq!(
                service.device_epoch(*id),
                expected,
                "epoch of device {index}"
            );
        }
        let after = service.route_cache_stats();

        // The same burst again, after the bump.
        for job in &jobs {
            service
                .submit(
                    JobRequest::new(job.circuit.clone(), job.arrival + 1e7).with_id(job.id + 100),
                )
                .expect("submit");
        }
        service.run_until_drained().expect("drain 2");
        (before, after, service.route_cache_stats())
    };

    // Bumping the idle twin: only its own entries — the solo lists [h]
    // routing probed there — may drop, and the loaded chip's cached
    // plans must keep replaying (hits grow, no fresh miss).
    let (before, after, end) = run(0);
    assert_eq!(
        after.plan_entries + after.plan_invalidated,
        before.plan_entries,
        "an idle chip's bump drops its probe lists only: {after:?}"
    );
    assert!(
        end.plan_hits > after.plan_hits && end.plan_misses == after.plan_misses,
        "plans on the untouched chip must survive and replay: {end:?}"
    );

    // Bumping the loaded chip: its entries drop, and the next burst
    // carries the new epoch in its plan key — it must re-plan from scratch,
    // never replay a stale plan.
    let (before, after, end) = run(1);
    assert!(
        after.plan_invalidated > 0,
        "the bumped device's plan entries must drop"
    );
    assert_eq!(
        after.plan_entries + after.plan_invalidated,
        before.plan_entries,
        "invalidation must account for every dropped entry"
    );
    assert!(
        end.plan_misses > after.plan_misses,
        "post-drift batches on the bumped chip must re-plan: {end:?}"
    );
}

/// Regression: a recalibration snapshot with NaN entries is rejected
/// with a typed [`RuntimeError::InvalidCalibration`] *before* it can
/// touch the device or poison the planning cache — the service then
/// schedules exactly as if the call had never happened.
#[test]
fn nan_recalibration_is_rejected_and_does_not_poison_the_cache() {
    let jobs = synthetic_jobs(6, 300.0, 64, 0xBAD);
    let run = |poison: bool| {
        let mut service = aware_fleet_builder(17).build().expect("build");
        for job in &jobs[..3] {
            service.submit(JobRequest::from_job(job)).expect("submit");
        }
        service.run_until_drained().expect("drain 1");
        if poison {
            let (id, device) = {
                let (id, d) = service.registry().iter().next().expect("device");
                (id, d.name().to_string())
            };
            let mut bad = service.registry().get(id).calibration().clone();
            bad.set_cx_error(qucp_device::Link::new(0, 1), f64::NAN);
            let err = service.recalibrate(id, bad).unwrap_err();
            match err {
                RuntimeError::InvalidCalibration { device: d, fault } => {
                    assert_eq!(d, device);
                    assert_eq!(fault, CalibrationFault::NonFinite);
                }
                other => panic!("expected InvalidCalibration, got {other:?}"),
            }
            assert_eq!(service.device_epoch(id), 0, "epoch must not bump");
            assert_eq!(service.route_cache_stats().invalidated, 0);
            assert!(service.event_log().recalibrations().is_empty());
        }
        for job in &jobs[3..] {
            service.submit(JobRequest::from_job(job)).expect("submit");
        }
        service.run_until_drained().expect("drain 2")
    };
    assert_eq!(
        run(true),
        run(false),
        "a rejected recalibration must leave no trace in scheduling"
    );
}

/// A *valid* recalibration that flips which chip is well-calibrated
/// must re-route the next burst: the epoch bump drops the stale probes,
/// `CalibrationAware` re-probes the current snapshots, and the load
/// moves to the newly good chip.
#[test]
fn recalibration_swap_reroutes_the_next_burst() {
    let mut service = aware_fleet_builder(23).build().expect("build");
    let (noisy_id, good_id) = {
        let mut it = service.registry().iter();
        (it.next().unwrap().0, it.next().unwrap().0)
    };
    let noisy_cal = service.registry().get(noisy_id).calibration().clone();
    let good_cal = service.registry().get(good_id).calibration().clone();
    let burst = synthetic_jobs(6, 300.0, 64, 0x5A1D);
    let jobs_on = |report: &qucp_runtime::ServiceReport, from: usize| {
        let mut counts = [0usize; 2];
        for b in report.batches.iter().skip(from) {
            let idx = if b.device == "ibmq_toronto_noisy" {
                0
            } else {
                1
            };
            counts[idx] += b.job_ids.len();
        }
        counts
    };

    for job in &burst {
        service.submit(JobRequest::from_job(job)).expect("submit");
    }
    let before = service.run_until_drained().expect("drain 1");
    let placed_before = jobs_on(&before, 0);
    assert!(
        placed_before[1] > placed_before[0],
        "pre-swap, the good Toronto must carry the load: {placed_before:?}"
    );

    // The daily recalibration arrives — and the chips have swapped
    // quality. Both topologies are Toronto's, so the snapshots cross
    // over cleanly.
    assert_eq!(service.recalibrate(noisy_id, good_cal).unwrap(), 1);
    assert_eq!(service.recalibrate(good_id, noisy_cal).unwrap(), 1);
    // Both epochs bumped: the one map is empty, every entry counted.
    let stats = service.route_cache_stats();
    assert!(stats.invalidated > 0 && stats.entries == 0, "{stats:?}");

    let dispatched = before.batches.len();
    for job in &burst {
        service
            .submit(JobRequest::new(job.circuit.clone(), job.arrival + 1e7).with_id(job.id + 50))
            .expect("submit");
    }
    let after = service.run_until_drained().expect("drain 2");
    let placed_after = jobs_on(&after, dispatched);
    assert!(
        placed_after[0] > placed_after[1],
        "post-swap, the (formerly) noisy twin must carry the load: {placed_after:?}"
    );
    assert_eq!(
        service.event_log().recalibrations(),
        vec![("ibmq_toronto_noisy", 1), ("ibmq_toronto", 1)]
    );
}

/// Per-job `ShotParallelism` overrides are thread-count invariant: the
/// same mixed workload produces bit-for-bit the same report at 1, 2 and
/// 4 worker threads (shards fix the counts; threads only move
/// wall-clock time).
#[test]
fn per_job_parallelism_override_is_thread_count_invariant() {
    let bell = qucp_circuit::library::by_name("bell").unwrap().circuit();
    let fred = qucp_circuit::library::by_name("fred").unwrap().circuit();
    let run = |threads: usize| {
        let mut service = Service::builder()
            .device(ibm::toronto())
            .strategy(strategy::qucp(4.0))
            .max_parallel(2)
            .default_shots(512)
            .seed(0x0DD)
            .build()
            .expect("build");
        // A sharded big job, an Auto job and a default-serial job
        // co-scheduled: only the explicit shard split carries a thread
        // cap, and no report field may depend on it.
        service
            .submit(
                JobRequest::new(fred.clone(), 0.0)
                    .with_id(0)
                    .with_shots(2048)
                    .with_shot_parallelism(ShotParallelism::Sharded { shards: 4, threads }),
            )
            .expect("submit");
        service
            .submit(
                JobRequest::new(bell.clone(), 0.0)
                    .with_id(1)
                    .with_shot_parallelism(ShotParallelism::Auto),
            )
            .expect("submit");
        service
            .submit(JobRequest::new(bell.clone(), 10.0).with_id(2))
            .expect("submit");
        service.run_until_drained().expect("drain")
    };
    let reference = run(1);
    assert_eq!(reference, run(2));
    assert_eq!(reference, run(4));
    assert_eq!(reference.job_results.len(), 3);
}

/// `ShotParallelism::Auto` resolves from the shot budget alone: an Auto
/// override equals the explicit `Sharded` split `auto_shard_count`
/// prescribes, and differs from the serial default.
#[test]
fn auto_override_matches_its_documented_resolution() {
    let bell = qucp_circuit::library::by_name("bell").unwrap().circuit();
    let shots = 2048usize;
    let run = |parallelism: Option<ShotParallelism>| {
        let mut service = Service::builder()
            .device(ibm::toronto())
            .strategy(strategy::qucp(4.0))
            .max_parallel(1)
            .default_shots(shots)
            .seed(0xA070)
            .build()
            .expect("build");
        let mut req = JobRequest::new(bell.clone(), 0.0);
        if let Some(p) = parallelism {
            req = req.with_shot_parallelism(p);
        }
        service.submit(req).expect("submit");
        service.run_until_drained().expect("drain")
    };
    let auto = run(Some(ShotParallelism::Auto));
    let explicit = run(Some(ShotParallelism::sharded(auto_shard_count(shots))));
    let serial = run(None);
    assert_eq!(
        auto.job_results[0].result.counts,
        explicit.job_results[0].result.counts
    );
    assert_ne!(
        auto.job_results[0].result.counts, serial.job_results[0].result.counts,
        "a 2048-shot Auto job must actually shard"
    );
}

/// FNV-1a over every link of `device` in canonical order: both
/// endpoints, then the bits of its CNOT error and duration as
/// `Calibration::cx_error` / `cx_duration` read them.
fn link_table_digest(device: &qucp_device::Device) -> u64 {
    let cal = device.calibration();
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for &l in device.topology().links() {
        for word in [
            l.low() as u64,
            l.high() as u64,
            cal.cx_error(l).to_bits(),
            cal.cx_duration(l).to_bits(),
        ] {
            for byte in word.to_le_bytes() {
                hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01B3);
            }
        }
    }
    hash
}

/// Per device of the three IBM twins and `mega_fleet(16)`: the digest
/// of its link table fresh, and after 50 steps of a `GaussianWalk`
/// salted by its position in this list.
fn link_table_digests() -> Vec<(String, u64, u64)> {
    let fleet = qucp_bench::mega_fleet(16, qucp_bench::EXPERIMENT_SEED);
    let mut devices = vec![ibm::toronto(), ibm::manhattan(), ibm::melbourne()];
    devices.extend(fleet.iter().map(|(_, d)| d.clone()));
    let walk = GaussianWalk::new(0x7AB1E, 1.0);
    (devices.iter().enumerate())
        .map(|(salt, device)| {
            let (mut cal, mut xt) = (device.calibration().clone(), device.crosstalk().clone());
            for step in 1..=50 {
                walk.apply_step(step, salt as u64, &mut cal, &mut xt);
            }
            let drifted = device.with_state(cal, xt);
            let name = device.name().to_string();
            (name, link_table_digest(device), link_table_digest(&drifted))
        })
        .collect()
}

/// The digests [`link_table_digests`] printed while a calibration kept
/// its CNOT errors and durations in ordered maps keyed by link.
const MAP_ERA_DIGESTS: &[(&str, u64, u64)] = &[
    ("ibmq_toronto", 0xE5749EEC12B3A237, 0xDBADE19546E08C9B),
    ("ibmq_manhattan", 0xA269ED9CCA402F0E, 0xC8D687DF43CB5CA2),
    ("ibmq_16_melbourne", 0x6C9C5CCE7A51D20D, 0xD8B8F89C6CEE7C31),
    ("mega-000-w8", 0xD882937FEFEB65C1, 0xD92F7235ACFA24FD),
    ("mega-001-w12", 0xB40C799071528D8A, 0x83A63EE6C059983E),
    ("mega-002-w16", 0xD3351E8467CDE3CE, 0x68D0BAE77D43C754),
    ("mega-003-w27", 0x86781EA765022E19, 0x31C8A28CAD989651),
    ("mega-004-w8", 0xFD6A3DA563706C97, 0xC4AD84E67A22047C),
    ("mega-005-w12", 0xFBEB1BE8B63C2E27, 0xF0154BAEF265BF1F),
    ("mega-006-w16", 0x22FEA05218378561, 0x28409A73293DFC3A),
    ("mega-007-w27", 0xE392AA9C1DFE6995, 0x602A30EA78111486),
    ("mega-008-w8", 0xB73086D2F58EF33C, 0x5BB696C1F661C09E),
    ("mega-009-w12", 0x3EC1425AD5DEAADC, 0x7B444579C37CD432),
    ("mega-010-w16", 0x1306ED16F944800A, 0xC62CA9CCE0EE41DB),
    ("mega-011-w27", 0xF2A36F54417F5E29, 0xBE63868AD2C7D662),
    ("mega-012-w8", 0x7EABDBC685752AA2, 0x903AB95D9DCEC3A9),
    ("mega-013-w12", 0x8F06702813E35BD9, 0x40E436A5A0648F1F),
    ("mega-014-w16", 0xE7D50E3533FA50D5, 0xB84A59060F551052),
    ("mega-015-w27", 0xA5C126D5FD0EDE43, 0xCBC53111C2BB2939),
];

/// A calibration's link table reads, on every link of every chip, the
/// values its ordered maps held, fresh and after 50 drift steps: the
/// table keeps the maps' iteration order, so synthesis and every drift
/// step draw the same words for the same links.
#[test]
fn the_link_table_reads_what_the_ordered_maps_held() {
    let digests = link_table_digests();
    let expected: Vec<(String, u64, u64)> = MAP_ERA_DIGESTS
        .iter()
        .map(|&(name, fresh, drifted)| (name.to_string(), fresh, drifted))
        .collect();
    assert_eq!(digests, expected);
}
