//! Cloud-queue scenario of Sec. I/II-A, four times over: the
//! **event-driven service** runtime serving a burst of library
//! circuits through the staged QuCP pipeline (dedicated vs.
//! multi-programmed, same `QueueStats` head-to-head), an
//! **admission-policy shoot-out** on a skewed
//! workload where wide GHZ jobs block the FIFO head of line — the
//! situation `Backfill` and `ShortestJobFirst` exist for — and a
//! **routing shoot-out** on a two-chip fleet whose calibrations differ
//! ~3×, where `CalibrationAware` routing must beat `EarliestFree` on
//! delivered fidelity at bounded turnaround cost, and the **live
//! fleet**: calibrations drift between two bursts and every epoch bump
//! drops the drifted chip's cached probes and plans — then the streaming
//! side of the same service: per-ticket result claims (`take_result`,
//! exactly-once, drain-invariant) and per-job routing overrides that
//! steer individual submissions without touching the fleet default.
//!
//! ```text
//! cargo run --release -p qucp-bench --example cloud_scheduler
//! ```

use qucp_core::strategy;
use qucp_device::ibm;
use qucp_runtime::{
    skewed_jobs, synthetic_jobs, AdmissionPolicy, Backfill, CalibrationAware, Job, JobRequest,
    RoutingChoice, Service, ServiceReport,
};

fn serve(
    jobs: &[Job],
    policy: AdmissionPolicy,
    device: qucp_device::Device,
    max_parallel: usize,
) -> Result<(ServiceReport, qucp_runtime::RouteCacheStats), qucp_runtime::RuntimeError> {
    let mut service = Service::builder()
        .device(device)
        .strategy(strategy::qucp(4.0))
        .policy(policy)
        .max_parallel(max_parallel)
        .seed(0x5EED)
        .build()?;
    for job in jobs {
        service.submit(JobRequest::from_job(job))?;
    }
    let report = service.run_until_drained()?;
    let cache = service.route_cache_stats();
    Ok((report, cache))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- the runtime: dedicated vs. multi-programmed -----------------------
    println!("Service runtime (FIFO): 18 library circuits on ibm::toronto()\n");
    let stream = synthetic_jobs(18, 400.0, 1024, 0xC10D);
    println!(
        "{:<14} {:>8} {:>14} {:>14} {:>11} {:>10}",
        "mode", "batches", "mean wait ns", "turnaround ns", "throughput", "mean JSD"
    );
    let mut reports = Vec::new();
    for (label, k) in [("dedicated", 1usize), ("pack 2", 2), ("pack 4", 4)] {
        let (report, _) = serve(&stream, AdmissionPolicy::Fifo, ibm::toronto(), k)?;
        let mean_jsd: f64 = report.job_results.iter().map(|r| r.result.jsd).sum::<f64>()
            / report.job_results.len() as f64;
        println!(
            "{label:<14} {:>8} {:>14.0} {:>14.0} {:>10.1}% {:>10.3}",
            report.stats.batches,
            report.stats.mean_waiting,
            report.stats.mean_turnaround,
            100.0 * report.stats.mean_throughput,
            mean_jsd
        );
        reports.push((label, report));
    }

    // --- what one packed batch actually cost -------------------------------
    let (_, packed) = &reports[2];
    let widest = packed
        .batches
        .iter()
        .max_by_key(|b| b.job_ids.len())
        .expect("at least one batch");
    println!(
        "\nWidest batch under 4-way packing: jobs {:?} on {} qubits, {} conflicts",
        widest.job_ids, widest.used_qubits, widest.conflict_count
    );
    for r in packed
        .job_results
        .iter()
        .filter(|r| r.batch_index == widest.batch_index)
    {
        println!(
            "  {:<18} JSD {:.3}{}  (waited {:.0} ns)",
            r.result.name,
            r.result.jsd,
            r.result
                .pst
                .map_or(String::new(), |p| format!("  PST {p:.3}")),
            r.waiting,
        );
    }

    let (_, dedicated) = &reports[0];
    println!(
        "\nRuntime turnaround reduction, 4-way over dedicated: {:.2}x",
        dedicated.stats.mean_turnaround / packed.stats.mean_turnaround
    );

    // --- admission-policy comparison on a skewed workload ------------------
    //
    // Every third job is a 13-qubit GHZ chain: on the 15-qubit
    // Melbourne chip it cannot share the device with anything, so under
    // FIFO it stalls every small job queued behind it. Backfill lets
    // the small jobs jump (bounded overtaking); SJF serves them first
    // outright.
    println!("\nAdmission policies, skewed burst (12 jobs, 13q GHZ every 3rd) on melbourne:\n");
    println!(
        "{:<14} {:>8} {:>14} {:>14} {:>11}",
        "policy", "batches", "mean wait ns", "turnaround ns", "throughput"
    );
    let skewed = skewed_jobs(12, 13, 50.0, 512, 7);
    let backfill = AdmissionPolicy::Backfill(Backfill { max_overtakes: 2 });
    let (fifo, fifo_cache) = serve(&skewed, AdmissionPolicy::Fifo, ibm::melbourne(), 3)?;
    let (backfill, backfill_cache) = serve(&skewed, backfill, ibm::melbourne(), 3)?;
    let (sjf, sjf_cache) = serve(
        &skewed,
        AdmissionPolicy::ShortestJobFirst,
        ibm::melbourne(),
        3,
    )?;
    for (label, report) in [("FIFO", &fifo), ("Backfill", &backfill), ("SJF", &sjf)] {
        println!(
            "{label:<14} {:>8} {:>14.0} {:>14.0} {:>10.1}%",
            report.stats.batches,
            report.stats.mean_waiting,
            report.stats.mean_turnaround,
            100.0 * report.stats.mean_throughput,
        );
    }
    println!(
        "\nBackfill turnaround gain over FIFO: {:.2}x (SJF: {:.2}x)",
        fifo.stats.mean_turnaround / backfill.stats.mean_turnaround,
        fifo.stats.mean_turnaround / sjf.stats.mean_turnaround,
    );

    // The whole-plan cache behind those runs: the skewed burst repeats
    // two circuit shapes, so once each (device, member-shapes) batch
    // has been planned, later batches replay the committed plan instead
    // of re-running partition + mapping + merging.
    println!("\nWhole-plan cache across the policy runs:\n");
    for (label, c) in [
        ("FIFO", &fifo_cache),
        ("Backfill", &backfill_cache),
        ("SJF", &sjf_cache),
    ] {
        let lookups = c.plan_hits + c.plan_misses;
        println!(
            "{label:<14} {:>4} hits {:>4} misses {:>4} entries   {:>5.1}% of batches replayed",
            c.plan_hits,
            c.plan_misses,
            c.plan_entries,
            100.0 * c.plan_hits as f64 / lookups.max(1) as f64,
        );
    }

    // --- routing shoot-out on the skewed two-chip fleet --------------------
    //
    // The fleet pairs ibm::toronto() with a twin whose calibration is
    // ~3x worse across the board (the noisy twin is registered first,
    // so earliest-free ties favour it). EarliestFree splits the load
    // and delivers half the jobs at the noisy chip's fidelity;
    // CalibrationAware scores each candidate by the head circuit's
    // solo-best EFS partition (cached across batches) plus queue
    // pressure, and steers the burst to the good chip.
    println!("\nRouting policies, 18-job burst on [toronto_noisy, toronto]:\n");
    println!(
        "{:<18} {:>10} {:>10} {:>14} {:>12} {:>12}",
        "routing", "mean EFS", "mean JSD", "turnaround ns", "noisy jobs", "good jobs"
    );
    let earliest = qucp_bench::routing_shootout(RoutingChoice::EarliestFree);
    let aware = qucp_bench::routing_shootout(CalibrationAware::default().into());
    for o in [&earliest, &aware] {
        println!(
            "{:<18} {:>10.4} {:>10.4} {:>14.0} {:>12} {:>12}",
            o.policy,
            o.mean_efs,
            o.mean_jsd,
            o.mean_turnaround,
            o.per_device_jobs[0].1,
            o.per_device_jobs[1].1,
        );
    }
    assert!(
        aware.mean_efs < earliest.mean_efs && aware.mean_jsd < earliest.mean_jsd,
        "calibration-aware routing must win on delivered fidelity"
    );
    println!(
        "\nCalibrationAware delivered-fidelity win: EFS -{:.1}%, JSD -{:.1}% \
         (turnaround {:.2}x, partition-probe cache {} hits / {} misses)",
        100.0 * (earliest.mean_efs - aware.mean_efs) / earliest.mean_efs,
        100.0 * (earliest.mean_jsd - aware.mean_jsd) / earliest.mean_jsd,
        aware.mean_turnaround / earliest.mean_turnaround,
        aware.cache.hits,
        aware.cache.misses,
    );

    // --- the live fleet: calibrations drift between two bursts --------------
    //
    // The fleet is not frozen: a seeded random walk ages every chip's
    // error rates as simulated time advances. Each step that changes a
    // chip bumps its calibration epoch and drops that chip's cached
    // probes and plans, so the second burst is routed and planned
    // against the calibrations it will actually run on.
    println!("\nCalibration drift between two 9-job bursts, CalibrationAware:\n");
    let mut live = Service::builder()
        .registry(qucp_bench::skewed_fleet())
        .strategy(strategy::qucp(4.0))
        .routing(CalibrationAware::default())
        .drift(qucp_runtime::GaussianWalk::new(0xD21F7, 50_000.0))
        .max_parallel(3)
        .default_shots(256)
        .seed(0x5EED)
        .build()?;
    let burst = synthetic_jobs(9, 400.0, 256, 0xF1EE7);
    for job in &burst {
        live.submit(JobRequest::from_job(job))?;
    }
    live.run_until_drained()?;
    let warm = live.route_cache_stats();
    let bumps = live.advance_drift(150_000.0)?;
    let aged = live.route_cache_stats();
    for job in &burst {
        live.submit(JobRequest::new(job.circuit.clone(), job.arrival + 1e7).with_id(job.id + 100))?;
    }
    let report = live.run_until_drained()?;
    let mean_efs = |jobs: &[qucp_runtime::JobResult]| {
        jobs.iter().map(|r| r.result.efs).sum::<f64>() / jobs.len() as f64
    };
    println!(
        "{bumps} epoch bumps dropped {} cached member lists (probes and plans); \
         mean EFS {:.4} before the drift, {:.4} after",
        aged.plan_invalidated - warm.plan_invalidated,
        mean_efs(&report.job_results[..burst.len()]),
        mean_efs(&report.job_results[burst.len()..]),
    );
    assert!(bumps > 0 && aged.plan_entries == 0, "every chip drifted");

    // --- streaming retrieval + per-job routing overrides --------------------
    //
    // Campaign-style consumers don't wait for the drain: each ticket's
    // result is claimed exactly once as soon as its batch completes.
    // Claims never disturb the final report (the service keeps the
    // canonical copy), and any job may carry its own routing override —
    // here every *odd* job pins CalibrationAware routing for the batch
    // it heads, while even jobs ride the service default.
    println!("\nStreaming retrieval on [toronto_noisy, toronto], per-job routing overrides:\n");
    let mut service = Service::builder()
        .registry(qucp_bench::skewed_fleet())
        .strategy(strategy::qucp(4.0))
        .max_parallel(3)
        .default_shots(256)
        .seed(0x5EED)
        .build()?;
    let mut tickets = Vec::new();
    for (i, job) in synthetic_jobs(8, 400.0, 256, 0xC10D).iter().enumerate() {
        let mut request = JobRequest::from_job(job);
        if i % 2 == 1 {
            request = request.with_routing(CalibrationAware::default().into());
        }
        tickets.push(service.submit(request)?);
    }
    // Drive the clock in slices; claim every ticket the moment its
    // completion is announced.
    let mut claimed = 0usize;
    let mut now = 0.0;
    while claimed < tickets.len() {
        now += 5_000.0;
        for ticket in service.tick(now)? {
            let result = service
                .take_result(&ticket)
                .expect("a completed ticket claims exactly once");
            claimed += 1;
            println!(
                "  claimed job {:>2} [{:<16}] turnaround {:>8.0} ns",
                result.job_id, result.result.name, result.turnaround
            );
            // The ticket is spent; the canonical copy stays for the drain.
            assert!(service.take_result(&ticket).is_none());
        }
    }
    let report = service.run_until_drained()?;
    assert_eq!(
        report.job_results.len(),
        tickets.len(),
        "claims must not evict results from the drained report"
    );
    println!(
        "\nAll {} results claimed mid-stream; drained report still carries {} jobs.",
        claimed,
        report.job_results.len()
    );
    Ok(())
}
