//! Regenerates `BENCH_routing_shootout.json`: earliest-free vs
//! calibration-aware routing on the skewed two-chip fleet (a
//! well-calibrated IBM Q Toronto and its ~3×-noisier twin). Doubles as
//! the CI smoke check of the routing seam — it **asserts** the
//! calibration-aware policy's delivered-fidelity win (mean EFS and mean
//! JSD) at bounded turnaround cost, and that both policies route
//! deterministically (two runs agree bit for bit).
//!
//! ```text
//! cargo run --release -p qucp-bench --bin routing_shootout
//! ```

use qucp_bench::{routing_shootout, ShootoutOutcome};
use qucp_runtime::{CalibrationAware, EarliestFree};

/// Turnaround slack the fidelity win may cost: the calibration-aware
/// policy concentrates load on the good chip, so it trades some queueing
/// for fidelity — but never more than this factor over earliest-free.
const MAX_TURNAROUND_RATIO: f64 = 3.0;

fn print_outcome(o: &ShootoutOutcome) {
    println!(
        "  {:<18} mean EFS {:.4}  mean JSD {:.4}  turnaround {:>10.0} ns  cache {}h/{}m",
        o.policy, o.mean_efs, o.mean_jsd, o.mean_turnaround, o.cache.hits, o.cache.misses
    );
    for (device, jobs) in &o.per_device_jobs {
        println!("    {device:<22} {jobs:>3} jobs");
    }
}

fn main() {
    println!("routing shoot-out: 18 jobs on [ibmq_toronto_noisy, ibmq_toronto]\n");

    // Determinism first: the routing decisions and the delivered results
    // must not depend on how the batches' programs were threaded.
    let earliest = routing_shootout(EarliestFree);
    let aware = routing_shootout(CalibrationAware::default());
    assert_eq!(earliest, routing_shootout(EarliestFree));
    assert_eq!(aware, routing_shootout(CalibrationAware::default()));

    print_outcome(&earliest);
    print_outcome(&aware);

    // The acceptance bar: on a fleet with one good and one noisy chip,
    // calibration-aware routing must deliver better fidelity...
    assert!(
        aware.mean_efs < earliest.mean_efs,
        "calibration-aware routing must win on delivered EFS: {:.4} !< {:.4}",
        aware.mean_efs,
        earliest.mean_efs
    );
    assert!(
        aware.mean_jsd < earliest.mean_jsd,
        "calibration-aware routing must win on delivered JSD: {:.4} !< {:.4}",
        aware.mean_jsd,
        earliest.mean_jsd
    );
    // ...at bounded turnaround cost...
    let turnaround_ratio = aware.mean_turnaround / earliest.mean_turnaround;
    assert!(
        turnaround_ratio <= MAX_TURNAROUND_RATIO,
        "fidelity win cost too much turnaround: {turnaround_ratio:.2}x > {MAX_TURNAROUND_RATIO}x"
    );
    // ...by actually steering load toward the well-calibrated chip,
    // reusing cached partition probes across batches.
    let good_jobs = |o: &ShootoutOutcome| {
        o.per_device_jobs
            .iter()
            .find(|(d, _)| d == "ibmq_toronto")
            .map_or(0, |&(_, n)| n)
    };
    assert!(
        good_jobs(&aware) > good_jobs(&earliest),
        "calibration-aware routing must shift load to the good chip"
    );
    assert!(
        aware.cache.hits > 0,
        "repeat dispatches must hit the cross-batch partition cache"
    );

    let gain_efs = (earliest.mean_efs - aware.mean_efs) / earliest.mean_efs;
    let gain_jsd = (earliest.mean_jsd - aware.mean_jsd) / earliest.mean_jsd;
    println!(
        "\ncalibration-aware win: EFS -{:.1}%, JSD -{:.1}%, turnaround {:.2}x",
        100.0 * gain_efs,
        100.0 * gain_jsd,
        turnaround_ratio
    );

    let per_device = |o: &ShootoutOutcome| {
        o.per_device_jobs
            .iter()
            .map(|(d, n)| format!("{{ \"device\": \"{d}\", \"jobs\": {n} }}"))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let json = format!(
        "{{\n  \"bench\": \"routing_shootout\",\n  \"fleet\": [\"ibmq_toronto_noisy\", \
         \"ibmq_toronto\"],\n  \"jobs\": 18,\n  \"policies\": [\n    {{ \"policy\": \"{}\", \
         \"mean_efs\": {:.6}, \"mean_jsd\": {:.6}, \"mean_turnaround_ns\": {:.1}, \
         \"per_device\": [{}] }},\n    {{ \"policy\": \"{}\", \"mean_efs\": {:.6}, \
         \"mean_jsd\": {:.6}, \"mean_turnaround_ns\": {:.1}, \"per_device\": [{}] }}\n  ],\n  \
         \"efs_gain\": {:.4},\n  \"jsd_gain\": {:.4},\n  \"turnaround_ratio\": {:.4},\n  \
         \"cache_hits\": {},\n  \"cache_misses\": {}\n}}\n",
        earliest.policy,
        earliest.mean_efs,
        earliest.mean_jsd,
        earliest.mean_turnaround,
        per_device(&earliest),
        aware.policy,
        aware.mean_efs,
        aware.mean_jsd,
        aware.mean_turnaround,
        per_device(&aware),
        gain_efs,
        gain_jsd,
        turnaround_ratio,
        aware.cache.hits,
        aware.cache.misses,
    );
    std::fs::write("BENCH_routing_shootout.json", &json)
        .expect("write BENCH_routing_shootout.json");
    println!("wrote BENCH_routing_shootout.json");
}
