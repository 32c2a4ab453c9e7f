//! Regenerates `BENCH_trajectory.json`: mean ns/shot of the trajectory
//! engine on the paper-sized job (8192 shots, mapped GHZ-8 on IBM Q
//! Toronto) across both trajectory kernels (`Replay` and
//! `SurvivalSkip`), serial vs shot-sharded at 1/2/4 workers. Doubles as
//! the CI smoke check of the engine: before timing it asserts
//! thread-count determinism for both kernels on real measurements, and
//! after timing, on hosts with at least four cores, the sharding bar.
//! The two kernels share one evaluator and differ in RNG draws per
//! shot; their ratio is reported, not gated (`perfbench` reports both
//! as `sim.replay_ns_per_shot` / `sim.survival_ns_per_shot`).
//!
//! ```text
//! cargo run --release -p qucp-bench --bin trajectory
//! ```
//!
//! Numbers are host-dependent; `host_threads` records the parallelism
//! the machine actually offered (the ≥2x sharding target assumes ≥4
//! cores).

use qucp_bench::{
    run_trajectory_job_with_kernel, trajectory_clean_shot_fraction, trajectory_job,
    EXPERIMENT_SEED, PAPER_SHOTS,
};
use qucp_sim::{Counts, ShotParallelism, TrajectoryKernel};
use std::time::Instant;

/// Shard count of the benchmark job (fixed: it determines the counts).
const SHARDS: usize = 8;
/// Timed repetitions per configuration (after one warm-up).
const REPS: u32 = 5;

fn mean_ns_per_shot(mut run: impl FnMut() -> Counts) -> f64 {
    run(); // warm-up
    let start = Instant::now();
    for _ in 0..REPS {
        let counts = run();
        assert_eq!(counts.shots(), PAPER_SHOTS);
    }
    start.elapsed().as_nanos() as f64 / f64::from(REPS) / PAPER_SHOTS as f64
}

fn main() {
    let (device, plan) = trajectory_job();
    let host_threads = qucp_sim::core_budget();

    // Smoke check before timing: for either kernel, sharded counts must
    // not depend on the worker count.
    let sharded = |threads: usize| ShotParallelism::Sharded {
        shards: SHARDS,
        threads,
    };
    for kernel in [TrajectoryKernel::Replay, TrajectoryKernel::SurvivalSkip] {
        let reference = run_trajectory_job_with_kernel(&device, &plan, sharded(1), kernel);
        for workers in [2usize, 4] {
            assert_eq!(
                run_trajectory_job_with_kernel(&device, &plan, sharded(workers), kernel),
                reference,
                "{kernel:?} sharded counts changed with {workers} workers"
            );
        }
    }

    let workers = [1usize, 2, 4];
    let time_kernel = |kernel: TrajectoryKernel| {
        let serial = mean_ns_per_shot(|| {
            run_trajectory_job_with_kernel(&device, &plan, ShotParallelism::Serial, kernel)
        });
        let per_worker: Vec<f64> = workers
            .iter()
            .map(|&w| {
                mean_ns_per_shot(|| {
                    run_trajectory_job_with_kernel(&device, &plan, sharded(w), kernel)
                })
            })
            .collect();
        (serial, per_worker)
    };
    let (replay_serial, replay_sharded) = time_kernel(TrajectoryKernel::Replay);
    let (survival_serial, survival_sharded) = time_kernel(TrajectoryKernel::SurvivalSkip);
    let clean_fraction = trajectory_clean_shot_fraction(&device, &plan);
    let kernel_speedup = replay_serial / survival_serial;

    println!(
        "trajectory bench: ghz_8 on {}, {} shots, {} shards, host_threads = {}",
        device.name(),
        PAPER_SHOTS,
        SHARDS,
        host_threads
    );
    println!("  clean-shot fraction {clean_fraction:.4}");
    let mut sections = String::new();
    for (label, key, serial, per_worker) in [
        (
            "replay",
            "serial_ns_per_shot",
            replay_serial,
            &replay_sharded,
        ),
        (
            "survival_skip",
            "survival_serial_ns_per_shot",
            survival_serial,
            &survival_sharded,
        ),
    ] {
        println!("  {label:<13} serial {serial:9.1} ns/shot");
        let mut entries = String::new();
        for (&w, &ns) in workers.iter().zip(per_worker) {
            let speedup = serial / ns;
            println!("  {label:<13} x{w}     {ns:9.1} ns/shot  ({speedup:.2}x vs serial)");
            if !entries.is_empty() {
                entries.push_str(",\n");
            }
            entries.push_str(&format!(
                "    {{ \"workers\": {w}, \"ns_per_shot\": {ns:.1}, \"speedup\": {speedup:.3} }}"
            ));
        }
        let array_key = if label == "replay" {
            "sharded"
        } else {
            "survival_sharded"
        };
        sections.push_str(&format!(
            "  \"{key}\": {serial:.1},\n  \"{array_key}\": [\n{entries}\n  ],\n"
        ));
    }
    println!("  kernel speedup (survival vs replay, serial): {kernel_speedup:.2}x");

    let speedup_at_4 = replay_serial / replay_sharded[workers.len() - 1];
    // On hosts that actually offer 4 cores the sharding win is also a
    // bar: CI fails if it regresses below 2x. Single-core hosts (like
    // the container the committed baseline came from) can only report,
    // not enforce.
    if host_threads >= 4 {
        assert!(
            speedup_at_4 >= 2.0,
            "sharded trajectory speedup regressed: {speedup_at_4:.2}x at 4 workers \
             (host_threads = {host_threads}, expected >= 2x)"
        );
    }

    let json = format!(
        "{{\n  \"bench\": \"trajectory\",\n  \"device\": \"{}\",\n  \"circuit\": \"ghz_8\",\n  \
         \"shots\": {},\n  \"shards\": {},\n  \"seed\": {},\n  \"host_threads\": {},\n\
         {}  \"clean_shot_fraction\": {:.4},\n  \
         \"kernel_speedup\": {:.3},\n  \"speedup_at_4_workers\": {:.3}\n}}\n",
        device.name(),
        PAPER_SHOTS,
        SHARDS,
        EXPERIMENT_SEED,
        host_threads,
        sections,
        clean_fraction,
        kernel_speedup,
        speedup_at_4,
    );
    std::fs::write("BENCH_trajectory.json", &json).expect("write BENCH_trajectory.json");
    println!(
        "wrote BENCH_trajectory.json (kernel speedup {kernel_speedup:.2}x, \
         sharding at 4 workers {speedup_at_4:.2}x)"
    );
}
