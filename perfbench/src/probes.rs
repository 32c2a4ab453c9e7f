//! Isolated probes: one layer's public entry point called in a loop on
//! inputs a workload captured, outside any pass. They give the
//! per-layer metrics no span can, because the call happens inside the
//! service (`Pipeline::plan`, `Pipeline::execute_plan`, a drift step).
//!
//! Every probe repeats its call a fixed number of times and reports
//! the fastest third's mean, the same quiet-sample rule as the passes.

use std::hint::black_box;
use std::time::Instant;

use qucp_circuit::{library, Circuit};
use qucp_core::pipeline::{Pipeline, PlannedWorkload};
use qucp_core::strategy::Strategy;
use qucp_core::ParallelConfig;
use qucp_device::{
    Calibration, CrosstalkModel, CrosstalkProfile, Device, DriftModel, GaussianWalk, NoiseProfile,
};
use qucp_sim::{clean_shot_probability, ExecutionConfig, ShotParallelism, TrajectoryKernel};
use qucp_zne::{fold_gates_at_random, Factory};

use crate::alloc::AllocSnapshot;
use crate::workload::Metric;

/// Repeats of one probe call.
const REPEATS: usize = 9;

/// Shots of the per-shot simulator probes: enough that the per-program
/// set-up (measured on its own) is under 2 % of the run.
const PROBE_SHOTS: usize = 2048;

/// Mean ns of the fastest third of `REPEATS` timings of `call`.
pub fn quiet_ns(mut call: impl FnMut()) -> f64 {
    let mut ns: Vec<u64> = (0..REPEATS)
        .map(|_| {
            let started = Instant::now();
            call();
            started.elapsed().as_nanos() as u64
        })
        .collect();
    ns.sort_unstable();
    let keep = REPEATS.div_ceil(3);
    ns[..keep].iter().sum::<u64>() as f64 / keep as f64
}

/// Heap requests of one `call`.
fn allocs_of(call: impl FnOnce()) -> f64 {
    let before = AllocSnapshot::now();
    call();
    AllocSnapshot::now().since(before).calls as f64
}

/// `qucp-core`: plans every sampled batch afresh, merged and unmerged;
/// the difference is the schedule merge.
pub fn core(
    batches: &[(Device, Vec<Circuit>)],
    strategy: &Strategy,
    optimize: bool,
) -> Vec<Metric> {
    let pipeline = Pipeline::from_strategy(strategy);
    let programs: usize = batches.iter().map(|(_, members)| members.len()).sum();
    let n = batches.len().max(1) as f64;
    let plan_all = || {
        for (device, members) in batches {
            black_box(pipeline.plan(device, members, optimize).ok());
        }
    };
    let plan_ns = quiet_ns(plan_all);
    let unmerged_ns = quiet_ns(|| {
        for (device, members) in batches {
            black_box(pipeline.plan_unmerged(device, members, optimize).ok());
        }
    });
    vec![
        ("core.plan_ns_per_batch", plan_ns / n),
        ("core.plan_ns_per_program", plan_ns / programs.max(1) as f64),
        (
            "core.merge_ns_per_batch",
            (plan_ns - unmerged_ns).max(0.0) / n,
        ),
        ("core.allocs_per_plan", allocs_of(plan_all) / n),
    ]
}

/// Plans the first sampled batch that plans, for the simulator probes.
pub fn first_plan(
    batches: &[(Device, Vec<Circuit>)],
    strategy: &Strategy,
    optimize: bool,
) -> Option<(Device, PlannedWorkload)> {
    let pipeline = Pipeline::from_strategy(strategy);
    batches.iter().find_map(|(device, members)| {
        let plan = pipeline.plan(device, members, optimize).ok()?;
        Some((device.clone(), plan))
    })
}

/// `qucp-sim`: executes one captured plan under each trajectory kernel
/// and shot-parallelism mode, and once with a single shot, which is
/// the per-program set-up every job pays whatever its shot count.
pub fn sim(device: &Device, plan: &PlannedWorkload, strategy: &Strategy) -> Vec<Metric> {
    let pipeline = Pipeline::from_strategy(strategy);
    let programs = plan.programs.len().max(1) as f64;
    let execute = |shots: usize, kernel: TrajectoryKernel, parallelism: ShotParallelism| {
        let cfg = ParallelConfig {
            execution: ExecutionConfig::default()
                .with_shots(shots)
                .with_kernel(kernel)
                .with_parallelism(parallelism),
            optimize: false,
        };
        black_box(pipeline.execute_plan(device, plan, &cfg).ok());
    };
    let per_shot = |kernel, parallelism| {
        quiet_ns(|| execute(PROBE_SHOTS, kernel, parallelism)) / (programs * PROBE_SHOTS as f64)
    };
    let clean: f64 = plan
        .mapped
        .iter()
        .enumerate()
        .filter_map(|(i, mapped)| {
            clean_shot_probability(
                &mapped.circuit,
                &mapped.layout,
                device,
                &plan.context.scalings[i],
                &plan.context.tail_idle[i],
                &ExecutionConfig::default(),
            )
            .ok()
        })
        .sum::<f64>()
        / programs;
    let one_shot = || execute(1, TrajectoryKernel::Replay, ShotParallelism::Serial);
    vec![
        (
            "sim.replay_ns_per_shot",
            per_shot(TrajectoryKernel::Replay, ShotParallelism::Serial),
        ),
        (
            "sim.survival_ns_per_shot",
            per_shot(TrajectoryKernel::SurvivalSkip, ShotParallelism::Serial),
        ),
        (
            "sim.sharded_survival_ns_per_shot",
            per_shot(TrajectoryKernel::SurvivalSkip, ShotParallelism::sharded(4)),
        ),
        ("sim.setup_ns_per_program", quiet_ns(one_shot) / programs),
        ("sim.clean_shot_fraction", clean),
        ("sim.allocs_per_program", allocs_of(one_shot) / programs),
    ]
}

/// `qucp-device` and `qucp-circuit`: what set-up and drift pay per
/// device and per circuit.
pub fn device_and_circuit(fleet: &[&Device], circuits: &[Circuit]) -> Vec<Metric> {
    let devices = fleet.len().max(1) as f64;
    let synthesize_ns = quiet_ns(|| {
        for (i, device) in fleet.iter().enumerate() {
            let topology = device.topology();
            black_box(Calibration::synthesize(
                topology,
                i as u64,
                &NoiseProfile::default(),
            ));
            black_box(CrosstalkModel::synthesize(
                topology,
                i as u64,
                &CrosstalkProfile::default(),
            ));
        }
    });
    let walk = GaussianWalk::new(1, 1.0);
    let mut states: Vec<(Calibration, CrosstalkModel)> = fleet
        .iter()
        .map(|d| (d.calibration().clone(), d.crosstalk().clone()))
        .collect();
    let mut step = 0;
    let drift_ns = quiet_ns(|| {
        step += 1;
        for (salt, (calibration, crosstalk)) in states.iter_mut().enumerate() {
            black_box(walk.apply_step(step, salt as u64, calibration, crosstalk));
        }
    });
    let names: Vec<&str> = library::all().iter().map(|b| b.name).collect();
    let build_ns = quiet_ns(|| {
        for name in &names {
            black_box(library::by_name(name).map(|b| b.circuit()));
        }
    });
    let clone_ns = quiet_ns(|| {
        for circuit in circuits {
            black_box(circuit.clone());
        }
    });
    vec![
        ("device.synthesize_ns_per_device", synthesize_ns / devices),
        ("device.drift_step_ns_per_device", drift_ns / devices),
        (
            "circuit.build_ns_per_circuit",
            build_ns / names.len().max(1) as f64,
        ),
        (
            "circuit.clone_ns_per_circuit",
            clone_ns / circuits.len().max(1) as f64,
        ),
    ]
}

/// `qucp-zne` off the service: folding one circuit per ladder rung and
/// extrapolating one ladder.
pub fn zne(circuit: &Circuit, scales: &[f64], seed: u64) -> Vec<Metric> {
    let fold_ns = quiet_ns(|| {
        for (i, &scale) in scales.iter().enumerate() {
            black_box(fold_gates_at_random(circuit, scale, seed + i as u64));
        }
    });
    let ladder: Vec<(f64, f64)> = scales
        .iter()
        .map(|&s| (s, 0.9 * (-0.1 * s).exp()))
        .collect();
    let extrapolate_ns = quiet_ns(|| {
        black_box(Factory::Richardson.extrapolate(&ladder).ok());
    });
    vec![
        (
            "zne.fold_ns_per_circuit",
            fold_ns / scales.len().max(1) as f64,
        ),
        ("zne.extrapolate_ns", extrapolate_ns),
    ]
}
