//! Generators for the differential suite: job requests with every
//! per-job override, service configurations over every policy axis,
//! and `submit / tick / advance_dispatch / advance_drift / recalibrate /
//! take_result / drain` interleavings on a shared simulated clock.

use proptest::collection::vec;
use proptest::prelude::*;
use qucp_core::strategy;
use qucp_device::GaussianWalk;
use qucp_runtime::{
    AdmissionPolicy, Backfill, EfsGate, JobRequest, RoutingChoice, ShotParallelism,
    TrajectoryKernel,
};

use super::{circuit, Config, Drift, Fleet, Op};

/// Small library circuits (`bell+cx_cx` folds to `bell`'s shape at
/// submit), two wide GHZ chains only the larger chips admit, and
/// (rarely) one nothing admits — the typed-error path.
const CIRCUITS: [&str; 11] = [
    "bell",
    "fredkin",
    "linearsolver",
    "variation",
    "alu-v0_27",
    "qec",
    "bell+cx_cx",
    "ghz9",
    "ghz13",
    "ghz18",
    "ghz30",
];

const PRESSURE: f64 = 2e-6;

/// A service's routing: earliest-free in half the draws, else
/// calibration-aware at the default pressure or at either degenerate
/// one — `0.0` (quality alone) and `f64::INFINITY` (the earliest start
/// alone, quality among ties).
fn routing() -> impl Strategy<Value = RoutingChoice> {
    (0u8..8).prop_map(|draw| match draw {
        0..4 => RoutingChoice::EarliestFree,
        4 | 5 => RoutingChoice::CalibrationAware {
            pressure_per_ns: PRESSURE,
        },
        6 => RoutingChoice::CalibrationAware {
            pressure_per_ns: 0.0,
        },
        _ => RoutingChoice::CalibrationAware {
            pressure_per_ns: f64::INFINITY,
        },
    })
}

/// A job of at most `max_shots` shots ([`interleaving`] stamps the
/// arrival). Most jobs are small and carry few overrides, so batches
/// form; every override axis still shows up in every few jobs — the
/// kernel and the shot mode only here, as the service has no default
/// of its own for either.
pub fn job(max_shots: usize) -> impl Strategy<Value = JobRequest> {
    let shape = (0usize..256, 0u64..12, 0..=max_shots);
    let planning = (0u8..12, 0u8..8);
    let execution = (0u8..6, 0u8..10);
    (shape, planning, execution).prop_map(|(shape, planning, execution)| {
        let (name, id, shots) = shape;
        // Three draws in four are the seven small circuits; one in 256
        // is `ghz30`, which no fleet admits: submit refuses it, typed.
        let name = match name {
            0..192 => CIRCUITS[name % 7],
            192..255 => CIRCUITS[7 + name % 3],
            _ => CIRCUITS[10],
        };
        let mut req = JobRequest::new(circuit(name, format!("job{id}")), 0.0);
        // Ids above 8 stay service-assigned; small ones may collide.
        if id < 8 {
            req = req.with_id(id);
        }
        // Zero shots means "the service default".
        if shots > 0 {
            req = req.with_shots(shots);
        }
        let (threshold, route) = planning;
        req.fidelity_threshold = match threshold {
            0 => Some(0.0),
            1 => Some(0.1),
            2 => Some(0.4),
            3 => Some(1e9),
            _ => None,
        };
        req.routing = match route {
            0 => Some(RoutingChoice::EarliestFree),
            1 => Some(RoutingChoice::CalibrationAware {
                pressure_per_ns: PRESSURE,
            }),
            2 => Some(RoutingChoice::CalibrationAware {
                pressure_per_ns: 0.0,
            }),
            _ => None,
        };
        let (kernel, shards) = execution;
        req.trajectory_kernel = match kernel {
            0 => Some(TrajectoryKernel::SurvivalSkip),
            1 => Some(TrajectoryKernel::Replay),
            _ => None,
        };
        req.shot_parallelism = match shards {
            0 => Some(ShotParallelism::Sharded {
                shards: 3,
                threads: 2,
            }),
            1 => Some(ShotParallelism::Auto),
            2 => Some(ShotParallelism::sharded(4)),
            3 => Some(ShotParallelism::Serial),
            _ => None,
        };
        req
    })
}

/// A configuration over every axis both schedulers implement.
pub fn config() -> impl Strategy<Value = Config> {
    let fleet = prop_oneof![
        Just(Fleet::Skewed),
        Just(Fleet::Skewed),
        Just(Fleet::MelbourneToronto),
        Just(Fleet::Mega(5)),
        Just(Fleet::Toronto),
    ];
    let policy = prop_oneof![
        Just(AdmissionPolicy::Fifo),
        (0usize..4).prop_map(|max_overtakes| Backfill { max_overtakes }.into()),
        Just(AdmissionPolicy::ShortestJobFirst),
    ];
    let gate = prop_oneof![
        Just(EfsGate::HeadOnly),
        Just(EfsGate::Batch),
        Just(EfsGate::BatchWorstExcess),
    ];
    let threshold = prop_oneof![
        Just(None),
        Just(None),
        Just(Some(0.0)),
        Just(Some(0.1)),
        Just(Some(0.4)),
    ];
    let drift = prop_oneof![
        Just(Drift::None),
        (0u64..1000, 0u8..2).prop_map(|(seed, fast)| {
            let interval = if fast == 0 { 40_000.0 } else { 250_000.0 };
            Drift::Walk(GaussianWalk::new(seed, interval))
        }),
    ];
    let capacity = prop_oneof![Just(None), Just(None), (0usize..40).prop_map(Some)];
    let scheduling = (fleet, policy, routing(), gate, threshold);
    let execution = (0u64..1000, 0u8..2);
    let knobs = (0usize..6, drift, capacity, 0u8..4);
    (scheduling, execution, knobs).prop_map(|(scheduling, execution, knobs)| {
        let (fleet, policy, routing, gate, threshold) = scheduling;
        let (seed, optimize) = execution;
        let (max_parallel, drift, event_capacity, strategy) = knobs;
        Config {
            fleet,
            policy,
            routing,
            gate,
            threshold,
            // The paper's σ = 4 in half the draws, else a baseline.
            strategy: match strategy {
                0 => strategy::cna(),
                1 => strategy::multiqc(),
                _ => strategy::qucp(4.0),
            },
            // 1 (dedicated), 2, 3, 4, 4 or 6.
            max_parallel: [1, 2, 3, 4, 4, 6][max_parallel],
            seed,
            optimize: optimize == 1,
            drift,
            event_capacity,
            ..Config::default()
        }
    })
}

/// Up to `max_ops` ops on one simulated clock. Jobs are submitted
/// ahead of time and out of order — arriving now, within a batch
/// makespan, or a few makespans out — so queues build, batches pack
/// and ticks reveal arrivals progressively; ticks and drift advances
/// move the clock by up to a few makespans or drift intervals.
pub fn interleaving(max_ops: usize, max_shots: usize) -> impl Strategy<Value = Vec<Op>> {
    let op = prop_oneof![
        job(max_shots).prop_map(Op::Submit),
        job(max_shots).prop_map(Op::Submit),
        job(max_shots).prop_map(Op::Submit),
        job(max_shots).prop_map(Op::Submit),
        job(max_shots).prop_map(Op::Submit),
        job(max_shots).prop_map(Op::Submit),
        Just(Op::Tick(3_000.0)),
        Just(Op::Tick(30_000.0)),
        Just(Op::AdvanceDispatch(3_000.0)),
        Just(Op::AdvanceDrift(300_000.0)),
        (0usize..4, 0usize..3, 0u8..8).prop_map(|(device, foreign, scale)| Op::Recalibrate {
            device,
            // Mostly a same-chip rescale; sometimes a neighbour's
            // snapshot (a swap between twins, a typed mismatch between
            // strangers); sometimes poisoned.
            donor: device + foreign / 2,
            scale: match scale {
                0 => f64::NAN,
                s => 0.5 + f64::from(s) * 0.25,
            },
        }),
        (0usize..64).prop_map(Op::TakeResult),
        (0usize..64).prop_map(Op::TakeResult),
        Just(Op::Drain),
    ];
    // A clock-moving op arrives holding its largest step; `frac` and
    // the case's `pace` scale it and the running clock replaces it. A
    // slow pace keeps the chips busy past most ticks, so the queue runs
    // deep and the final drain packs it; a `plain` case also drops the
    // thresholds that keep jobs out of each other's batches and never
    // drains mid-run.
    let pace = prop_oneof![Just(1.0), Just(0.1), Just(0.0)];
    let steps = vec((0.0..1.0f64, 0usize..4, op), 1..=max_ops);
    (pace, 0u8..2, steps).prop_map(|(pace, plain, steps)| {
        let mut now = 0.0;
        let mut step = |max: f64, frac: f64| {
            now += max * frac;
            now
        };
        steps
            .into_iter()
            .map(|(frac, ahead, op)| match op {
                Op::Submit(mut req) => {
                    let ahead = [0.0, 0.0, 5_000.0, 40_000.0][ahead] * pace;
                    req.arrival = step(0.0, 0.0) + frac * ahead;
                    if plain == 1 {
                        req.fidelity_threshold = None;
                    }
                    Op::Submit(req)
                }
                Op::Tick(max) => Op::Tick(step(max * pace, frac)),
                Op::AdvanceDispatch(max) => Op::AdvanceDispatch(step(max * pace, frac)),
                Op::AdvanceDrift(max) => Op::AdvanceDrift(step(max, frac)),
                Op::Drain if plain == 1 => Op::Tick(step(0.0, 0.0)),
                op => op,
            })
            .collect()
    })
}
