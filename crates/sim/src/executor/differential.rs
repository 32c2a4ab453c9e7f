//! The differential suite: the draw/evaluate engine == the per-shot
//! oracle ([`super::oracle`]), every count of every run, over random
//! mapped jobs × both kernels × every shot mode × the three noise flags
//! × few and many shots × worker budgets, plus named cases so that a
//! regression names itself.

use std::cell::Cell;

use proptest::prelude::*;
use qucp_circuit::{Circuit, Gate};
use qucp_device::{Calibration, CrosstalkModel, Device, NoiseProfile, Topology};

use super::{
    alap_timing, build_plan, oracle, plan_standalone, single_error_alias, trivial_layout, Event,
    ExecutionConfig, NoiseScaling, PreparedJob, ShotParallelism, TrajectoryKernel, TrajectoryPlan,
};

thread_local! {
    /// Gates applied and level pools allocated by this thread's
    /// evaluators (bumped by `evaluate.rs` in test builds): work is
    /// counted with them, not with the wall clock.
    pub(super) static GATES_APPLIED: Cell<u64> = const { Cell::new(0) };
    pub(super) static POOLS_ALLOCATED: Cell<u64> = const { Cell::new(0) };
}

const KERNELS: [TrajectoryKernel; 2] = [TrajectoryKernel::Replay, TrajectoryKernel::SurvivalSkip];

/// A mapped job (trivial layout) with the part of a config that is not
/// swept: noise flags, shots, seed.
#[derive(Debug)]
struct Case {
    device: Device,
    circuit: Circuit,
    scaling: NoiseScaling,
    tail_idle: Vec<f64>,
    cfg: ExecutionConfig,
}

impl Case {
    fn prepare(&self) -> PreparedJob {
        let layout = trivial_layout(self.circuit.width());
        PreparedJob::prepare(
            &self.circuit,
            &layout,
            &self.device,
            &self.scaling,
            &self.tail_idle,
            &self.cfg,
        )
        .expect("the case is executable on its device")
    }

    /// Asserts engine == oracle under `kernel` and `parallelism`.
    fn check(&self, prepared: &PreparedJob, kernel: TrajectoryKernel, mode: ShotParallelism) {
        let cfg = self.cfg.with_kernel(kernel).with_parallelism(mode);
        assert_eq!(
            prepared.run(&self.circuit, &cfg),
            oracle::run(prepared, &self.circuit, &cfg),
            "{kernel:?} {mode:?} on {self:?}"
        );
    }
}

/// Line and grid chips with a synthesized (uneven) calibration whose
/// gate, readout and idle errors range from none to heavy; three chips
/// in eight read qubit 0 flipped with certainty, never flip their last
/// qubit, or both (the two readout draws without a threshold compare).
fn chip(shape: usize, seed: u64, noise: (f64, f64, f64)) -> Device {
    let topology = match shape {
        0 => Topology::line(2),
        1 => Topology::line(3),
        2 => Topology::line(5),
        3 => Topology::grid(2, 2),
        _ => Topology::grid(2, 3),
    };
    let (cx, readout, coherence_ns) = noise;
    let profile = NoiseProfile {
        cx_error: (0.0, cx.max(1e-9)),
        sq_error: (0.0, (cx / 4.0).max(1e-9)),
        readout_error: (0.0, readout.max(1e-9)),
        t1: (coherence_ns, 2.0 * coherence_ns),
        t2: (coherence_ns / 2.0, 2.0 * coherence_ns),
        ..NoiseProfile::default()
    };
    let mut calibration = Calibration::synthesize(&topology, seed, &profile);
    if matches!(seed % 8, 0 | 2) {
        calibration.set_readout_error(0, 1.0);
    }
    if matches!(seed % 8, 1 | 2) {
        calibration.set_readout_error(topology.num_qubits() - 1, 0.0);
    }
    Device::new("chip", topology, calibration, CrosstalkModel::none())
}

/// One- and two-qubit gates, the latter on coupling links only.
fn gate(device: &Device, kind: usize, at: usize, angle: f64) -> Gate {
    let links = device.topology().links();
    let q = at % device.num_qubits();
    let (a, b) = links[at % links.len()].endpoints();
    match kind {
        0 => Gate::H(q),
        1 => Gate::X(q),
        2 => Gate::Sx(q),
        3 => Gate::T(q),
        4 => Gate::Ry(q, angle),
        5 => Gate::U(q, angle, 0.3, -angle),
        6 => Gate::Cx(a, b),
        7 => Gate::Cx(b, a),
        8 => Gate::Cz(a, b),
        9 => Gate::Cp(b, a, angle),
        _ => Gate::Swap(a, b),
    }
}

fn arb_case() -> impl Strategy<Value = Case> {
    let device = (0usize..5, 0u64..1 << 20);
    // Coherence from 2 µs (an idle window errs every few shots) up.
    let noise = (0.0..0.3f64, 0.0..0.2f64, 2_000.0..200_000.0f64);
    let gates = proptest::collection::vec((0usize..11, 0usize..64, -3.2..3.2f64), 0..28);
    let run = (0usize..8, 0usize..4, 0u64..1 << 20, 0.0..4_000.0f64);
    (device, noise, gates, run).prop_map(|((shape, cal_seed), noise, gates, run)| {
        let device = chip(shape, cal_seed, noise);
        let mut circuit = Circuit::new(device.num_qubits());
        for (kind, at, angle) in gates {
            circuit.push(gate(&device, kind, at, angle));
        }
        let (flags, shots, seed, tail) = run;
        let mut scaling = NoiseScaling::uniform(circuit.gate_count());
        if circuit.gate_count() > 0 {
            // One crosstalk-amplified gate, as the parallel executor
            // would hand over.
            scaling.amplify(seed as usize % circuit.gate_count(), 3.0);
        }
        Case {
            tail_idle: (0..circuit.width())
                .map(|q| tail * (q % 2) as f64)
                .collect(),
            cfg: ExecutionConfig {
                shots: [1, 8, 300, 2048][shots],
                seed,
                gate_noise: flags & 1 != 0,
                readout_noise: flags & 2 != 0,
                idle_noise: flags & 4 != 0,
                ..ExecutionConfig::default()
            },
            device,
            circuit,
            scaling,
        }
    })
}

/// Every shot mode under both kernels; the level bound at its minimum
/// once per kernel.
fn engine_matches_the_oracle(case: &Case) {
    let prepared = case.prepare();
    for kernel in KERNELS {
        case.check(&prepared, kernel, ShotParallelism::Serial);
        case.check(&prepared, kernel, ShotParallelism::Auto);
        for shards in [1, 3, 16] {
            for threads in [1, 2, 4] {
                case.check(
                    &prepared,
                    kernel,
                    ShotParallelism::Sharded { shards, threads },
                );
            }
        }
        let cfg = case.cfg.with_kernel(kernel);
        assert_eq!(
            prepared.run_within(&case.circuit, &cfg, 0),
            prepared.run(&case.circuit, &cfg),
            "{kernel:?}, two levels, on {case:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn engine_matches_the_per_shot_oracle(case in arb_case()) {
        engine_matches_the_oracle(&case);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(640))]

    /// The same property at CI depth (`cargo test --release -p
    /// qucp-sim -- --ignored`).
    #[test]
    #[ignore = "long run; a CI step"]
    fn engine_matches_the_per_shot_oracle_at_depth(case in arb_case()) {
        engine_matches_the_oracle(&case);
    }
}

/// A hand-built case on a uniform line chip.
fn line_case(circuit: Circuit, cx_error: f64, readout_error: f64, cfg: ExecutionConfig) -> Case {
    let topology = Topology::line(circuit.width());
    let calibration = Calibration::uniform(&topology, cx_error, cx_error / 10.0, readout_error);
    Case {
        device: Device::new("line", topology, calibration, CrosstalkModel::none()),
        scaling: NoiseScaling::uniform(circuit.gate_count()),
        tail_idle: Vec::new(),
        circuit,
        cfg,
    }
}

/// `h(0)` and a CNOT chain repeated until the circuit has `gates` gates.
fn ladder(width: usize, gates: usize) -> Circuit {
    let mut c = Circuit::new(width);
    let mut layer = (0..width).cycle();
    while c.gate_count() < gates {
        match layer.next() {
            Some(0) => c.h(0),
            Some(q) => c.cx(q - 1, q),
            None => unreachable!("cycle never ends"),
        };
    }
    c
}

/// What this thread's evaluators did while `run` ran: gates applied,
/// level pools allocated.
fn probe<T>(run: impl FnOnce() -> T) -> (T, u64, u64) {
    let before = (GATES_APPLIED.get(), POOLS_ALLOCATED.get());
    let out = run();
    (
        out,
        GATES_APPLIED.get() - before.0,
        POOLS_ALLOCATED.get() - before.1,
    )
}

/// A run tallies its shots densely (4 outcomes, 8 192 shots) and
/// sparsely (4 096 outcomes, 64 shots): `Serial` and two to four
/// shards, under both kernels, each equal to the per-shot oracle's
/// counts, in a vector that keeps at most twice its entries.
#[test]
fn both_tally_regimes_give_the_oracle_counts_in_a_tight_vector() {
    let mut layer = Circuit::new(12);
    (0..12).for_each(|q| {
        layer.h(q);
    });
    let cases = [
        line_case(
            ladder(2, 6),
            0.05,
            0.03,
            ExecutionConfig::default().with_seed(3),
        ),
        line_case(layer, 0.05, 0.03, ExecutionConfig::default().with_shots(64)),
    ];
    for case in cases {
        let prepared = case.prepare();
        let modes = (2..=4).map(|shards| ShotParallelism::Sharded { shards, threads: 2 });
        for kernel in KERNELS {
            for mode in [ShotParallelism::Serial].into_iter().chain(modes.clone()) {
                let cfg = case.cfg.with_kernel(kernel).with_parallelism(mode);
                let counts = prepared.run(&case.circuit, &cfg);
                assert_eq!(
                    counts,
                    oracle::run(&prepared, &case.circuit, &cfg),
                    "{cfg:?}"
                );
                assert_eq!(counts.shots(), case.cfg.shots);
                assert!(
                    counts.capacity() <= 2 * counts.len(),
                    "{} entries in room for {}: {cfg:?}",
                    counts.len(),
                    counts.capacity()
                );
            }
        }
    }
}

#[test]
fn an_all_clean_stream_allocates_no_state() {
    // Every noise channel off: no shot draws an error, under either
    // kernel, so no evaluator is built. The same job with noise on
    // builds exactly one (Serial runs on the calling thread).
    let mut cfg = ExecutionConfig::default().with_shots(300).with_seed(9);
    let noisy = line_case(ladder(4, 12), 0.05, 0.02, cfg);
    (cfg.gate_noise, cfg.idle_noise, cfg.readout_noise) = (false, false, false);
    let clean = line_case(ladder(4, 12), 0.05, 0.02, cfg);
    for kernel in KERNELS {
        let prepared = clean.prepare();
        let (_, gates, pools) = probe(|| clean.check(&prepared, kernel, ShotParallelism::Serial));
        assert_eq!((gates, pools), (0, 0), "{kernel:?}");
        let prepared = noisy.prepare();
        let (_, gates, pools) = probe(|| noisy.check(&prepared, kernel, ShotParallelism::Serial));
        assert!(
            gates > 0 && pools == 1,
            "{kernel:?}: {gates} gates, {pools} pools"
        );
    }
}

#[test]
fn identical_patterns_apply_every_gate_once() {
    // Gate noise off, one idle window, T1 so long that the window can
    // only dephase: every error shot draws the pattern [(window, Z)].
    // The tree is the root and one child that inherits its buffer, so
    // the whole run applies each of the three gates once.
    let topology = Topology::line(3);
    let profile = NoiseProfile {
        t1: (1e30, 2e30),
        t2: (400.0, 401.0),
        ..NoiseProfile::default()
    };
    let mut cfg = ExecutionConfig::default().with_shots(300).with_seed(4);
    cfg.gate_noise = false;
    let mut circuit = Circuit::new(3);
    circuit.h(0).cx(0, 1).cx(1, 2);
    let case = Case {
        device: Device::new(
            "dephasing",
            topology.clone(),
            Calibration::synthesize(&topology, 1, &profile),
            CrosstalkModel::none(),
        ),
        scaling: NoiseScaling::uniform(3),
        tail_idle: Vec::new(),
        circuit,
        cfg,
    };
    let prepared = case.prepare();
    let is_idle = |ev: &Event| matches!(ev, Event::Idle { .. });
    assert_eq!(
        prepared.plan.events.iter().filter(|e| is_idle(e)).count(),
        1
    );
    let clean = prepared.plan.clean;
    assert!(
        (0.3..0.9).contains(&clean),
        "clean-shot probability {clean}"
    );
    for kernel in KERNELS {
        let (_, gates, pools) = probe(|| case.check(&prepared, kernel, ShotParallelism::Serial));
        assert_eq!((gates, pools), (3, 1), "{kernel:?}");
    }
}

#[test]
fn capped_errors_with_an_underflowing_survival_prefix() {
    // 600 CNOTs amplified to the 0.75 cap: 0.25^600 underflows, so
    // SurvivalSkip finishes every shot through its linear fallback and
    // a shot carries ~450 errors.
    let mut cfg = ExecutionConfig::default().with_shots(12).with_seed(21);
    cfg.idle_noise = false;
    let mut case = line_case(ladder(2, 600), 0.3, 0.02, cfg);
    for gate in 0..600 {
        case.scaling.amplify(gate, 1e9);
    }
    let prepared = case.prepare();
    assert_eq!(prepared.plan.clean, 0.0);
    for kernel in KERNELS {
        case.check(&prepared, kernel, ShotParallelism::Serial);
        case.check(&prepared, kernel, ShotParallelism::sharded(5));
    }
}

#[test]
fn certain_and_impossible_readout_flips() {
    // A readout error of exactly 1 flips without consuming a word, one
    // of exactly 0 consumes a word and never flips: both are part of
    // the stream, under the per-qubit draws of `Replay` and under the
    // jumps of `SurvivalSkip` (whose products reach 0 at the first).
    let cfg = ExecutionConfig::default().with_shots(400).with_seed(6);
    let mut case = line_case(ladder(4, 9), 0.05, 0.3, cfg);
    let mut readout = case.device.calibration().clone();
    readout.set_readout_error(1, 1.0);
    readout.set_readout_error(2, 0.0);
    case.device = case
        .device
        .with_state(readout, case.device.crosstalk().clone());
    let prepared = case.prepare();
    for kernel in KERNELS {
        let cfg = cfg.with_kernel(kernel);
        let counts = prepared.run(&case.circuit, &cfg);
        // Bit 1 reads flipped in every shot of an (almost) GHZ state.
        assert_eq!(counts, oracle::run(&prepared, &case.circuit, &cfg));
        case.check(&prepared, kernel, ShotParallelism::sharded(3));
    }
}

#[test]
fn more_shards_than_shots() {
    let cfg = ExecutionConfig::default().with_shots(10).with_seed(2);
    let case = line_case(ladder(3, 9), 0.2, 0.05, cfg);
    let prepared = case.prepare();
    for kernel in KERNELS {
        for shards in [11, 64, 1000] {
            case.check(&prepared, kernel, ShotParallelism::sharded(shards));
        }
    }
}

#[test]
fn both_sides_of_the_single_error_alias_rule() {
    // Ten qubits, idle noise off (events == gates): 256 events sit on
    // the rule's limit (alias table), 257 past it (CDF walk). Low gate
    // error, so most error shots carry one error and meet the rule.
    assert!(single_error_alias(256, 10) && !single_error_alias(257, 10));
    let mut cfg = ExecutionConfig::default().with_shots(160).with_seed(33);
    cfg.idle_noise = false;
    for gates in [256, 257] {
        let case = line_case(ladder(10, gates), 0.004, 0.01, cfg);
        let prepared = case.prepare();
        assert_eq!(prepared.plan.events.len(), gates);
        for kernel in KERNELS {
            case.check(&prepared, kernel, ShotParallelism::Serial);
            case.check(&prepared, kernel, ShotParallelism::sharded(3));
        }
    }
}

#[test]
fn the_scalar_body_gives_the_counts_of_the_lane_body() {
    // Every gate kind on a 2x3 grid (64 amplitudes: every kernel class
    // on qubits below and from 2 up): engine == oracle under the body
    // this CPU picks, and again with the scalar body forced from
    // `prepare` on. The oracle's per-shot loop applies its gates
    // through the scalar kernels' own entry points.
    let device = chip(4, 27, (0.08, 0.05, 20_000.0));
    let mut circuit = Circuit::new(device.num_qubits());
    for at in 0..44 {
        let angle = 0.3 * at as f64 - 2.0;
        circuit.push(gate(&device, at % 11, at * 7 + at / 11, angle));
    }
    let case = Case {
        scaling: NoiseScaling::uniform(circuit.gate_count()),
        tail_idle: vec![900.0; circuit.width()],
        cfg: ExecutionConfig::default().with_shots(2048).with_seed(27),
        device,
        circuit,
    };
    engine_matches_the_oracle(&case);
    crate::state::kernel::scalar_only(|| engine_matches_the_oracle(&case));
}

#[test]
fn two_levels_give_the_counts_of_an_unbounded_pool() {
    // A branching tree (2 000 shots, four in ten with errors, many
    // shared prefixes) under the minimum bound, root + one branch:
    // same counts, more gate applications than the unbounded walk,
    // fewer than a replay per shot.
    let cfg = ExecutionConfig::default().with_shots(2000).with_seed(8);
    let case = line_case(ladder(5, 20), 0.03, 0.02, cfg);
    let prepared = case.prepare();
    for kernel in KERNELS {
        let cfg = cfg.with_kernel(kernel);
        let expected = oracle::run(&prepared, &case.circuit, &cfg);
        let (free, free_gates, _) = probe(|| prepared.run(&case.circuit, &cfg));
        let (bounded, bounded_gates, _) = probe(|| prepared.run_within(&case.circuit, &cfg, 0));
        assert_eq!(free, expected, "{kernel:?}");
        assert_eq!(bounded, expected, "{kernel:?}");
        let error_shots = (2000.0 * (1.0 - prepared.plan.clean)) as u64;
        assert!(
            free_gates < bounded_gates && bounded_gates < error_shots * 20,
            "{kernel:?}: {free_gates} unbounded, {bounded_gates} at two levels, \
             {error_shots} error shots of 20 gates"
        );
    }
}

// The event builder: the one-pass `build_plan` == the parent's sorting
// builder (`oracle::build_plan`), every event by its bits, over mapped
// jobs on random paths of Toronto and of a line, every noise-flag set,
// tail idles of zero, NaN and below zero, and calibrations with a zero
// or negative one-qubit duration or equal CNOT durations.

/// Every gate kind, two-qubit gates on any pair of `width` qubits.
fn scrambled(width: usize, gates: &[(usize, usize, usize, f64)]) -> Circuit {
    let mut c = Circuit::new(width);
    for &(kind, a, b, angle) in gates {
        let a = a % width;
        let b = (a + 1 + b % (width - 1)) % width;
        c.push(match kind {
            0 => Gate::H(a),
            1 => Gate::X(a),
            2 => Gate::Sx(a),
            3 => Gate::Rz(a, angle),
            4 => Gate::U(a, angle, 0.3, -angle),
            5 => Gate::Cx(a, b),
            6 => Gate::Cz(a, b),
            7 => Gate::Cp(a, b, angle),
            _ => Gate::Swap(a, b),
        });
    }
    c
}

/// `circuit` on a path of its width: a two-qubit gate between qubits
/// that are not neighbours is preceded by the SWAPs that walk its first
/// qubit next to its second and followed by the SWAPs back.
fn routed(circuit: &Circuit) -> Circuit {
    let mut out = Circuit::new(circuit.width());
    for g in circuit.gates() {
        let qs = g.qubits();
        let (a, b) = match *qs.as_slice() {
            [a, b] if a.abs_diff(b) > 1 => (a, b),
            _ => {
                out.push(*g);
                continue;
            }
        };
        let step = |q: usize| if a < b { q + 1 } else { q - 1 };
        let walk: Vec<usize> = std::iter::successors(Some(a), |&q| Some(step(q)))
            .take_while(|&q| step(q) != b)
            .collect();
        for &q in &walk {
            out.swap(q, step(q));
        }
        let next_to_b = step(*walk.last().expect("a is not next to b"));
        out.push(g.map_qubits(|q| if q == a { next_to_b } else { q }));
        for &q in walk.iter().rev() {
            out.swap(q, step(q));
        }
    }
    out
}

/// A simple path of `len` qubits on `topology`: a random walk
/// (`choices` picks each step) from the first start after `choices[0]`
/// where it does not run dry.
fn path(topology: &Topology, len: usize, choices: &[usize]) -> Vec<usize> {
    let n = topology.num_qubits();
    let walk = |start: usize| {
        let mut path = vec![start];
        for &choice in &choices[1..len] {
            let here = path[path.len() - 1];
            let free: Vec<usize> = (topology.neighbors(here).iter().copied())
                .filter(|q| !path.contains(q))
                .collect();
            path.push(*free.get(choice % free.len().max(1))?);
        }
        Some(path)
    };
    (0..n)
        .find_map(|i| walk((choices[0] + i) % n))
        .expect("a path that long exists")
}

/// Toronto's coupling map or a line of 12, under a calibration that is
/// synthesized (uneven CNOT durations), uniform (equal CNOT durations:
/// windows of different qubits tie), or synthesized with a zero, a
/// negative or a NaN one-qubit duration.
fn timed_chip(toronto: bool, calibration: usize, seed: u64) -> Device {
    let topology = if toronto {
        qucp_device::ibm::toronto_topology()
    } else {
        Topology::line(12)
    };
    let profile = |sq_duration| NoiseProfile {
        sq_duration,
        ..NoiseProfile::default()
    };
    let calibration = match calibration {
        0 => Calibration::synthesize(&topology, seed, &NoiseProfile::default()),
        1 => Calibration::uniform(&topology, 0.02, 3e-4, 0.02),
        2 => Calibration::synthesize(&topology, seed, &profile(0.0)),
        3 => Calibration::synthesize(&topology, seed, &profile(-35.0)),
        _ => Calibration::synthesize(&topology, seed, &profile(f64::NAN)),
    };
    Device::new("timed", topology, calibration, CrosstalkModel::none())
}

/// A mapped job for the builders, and the noise flags it is built
/// under.
#[derive(Debug)]
struct Timed {
    device: Device,
    circuit: Circuit,
    layout: Vec<usize>,
    scaling: NoiseScaling,
    tail_idle: Vec<f64>,
    cfg: ExecutionConfig,
}

impl Timed {
    /// Asserts that both builders build the same events and the same
    /// clean-shot probability, bit for bit, and that a plan fed the
    /// schedule the job's stand-alone entry computes builds them too.
    fn check(&self) {
        let (circuit, layout, device) = (&self.circuit, &self.layout[..], &self.device);
        let (scaling, tail_idle, cfg) = (&self.scaling, &self.tail_idle[..], &self.cfg);
        let built = plan_standalone(circuit, layout, device, scaling, tail_idle, cfg);
        let built = built.expect("the job is executable on its chip");
        let parent = oracle::build_plan(circuit, layout, device, scaling, tail_idle, cfg).unwrap();
        assert_eq!(plan_bits(&built), plan_bits(&parent), "{self:?}");
        let sched = alap_timing(circuit, layout, device);
        let fed = build_plan(circuit, layout, device, scaling, tail_idle, &sched, cfg);
        assert_eq!(plan_bits(&fed), plan_bits(&parent), "{self:?}");
    }
}

/// A plan as bits: each event's kind, index and every `f64` and
/// threshold, then the clean-shot probability.
fn plan_bits(plan: &TrajectoryPlan) -> Vec<[u64; 6]> {
    let mut bits: Vec<[u64; 6]> = plan
        .events
        .iter()
        .map(|ev| match *ev {
            Event::Gate {
                index,
                error_p,
                threshold,
            } => [
                1,
                index.into(),
                error_p.to_bits(),
                threshold.map_or(0, |t| t.wrapping_add(1)),
                u64::from(threshold.is_some()),
                0,
            ],
            Event::Idle {
                q,
                relax_p,
                dephase_p,
                thresholds: [x, y, z],
            } => [
                2 | u64::from(q) << 8,
                relax_p.to_bits(),
                dephase_p.to_bits(),
                x,
                y,
                z,
            ],
        })
        .collect();
    bits.push([plan.clean.to_bits(); 6]);
    bits
}

fn arb_timed() -> impl Strategy<Value = Timed> {
    let chip = (0usize..2, 0usize..5, 0u64..1 << 20);
    let shape = (
        1usize..8,
        0usize..12,
        proptest::collection::vec(0usize..64, 8),
    );
    let gates = proptest::collection::vec((0usize..9, 0usize..64, 0usize..64, -3.2..3.2f64), 0..40);
    let run = (0usize..8, 0usize..64, 0usize..6);
    (chip, shape, gates, run).prop_map(|(chip, shape, gates, run)| {
        let ((toronto, calibration, seed), (width, pick, choices), (flags, hot, tail)) =
            (chip, shape, run);
        let device = timed_chip(toronto == 0, calibration, seed);
        // A library circuit (routed) in one case of three.
        let library = qucp_circuit::library::all();
        let circuit = match pick % 3 {
            0 => library[pick % library.len()].circuit(),
            _ => scrambled(width.max(2), &gates),
        };
        let circuit = routed(&circuit);
        let width = circuit.width();
        let layout = if toronto == 0 {
            path(device.topology(), width, &choices)
        } else {
            // An offset and a direction on the line.
            let start = choices[0] % (13 - width);
            let line = (start..start + width).collect::<Vec<_>>();
            if choices[1] % 2 == 0 {
                line
            } else {
                line.into_iter().rev().collect()
            }
        };
        let mut scaling = NoiseScaling::uniform(circuit.gate_count());
        if circuit.gate_count() > 0 {
            scaling.amplify(hot % circuit.gate_count(), 3.0);
        }
        let tail = [0.0, f64::NAN, -250.0, 250.0, 1e-300, -0.0][tail];
        Timed {
            tail_idle: (0..width).map(|q| tail * (q % 2) as f64).collect(),
            cfg: ExecutionConfig {
                gate_noise: flags & 1 != 0,
                readout_noise: flags & 2 != 0,
                idle_noise: flags & 4 != 0,
                ..ExecutionConfig::default()
            },
            device,
            circuit,
            layout,
            scaling,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn the_one_pass_builder_equals_the_sorting_builder(timed in arb_timed()) {
        timed.check();
    }
}

#[test]
fn windows_that_end_together_and_spans_out_of_order() {
    let timed = |device: Device, circuit: Circuit| Timed {
        layout: trivial_layout(circuit.width()),
        scaling: NoiseScaling::uniform(circuit.gate_count()),
        tail_idle: vec![0.0, f64::NAN, -250.0, 1e-300],
        cfg: ExecutionConfig::default(),
        device,
        circuit,
    };
    // Equal CNOT durations: the last `cx(0, 1)` ends a window on qubit
    // 0 and one on qubit 1 at the same time, which is also the start of
    // the last `cx(2, 3)`.
    let topology = Topology::line(4);
    let uniform = Calibration::uniform(&topology, 0.02, 3e-4, 0.02);
    let device = Device::new("line", topology, uniform, CrosstalkModel::none());
    let mut circuit = Circuit::new(4);
    circuit
        .cx(0, 1)
        .cx(1, 2)
        .cx(2, 3)
        .cx(2, 3)
        .cx(2, 3)
        .cx(0, 1);
    let case = timed(device, circuit);
    let windows =
        alap_timing(&case.circuit, &case.layout, &case.device).idle_windows(&case.circuit);
    assert_eq!((windows[0][0].1, windows[1][0].1), (1200.0, 1200.0));
    case.check();

    // A negative one-qubit duration: qubit 0's second `h` starts before
    // its first, so the builder sorts that qubit's spans.
    let topology = Topology::line(2);
    let profile = NoiseProfile {
        sq_duration: -35.0,
        ..NoiseProfile::default()
    };
    let negative = Calibration::synthesize(&topology, 3, &profile);
    let device = Device::new("line", topology, negative, CrosstalkModel::none());
    let mut circuit = Circuit::new(2);
    circuit.h(0).h(0).x(1).cx(0, 1).h(1);
    let case = timed(device, circuit);
    let sched = alap_timing(&case.circuit, &case.layout, &case.device);
    assert!(sched.entries()[1].start < sched.entries()[0].start);
    case.check();
}
