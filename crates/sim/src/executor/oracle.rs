//! The per-shot trajectory loop this crate ran before the prefix-tree
//! evaluator, kept as the test oracle the evaluator is compared with
//! bit for bit: the bodies below are the production code of the parent
//! revision, moved, not rewritten. Every error shot re-simulates the
//! circuit — `Replay` from `|0…0⟩`, `SurvivalSkip` from a prefix
//! snapshot with a per-stream single-error table cache — and every
//! shard stream is evaluated on its own.
//!
//! [`build_plan`] is the event builder of the revision before the
//! one-pass builder, moved the same way: the one-pass builder is
//! compared with it event by event.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use super::{
    alap_timing, derive_shard_seed, event_error_p, gate_threshold, idle_thresholds, narrow,
    validate_layout, Event, ExecutionConfig, NoiseScaling, PreparedJob, ShotParallelism, SimError,
    TrajectoryKernel, TrajectoryPlan,
};
use crate::alias::AliasTable;
use crate::counts::Counts;
use crate::state::Statevector;
use crate::unitaries::single_qubit_matrix;
use qucp_circuit::{Circuit, Gate};
use qucp_device::{Device, Link};

/// The parent's gate application: every one-qubit gate through the
/// general 2×2 kernel, its matrix (and a `Cp`'s phase) evaluated per
/// application. What the compiled, structure-specialised kernels of
/// `state::kernel` are compared with.
fn apply_gate(sv: &mut Statevector, gate: &Gate) {
    match *gate {
        Gate::Cx(c, t) => sv.apply_cx(c, t),
        Gate::Cz(a, b) => sv.apply_cz(a, b),
        Gate::Cp(a, b, theta) => sv.apply_cp(a, b, theta),
        Gate::Swap(a, b) => sv.apply_swap(a, b),
        ref g => sv.apply_single(g.qubits().as_slice()[0], &single_qubit_matrix(g)),
    }
}

/// Runs `cfg` on `prepared` through the per-shot loop, inline on the
/// calling thread (thread counts never changed a count).
pub(super) fn run(prepared: &PreparedJob, circuit: &Circuit, cfg: &ExecutionConfig) -> Counts {
    let gates = circuit.gates();
    // The deterministic tables are inputs of both paths, not part of
    // the loop under test.
    let tables = (cfg.kernel == TrajectoryKernel::SurvivalSkip).then(|| prepared.tables());
    let snapshots = tables.and_then(|_| {
        PrefixSnapshots::build(prepared.width(), gates, &prepared.plan, SNAPSHOT_AMP_LIMIT)
    });
    // The prepared job keeps a distribution, not the state: the state
    // clean shots walk is computed here, through the general kernels.
    let mut ideal = Statevector::zero_state(prepared.width());
    gates.iter().for_each(|g| apply_gate(&mut ideal, g));
    let job = TrajectoryJob {
        width: prepared.width(),
        gates,
        readout_p: &prepared.readout_p,
        plan: &prepared.plan,
        ideal: &ideal,
        alias: tables.map(|t| &t.alias),
        survival: tables.map(|t| &t.events[..]),
        snapshots: snapshots.as_ref(),
        readout_survival: tables.and_then(|t| t.readout_survival.as_deref()),
        cfg,
    };
    match cfg.parallelism.resolve(cfg.shots) {
        ShotParallelism::Serial => job.run_stream(cfg.shots, cfg.seed),
        ShotParallelism::Sharded { shards, .. } => job.run_sharded(shards),
        ShotParallelism::Auto => unreachable!("Auto resolves to Sharded"),
    }
}

/// Memory gate for [`PrefixSnapshots`]: build them only while the
/// total snapshot storage `(gate_events + 1) · 2^n` stays at or below
/// this many amplitudes (2^21 amps ≈ 32 MiB of `Complex`).
const SNAPSHOT_AMP_LIMIT: usize = 1 << 21;

/// Memory gate for the per-stream single-error outcome cache: enabled
/// only while its worst-case size `events · 16 · 2^n` stays at or
/// below this many table entries.
const SINGLE_ERROR_CACHE_LIMIT: usize = 1 << 22;

/// Ideal prefix states of a job's event stream, built for the
/// [`TrajectoryKernel::SurvivalSkip`] kernel: `states[k]` is the
/// state after the first `k` *gate* events applied ideally, which is
/// exactly the replay state right before any event position whose
/// clean prefix contains `k` gates. Error shots restore the snapshot
/// at their first error event instead of re-simulating the prefix —
/// bit-for-bit the state a from-zero replay would reach, since the
/// same gates are applied in the same order.
#[derive(Debug, Clone)]
pub(crate) struct PrefixSnapshots {
    /// `states[k]`: ideal state after the first `k` gate events.
    states: Vec<Statevector>,
    /// Per event position, the number of gate events strictly before
    /// it — the index into `states` of the state preceding that event.
    gates_before: Vec<u32>,
}

impl PrefixSnapshots {
    /// Amplitudes the snapshots of a `width`-qubit stream with `plan`'s
    /// gate events hold, or `None` when the count overflows.
    fn amps(width: usize, plan: &TrajectoryPlan) -> Option<usize> {
        let gate_events = plan
            .events
            .iter()
            .filter(|ev| matches!(ev, Event::Gate { .. }))
            .count();
        (gate_events + 1).checked_shl(width as u32)
    }

    /// Builds the snapshots, or `None` when the stream's snapshot
    /// storage would exceed `amp_limit` (replay then starts from
    /// `|0…0⟩` — a speed gate, never a behaviour gate).
    fn build(
        width: usize,
        gates: &[Gate],
        plan: &TrajectoryPlan,
        amp_limit: usize,
    ) -> Option<Self> {
        let amps = Self::amps(width, plan)?;
        if amps > amp_limit {
            return None;
        }
        let mut states = Vec::with_capacity(amps >> width);
        let mut gates_before = Vec::with_capacity(plan.events.len());
        let mut sv = Statevector::zero_state(width);
        states.push(sv.clone());
        let mut k = 0u32;
        for &ev in &plan.events {
            gates_before.push(k);
            if let Event::Gate { index, .. } = ev {
                let index = index as usize;
                apply_gate(&mut sv, &gates[index]);
                states.push(sv.clone());
                k += 1;
            }
        }
        Some(PrefixSnapshots {
            states,
            gates_before,
        })
    }
}

/// Everything a trajectory stream shares with every other stream of the
/// same run: views into the [`PreparedJob`] plus the run's config.
/// Plain shared references, read concurrently by every shard worker.
#[derive(Clone, Copy)]
struct TrajectoryJob<'a> {
    width: usize,
    gates: &'a [Gate],
    /// Readout flip probability per local qubit.
    readout_p: &'a [f64],
    plan: &'a TrajectoryPlan,
    ideal: &'a Statevector,
    /// O(1) clean-shot sampler (`None` under Replay).
    alias: Option<&'a AliasTable>,
    /// Prefix survival products over the event stream (`None` under
    /// Replay).
    survival: Option<&'a [f64]>,
    /// Ideal prefix states for first-error replay resumption (`None`
    /// under Replay or past the snapshot memory gate).
    snapshots: Option<&'a PrefixSnapshots>,
    /// Prefix survival products over the readout errors (length
    /// `width + 1`), `Some` only for the SurvivalSkip kernel with
    /// readout noise on.
    readout_survival: Option<&'a [f64]>,
    cfg: &'a ExecutionConfig,
}

impl TrajectoryJob<'_> {
    /// Runs one sequential stream of `shots` trajectories from `seed`.
    ///
    /// This is the hot loop. All per-shot scratch (the error-pattern
    /// buffers and the replay statevector) lives in a [`ShotScratch`]
    /// allocated once per stream and reused across shots, so steady
    /// state allocates nothing.
    fn run_stream(&self, shots: usize, seed: u64) -> Counts {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut counts = Counts::new(self.width);
        match self.cfg.kernel {
            TrajectoryKernel::Replay => {
                let mut scratch = ShotScratch::new(self.width);
                for _ in 0..shots {
                    counts.record(self.run_shot(&mut rng, &mut scratch));
                }
            }
            TrajectoryKernel::SurvivalSkip => {
                let mut scratch = ShotScratch::for_survival(self.width, self.plan);
                for _ in 0..shots {
                    counts.record(self.run_shot_survival(&mut rng, &mut scratch));
                }
            }
        }
        counts
    }

    /// One trajectory: pre-draw the error pattern, sample the cached
    /// ideal state when it is empty (the dominant fast path), otherwise
    /// replay the event stream on the scratch state, then flip readout
    /// bits.
    fn run_shot(&self, rng: &mut StdRng, scratch: &mut ShotScratch) -> usize {
        let TrajectoryPlan { events, .. } = self.plan;
        let cfg = self.cfg;
        scratch.gate_errors.clear();
        scratch.idle_errors.clear();
        for (pos, &ev) in events.iter().enumerate() {
            match ev {
                Event::Gate { error_p, .. } => {
                    if cfg.gate_noise && error_p > 0.0 && rng.gen_bool(error_p) {
                        scratch.gate_errors.push(pos);
                    }
                }
                Event::Idle {
                    relax_p, dephase_p, ..
                } => {
                    // Pauli-twirled thermal noise: X/Y each with
                    // p_relax/4, Z with p_dephase/2.
                    let px = relax_p / 4.0;
                    let py = relax_p / 4.0;
                    let pz = dephase_p / 2.0;
                    let u: f64 = rng.gen();
                    if u < px {
                        scratch.idle_errors.push((pos, Pauli::X));
                    } else if u < px + py {
                        scratch.idle_errors.push((pos, Pauli::Y));
                    } else if u < px + py + pz {
                        scratch.idle_errors.push((pos, Pauli::Z));
                    }
                }
            }
        }

        let outcome = if scratch.gate_errors.is_empty() && scratch.idle_errors.is_empty() {
            self.ideal.sample(rng)
        } else {
            self.replay_errors(rng, scratch)
        };
        self.apply_readout(outcome, rng)
    }

    /// One survival-skip trajectory: jump from error to error through
    /// the plan's prefix survival CDF (one uniform + binary search per
    /// error, one final uniform to certify the clean tail), drawing
    /// each error's Pauli type on the spot. Clean shots sample the
    /// per-job alias table in O(1); single-error shots sample a cached
    /// per-`(position, type)` outcome distribution in O(1); only
    /// multi-error shots replay the stream, and they resume from the
    /// prefix snapshot at their first error. Readout bits flip last.
    ///
    /// Same distribution as [`TrajectoryJob::run_shot`], different RNG
    /// stream: the per-event Bernoulli draws collapse into per-error
    /// draws, so the two kernels pin different (equally valid) counts.
    fn run_shot_survival(&self, rng: &mut StdRng, scratch: &mut ShotScratch) -> usize {
        let TrajectoryPlan { events, .. } = self.plan;
        let survival = self.survival.expect("SurvivalSkip runs with its tables");
        scratch.typed_errors.clear();
        let tail = *survival.last().expect("survival is never empty");
        let mut from = 0usize;
        while from < events.len() {
            let s_from = survival[from];
            if s_from <= f64::MIN_POSITIVE {
                // The prefix product underflowed: conditional jump
                // probabilities are no longer representable, so finish
                // the stream with per-event Bernoulli draws.
                self.sample_errors_linear(from, rng, scratch);
                break;
            }
            // target is uniform on (0, s_from]; the first error sits at
            // the event whose survival prefix first drops below it:
            // P(error at i) = (survival[i] − survival[i+1]) / s_from,
            // P(no further error) = tail / s_from — exactly the Replay
            // model's conditional distribution given a clean prefix.
            let u: f64 = rng.gen();
            let target = (1.0 - u) * s_from;
            if tail >= target {
                break;
            }
            let pos = from + survival[from + 1..].partition_point(|&s| s >= target);
            let code = match events[pos] {
                Event::Gate { index, .. } => self.draw_gate_error_code(index as usize, rng),
                Event::Idle {
                    relax_p, dephase_p, ..
                } => {
                    // Pauli type conditioned on the window erroring:
                    // X/Y each with p_relax/4, Z with p_dephase/2.
                    let px = relax_p / 4.0;
                    let py = relax_p / 4.0;
                    let pz = dephase_p / 2.0;
                    let v: f64 = rng.gen::<f64>() * (px + py + pz);
                    if v < px {
                        1
                    } else if v < px + py {
                        2
                    } else {
                        3
                    }
                }
            };
            scratch.typed_errors.push((pos, code));
            from = pos + 1;
        }

        let outcome = match scratch.typed_errors.len() {
            0 => match self.alias {
                Some(table) => table.sample_with(rng),
                None => self.ideal.sample(rng),
            },
            1 => {
                let (pos, code) = scratch.typed_errors[0];
                self.single_error_outcome(pos, code, rng, scratch)
            }
            _ => self.replay_typed(rng, scratch),
        };
        self.apply_readout_skip(outcome, rng)
    }

    /// Survival-skip readout: jump from flipped bit to flipped bit
    /// through the prefix survival products over the layout's readout
    /// errors — typically one uniform draw per shot instead of one
    /// Bernoulli per measured qubit. Falls back to the per-qubit walk
    /// when the products are unavailable or underflow.
    fn apply_readout_skip(&self, mut measured: usize, rng: &mut StdRng) -> usize {
        if !self.cfg.readout_noise {
            return measured;
        }
        let Some(surv) = self.readout_survival else {
            return self.apply_readout(measured, rng);
        };
        let width = self.width;
        let tail = surv[width];
        let mut from = 0usize;
        while from < width {
            let s_from = surv[from];
            if s_from <= f64::MIN_POSITIVE {
                for (q, &p) in self.readout_p.iter().enumerate().skip(from) {
                    if rng.gen_bool(p) {
                        measured ^= 1 << q;
                    }
                }
                break;
            }
            let u: f64 = rng.gen();
            let target = (1.0 - u) * s_from;
            if tail >= target {
                break;
            }
            let q = from + surv[from + 1..].partition_point(|&s| s >= target);
            measured ^= 1 << q;
            from = q + 1;
        }
        measured
    }

    /// Draws the Pauli code of a gate error at gate `index`: uniform
    /// over X/Y/Z for a one-qubit gate, uniform over the 15 non-identity
    /// two-qubit Paulis otherwise — the same conditional distribution
    /// [`apply_gate_error`] realizes, drawn up front so the error is
    /// fully typed before the outcome stage picks its path.
    fn draw_gate_error_code(&self, index: usize, rng: &mut StdRng) -> u8 {
        if self.gates[index].is_two_qubit() {
            rng.gen_range(1..16) as u8
        } else {
            pauli_code(random_pauli(rng))
        }
    }

    /// Per-event Bernoulli error sampling over `events[from..]`,
    /// appending typed draws to the scratch error pattern — the Replay
    /// model, used as the SurvivalSkip fallback once the survival
    /// prefix underflows (pathologically long / noisy streams only).
    fn sample_errors_linear(&self, from: usize, rng: &mut StdRng, scratch: &mut ShotScratch) {
        let TrajectoryPlan { events, .. } = self.plan;
        for (pos, &ev) in events.iter().enumerate().skip(from) {
            match ev {
                Event::Gate { index, error_p, .. } => {
                    if error_p > 0.0 && rng.gen_bool(error_p) {
                        let code = self.draw_gate_error_code(index as usize, rng);
                        scratch.typed_errors.push((pos, code));
                    }
                }
                Event::Idle {
                    relax_p, dephase_p, ..
                } => {
                    let px = relax_p / 4.0;
                    let py = relax_p / 4.0;
                    let pz = dephase_p / 2.0;
                    let u: f64 = rng.gen();
                    if u < px {
                        scratch.typed_errors.push((pos, 1));
                    } else if u < px + py {
                        scratch.typed_errors.push((pos, 2));
                    } else if u < px + py + pz {
                        scratch.typed_errors.push((pos, 3));
                    }
                }
            }
        }
    }

    /// The outcome of a shot whose only error is `code` at event
    /// `pos`, via the per-stream single-error cache: the output
    /// distribution of such a shot is a pure function of `(pos, code)`,
    /// so it is evolved once (deterministically, no RNG) into an alias
    /// table and every later hit samples it with one uniform — O(1),
    /// exactly the RNG advance a replay's final sample would cost.
    fn single_error_outcome(
        &self,
        pos: usize,
        code: u8,
        rng: &mut StdRng,
        scratch: &mut ShotScratch,
    ) -> usize {
        if scratch.single_error_tables.is_empty() {
            // Cache disabled by the memory gate: replay instead.
            return self.replay_typed(rng, scratch);
        }
        let slot = pos * 16 + code as usize;
        if scratch.single_error_tables[slot].is_none() {
            let sv = &mut scratch.state;
            let start = self.load_prefix(sv, pos);
            self.evolve_typed(sv, &[(pos, code)], start);
            scratch.single_error_tables[slot] =
                Some(AliasTable::from_probabilities(&sv.probabilities()));
        }
        scratch.single_error_tables[slot]
            .as_ref()
            .expect("just built")
            .sample_with(rng)
    }

    /// Replays the stream with the shot's pre-typed error pattern,
    /// resuming from the prefix snapshot at the first error, and
    /// samples the resulting state (the one RNG draw of this path).
    fn replay_typed(&self, rng: &mut StdRng, scratch: &mut ShotScratch) -> usize {
        let ShotScratch {
            state,
            typed_errors,
            ..
        } = scratch;
        let first = typed_errors.first().map_or(0, |&(pos, _)| pos);
        let start = self.load_prefix(state, first);
        self.evolve_typed(state, typed_errors, start);
        state.sample(rng)
    }

    /// Loads the replay state preceding event `pos` into `sv` and
    /// returns the event position to resume from: the prefix snapshot
    /// (resume at `pos`) when snapshots exist, `|0…0⟩` (resume at 0)
    /// otherwise.
    fn load_prefix(&self, sv: &mut Statevector, pos: usize) -> usize {
        match self.snapshots {
            Some(snap) => {
                sv.clone_from(&snap.states[snap.gates_before[pos] as usize]);
                pos
            }
            None => {
                sv.reset_zero();
                0
            }
        }
    }

    /// Walks `events[start..]` on `sv`, applying every gate and the
    /// pre-typed errors of `errors` (ascending event positions) at
    /// their events. Consumes no RNG — shared by the multi-error
    /// replay and the deterministic single-error cache build.
    fn evolve_typed(&self, sv: &mut Statevector, errors: &[(usize, u8)], start: usize) {
        let mut pending = errors.iter().peekable();
        for (pos, &ev) in self.plan.events.iter().enumerate().skip(start) {
            match ev {
                Event::Gate { index, .. } => {
                    let index = index as usize;
                    apply_gate(sv, &self.gates[index]);
                    if let Some(&&(epos, code)) = pending.peek() {
                        if epos == pos {
                            pending.next();
                            apply_typed_gate_error(sv, &self.gates[index], code);
                        }
                    }
                }
                Event::Idle { q, .. } => {
                    if let Some(&&(epos, code)) = pending.peek() {
                        if epos == pos {
                            pending.next();
                            apply_pauli(sv, q as usize, int_pauli(code as usize));
                        }
                    }
                }
            }
        }
    }

    /// Replays the event stream on the scratch state, injecting the
    /// shot's pre-drawn error pattern, and samples the resulting state.
    /// Shared by both kernels (gate-error Pauli types are drawn here,
    /// in stream order, under both).
    fn replay_errors(&self, rng: &mut StdRng, scratch: &mut ShotScratch) -> usize {
        let TrajectoryPlan { events, .. } = self.plan;
        let sv = &mut scratch.state;
        sv.reset_zero();
        let mut gate_err = scratch.gate_errors.iter().peekable();
        let mut idle_err = scratch.idle_errors.iter().peekable();
        for (pos, &ev) in events.iter().enumerate() {
            match ev {
                Event::Gate { index, .. } => {
                    let index = index as usize;
                    apply_gate(sv, &self.gates[index]);
                    if gate_err.peek() == Some(&&pos) {
                        gate_err.next();
                        apply_gate_error(sv, &self.gates[index], rng);
                    }
                }
                Event::Idle { q, .. } => {
                    if let Some(&&(epos, pauli)) = idle_err.peek() {
                        if epos == pos {
                            idle_err.next();
                            apply_pauli(sv, q as usize, pauli);
                        }
                    }
                }
            }
        }
        sv.sample(rng)
    }

    /// Flips each measured bit with its qubit's readout error.
    fn apply_readout(&self, mut measured: usize, rng: &mut StdRng) -> usize {
        if self.cfg.readout_noise {
            for (q, &p) in self.readout_p.iter().enumerate() {
                if rng.gen_bool(p) {
                    measured ^= 1 << q;
                }
            }
        }
        measured
    }

    /// The parent's shard split and shard-order merge, run inline.
    fn run_sharded(&self, shards: usize) -> Counts {
        let shards = shards.max(1);
        let shots = self.cfg.shots;
        let (base, rem) = (shots / shards, shots % shards);
        // Every shard past `active` is empty (base == 0 means only the
        // first `rem` shards got the remainder shot).
        let active = if base == 0 { rem } else { shards };
        let mut counts = Counts::new(self.width);
        for s in 0..active {
            counts.merge(&self.run_stream(
                base + usize::from(s < rem),
                derive_shard_seed(self.cfg.seed, s),
            ));
        }
        counts
    }
}

/// Reusable per-stream scratch of the trajectory hot loop.
struct ShotScratch {
    /// Event positions whose gate draws an error this shot (Replay).
    gate_errors: Vec<usize>,
    /// Event positions whose idle window draws a Pauli this shot
    /// (Replay).
    idle_errors: Vec<(usize, Pauli)>,
    /// `(event position, Pauli code)` error pattern of the shot, in
    /// ascending position order (SurvivalSkip; codes are 1–15
    /// two-qubit indices for two-qubit gates, 1–3 X/Y/Z otherwise).
    typed_errors: Vec<(usize, u8)>,
    /// Replay statevector for shots that drew at least one error.
    state: Statevector,
    /// Lazily built single-error outcome distributions, indexed by
    /// `position · 16 + code` (SurvivalSkip; empty when the memory
    /// gate disabled the cache). Each table is a pure function of the
    /// job, so per-stream rebuilding can never change a count.
    single_error_tables: Vec<Option<AliasTable>>,
}

impl ShotScratch {
    fn new(width: usize) -> Self {
        ShotScratch {
            gate_errors: Vec::new(),
            idle_errors: Vec::new(),
            typed_errors: Vec::new(),
            state: Statevector::zero_state(width),
            single_error_tables: Vec::new(),
        }
    }

    /// Scratch for a SurvivalSkip stream: same buffers plus the
    /// single-error cache, sized `events · 16` slots unless the
    /// worst-case table storage would exceed
    /// [`SINGLE_ERROR_CACHE_LIMIT`] entries (then disabled).
    fn for_survival(width: usize, plan: &TrajectoryPlan) -> Self {
        let mut scratch = ShotScratch::new(width);
        let slots = plan.events.len() * 16;
        if slots
            .checked_shl(width as u32)
            .is_some_and(|n| n <= SINGLE_ERROR_CACHE_LIMIT)
        {
            scratch.single_error_tables = vec![None; slots];
        }
        scratch
    }
}

/// A single-qubit Pauli error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pauli {
    X,
    Y,
    Z,
}

fn random_pauli(rng: &mut impl Rng) -> Pauli {
    match rng.gen_range(0..3) {
        0 => Pauli::X,
        1 => Pauli::Y,
        _ => Pauli::Z,
    }
}

fn int_pauli(i: usize) -> Pauli {
    match i {
        1 => Pauli::X,
        2 => Pauli::Y,
        _ => Pauli::Z,
    }
}

/// The 1–3 code of a single-qubit Pauli (inverse of [`int_pauli`]).
fn pauli_code(p: Pauli) -> u8 {
    match p {
        Pauli::X => 1,
        Pauli::Y => 2,
        Pauli::Z => 3,
    }
}

fn apply_pauli(sv: &mut Statevector, q: usize, pauli: Pauli) {
    let gate = match pauli {
        Pauli::X => Gate::X(q),
        Pauli::Y => Gate::Y(q),
        Pauli::Z => Gate::Z(q),
    };
    apply_gate(sv, &gate);
}

/// Applies a depolarizing-style error after `gate`: a uniformly random
/// non-identity Pauli on a one-qubit gate's operand, or a uniformly
/// random non-identity two-qubit Pauli on both operands.
fn apply_gate_error(sv: &mut Statevector, gate: &Gate, rng: &mut impl Rng) {
    let qs = gate.qubits();
    let qs = qs.as_slice();
    if qs.len() == 1 {
        apply_pauli(sv, qs[0], random_pauli(rng));
    } else {
        // Uniform over the 15 non-identity two-qubit Paulis.
        let k = rng.gen_range(1..16);
        let (a, b) = (k / 4, k % 4);
        if a > 0 {
            apply_pauli(sv, qs[0], int_pauli(a));
        }
        if b > 0 {
            apply_pauli(sv, qs[1], int_pauli(b));
        }
    }
}

/// Applies a pre-typed gate error: `code` is a 1–3 X/Y/Z index for a
/// one-qubit gate, or a 1–15 two-qubit Pauli index (base-4 digit pair,
/// identity-identity excluded) for a two-qubit gate — the same error
/// algebra as [`apply_gate_error`], with the type drawn by the caller.
fn apply_typed_gate_error(sv: &mut Statevector, gate: &Gate, code: u8) {
    let qs = gate.qubits();
    let qs = qs.as_slice();
    if qs.len() == 1 {
        apply_pauli(sv, qs[0], int_pauli(code as usize));
    } else {
        let (a, b) = ((code / 4) as usize, (code % 4) as usize);
        if a > 0 {
            apply_pauli(sv, qs[0], int_pauli(a));
        }
        if b > 0 {
            apply_pauli(sv, qs[1], int_pauli(b));
        }
    }
}

/// The event builder the one-pass [`super::build_plan`] replaced:
/// per-qubit window lists from `Schedule::idle_windows`, and a stable
/// sort of the slots by `(time, kind)` — the parent's body, its
/// schedule taken from the same [`alap_timing`].
pub(super) fn build_plan(
    circuit: &Circuit,
    layout: &[usize],
    device: &Device,
    scaling: &NoiseScaling,
    tail_idle: &[f64],
    cfg: &ExecutionConfig,
) -> Result<TrajectoryPlan, SimError> {
    validate_layout(circuit, layout, device)?;
    let cal = device.calibration();

    // Only the error probabilities are computed here: the calibrated
    // base error with crosstalk scaling, capped.
    let gate_error_p = |i: usize| {
        if !cfg.gate_noise {
            return 0.0;
        }
        let g = &circuit.gates()[i];
        let qs = g.qubits();
        let qs = qs.as_slice();
        let base = match g {
            Gate::Swap(..) => {
                let e = cal.cx_error(Link::new(layout[qs[0]], layout[qs[1]]));
                1.0 - (1.0 - e).powi(3)
            }
            g if g.is_two_qubit() => cal.cx_error(Link::new(layout[qs[0]], layout[qs[1]])),
            _ => cal.sq_error(layout[qs[0]]),
        };
        (base * scaling.factor(i)).min(0.75)
    };

    // ALAP schedule (the paper's policy) and its idle windows.
    let sched = alap_timing(circuit, layout, device);
    let windows = if cfg.idle_noise {
        sched.idle_windows(circuit)
    } else {
        Vec::new()
    };
    let tails = || {
        let tails = tail_idle.iter().take(circuit.width()).enumerate();
        tails.filter(|&(_, &tau)| cfg.idle_noise && tau > 0.0)
    };

    // The stream is sorted as 24-byte slots — `(time, kind)` and what
    // the event is built from — and the events, draw thresholds
    // included, are built once, in stream order.
    #[derive(Clone, Copy)]
    struct Slot {
        time: f64,
        /// Length of an idle window (kind 0, sorts before a gate).
        tau: f64,
        /// The local qubit of a window, the index of a gate (kind 1).
        which: u32,
        kind: u8,
    }
    let count =
        sched.entries().len() + windows.iter().map(Vec::len).sum::<usize>() + tails().count();
    let mut slots: Vec<Slot> = Vec::with_capacity(count);
    slots.extend(sched.entries().iter().map(|e| Slot {
        time: e.start,
        tau: 0.0,
        which: narrow(e.gate_index),
        kind: 1,
    }));
    let window = |q: usize, time: f64, tau: f64| Slot {
        time,
        tau,
        which: narrow(q),
        kind: 0,
    };
    for (q, windows) in windows.iter().enumerate() {
        slots.extend(windows.iter().map(|&(a, b)| window(q, b, b - a)));
    }
    slots.extend(tails().map(|(q, &tau)| window(q, sched.makespan() + tau, tau)));
    slots.sort_by(|x, y| x.time.total_cmp(&y.time).then(x.kind.cmp(&y.kind)));

    let events = slots.iter().map(|slot| match slot.kind {
        1 => {
            let error_p = gate_error_p(slot.which as usize);
            Event::Gate {
                index: slot.which,
                error_p,
                threshold: gate_threshold(error_p),
            }
        }
        _ => {
            let phys = layout[slot.which as usize];
            let relax_p = 1.0 - (-slot.tau / cal.t1(phys)).exp();
            let dephase_p = 1.0 - (-slot.tau / cal.t2(phys)).exp();
            Event::Idle {
                q: slot.which,
                relax_p,
                dephase_p,
                thresholds: idle_thresholds(relax_p, dephase_p),
            }
        }
    });
    let events: Vec<Event> = events.collect();

    // The products `prefix_survival` takes, in its order.
    let clean = events
        .iter()
        .fold(1.0, |s, &ev| s * (1.0 - event_error_p(ev)));
    Ok(TrajectoryPlan { events, clean })
}
