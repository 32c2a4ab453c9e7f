//! Noisy Monte-Carlo trajectory execution of mapped circuits.
//!
//! A *job* is a circuit whose qubits are laid out on physical qubits of a
//! device. Each shot walks the ALAP-scheduled event stream: every gate is
//! applied ideally and followed, with the calibrated probability, by a
//! random Pauli error on its operands (stochastic Pauli-twirled
//! depolarizing noise); idle gaps in the schedule inject thermal
//! relaxation/dephasing errors derived from T1/T2; readout flips each
//! measured bit with the qubit's readout error.
//!
//! No draw of that model depends on the quantum state, so a run has two
//! passes: [`draw`] walks each RNG stream once and fixes every shot's
//! typed error pattern, outcome uniform and readout flips, answering
//! clean shots on the spot; [`evaluate`] sorts the error shots by
//! pattern and walks them as a prefix tree, evolving each distinct error
//! prefix once instead of once per shot — the same operations in the
//! same order as a per-shot replay, so the same counts bit for bit.
//!
//! A [`TrajectoryKernel`] is how the pattern is drawn plus how a uniform
//! maps to an outcome: [`Replay`](TrajectoryKernel::Replay) draws one
//! Bernoulli per event and walks CDFs,
//! [`SurvivalSkip`](TrajectoryKernel::SurvivalSkip) jumps to the next
//! error through the event stream's prefix survival products and answers clean
//! and single-error shots from [`AliasTable`]s. Same distribution,
//! different RNG stream; evaluation is shared.
//!
//! ## Where a run's memory lives
//!
//! A run on one worker asks the heap for the histogram it returns —
//! its block, and the shrink of a tally that keeps less than half of
//! it — and, on a thread that has not run this job before, for room in
//! its working buffers. Those buffers — the error shots and their
//! pattern arena of the stream every shard joins, and a walking
//! worker's level pool, CDF and alias table — are taken from the
//! running thread's scratch and given back to it
//! (`executor/scratch.rs`), each in one short borrow, so they outlive
//! the run on that thread; nothing is borrowed across a draw or a walk,
//! and a taken buffer is emptied first. On one worker a sharded run
//! draws every shard on behind the one before it, into the join stream
//! itself. A run that fans out to helpers gives the shards after the
//! first, and the evaluation's partial tallies, fresh buffers; helpers
//! start with an empty scratch and drop theirs when they end. When a
//! run ends, its thread keeps at most
//! `SCRATCH_RETAIN_BYTES` (1 MiB) and frees the rest, so a long-lived
//! thread — a daemon connection's — holds no more than that for as long
//! as it lives. Only capacity moves: every random word, float, outcome
//! and count is the one a run into fresh buffers gives.
//!
//! Crosstalk enters through a per-gate [`NoiseScaling`]: the parallel
//! executor in `qucp-core` inspects the *merged* schedule of all
//! simultaneous programs and scales a CNOT's error probability by the
//! device's γ factor whenever a one-hop neighbour CNOT from another
//! program overlaps it in time. This is exactly the error structure the
//! paper's QuCP/QuMC/CNA policies are designed to avoid.

use std::error::Error;
use std::fmt;
use std::sync::OnceLock;

use qucp_circuit::schedule::{self, Schedule};
use qucp_circuit::{Circuit, Gate};
use qucp_device::{Device, Link};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::alias::AliasTable;
use crate::counts::{Counts, Tally};
use crate::fanout::{core_budget, run_indexed_within, workers_for};
use crate::math::{Complex, Mat2};
use crate::state::kernel::{self, narrow, Op};
use crate::state::Statevector;
use draw::{Drawn, Errors};

#[cfg(test)]
mod differential;
mod draw;
mod evaluate;
#[cfg(test)]
mod oracle;
mod scratch;

/// How a job's shots are cut into RNG streams and spread over worker
/// threads.
///
/// ## Determinism contract
///
/// Shards fix the *draw streams*: shard `s` draws every shot's error
/// pattern, outcome uniform and readout flips from its own `StdRng`
/// seeded with [`derive_shard_seed`]`(seed, s)`. The shards' error
/// shots are joined in shard order and evaluated together, once; a
/// shot's outcome is a function of what its stream drew and of the job,
/// so sharded counts depend only on `(seed, shards)` and the job —
/// **never** on `threads`, which draw and evaluation fan out over: 1, 2
/// or 8 workers are bit-for-bit identical, only wall-clock time changes.
///
/// [`ShotParallelism::Serial`] (the default) is the historical
/// single-stream path and stays bit-for-bit identical to every release
/// before sharding existed. A sharded run — even with one shard — uses
/// the derived shard seeds and therefore samples a *different* (equally
/// valid) set of trajectories than the serial path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShotParallelism {
    /// One sequential RNG stream on the calling thread (the default,
    /// bit-for-bit the pre-sharding behaviour).
    #[default]
    Serial,
    /// Split the shot budget into `shards` deterministic RNG streams
    /// executed by up to `threads` workers (the caller among them;
    /// helpers join only when the run's work pays for them).
    Sharded {
        /// Number of independent shard streams (0 is treated as 1).
        /// Fixing `shards` fixes the counts; choose it once per
        /// workload, not per machine.
        shards: usize,
        /// Worker cap (0 = the process's core budget). Affects only
        /// wall-clock time, never the counts.
        threads: usize,
    },
    /// Adaptive sharding: pick the shard count from the job's shot
    /// budget via [`auto_shard_count`] (one shard per
    /// [`AUTO_SHOTS_PER_SHARD`] shots, at least 1, at most
    /// [`AUTO_MAX_SHARDS`]) and run on all available cores. The counts
    /// stay a pure function of `(seed, shots)` — the shot budget
    /// *determines* the shard split, so two runs of the same job agree
    /// bit-for-bit on any machine, and `Auto` on an `n`-shot job equals
    /// `Sharded { shards: auto_shard_count(n), threads: 0 }` exactly.
    Auto,
}

impl ShotParallelism {
    /// Sharded execution over `shards` streams on all available cores.
    pub fn sharded(shards: usize) -> Self {
        ShotParallelism::Sharded { shards, threads: 0 }
    }

    /// The same shard split with an explicit worker cap. `Serial` and
    /// `Auto` are unaffected: the former has no workers, the latter
    /// always uses all available cores (cap the workers by resolving
    /// the split yourself with [`auto_shard_count`] and `Sharded`).
    #[must_use]
    pub fn with_threads(self, threads: usize) -> Self {
        match self {
            ShotParallelism::Serial => ShotParallelism::Serial,
            ShotParallelism::Sharded { shards, .. } => ShotParallelism::Sharded { shards, threads },
            ShotParallelism::Auto => ShotParallelism::Auto,
        }
    }

    /// The concrete mode a job of `shots` runs under: `Auto` resolves
    /// to its budget-derived shard split, everything else is returned
    /// unchanged.
    #[must_use]
    pub fn resolve(self, shots: usize) -> Self {
        match self {
            ShotParallelism::Auto => ShotParallelism::Sharded {
                shards: auto_shard_count(shots),
                threads: 0,
            },
            other => other,
        }
    }
}

/// Shot budget one auto-picked shard covers (see [`auto_shard_count`]).
pub const AUTO_SHOTS_PER_SHARD: usize = 512;

/// Upper bound on auto-picked shard counts (see [`auto_shard_count`]).
pub const AUTO_MAX_SHARDS: usize = 32;

/// The shard count [`ShotParallelism::Auto`] picks for a job of
/// `shots`: `clamp(shots / AUTO_SHOTS_PER_SHARD, 1, AUTO_MAX_SHARDS)`.
///
/// The heuristic keeps every shard busy enough to amortize its stream
/// setup (at least [`AUTO_SHOTS_PER_SHARD`] = 512 shots per shard, so
/// small jobs run 1 shard ≈ serially) while bounding the split (at most
/// [`AUTO_MAX_SHARDS`] = 32 shards, past which join overhead and
/// diminishing stream lengths dominate). It deliberately ignores the
/// machine's core count: shards determine the counts, so they must be
/// a pure function of the job, never of the host.
pub fn auto_shard_count(shots: usize) -> usize {
    (shots / AUTO_SHOTS_PER_SHARD).clamp(1, AUTO_MAX_SHARDS)
}

// The workspace's canonical SplitMix64 mixer lives in `qucp-device`
// (`qucp_device::splitmix64`, shared with the drift models' step
// seeds); the shard-seed derivation below builds on it.
use qucp_device::splitmix64;

/// The seed of shard `shard` for a job seeded with `seed`: the
/// `shard + 1`-th output of a SplitMix64 generator whose state starts
/// at `splitmix64(seed)`. Each shard feeds it to
/// `StdRng::seed_from_u64`, giving every shard a statistically
/// independent trajectory stream while keeping the whole job a pure
/// function of `(seed, shards)`.
///
/// The base seed passes through the mix *before* the shard stride is
/// added: callers hand this function seeds that are themselves
/// golden-ratio strides of a common base (the per-program seeds
/// `qucp_core::PlannedWorkload::run_program` derives for a batch with
/// `qucp_core::pipeline::derive_program_seed`), and a linear
/// stride over the raw seed would make program `i`'s shard `s` collide
/// with program `i + 1`'s shard `s - 1`. The extra mix breaks that
/// linearity, so co-scheduled sharded programs never share a stream.
pub fn derive_shard_seed(seed: u64, shard: usize) -> u64 {
    splitmix64(splitmix64(seed).wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(shard as u64)))
}

/// How a shot's randomness is drawn and mapped to an outcome: a kernel
/// is a *pattern sampler* (which RNG draws decide where a shot's errors
/// fall and what Paulis they are) plus an *outcome sampler* (how the
/// shot's one outcome uniform selects a basis state of its final
/// distribution, and how its readout flips are drawn). Evolving states
/// is not part of a kernel: both share one prefix-tree evaluator, and
/// both sample the *same* noise model — each realizes its own (equally
/// valid) trajectory stream.
///
/// ## Determinism contract
///
/// Each kernel's counts are a pure function of `(seed, shards)` under
/// the [`ShotParallelism`] contract: thread counts never change the
/// result, and a kernel's serial stream is pinned bit-for-bit across
/// releases. Switching kernels — like switching shard counts — selects
/// a different sample of the same distribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TrajectoryKernel {
    /// The historical stream (the default): one Bernoulli draw per
    /// scheduled event decides whether that event errors, then one type
    /// draw per gate error; every outcome is picked by the linear CDF
    /// walk, readout draws one Bernoulli per measured qubit. Bit-for-bit
    /// identical to every release before kernels existed.
    #[default]
    Replay,
    /// Survival-skip sampling: one uniform draw plus a binary search
    /// over the plan's prefix survival products jumps directly to the
    /// next error event — O(#errors · log E) RNG work per shot instead
    /// of O(E) — and a shot whose first draw lands past the last event
    /// is clean without touching the stream. Clean shots sample the
    /// per-job alias table in O(1), single-error shots the alias
    /// table of their pattern's distribution, shots with more errors
    /// walk the CDF; readout jumps from flipped bit to flipped bit.
    SurvivalSkip,
}

/// Execution parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecutionConfig {
    /// Number of measurement shots.
    pub shots: usize,
    /// RNG seed (trajectories are reproducible given the seed).
    pub seed: u64,
    /// Enable stochastic Pauli noise after gates.
    pub gate_noise: bool,
    /// Enable readout bit flips.
    pub readout_noise: bool,
    /// Enable idle decoherence from schedule gaps.
    pub idle_noise: bool,
    /// Shot-level parallelism (see [`ShotParallelism`] for the
    /// determinism contract). Defaults to the serial path.
    pub parallelism: ShotParallelism,
    /// Per-shot trajectory algorithm (see [`TrajectoryKernel`]).
    /// Defaults to the bit-for-bit historical [`Replay`] stream.
    ///
    /// [`Replay`]: TrajectoryKernel::Replay
    pub kernel: TrajectoryKernel,
}

impl Default for ExecutionConfig {
    /// 8192 shots (the paper's job size), all noise channels enabled,
    /// serial trajectory execution on the [`Replay`] kernel.
    ///
    /// [`Replay`]: TrajectoryKernel::Replay
    fn default() -> Self {
        ExecutionConfig {
            shots: 8192,
            seed: 0x5EED,
            gate_noise: true,
            readout_noise: true,
            idle_noise: true,
            parallelism: ShotParallelism::Serial,
            kernel: TrajectoryKernel::Replay,
        }
    }
}

impl ExecutionConfig {
    /// A config with a different seed (convenience for sweeps).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// A config with a different shot count.
    pub fn with_shots(mut self, shots: usize) -> Self {
        self.shots = shots;
        self
    }

    /// A config with a different shot-parallelism mode.
    pub fn with_parallelism(mut self, parallelism: ShotParallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// A config with a different trajectory kernel.
    pub fn with_kernel(mut self, kernel: TrajectoryKernel) -> Self {
        self.kernel = kernel;
        self
    }
}

/// Per-gate multiplicative scaling of error probabilities.
///
/// Index `i` scales the error probability of gate `i` of the circuit.
/// Factors default to 1 beyond the stored length.
#[derive(Debug, Clone, PartialEq)]
pub struct NoiseScaling {
    factors: Vec<f64>,
}

impl NoiseScaling {
    /// Unit scaling for a circuit of `len` gates.
    pub fn uniform(len: usize) -> Self {
        NoiseScaling {
            factors: vec![1.0; len],
        }
    }

    /// The factor for gate `i` (1.0 when out of range).
    pub fn factor(&self, i: usize) -> f64 {
        self.factors.get(i).copied().unwrap_or(1.0)
    }

    /// Sets the factor for gate `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn set(&mut self, i: usize, factor: f64) {
        self.factors[i] = factor;
    }

    /// Multiplies the factor for gate `i` in place.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn amplify(&mut self, i: usize, factor: f64) {
        self.factors[i] *= factor;
    }

    /// The largest factor present (1.0 for empty scalings).
    pub fn max_factor(&self) -> f64 {
        self.factors.iter().copied().fold(1.0, f64::max)
    }
}

/// Errors produced when a job is inconsistent with the device.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// Layout length does not match the circuit width.
    LayoutMismatch {
        /// Circuit width.
        circuit: usize,
        /// Layout length.
        layout: usize,
    },
    /// The layout maps two qubits to the same physical qubit.
    LayoutNotInjective {
        /// The physical qubit claimed twice.
        physical: usize,
    },
    /// A layout entry exceeds the device size.
    PhysicalOutOfRange {
        /// The offending physical index.
        physical: usize,
        /// Device size.
        device: usize,
    },
    /// A two-qubit gate acts on physical qubits that are not coupled.
    NotCoupled {
        /// Index of the offending gate.
        gate_index: usize,
        /// First physical operand.
        a: usize,
        /// Second physical operand.
        b: usize,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::LayoutMismatch { circuit, layout } => write!(
                f,
                "layout length {layout} does not match circuit width {circuit}"
            ),
            SimError::LayoutNotInjective { physical } => {
                write!(f, "layout maps two qubits onto physical qubit {physical}")
            }
            SimError::PhysicalOutOfRange { physical, device } => {
                write!(
                    f,
                    "physical qubit {physical} out of range for device of {device}"
                )
            }
            SimError::NotCoupled { gate_index, a, b } => write!(
                f,
                "gate {gate_index} acts on uncoupled physical qubits {a} and {b}"
            ),
        }
    }
}

impl Error for SimError {}

/// The identity layout `[0, 1, …, width-1]`.
#[cfg(test)]
fn trivial_layout(width: usize) -> Vec<usize> {
    (0..width).collect()
}

/// Per-gate durations (ns) of a mapped circuit under the device
/// calibration: one-qubit gates take the calibrated single-qubit time,
/// CNOT/CZ/CP the link's CNOT time, SWAP three CNOTs.
///
/// This is the same duration model [`run_noisy`] uses internally, exposed
/// so that the parallel scheduler in `qucp-core` computes time overlaps
/// consistent with the simulator's ALAP timing.
///
/// # Panics
///
/// Panics if a two-qubit gate does not land on a coupling link.
pub fn gate_durations(circuit: &Circuit, layout: &[usize], device: &Device) -> Vec<f64> {
    let cal = device.calibration();
    circuit
        .gates()
        .iter()
        .map(|g| {
            let qs = g.qubits();
            let qs = qs.as_slice();
            match g {
                Gate::Swap(..) => 3.0 * cal.cx_duration(Link::new(layout[qs[0]], layout[qs[1]])),
                g if g.is_two_qubit() => cal.cx_duration(Link::new(layout[qs[0]], layout[qs[1]])),
                _ => cal.sq_duration(),
            }
        })
        .collect()
}

/// Noiseless output probabilities of a circuit (dense, little-endian).
pub fn noiseless_probabilities(circuit: &Circuit) -> Vec<f64> {
    Statevector::from_circuit(circuit).probabilities()
}

/// The deterministic noiseless outcome of a circuit, if it has one
/// (probability above 0.999).
pub fn ideal_outcome(circuit: &Circuit) -> Option<usize> {
    Statevector::from_circuit(circuit).deterministic_outcome()
}

/// Samples `shots` outcomes from the noiseless circuit.
///
/// Sampling goes through a Walker/Vose alias table built once from
/// the final state — O(1) per shot instead of the O(2^n) linear CDF
/// walk — and advances the RNG by exactly one `f64` draw per shot.
pub fn run_ideal(circuit: &Circuit, shots: usize, seed: u64) -> Counts {
    let table = AliasTable::from_statevector(&Statevector::from_circuit(circuit));
    let mut rng = StdRng::seed_from_u64(seed);
    let mut counts = Tally::new(circuit.width(), shots);
    for _ in 0..shots {
        counts.record(table.sample_with(&mut rng));
    }
    counts.into_counts()
}

/// One scheduled noise opportunity in the trajectory event stream.
///
/// Shared (crate-internal) with the exact density-matrix evaluator in
/// [`crate::density`], which walks the identical stream so that the two
/// simulation paths implement the *same* noise model.
///
/// An event carries its error probabilities and what the draw pass
/// compares its random word with, fixed once by [`build_plan`] (see
/// [`gate_threshold`] and [`idle_thresholds`]). It is the 48 bytes it
/// was when it carried its sort keys `(time, kind)` instead, which
/// nothing read after the sort.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Event {
    /// Apply gate `index`, then (maybe) its error.
    Gate {
        /// Gate position in the circuit.
        index: u32,
        /// The gate's error probability after crosstalk scaling,
        /// capped at 0.75.
        error_p: f64,
        /// The gate errs iff the shot's next `u64` is below this;
        /// `None` for an error probability of zero, which draws nothing.
        threshold: Option<u64>,
    },
    /// Idle decoherence window on local qubit `q`.
    Idle {
        /// Local qubit that idles.
        q: u32,
        /// Pauli-twirled relaxation probability of the window.
        relax_p: f64,
        /// Pauli-twirled dephasing probability of the window.
        dephase_p: f64,
        /// The window suffers X, Y or Z iff the top 53 bits of the
        /// shot's next `u64` are below the first, second or third of
        /// these (the first that holds).
        thresholds: [u64; 3],
    },
}

/// 2^64, the scale of `rand`'s fixed-point Bernoulli.
const BERNOULLI_SCALE: f64 = 2.0 * (1u64 << 63) as f64;

/// What `Rng::gen_bool(p)` compares its `u64` with, for `p` in
/// `[0, 1)`: a Bernoulli draw is `next_u64() < bernoulli_threshold(p)`.
fn bernoulli_threshold(p: f64) -> u64 {
    (p * BERNOULLI_SCALE) as u64
}

/// The draw of a gate whose capped error probability is `p` (at most
/// 0.75): a gate that cannot err consumes no random word — the rule of
/// every pinned stream — and any other compares one with `gen_bool`'s
/// threshold, which may be 0 for a tiny `p` (a word consumed, no error).
pub(crate) fn gate_threshold(p: f64) -> Option<u64> {
    (p > 0.0).then(|| bernoulli_threshold(p))
}

/// The cumulative X, X + Y, X + Y + Z probabilities of an idle window
/// (X and Y each `relax_p / 4`, Z `dephase_p / 2`: Pauli-twirled
/// thermal noise), the sums taken in this order in `f64`.
pub(crate) fn idle_cumulative(relax_p: f64, dephase_p: f64) -> [f64; 3] {
    let px = relax_p / 4.0;
    let py = relax_p / 4.0;
    let pz = dephase_p / 2.0;
    [px, px + py, px + py + pz]
}

/// [`idle_cumulative`] in the integer domain of `Rng::gen::<f64>()`,
/// which returns `k · 2^-53` for the top 53 bits `k` of a `u64`:
/// `k · 2^-53 < x ⇔ k < x · 2^53 ⇔ k < ⌈x · 2^53⌉`, exactly — scaling
/// by a power of two does not round, and `k` is an integer. (A NaN or
/// negative `x` becomes 0, below which no `k` lies, as no uniform lies
/// below `x`.)
pub(crate) fn idle_thresholds(relax_p: f64, dephase_p: f64) -> [u64; 3] {
    idle_cumulative(relax_p, dephase_p).map(|x| (x * (1u64 << 53) as f64).ceil() as u64)
}

/// The draw of a readout flip of probability `p`, by `gen_bool`'s
/// rules: `p == 1` flips without consuming a word (`None`); any other
/// `p`, zero included, consumes one and compares it.
///
/// # Panics
///
/// Panics, as `gen_bool` does, if `p` is outside `[0, 1]`.
pub(crate) fn readout_threshold(p: f64) -> Option<u64> {
    if (0.0..1.0).contains(&p) {
        return Some(bernoulli_threshold(p));
    }
    assert!(p == 1.0, "p={p} is outside range [0.0, 1.0]");
    None
}

/// The largest word with which `ev` may err, for an event that draws
/// one: a gate errs iff its word is below its threshold `t`, so on
/// words up to `t − 1`; an idle window iff the top 53 bits of its word
/// are below one of its thresholds — below the largest `T`, so on words
/// up to `T · 2^11 − 1`, or on every word once `T ≥ 2^53`. A threshold
/// of 0 gives the bound 0, on which nothing errs: a word above its
/// bound cannot make the event err, a word at or below it may.
fn strip_bound(ev: &Event) -> Option<u64> {
    match *ev {
        Event::Gate { threshold, .. } => threshold.map(|t| t.saturating_sub(1)),
        Event::Idle { thresholds, .. } => {
            let top = thresholds.into_iter().max().unwrap_or(0);
            Some(
                top.checked_mul(1 << 11)
                    .map_or(u64::MAX, |t| t.saturating_sub(1)),
            )
        }
    }
}

/// The readout threshold of a flip that draws no word: above every
/// [`readout_threshold`], which is at most `2^64 − 2^11`.
const CERTAIN_FLIP: u64 = u64::MAX;

/// What the draw pass compares a shot's words with, compiled once into
/// one allocation, in stream order.
///
/// The head holds one [`strip_bound`] per event that draws a word (a
/// noise-free gate draws none): words that all exceed their bounds draw
/// no error, and only words with one at or below its bound are walked
/// through the exact per-event test (`draw::screen_events`). The tail
/// holds each measured qubit's [`readout_threshold`], [`CERTAIN_FLIP`]
/// for `None`; it is empty with readout noise off.
#[derive(Debug)]
struct Strip {
    words: Vec<u64>,
    /// How many of `words` are event bounds.
    events: usize,
}

impl Strip {
    /// The strip of `events`, then of the readout errors `readout_p`
    /// (none with readout noise off).
    ///
    /// # Panics
    ///
    /// Panics, as [`readout_threshold`] does, if a readout error is
    /// outside `[0, 1]`.
    fn compile(events: &[Event], readout_p: &[f64], readout_noise: bool) -> Self {
        let readout_p = if readout_noise { readout_p } else { &[] };
        let mut words = Vec::with_capacity(events.len() + readout_p.len());
        words.extend(events.iter().filter_map(strip_bound));
        let events = words.len();
        let readout = readout_p.iter().map(|&p| readout_threshold(p));
        words.extend(readout.map(|t| t.unwrap_or(CERTAIN_FLIP)));
        Strip { words, events }
    }

    /// One bound per event that draws a word, in stream order.
    fn events(&self) -> &[u64] {
        &self.words[..self.events]
    }

    /// Each measured qubit's readout threshold (none with readout noise
    /// off).
    fn readout(&self) -> impl Iterator<Item = Option<u64>> + '_ {
        self.words[self.events..]
            .iter()
            .map(|&t| (t != CERTAIN_FLIP).then_some(t))
    }
}

/// The deterministic part of a noisy execution: the time-ordered event
/// stream, every gate's effective (crosstalk-scaled) error probability
/// in its event, and the probability a shot stays clean.
#[derive(Debug, Clone)]
pub(crate) struct TrajectoryPlan {
    /// The events in stream order: by time, idles before gates. Every
    /// gate of the circuit has one.
    pub events: Vec<Event>,
    /// `Π (1 − p_j)` over the events in stream order, where `p_j` is
    /// event `j`'s total error probability ([`event_error_p`]): the
    /// probability a whole shot stays clean, and the last of the prefix
    /// survival products ([`event_survival`]), bit for bit.
    pub clean: f64,
}

/// The prefix survival products over `plan`'s event stream that the
/// [`TrajectoryKernel::SurvivalSkip`] kernel binary-searches, length
/// `events.len() + 1`: `survival[k] = Π_{j<k} (1 − p_j)`. Non-increasing,
/// starts at 1, ends at `plan.clean`.
fn event_survival(plan: &TrajectoryPlan) -> Vec<f64> {
    prefix_survival(plan.events.iter().map(|&ev| event_error_p(ev)))
}

/// The total error probability of one scheduled event: the effective
/// (scaled, capped) gate error, or the summed Pauli-twirl probability
/// `p_x + p_y + p_z = relax_p/2 + dephase_p/2` of an idle window.
fn event_error_p(ev: Event) -> f64 {
    match ev {
        Event::Gate { error_p, .. } => error_p,
        Event::Idle {
            relax_p, dephase_p, ..
        } => relax_p / 2.0 + dephase_p / 2.0,
    }
}

/// Prefix survival products `[1, 1 − p₀, (1 − p₀)(1 − p₁), …]` of
/// independent error chances, what the SurvivalSkip kernel jumps through.
fn prefix_survival(chances: impl ExactSizeIterator<Item = f64>) -> Vec<f64> {
    let mut survival = Vec::with_capacity(chances.len() + 1);
    let mut s = 1.0f64;
    survival.push(s);
    for p in chances {
        s *= 1.0 - p;
        survival.push(s);
    }
    survival
}

/// The ALAP schedule of a mapped circuit under the device's durations
/// ([`gate_durations`]): how a stand-alone entry times a job that no
/// plan has timed.
fn alap_timing(circuit: &Circuit, layout: &[usize], device: &Device) -> Schedule {
    let durations = gate_durations(circuit, layout, device);
    schedule::alap_schedule_with(circuit, |i, _| durations[i])
}

/// Validates a mapped job, times it ([`alap_timing`]) and builds its
/// plan: the way in of every entry that is handed no schedule.
pub(crate) fn plan_standalone(
    circuit: &Circuit,
    layout: &[usize],
    device: &Device,
    scaling: &NoiseScaling,
    tail_idle: &[f64],
    cfg: &ExecutionConfig,
) -> Result<TrajectoryPlan, SimError> {
    validate_layout(circuit, layout, device)?;
    let sched = alap_timing(circuit, layout, device);
    Ok(build_plan(
        circuit, layout, device, scaling, tail_idle, &sched, cfg,
    ))
}

/// `x`'s bits, mapped so that their unsigned order is
/// [`f64::total_cmp`]'s: a negative's bits flipped (a larger magnitude
/// sorts first), a positive's sign bit set.
fn total_order_bits(x: f64) -> u64 {
    let bits = x.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

/// One event of the stream before it is built, 32 bytes.
#[derive(Clone, Copy)]
struct Slot {
    /// The stream order, unique per slot: the time's
    /// [`total_order_bits`], then the kind (a window 0, before a gate
    /// 1), then the slot's rank among its kind — a gate's position in
    /// the schedule; a window's qubit and index on that qubit, the
    /// tails after every window — which is the order the slots were
    /// once pushed in before a stable sort by time and kind.
    key: u128,
    /// Length of an idle window.
    tau: f64,
    /// The local qubit of a window, the index of a gate.
    which: u32,
}

impl Slot {
    /// The kind bit: a gate.
    const GATE: u128 = 1 << 63;
    /// A tail's rank bit: after every window.
    const TAIL: u64 = 1 << 62;

    fn new(time: f64, kind: u128, rank: u64, tau: f64, which: usize) -> Self {
        Slot {
            key: u128::from(total_order_bits(time)) << 64 | kind | u128::from(rank),
            tau,
            which: narrow(which),
        }
    }

    /// Gate `index`, at position `rank` of its schedule.
    fn gate(start: f64, rank: usize, index: usize) -> Self {
        Slot::new(start, Slot::GATE, rank as u64, 0.0, index)
    }

    /// The `index`-th window `(start, end)` of qubit `q`, at its end.
    fn window(q: usize, index: u32, start: f64, end: f64) -> Self {
        Slot::new(end, 0, (q as u64) << 32 | u64::from(index), end - start, q)
    }

    /// Qubit `q`'s tail idle `tau` after the makespan.
    fn tail(q: usize, makespan: f64, tau: f64) -> Self {
        Slot::new(makespan + tau, 0, Slot::TAIL | (q as u64) << 32, tau, q)
    }

    fn is_gate(&self) -> bool {
        self.key & Slot::GATE != 0
    }
}

/// A span's place among one qubit's busy spans: by start, then end,
/// both by `total_cmp` — the order `Schedule::idle_windows` sorts them
/// in.
fn span_order(a: (f64, f64), b: (f64, f64)) -> std::cmp::Ordering {
    a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1))
}

/// One qubit's walk over its busy spans in [`span_order`]: the gap
/// before a span, when longer than 1e-9 ns, is an idle window, and so is
/// the time from the qubit's last span to the makespan — the windows
/// `Schedule::idle_windows` lists, in its order.
#[derive(Clone, Copy, Default)]
struct Lane {
    /// The span taken last.
    last: Option<(f64, f64)>,
    /// Windows found so far.
    windows: u32,
    /// A span arrived before one it sorts after (a negative or NaN
    /// duration can do that): the qubit's spans are sorted instead.
    unordered: bool,
}

impl Lane {
    /// Takes the next span; returns the window it closes, as `(index on
    /// the qubit, start, end)`.
    fn next(&mut self, span: (f64, f64)) -> Option<(u32, f64, f64)> {
        let last = self.last.replace(span);
        let (_, end) = last?;
        (span.0 - end > 1e-9).then(|| self.found(end, span.0))
    }

    /// The trailing window to `makespan` of a qubit that had a span.
    fn close(&mut self, makespan: f64) -> Option<(u32, f64, f64)> {
        let (_, end) = self.last?;
        (makespan - end > 1e-9).then(|| self.found(end, makespan))
    }

    fn found(&mut self, start: f64, end: f64) -> (u32, f64, f64) {
        self.windows += 1;
        (self.windows - 1, start, end)
    }
}

/// Builds the shared trajectory plan (see [`TrajectoryPlan`]) of a
/// validated mapped job timed by `sched`, its ALAP schedule.
///
/// One pass over the schedule's entries in source order yields the
/// gate slots and, per qubit, the idle windows: a qubit's spans arrive
/// in order whenever durations are not negative, so each window is the
/// gap to the span before it, with no per-qubit list and no sort. A
/// qubit whose spans do not arrive in order has them sorted here
/// instead. The slots are then sorted once, by a packed integer key
/// that is unique per slot ([`Slot::key`]): the order a stable sort by
/// `(time, kind)` gave the slots when they were pushed gate by gate,
/// then qubit by qubit.
pub(crate) fn build_plan(
    circuit: &Circuit,
    layout: &[usize],
    device: &Device,
    scaling: &NoiseScaling,
    tail_idle: &[f64],
    sched: &Schedule,
    cfg: &ExecutionConfig,
) -> TrajectoryPlan {
    let cal = device.calibration();
    let gates = circuit.gates();

    // Only the error probabilities are computed here: the calibrated
    // base error with crosstalk scaling, capped.
    let gate_error_p = |i: usize| {
        if !cfg.gate_noise {
            return 0.0;
        }
        let g = &gates[i];
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

    let (entries, makespan) = (sched.entries(), sched.makespan());
    let idle = cfg.idle_noise;
    let tails = || {
        let tails = tail_idle.iter().take(circuit.width()).enumerate();
        tails.filter(|&(_, &tau)| idle && tau > 0.0)
    };
    // A gate per entry and, with idle noise, at most a window per busy
    // span (the gap it ends, or the qubit's trailing one) and a tail
    // per qubit.
    let spans: usize = if idle {
        entries
            .iter()
            .map(|e| gates[e.gate_index].qubits().len())
            .sum()
    } else {
        0
    };
    let mut slots: Vec<Slot> = Vec::with_capacity(entries.len() + spans + tails().count());
    let mut lanes = vec![Lane::default(); if idle { circuit.width() } else { 0 }];
    for (rank, e) in entries.iter().enumerate() {
        slots.push(Slot::gate(e.start, rank, e.gate_index));
        if !idle {
            continue;
        }
        let span = (e.start, e.end());
        for q in &gates[e.gate_index].qubits() {
            let lane = &mut lanes[q];
            if lane.unordered {
                continue;
            }
            if lane.last.is_some_and(|last| span_order(span, last).is_lt()) {
                lane.unordered = true;
                continue;
            }
            let window = lane.next(span);
            slots.extend(window.map(|(i, a, b)| Slot::window(q, i, a, b)));
        }
    }
    for (q, lane) in lanes.iter_mut().enumerate() {
        if !lane.unordered {
            let window = lane.close(makespan);
            slots.extend(window.map(|(i, a, b)| Slot::window(q, i, a, b)));
        }
    }
    if lanes.iter().any(|lane| lane.unordered) {
        // Drop what the walk found before it noticed, sort, walk again.
        slots.retain(|s| s.is_gate() || !lanes[s.which as usize].unordered);
        let mut spans: Vec<(f64, f64)> = Vec::new();
        for (q, _) in lanes.iter().enumerate().filter(|(_, lane)| lane.unordered) {
            spans.clear();
            let on_q = entries
                .iter()
                .filter(|e| gates[e.gate_index].qubits().contains(q));
            spans.extend(on_q.map(|e| (e.start, e.end())));
            spans.sort_by(|&a, &b| span_order(a, b));
            let mut lane = Lane::default();
            for &span in &spans {
                slots.extend(lane.next(span).map(|(i, a, b)| Slot::window(q, i, a, b)));
            }
            slots.extend(
                lane.close(makespan)
                    .map(|(i, a, b)| Slot::window(q, i, a, b)),
            );
        }
    }
    slots.extend(tails().map(|(q, &tau)| Slot::tail(q, makespan, tau)));
    slots.sort_unstable_by_key(|slot| slot.key);

    let events = slots.iter().map(|slot| {
        if slot.is_gate() {
            let error_p = gate_error_p(slot.which as usize);
            return Event::Gate {
                index: slot.which,
                error_p,
                threshold: gate_threshold(error_p),
            };
        }
        let phys = layout[slot.which as usize];
        let relax_p = 1.0 - (-slot.tau / cal.t1(phys)).exp();
        let dephase_p = 1.0 - (-slot.tau / cal.t2(phys)).exp();
        Event::Idle {
            q: slot.which,
            relax_p,
            dephase_p,
            thresholds: idle_thresholds(relax_p, dephase_p),
        }
    });
    let events: Vec<Event> = events.collect();

    // The products `prefix_survival` takes, in its order.
    let clean = events
        .iter()
        .fold(1.0, |s, &ev| s * (1.0 - event_error_p(ev)));
    TrajectoryPlan { events, clean }
}

/// The evaluator's one width-proportional memory bound: the amplitudes
/// all levels of one worker's pool may hold together (32 MiB), never
/// fewer than two levels — the root and one branch. A tree is about
/// `log(shots) / log(branching) + 1` levels deep, so only registers of
/// 17 qubits and more can meet it; past it a subtree is finished one
/// pattern at a time from a copy of its deepest shared state. A memory
/// gate, never a behaviour gate.
const LEVEL_POOL_AMP_LIMIT: usize = 1 << 21;

/// See [`single_error_alias`].
const SINGLE_ERROR_ALIAS_LIMIT: usize = 1 << 22;

/// Sampler selection for [`TrajectoryKernel::SurvivalSkip`] shots with
/// exactly one error: while `events · 16 · 2^width` stays at or below
/// [`SINGLE_ERROR_ALIAS_LIMIT`] the shot's uniform is mapped through
/// the alias table of its final distribution, past it through the
/// linear CDF walk — a different outcome for the same uniform. The
/// predicate once gated a per-stream table cache by its worst-case
/// size; the cache is gone, but which side a job falls on is part of
/// its pinned stream, so the rule stays, a pure function of the job's
/// shape (12 qubits × 80 events is already past it).
fn single_error_alias(events: usize, width: usize) -> bool {
    (events * 16)
        .checked_shl(width as u32)
        .is_some_and(|n| n <= SINGLE_ERROR_ALIAS_LIMIT)
}

/// The probability that one shot of the mapped job draws *no* gate or
/// idle error — the full survival product `Π (1 − p_e)` over the
/// job's scheduled event stream, i.e. the fraction of trajectories the
/// [`TrajectoryKernel::SurvivalSkip`] kernel answers straight from the
/// cached ideal state without replaying any events. (Readout flips are
/// applied to the sampled outcome either way and do not enter here.)
///
/// # Errors
///
/// Returns a [`SimError`] if the layout is malformed or a two-qubit
/// gate is not executable on the topology.
pub fn clean_shot_probability(
    circuit: &Circuit,
    layout: &[usize],
    device: &Device,
    scaling: &NoiseScaling,
    tail_idle: &[f64],
    cfg: &ExecutionConfig,
) -> Result<f64, SimError> {
    Ok(plan_standalone(circuit, layout, device, scaling, tail_idle, cfg)?.clean)
}

/// Executes a mapped circuit on the device's noise model.
///
/// `layout[q]` gives the physical qubit carrying local qubit `q`; every
/// two-qubit gate must land on a coupling link. `scaling` holds the
/// crosstalk amplification of each gate (see module docs).
///
/// # Errors
///
/// Returns a [`SimError`] if the layout is malformed or a two-qubit gate
/// is not executable on the topology.
pub fn run_noisy(
    circuit: &Circuit,
    layout: &[usize],
    device: &Device,
    scaling: &NoiseScaling,
    cfg: &ExecutionConfig,
) -> Result<Counts, SimError> {
    run_noisy_with_idle(circuit, layout, device, scaling, &[], cfg)
}

/// [`run_noisy`] with additional trailing idle time per local qubit.
///
/// `tail_idle[q]` nanoseconds of extra waiting are appended to qubit `q`
/// before readout (missing entries mean zero). The parallel executor uses
/// this to charge the decoherence cost of gate-level crosstalk
/// *serialization* (the CNA baseline delays conflicting CNOTs, which
/// stretches the schedule).
///
/// Exactly [`PreparedJob::prepare`] followed by one
/// [`PreparedJob::run`]; callers that execute the same mapped job more
/// than once keep the [`PreparedJob`] instead.
///
/// # Errors
///
/// Returns a [`SimError`] if the layout is malformed or a two-qubit gate
/// is not executable on the topology.
pub fn run_noisy_with_idle(
    circuit: &Circuit,
    layout: &[usize],
    device: &Device,
    scaling: &NoiseScaling,
    tail_idle: &[f64],
    cfg: &ExecutionConfig,
) -> Result<Counts, SimError> {
    Ok(PreparedJob::prepare(circuit, layout, device, scaling, tail_idle, cfg)?.run(circuit, cfg))
}

/// The seed- and shot-independent part of a noisy execution, built
/// once and run any number of times.
///
/// Everything here is a pure function of the mapped job, the device
/// calibration and the three noise flags: the validated layout, the
/// ALAP event stream with its effective error probabilities, the mapped
/// ideal state and the per-qubit readout flip probabilities — and,
/// built lazily the first time a [`TrajectoryKernel::SurvivalSkip`] run
/// asks, the event and readout survival products and the clean-shot
/// alias table.
///
/// `prepare` is a compiler: what a run would otherwise derive per shot
/// or per gate application is fixed here, once. Every event carries the
/// integer threshold(s) its random word is compared with, a strip holds
/// one bound per word-drawing event and every measured qubit's readout
/// threshold in stream order, and every gate is an op — its
/// matrix or phase evaluated, its kernel picked from the exact zeros
/// and ones of that matrix (see the crate docs, "Compiled once"). A run
/// draws words and runs ops; it evaluates no `sin`, converts no
/// probability and builds no matrix, and replaying a kept job allocates
/// nothing for them. Nothing depends on `seed`,
/// `shots`, `parallelism` or `kernel`, so one prepared job serves every
/// run of the same mapped job under the same calibration and noise
/// flags, bit-for-bit what [`run_noisy_with_idle`] computes from
/// scratch. The circuit itself is not copied: [`PreparedJob::run`]
/// takes it again.
///
/// No intermediate state is kept with the job (a run's evaluator walks
/// the event stream forward from `|0…0⟩`, in a level pool its thread
/// keeps for the next run of any job; see the module docs, "Where a
/// run's memory lives"); [`PreparedJob::retained_bytes`] says what
/// keeping the job costs.
///
/// ```
/// use qucp_circuit::Circuit;
/// use qucp_device::ibm;
/// use qucp_sim::{run_noisy, ExecutionConfig, NoiseScaling, PreparedJob};
///
/// # fn main() -> Result<(), qucp_sim::SimError> {
/// let mut bell = Circuit::new(2);
/// bell.h(0).cx(0, 1);
/// let dev = ibm::toronto();
/// let scaling = NoiseScaling::uniform(2);
/// let cfg = ExecutionConfig::default().with_shots(256);
/// let prepared = PreparedJob::prepare(&bell, &[0, 1], &dev, &scaling, &[], &cfg)?;
/// // Every run equals the from-scratch execution of its config.
/// for seed in [1, 2] {
///     let cfg = cfg.with_seed(seed);
///     assert_eq!(prepared.run(&bell, &cfg), run_noisy(&bell, &[0, 1], &dev, &scaling, &cfg)?);
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct PreparedJob {
    plan: TrajectoryPlan,
    /// Gate `i` of the circuit, compiled: `ops[i]`, with the matrices
    /// of the gates that have no exact structure in `mats`.
    ops: Vec<Op>,
    mats: Vec<Mat2>,
    ideal: Statevector,
    /// Readout flip probability of each local qubit (the calibrated
    /// readout error of the physical qubit carrying it).
    readout_p: Vec<f64>,
    /// The draw thresholds of the events that draw a word and of the
    /// readout flips, in stream order.
    strip: Strip,
    /// The noise flags the job was prepared under.
    noise: NoiseFlags,
    survival: OnceLock<SurvivalTables>,
}

/// The SurvivalSkip kernel's share of a [`PreparedJob`].
#[derive(Debug)]
struct SurvivalTables {
    /// Prefix survival products over the event stream
    /// ([`event_survival`]), what the kernel jumps through.
    events: Vec<f64>,
    /// O(1) clean-shot sampler over the mapped ideal distribution.
    alias: AliasTable,
    /// Prefix survival products over the per-qubit readout errors
    /// (length `width + 1`), so the kernel jumps straight to the next
    /// flipped bit; `None` with readout noise off.
    readout_survival: Option<Vec<f64>>,
}

/// The noise channels of an [`ExecutionConfig`]: all of a config a
/// [`PreparedJob`] depends on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct NoiseFlags {
    gate: bool,
    readout: bool,
    idle: bool,
}

impl NoiseFlags {
    fn of(cfg: &ExecutionConfig) -> Self {
        NoiseFlags {
            gate: cfg.gate_noise,
            readout: cfg.readout_noise,
            idle: cfg.idle_noise,
        }
    }
}

impl PreparedJob {
    /// Validates the mapped job and builds its run-independent state.
    /// Of `cfg` only the three noise flags are read.
    ///
    /// # Errors
    ///
    /// Returns a [`SimError`] if the layout is malformed or a two-qubit
    /// gate is not executable on the topology.
    ///
    /// # Panics
    ///
    /// Panics if readout noise is on and a readout error of the layout
    /// is outside `[0, 1]` (the first shot's readout draw used to).
    pub fn prepare(
        circuit: &Circuit,
        layout: &[usize],
        device: &Device,
        scaling: &NoiseScaling,
        tail_idle: &[f64],
        cfg: &ExecutionConfig,
    ) -> Result<Self, SimError> {
        let plan = plan_standalone(circuit, layout, device, scaling, tail_idle, cfg)?;
        Ok(PreparedJob::compile(plan, circuit, layout, device, cfg))
    }

    /// [`PreparedJob::prepare`] for a job whose ALAP schedule its
    /// planner already computed: `schedule` times the event stream, and
    /// no gate duration is looked up here. Given the schedule
    /// `prepare` would compute — [`gate_durations`] under `device`'s
    /// calibration, ALAP-scheduled — the two build the same job, bit
    /// for bit; `qucp-core` hands in the schedule its merge computed for
    /// the same mapped program.
    ///
    /// # Errors
    ///
    /// Returns a [`SimError`] if the layout is malformed or a two-qubit
    /// gate is not executable on the topology.
    ///
    /// # Panics
    ///
    /// Panics if `schedule` has another gate count than `circuit`, and
    /// as [`PreparedJob::prepare`] does on a readout error outside
    /// `[0, 1]`.
    pub fn prepare_scheduled(
        circuit: &Circuit,
        layout: &[usize],
        device: &Device,
        scaling: &NoiseScaling,
        tail_idle: &[f64],
        schedule: &Schedule,
        cfg: &ExecutionConfig,
    ) -> Result<Self, SimError> {
        validate_layout(circuit, layout, device)?;
        assert_eq!(
            schedule.entries().len(),
            circuit.gate_count(),
            "the schedule of another circuit"
        );
        let plan = build_plan(circuit, layout, device, scaling, tail_idle, schedule, cfg);
        Ok(PreparedJob::compile(plan, circuit, layout, device, cfg))
    }

    /// The rest of a prepared job, around its plan: the compiled gates,
    /// the ideal state, the readout errors and the strip.
    fn compile(
        plan: TrajectoryPlan,
        circuit: &Circuit,
        layout: &[usize],
        device: &Device,
        cfg: &ExecutionConfig,
    ) -> Self {
        let mut mats = Vec::new();
        let compiled = circuit
            .gates()
            .iter()
            .map(|g| kernel::compile(g, &mut mats));
        let ops: Vec<Op> = compiled.collect();
        let cal = device.calibration();
        let readout_p: Vec<f64> = layout.iter().map(|&phys| cal.readout_error(phys)).collect();
        let strip = Strip::compile(&plan.events, &readout_p, cfg.readout_noise);
        PreparedJob {
            plan,
            ideal: Statevector::from_ops(circuit.width(), &ops, &mats),
            ops,
            mats,
            readout_p,
            strip,
            noise: NoiseFlags::of(cfg),
            survival: OnceLock::new(),
        }
    }

    /// Qubits of the mapped job.
    fn width(&self) -> usize {
        self.readout_p.len()
    }

    /// Whether this job was prepared under `cfg`'s noise flags — the
    /// only part of a config a prepared job depends on.
    pub fn matches(&self, cfg: &ExecutionConfig) -> bool {
        self.noise == NoiseFlags::of(cfg)
    }

    /// An upper bound on the heap bytes this job keeps alive: the event
    /// stream (error probabilities and draw thresholds included) with
    /// its survival products and its strip, the compiled gates and
    /// their matrices, the readout probabilities, thresholds and
    /// products, the ideal state and the clean-shot alias table — the
    /// lazy SurvivalSkip tables included whether or not they exist yet.
    pub fn retained_bytes(&self) -> usize {
        use std::mem::size_of;
        let outcomes = self.ideal.amplitudes().len();
        self.plan.events.len() * (size_of::<Event>() + size_of::<f64>() + size_of::<u64>())
            + self.ops.len() * size_of::<Op>()
            + self.mats.capacity() * size_of::<Mat2>()
            + self.width() * (2 * size_of::<f64>() + size_of::<u64>())
            // Ideal state, alias table (threshold + alias per outcome).
            + outcomes * (size_of::<Complex>() + size_of::<f64>() + size_of::<u32>())
    }

    /// Runs `cfg.shots` trajectories of `circuit` — the circuit the job
    /// was prepared from — from `cfg.seed` under `cfg.kernel` and
    /// `cfg.parallelism`. Once this thread has run the job before, the
    /// returned histogram is all a run on one worker asks the heap for
    /// (see the module docs, "Where a run's memory lives").
    ///
    /// # Panics
    ///
    /// Panics if `circuit` has another width or gate count than the
    /// prepared one, or if `cfg`'s noise flags differ from the ones the
    /// job was prepared under ([`PreparedJob::matches`]): the event
    /// stream and error probabilities were fixed by them.
    pub fn run(&self, circuit: &Circuit, cfg: &ExecutionConfig) -> Counts {
        self.run_within(circuit, cfg, LEVEL_POOL_AMP_LIMIT)
    }

    /// [`PreparedJob::run`] with every evaluator's level pool bounded
    /// to `pool_amps` amplitudes (the tests force the two-level minimum;
    /// the bound moves memory and time, never a count).
    fn run_within(&self, circuit: &Circuit, cfg: &ExecutionConfig, pool_amps: usize) -> Counts {
        assert_eq!(
            (circuit.width(), circuit.gate_count()),
            (self.width(), self.ops.len()),
            "run with a circuit other than the prepared one"
        );
        assert!(
            self.matches(cfg),
            "prepared under {:?}, run under {:?}",
            self.noise,
            NoiseFlags::of(cfg)
        );
        let events = self.plan.events.len();
        assert!(events < 1 << 28, "{events} events overflow a packed error");
        // The Replay kernel keeps its bit-pinned samplers and needs
        // none of the tables.
        let tables = (cfg.kernel == TrajectoryKernel::SurvivalSkip).then(|| self.tables());
        let job = TrajectoryJob {
            width: self.width(),
            gates: circuit.gates(),
            ops: &self.ops,
            mats: &self.mats,
            strip: &self.strip,
            plan: &self.plan,
            ideal: &self.ideal,
            tables,
            alias_single_errors: tables.is_some() && single_error_alias(events, self.width()),
            max_levels: (pool_amps >> self.width()).max(2),
            cfg,
        };
        let counts = match cfg.parallelism.resolve(cfg.shots) {
            ShotParallelism::Serial => {
                let into = Drawn {
                    counts: Tally::new(job.width, cfg.shots),
                    errors: scratch::take_join(),
                };
                job.evaluate(job.draw(cfg.shots, cfg.seed, into, cfg.shots), 1)
            }
            ShotParallelism::Sharded { shards, threads } => job.run_sharded(shards, threads),
            ShotParallelism::Auto => unreachable!("Auto resolves to Sharded"),
        };
        scratch::trim();
        counts
    }

    /// The SurvivalSkip tables, built on first use (deterministic, no
    /// RNG).
    fn tables(&self) -> &SurvivalTables {
        self.survival.get_or_init(|| SurvivalTables {
            events: event_survival(&self.plan),
            alias: AliasTable::from_statevector(&self.ideal),
            readout_survival: (self.noise.readout)
                .then(|| prefix_survival(self.readout_p.iter().copied())),
        })
    }
}

/// Everything the streams and evaluators of one run share: views into
/// the [`PreparedJob`] plus the run's config, read by every worker.
#[derive(Clone, Copy)]
struct TrajectoryJob<'a> {
    width: usize,
    gates: &'a [Gate],
    /// `gates`, compiled, and the matrices of the unstructured ones.
    ops: &'a [Op],
    mats: &'a [Mat2],
    /// The draw thresholds, events then readout (see [`Strip`]).
    strip: &'a Strip,
    plan: &'a TrajectoryPlan,
    ideal: &'a Statevector,
    /// The SurvivalSkip kernel's survival products and clean-shot and
    /// readout samplers; `None` under `Replay`, which screens its event
    /// words against the strip, walks the ideal state's CDF and flips
    /// readout bits one Bernoulli per qubit.
    tables: Option<&'a SurvivalTables>,
    /// Whether single-error shots sample their node's alias table
    /// (`SurvivalSkip` under [`single_error_alias`]) or walk its CDF.
    alias_single_errors: bool,
    /// Levels one evaluator's pool may hold (at least 2).
    max_levels: usize,
    cfg: &'a ExecutionConfig,
}

impl TrajectoryJob<'_> {
    /// Sharded execution: the shot budget splits into `shards` streams
    /// (as even as possible, earlier shards take the remainder), shard
    /// `s` draws from [`derive_shard_seed`]`(seed, s)`, the draws join
    /// **in shard order** and are evaluated once, over all shards — a
    /// pure function of `(seed, shards)`, independent of `threads` and
    /// of scheduling. On one worker each shard draws straight on behind
    /// the one before it, which is what the join gives; on more they
    /// fan out through [`run_indexed_within`] and are appended to the
    /// first. Shards past the shot count carry no shot and are skipped
    /// outright: an empty shard draws nothing.
    fn run_sharded(&self, shards: usize, threads: usize) -> Counts {
        let shards = shards.max(1);
        let shots = self.cfg.shots;
        let (base, rem) = (shots / shards, shots % shards);
        // Every shard past `active` is empty (base == 0 means only the
        // first `rem` shards got the remainder shot).
        let active = if base == 0 { rem } else { shards };
        let budget = if threads == 0 { core_budget() } else { threads };
        let work = run_work(shots, self.plan);
        let shard = |s: usize| {
            (
                base + usize::from(s < rem),
                derive_shard_seed(self.cfg.seed, s),
            )
        };
        // The stream the others join: the run's histogram and the join
        // buffers, with room for every shot.
        let join = || Drawn {
            counts: Tally::new(self.width, shots),
            errors: scratch::take_join(),
        };
        if workers_for(budget, active, work) == 1 {
            let drawn = (0..active).fold(join(), |drawn, s| {
                let (n, seed) = shard(s);
                self.draw(n, seed, drawn, shots)
            });
            return self.evaluate(drawn, budget);
        }
        // From here on the fan-out has helpers (two workers or more, so
        // two streams or more); the fold above is the only inline path.
        // Shard 0 draws into the join stream, later shards into fresh
        // buffers: a helper's scratch dies with it.
        let streams = run_indexed_within(budget, active, work, |s| {
            let (n, seed) = shard(s);
            if s == 0 {
                return self.draw(n, seed, join(), shots);
            }
            let fresh = Drawn {
                counts: Tally::new(self.width, n),
                errors: Errors::default(),
            };
            self.draw(n, seed, fresh, n)
        });
        let mut streams = streams.into_iter();
        let mut drawn = streams.next().expect("a fan-out draws every shard");
        streams.for_each(|later| drawn.append(later));
        self.evaluate(drawn, budget)
    }
}

/// A whole run's work in the fan-out helper's unit: shots times
/// scheduled events, however the shots are sharded.
fn run_work(shots: usize, plan: &TrajectoryPlan) -> u64 {
    (shots as u64).saturating_mul(plan.events.len() as u64)
}

/// Checks a mapped job against the device, without a heap request: a
/// layout is as wide as its circuit, so a repeated physical qubit is
/// found by scanning the entries before it.
fn validate_layout(circuit: &Circuit, layout: &[usize], device: &Device) -> Result<(), SimError> {
    if layout.len() != circuit.width() {
        return Err(SimError::LayoutMismatch {
            circuit: circuit.width(),
            layout: layout.len(),
        });
    }
    let n = device.num_qubits();
    for (i, &p) in layout.iter().enumerate() {
        if p >= n {
            return Err(SimError::PhysicalOutOfRange {
                physical: p,
                device: n,
            });
        }
        if layout[..i].contains(&p) {
            return Err(SimError::LayoutNotInjective { physical: p });
        }
    }
    for (i, g) in circuit.gates().iter().enumerate() {
        if g.is_two_qubit() {
            let qs = g.qubits();
            let qs = qs.as_slice();
            let (a, b) = (layout[qs[0]], layout[qs[1]]);
            if !device.topology().has_link(a, b) {
                return Err(SimError::NotCoupled {
                    gate_index: i,
                    a,
                    b,
                });
            }
        }
    }
    Ok(())
}

/// A uniformly random Pauli as its X/Y/Z code 1–3 (an `i32` draw, the
/// width every pinned stream has always consumed).
fn random_pauli(rng: &mut impl Rng) -> u8 {
    rng.gen_range(0..3i32) as u8 + 1
}

/// Applies the Pauli with X/Y/Z code `code` to qubit `q`: a half swap,
/// `[[0, -i], [i, 0]]` or a sign flip of the upper halves.
fn apply_pauli(amps: &mut [Complex], q: usize, code: u8) {
    let q = narrow(q);
    let op = match code {
        1 => Op::Flip { q },
        2 => Op::Cross {
            q,
            d0: 0.0,
            b01: -1.0,
            b10: 1.0,
            d1: 0.0,
        },
        _ => Op::Phase {
            q,
            d: Complex::real(-1.0),
        },
    };
    kernel::run(amps, &op, &[]);
}

/// Applies a depolarizing-style error after `gate`: `code` is a 1–3
/// X/Y/Z code on a one-qubit gate's operand, or a 1–15 two-qubit Pauli
/// index (base-4 digit pair, identity-identity excluded) on both.
fn apply_typed_gate_error(amps: &mut [Complex], gate: &Gate, code: u8) {
    let qs = gate.qubits();
    let qs = qs.as_slice();
    if qs.len() == 1 {
        apply_pauli(amps, qs[0], code);
    } else {
        let (a, b) = (code / 4, code % 4);
        if a > 0 {
            apply_pauli(amps, qs[0], a);
        }
        if b > 0 {
            apply_pauli(amps, qs[1], b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qucp_device::{Calibration, CrosstalkModel, Topology};

    fn line_device(n: usize, cx_err: f64, ro_err: f64) -> Device {
        let t = Topology::line(n);
        let cal = Calibration::uniform(&t, cx_err, 1e-4, ro_err);
        Device::new("line", t, cal, CrosstalkModel::none())
    }

    fn bell() -> Circuit {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        c
    }

    #[test]
    fn ideal_run_of_deterministic_circuit() {
        let mut c = Circuit::new(2);
        c.x(0).cx(0, 1);
        let counts = run_ideal(&c, 100, 7);
        assert_eq!(counts.count(0b11), 100);
        assert_eq!(ideal_outcome(&c), Some(0b11));
    }

    #[test]
    fn bell_has_no_deterministic_outcome() {
        assert_eq!(ideal_outcome(&bell()), None);
    }

    #[test]
    fn noiseless_probabilities_of_bell() {
        let p = noiseless_probabilities(&bell());
        assert!((p[0] - 0.5).abs() < 1e-12);
        assert!((p[3] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn zero_noise_device_reproduces_ideal() {
        let dev = line_device(2, 0.0, 0.0);
        let mut cfg = ExecutionConfig::default().with_shots(2000).with_seed(5);
        cfg.idle_noise = false;
        let c = {
            let mut c = Circuit::new(2);
            c.x(0).cx(0, 1);
            c
        };
        let counts = run_noisy(&c, &[0, 1], &dev, &NoiseScaling::uniform(2), &cfg).unwrap();
        assert_eq!(counts.count(0b11), 2000);
    }

    #[test]
    fn gate_noise_reduces_pst() {
        let noisy = line_device(2, 0.10, 0.0);
        let cfg = ExecutionConfig {
            shots: 4000,
            seed: 11,
            gate_noise: true,
            readout_noise: false,
            idle_noise: false,
            ..ExecutionConfig::default()
        };
        let c = {
            let mut c = Circuit::new(2);
            c.x(0).cx(0, 1);
            c
        };
        let counts = run_noisy(&c, &[0, 1], &noisy, &NoiseScaling::uniform(2), &cfg).unwrap();
        let pst = counts.probability(0b11);
        assert!(pst < 0.99, "pst = {pst}");
        assert!(pst > 0.80, "pst = {pst}");
    }

    #[test]
    fn readout_noise_flips_bits() {
        let dev = line_device(1, 0.0, 0.25);
        let cfg = ExecutionConfig {
            shots: 8000,
            seed: 3,
            gate_noise: false,
            readout_noise: true,
            idle_noise: false,
            ..ExecutionConfig::default()
        };
        let c = Circuit::new(1); // |0>
        let counts = run_noisy(&c, &[0], &dev, &NoiseScaling::uniform(0), &cfg).unwrap();
        let frac_one = counts.probability(1);
        assert!((frac_one - 0.25).abs() < 0.03, "frac = {frac_one}");
    }

    #[test]
    fn scaling_amplifies_errors() {
        let dev = line_device(2, 0.05, 0.0);
        let cfg = ExecutionConfig {
            shots: 6000,
            seed: 17,
            gate_noise: true,
            readout_noise: false,
            idle_noise: false,
            ..ExecutionConfig::default()
        };
        let c = {
            let mut c = Circuit::new(2);
            c.x(0);
            for _ in 0..5 {
                c.cx(0, 1).cx(0, 1);
            }
            c.cx(0, 1);
            c
        };
        let plain = run_noisy(
            &c,
            &[0, 1],
            &dev,
            &NoiseScaling::uniform(c.gate_count()),
            &cfg,
        )
        .unwrap()
        .probability(0b11);
        let mut scaled = NoiseScaling::uniform(c.gate_count());
        for i in 0..c.gate_count() {
            scaled.amplify(i, 4.0);
        }
        let worse = run_noisy(&c, &[0, 1], &dev, &scaled, &cfg)
            .unwrap()
            .probability(0b11);
        assert!(
            worse < plain,
            "scaled {worse} should be below plain {plain}"
        );
    }

    #[test]
    fn idle_noise_hurts_staggered_circuits() {
        // A circuit where qubit 1 idles a long time between two CNOTs.
        let mut c = Circuit::new(2);
        c.x(0).cx(0, 1);
        for _ in 0..40 {
            c.h(0).h(0);
        }
        c.cx(0, 1);
        let dev = {
            let t = Topology::line(2);
            // Short T1/T2 to make idling visible.
            let cal = Calibration::uniform(&t, 0.0, 0.0, 0.0);
            Device::new("line", t, cal, CrosstalkModel::none())
        };
        let with_idle = ExecutionConfig {
            shots: 2000,
            seed: 23,
            gate_noise: false,
            readout_noise: false,
            idle_noise: true,
            ..ExecutionConfig::default()
        };
        let without_idle = ExecutionConfig {
            idle_noise: false,
            ..with_idle
        };
        let a = run_noisy(
            &c,
            &[0, 1],
            &dev,
            &NoiseScaling::uniform(c.gate_count()),
            &with_idle,
        )
        .unwrap()
        .probability(0b01);
        let b = run_noisy(
            &c,
            &[0, 1],
            &dev,
            &NoiseScaling::uniform(c.gate_count()),
            &without_idle,
        )
        .unwrap()
        .probability(0b01);
        // The target state is |01⟩ (x then two cx cancel); idle noise can
        // only reduce its probability.
        assert!(a <= b + 1e-9, "idle {a} vs no idle {b}");
    }

    #[test]
    fn layout_validation_errors() {
        let dev = line_device(3, 0.01, 0.01);
        let c = bell();
        let cfg = ExecutionConfig::default().with_shots(1);
        // Wrong length.
        let e = run_noisy(&c, &[0], &dev, &NoiseScaling::uniform(2), &cfg).unwrap_err();
        assert!(matches!(e, SimError::LayoutMismatch { .. }));
        // Duplicate physical.
        let e = run_noisy(&c, &[1, 1], &dev, &NoiseScaling::uniform(2), &cfg).unwrap_err();
        assert!(matches!(e, SimError::LayoutNotInjective { physical: 1 }));
        // Out of range.
        let e = run_noisy(&c, &[0, 9], &dev, &NoiseScaling::uniform(2), &cfg).unwrap_err();
        assert!(matches!(e, SimError::PhysicalOutOfRange { .. }));
        // Uncoupled 2q gate.
        let e = run_noisy(&c, &[0, 2], &dev, &NoiseScaling::uniform(2), &cfg).unwrap_err();
        assert!(matches!(e, SimError::NotCoupled { gate_index: 1, .. }));
    }

    #[test]
    fn shard_seeds_are_deterministic_and_distinct() {
        assert_eq!(derive_shard_seed(42, 3), derive_shard_seed(42, 3));
        let seeds: Vec<u64> = (0..64).map(|s| derive_shard_seed(0x5EED, s)).collect();
        let mut uniq = seeds.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), seeds.len(), "shard seeds must not collide");
        // Adjacent base seeds decorrelate through the SplitMix64 mix.
        assert_ne!(derive_shard_seed(1, 0), derive_shard_seed(2, 0));
    }

    #[test]
    fn sharded_counts_independent_of_thread_count() {
        let dev = line_device(3, 0.04, 0.02);
        let mut c = Circuit::new(3);
        c.x(0).cx(0, 1).cx(1, 2);
        let base = ExecutionConfig::default().with_shots(1500).with_seed(31);
        let run_with = |threads: usize| {
            let cfg = base.with_parallelism(ShotParallelism::Sharded { shards: 8, threads });
            run_noisy(&c, &[0, 1, 2], &dev, &NoiseScaling::uniform(3), &cfg).unwrap()
        };
        let reference = run_with(1);
        assert_eq!(reference.shots(), 1500);
        for threads in [2, 4, 8] {
            assert_eq!(run_with(threads), reference, "threads = {threads}");
        }
        // threads = 0 (auto) must obey the same contract.
        assert_eq!(run_with(0), reference);
    }

    #[test]
    fn sharded_counts_depend_on_shard_count_only() {
        let dev = line_device(2, 0.05, 0.02);
        let base = ExecutionConfig::default().with_shots(800).with_seed(5);
        let run_with = |shards: usize, threads: usize| {
            let cfg = base.with_parallelism(ShotParallelism::Sharded { shards, threads });
            run_noisy(&bell(), &[0, 1], &dev, &NoiseScaling::uniform(2), &cfg).unwrap()
        };
        assert_eq!(run_with(4, 2), run_with(4, 3));
        // A different shard split is a different (equally valid) sample.
        assert_ne!(run_with(4, 2), run_with(5, 2));
    }

    #[test]
    fn sharded_edge_cases_conserve_shots() {
        let dev = line_device(2, 0.05, 0.02);
        // More shards than shots, zero shards (normalized to one), and
        // an uneven split must all conserve the budget exactly.
        for (shots, shards) in [(10, 64), (5, 0), (1000, 7), (0, 3)] {
            let cfg = ExecutionConfig::default()
                .with_shots(shots)
                .with_seed(2)
                .with_parallelism(ShotParallelism::sharded(shards));
            let counts =
                run_noisy(&bell(), &[0, 1], &dev, &NoiseScaling::uniform(2), &cfg).unwrap();
            assert_eq!(counts.shots(), shots, "shards = {shards}");
            assert_eq!(counts.width(), 2);
        }
    }

    #[test]
    fn oversharded_run_skips_empty_shards_bit_for_bit() {
        // With `shards > shots` only the first `shots` shards carry a
        // shot, seeded `derive_shard_seed(seed, 0..shots)` — exactly
        // the seed streams of a `shards == shots` run. Skipping the
        // empty tail must therefore leave the counts bit-for-bit equal
        // to the exact-shard-count run, however absurd the shard count.
        let dev = line_device(2, 0.05, 0.02);
        let run_with = |shards: usize, threads: usize| {
            let cfg = ExecutionConfig::default()
                .with_shots(3)
                .with_seed(11)
                .with_parallelism(ShotParallelism::Sharded { shards, threads });
            run_noisy(&bell(), &[0, 1], &dev, &NoiseScaling::uniform(2), &cfg).unwrap()
        };
        let exact = run_with(3, 1);
        assert_eq!(exact.shots(), 3);
        for shards in [4, 64, 1000] {
            for threads in [1, 4] {
                assert_eq!(run_with(shards, threads), exact, "shards = {shards}");
            }
        }
    }

    #[test]
    fn sharded_noiseless_run_is_exact() {
        // With every noise channel off the sharded engine must still
        // reproduce the deterministic outcome on every shard. (The
        // line-device helper keeps a 1e-4 single-qubit error, so gate
        // noise is switched off wholesale here.)
        let dev = line_device(2, 0.0, 0.0);
        let mut cfg = ExecutionConfig::default()
            .with_shots(999)
            .with_seed(13)
            .with_parallelism(ShotParallelism::Sharded {
                shards: 6,
                threads: 3,
            });
        cfg.idle_noise = false;
        cfg.gate_noise = false;
        let mut c = Circuit::new(2);
        c.x(0).cx(0, 1);
        let counts = run_noisy(&c, &[0, 1], &dev, &NoiseScaling::uniform(2), &cfg).unwrap();
        assert_eq!(counts.count(0b11), 999);
    }

    #[test]
    fn shot_parallelism_builders() {
        assert_eq!(
            ShotParallelism::sharded(8),
            ShotParallelism::Sharded {
                shards: 8,
                threads: 0
            }
        );
        assert_eq!(
            ShotParallelism::sharded(8).with_threads(4),
            ShotParallelism::Sharded {
                shards: 8,
                threads: 4
            }
        );
        assert_eq!(
            ShotParallelism::Serial.with_threads(4),
            ShotParallelism::Serial
        );
        assert_eq!(ShotParallelism::default(), ShotParallelism::Serial);
        assert_eq!(
            ExecutionConfig::default().parallelism,
            ShotParallelism::Serial
        );
        assert_eq!(ShotParallelism::Auto.with_threads(4), ShotParallelism::Auto);
    }

    #[test]
    fn auto_shard_count_heuristic_bounds() {
        // One shard per 512 shots, clamped to [1, 32].
        assert_eq!(auto_shard_count(0), 1);
        assert_eq!(auto_shard_count(1), 1);
        assert_eq!(auto_shard_count(511), 1);
        assert_eq!(auto_shard_count(512), 1);
        assert_eq!(auto_shard_count(1024), 2);
        assert_eq!(auto_shard_count(8192), 16);
        assert_eq!(auto_shard_count(1 << 20), AUTO_MAX_SHARDS);
        // Resolution is pure in the shot budget.
        assert_eq!(
            ShotParallelism::Auto.resolve(8192),
            ShotParallelism::Sharded {
                shards: 16,
                threads: 0
            }
        );
        assert_eq!(
            ShotParallelism::Serial.resolve(8192),
            ShotParallelism::Serial
        );
        assert_eq!(
            ShotParallelism::sharded(3).resolve(8192),
            ShotParallelism::sharded(3)
        );
    }

    #[test]
    fn auto_matches_its_resolved_sharded_split_bit_for_bit() {
        let dev = line_device(2, 0.05, 0.02);
        let run_with = |parallelism: ShotParallelism| {
            let cfg = ExecutionConfig::default()
                .with_shots(2048)
                .with_seed(77)
                .with_parallelism(parallelism);
            run_noisy(&bell(), &[0, 1], &dev, &NoiseScaling::uniform(2), &cfg).unwrap()
        };
        let auto = run_with(ShotParallelism::Auto);
        assert_eq!(auto.shots(), 2048);
        assert_eq!(
            auto,
            run_with(ShotParallelism::sharded(auto_shard_count(2048))),
            "Auto must equal its resolved explicit split"
        );
        // Thread caps on the resolved split cannot change the counts,
        // so Auto (threads = all cores) is thread-count invariant too.
        assert_eq!(
            auto,
            run_with(ShotParallelism::sharded(auto_shard_count(2048)).with_threads(1))
        );
    }

    #[test]
    fn serial_counts_pinned_bit_for_bit() {
        // Regression pin of the default serial trajectory stream: these
        // exact counts were produced by the pre-sharding loop, and the
        // allocation-free refactor must preserve every RNG draw. If
        // this fails, the serial path's bit-for-bit contract broke.
        let dev = line_device(2, 0.05, 0.02);
        let cfg = ExecutionConfig::default()
            .with_shots(300)
            .with_seed(0xC0FFEE);
        on_both_bodies(|| {
            let counts =
                run_noisy(&bell(), &[0, 1], &dev, &NoiseScaling::uniform(2), &cfg).unwrap();
            let pairs: Vec<(usize, usize)> = counts.iter().collect();
            assert_eq!(pairs, vec![(0, 128), (1, 8), (2, 11), (3, 153)]);
        });
    }
    #[test]
    fn survival_skip_counts_pinned_bit_for_bit() {
        // Regression pin of the SurvivalSkip serial stream on the same
        // fixture as `serial_counts_pinned_bit_for_bit`: the kernel's
        // RNG choreography (skip draw, type draw, outcome draw,
        // readout-skip draw) is part of its determinism contract, so
        // any change to the draw order shows up here.
        let dev = line_device(2, 0.05, 0.02);
        let cfg = ExecutionConfig::default()
            .with_shots(300)
            .with_seed(0xC0FFEE)
            .with_kernel(TrajectoryKernel::SurvivalSkip);
        on_both_bodies(|| {
            let counts =
                run_noisy(&bell(), &[0, 1], &dev, &NoiseScaling::uniform(2), &cfg).unwrap();
            let pairs: Vec<(usize, usize)> = counts.iter().collect();
            assert_eq!(pairs, vec![(0, 124), (1, 11), (2, 11), (3, 154)]);
        });
    }

    /// `ghz(5)` plus a `cp`/`swap` layer on a noisy 5-qubit line at
    /// 2 000 shots: 43 % error shots, a good share of them with several
    /// errors, two-qubit-gate errors among them.
    fn wide_pin_counts(kernel: TrajectoryKernel, parallelism: ShotParallelism) -> Vec<usize> {
        let dev = line_device(5, 0.04, 0.02);
        let mut c = qucp_circuit::library::ghz(5);
        c.cp(0, 1, 0.7).swap(1, 2).cp(2, 3, -0.4).swap(3, 4).h(2);
        let cfg = ExecutionConfig::default()
            .with_shots(2000)
            .with_seed(0xC0FFEE)
            .with_kernel(kernel)
            .with_parallelism(parallelism);
        let scaling = NoiseScaling::uniform(c.gate_count());
        let counts = run_noisy(&c, &trivial_layout(5), &dev, &scaling, &cfg).unwrap();
        (0..32).map(|outcome| counts.count(outcome)).collect()
    }

    /// Runs `pinned` on the gate kernels' body this CPU picks, then
    /// with the scalar body forced.
    fn on_both_bodies(pinned: impl Fn()) {
        pinned();
        kernel::scalar_only(pinned);
    }

    // The four pins below were generated by the per-shot loop of the
    // revision before the prefix-tree evaluator (every outcome 0..32 in
    // order).

    #[test]
    fn wide_replay_serial_counts_pinned_bit_for_bit() {
        on_both_bodies(|| {
            assert_eq!(
                wide_pin_counts(TrajectoryKernel::Replay, ShotParallelism::Serial),
                [
                    302, 32, 30, 15, 332, 36, 21, 28, 31, 5, 10, 24, 34, 5, 8, 29, 26, 9, 9, 21,
                    29, 6, 5, 29, 25, 38, 39, 367, 33, 32, 47, 343
                ]
            );
        });
    }

    #[test]
    fn wide_replay_sharded_counts_pinned_bit_for_bit() {
        on_both_bodies(|| {
            assert_eq!(
                wide_pin_counts(TrajectoryKernel::Replay, ShotParallelism::sharded(4)),
                [
                    355, 28, 44, 24, 313, 36, 31, 24, 21, 6, 8, 27, 35, 9, 9, 23, 35, 1, 4, 29, 27,
                    6, 5, 22, 29, 44, 38, 358, 29, 32, 35, 313
                ]
            );
        });
    }

    #[test]
    fn wide_survival_skip_serial_counts_pinned_bit_for_bit() {
        on_both_bodies(|| {
            assert_eq!(
                wide_pin_counts(TrajectoryKernel::SurvivalSkip, ShotParallelism::Serial),
                [
                    339, 37, 45, 27, 308, 38, 44, 30, 27, 7, 8, 34, 22, 8, 6, 32, 29, 6, 6, 20, 27,
                    4, 4, 23, 22, 39, 39, 343, 36, 36, 37, 317
                ]
            );
        });
    }

    #[test]
    fn wide_survival_skip_sharded_counts_pinned_bit_for_bit() {
        on_both_bodies(|| {
            assert_eq!(
                wide_pin_counts(TrajectoryKernel::SurvivalSkip, ShotParallelism::sharded(4)),
                [
                    329, 32, 43, 18, 336, 31, 39, 23, 27, 5, 6, 23, 25, 6, 5, 24, 33, 8, 7, 24, 31,
                    7, 6, 30, 23, 44, 37, 350, 25, 32, 39, 332
                ]
            );
        });
    }

    #[test]
    fn survival_skip_counts_independent_of_thread_count() {
        // The (seed, shards) purity contract holds per kernel: the
        // SurvivalSkip sharded counts may not depend on the worker
        // count at 1/2/4/8 workers (or auto).
        let dev = line_device(3, 0.04, 0.02);
        let mut c = Circuit::new(3);
        c.x(0).cx(0, 1).cx(1, 2);
        let base = ExecutionConfig::default()
            .with_shots(1500)
            .with_seed(31)
            .with_kernel(TrajectoryKernel::SurvivalSkip);
        let run_with = |threads: usize| {
            let cfg = base.with_parallelism(ShotParallelism::Sharded { shards: 8, threads });
            run_noisy(&c, &[0, 1, 2], &dev, &NoiseScaling::uniform(3), &cfg).unwrap()
        };
        let reference = run_with(1);
        assert_eq!(reference.shots(), 1500);
        for threads in [2, 4, 8, 0] {
            assert_eq!(run_with(threads), reference, "threads = {threads}");
        }
    }

    #[test]
    fn survival_skip_oversharded_run_skips_empty_shards_bit_for_bit() {
        // The empty-tail-shard skip must stay bit-for-bit under the
        // SurvivalSkip kernel too (shards > shots edge case).
        let dev = line_device(2, 0.05, 0.02);
        let run_with = |shards: usize, threads: usize| {
            let cfg = ExecutionConfig::default()
                .with_shots(3)
                .with_seed(11)
                .with_kernel(TrajectoryKernel::SurvivalSkip)
                .with_parallelism(ShotParallelism::Sharded { shards, threads });
            run_noisy(&bell(), &[0, 1], &dev, &NoiseScaling::uniform(2), &cfg).unwrap()
        };
        let exact = run_with(3, 1);
        assert_eq!(exact.shots(), 3);
        for shards in [4, 64, 1000] {
            for threads in [1, 4] {
                assert_eq!(run_with(shards, threads), exact, "shards = {shards}");
            }
        }
    }

    #[test]
    fn survival_skip_zero_noise_plan_is_all_clean() {
        // With every trajectory noise channel off the survival product
        // is exactly 1: every shot takes the clean fast path and the
        // deterministic outcome must be reproduced exactly.
        let dev = line_device(2, 0.0, 0.0);
        let mut cfg = ExecutionConfig::default()
            .with_shots(999)
            .with_seed(13)
            .with_kernel(TrajectoryKernel::SurvivalSkip);
        cfg.gate_noise = false;
        cfg.idle_noise = false;
        let mut c = Circuit::new(2);
        c.x(0).cx(0, 1);
        let clean = clean_shot_probability(&c, &[0, 1], &dev, &NoiseScaling::uniform(2), &[], &cfg)
            .unwrap();
        assert_eq!(clean, 1.0);
        let counts = run_noisy(&c, &[0, 1], &dev, &NoiseScaling::uniform(2), &cfg).unwrap();
        assert_eq!(counts.count(0b11), 999);
    }

    #[test]
    fn survival_skip_honours_error_probability_cap() {
        // An absurd crosstalk scaling saturates at the 0.75 cap; the
        // survival product then is exactly 0.25 per capped gate, and
        // the kernel still conserves the shot budget.
        let dev = line_device(2, 0.3, 0.0);
        let mut cfg = ExecutionConfig::default()
            .with_shots(400)
            .with_seed(7)
            .with_kernel(TrajectoryKernel::SurvivalSkip);
        cfg.idle_noise = false;
        cfg.readout_noise = false;
        let mut c = Circuit::new(2);
        c.cx(0, 1).cx(0, 1);
        let mut scaling = NoiseScaling::uniform(2);
        scaling.amplify(0, 1e9);
        scaling.amplify(1, 1e9);
        let clean = clean_shot_probability(&c, &[0, 1], &dev, &scaling, &[], &cfg).unwrap();
        assert_eq!(clean, 0.25 * 0.25, "both gates capped at 0.75");
        let counts = run_noisy(&c, &[0, 1], &dev, &scaling, &cfg).unwrap();
        assert_eq!(counts.shots(), 400);
        // At ~94% error shots the identity circuit cannot stay pure.
        assert!(counts.probability(0b00) < 0.9);
    }

    #[test]
    fn survival_skip_empty_circuit() {
        // No gates, no events: every shot is clean, only readout noise
        // can act. With readout off the outcome is always |00⟩.
        let dev = line_device(2, 0.05, 0.0);
        let mut cfg = ExecutionConfig::default()
            .with_shots(256)
            .with_seed(3)
            .with_kernel(TrajectoryKernel::SurvivalSkip);
        cfg.readout_noise = false;
        let c = Circuit::new(2);
        let counts = run_noisy(&c, &[0, 1], &dev, &NoiseScaling::uniform(0), &cfg).unwrap();
        assert_eq!(counts.count(0b00), 256);
    }

    #[test]
    fn survival_skip_matches_replay_statistically_on_bell() {
        // The two kernels realize the same distribution through
        // different RNG streams; on a well-populated fixture the modal
        // probabilities must agree within sampling tolerance.
        let dev = line_device(2, 0.05, 0.02);
        let base = ExecutionConfig::default().with_shots(6000).with_seed(42);
        let replay = run_noisy(&bell(), &[0, 1], &dev, &NoiseScaling::uniform(2), &base).unwrap();
        let survival = run_noisy(
            &bell(),
            &[0, 1],
            &dev,
            &NoiseScaling::uniform(2),
            &base.with_kernel(TrajectoryKernel::SurvivalSkip),
        )
        .unwrap();
        for outcome in 0..4 {
            let (a, b) = (replay.probability(outcome), survival.probability(outcome));
            assert!((a - b).abs() < 0.03, "outcome {outcome}: {a} vs {b}");
        }
    }

    #[test]
    fn clean_shot_probability_bounds_and_layout_errors() {
        let dev = line_device(2, 0.05, 0.02);
        let cfg = ExecutionConfig::default();
        let p =
            clean_shot_probability(&bell(), &[0, 1], &dev, &NoiseScaling::uniform(2), &[], &cfg)
                .unwrap();
        assert!((0.0..1.0).contains(&p), "noisy bell clean prob {p}");
        // Layout validation flows through unchanged.
        let e = clean_shot_probability(&bell(), &[0], &dev, &NoiseScaling::uniform(2), &[], &cfg)
            .unwrap_err();
        assert!(matches!(e, SimError::LayoutMismatch { .. }));
    }

    /// A 4-qubit, 24-gate job: deep enough that an 8-shard split of
    /// 16 384 shots clears the fan-out's spawn floor, so explicit
    /// thread counts really run on helper threads.
    fn ladder() -> Circuit {
        let mut c = Circuit::new(4);
        for _ in 0..4 {
            c.h(0).cx(0, 1).cx(1, 2).cx(2, 3).rz(3, 0.3).x(1);
        }
        c
    }

    #[test]
    fn prepared_replay_equals_fresh_execution() {
        // One prepared job, run under every kernel x parallelism pair,
        // several seeds and shot budgets, in an order that builds the
        // SurvivalSkip tables midway: every run must equal the
        // from-scratch execution of the same config bit for bit.
        let dev = line_device(4, 0.03, 0.02);
        let c = ladder();
        let layout = [0, 1, 2, 3];
        let scaling = NoiseScaling::uniform(c.gate_count());
        let tail = [0.0, 250.0, 0.0, 0.0];
        let base = ExecutionConfig::default();
        let prepared = PreparedJob::prepare(&c, &layout, &dev, &scaling, &tail, &base).unwrap();
        let modes = [
            ShotParallelism::Serial,
            ShotParallelism::Sharded {
                shards: 8,
                threads: 1,
            },
            ShotParallelism::Sharded {
                shards: 8,
                threads: 2,
            },
            ShotParallelism::Sharded {
                shards: 8,
                threads: 4,
            },
            ShotParallelism::Auto,
        ];
        for (shots, seed) in [(1, 3), (700, 11), (16_384, 0xC0FFEE)] {
            for kernel in [TrajectoryKernel::Replay, TrajectoryKernel::SurvivalSkip] {
                let mut sharded = Vec::new();
                for mode in modes {
                    let cfg = base
                        .with_shots(shots)
                        .with_seed(seed)
                        .with_kernel(kernel)
                        .with_parallelism(mode);
                    let fresh = run_noisy_with_idle(&c, &layout, &dev, &scaling, &tail, &cfg);
                    let replayed = prepared.run(&c, &cfg);
                    assert_eq!(replayed, fresh.unwrap(), "{kernel:?} {mode:?} {shots}");
                    assert_eq!(replayed, prepared.run(&c, &cfg), "replay is repeatable");
                    if matches!(mode, ShotParallelism::Sharded { .. }) {
                        sharded.push(replayed);
                    }
                }
                // Thread counts never change sharded counts.
                assert!(sharded.windows(2).all(|w| w[0] == w[1]));
            }
        }
    }

    #[test]
    fn paper_sized_auto_job_on_a_small_circuit_still_earns_helpers() {
        // 8192 shots under Auto are 16 shards of 512: on a one-round
        // ladder no single shard clears the spawn floor, the job does
        // many times over — so it must fill a multi-core budget, while
        // the same circuit at one or eight shots stays on the caller.
        use crate::fanout::{workers_for, SPAWN_WORK_FLOOR};
        let dev = line_device(4, 0.03, 0.02);
        let mut c = Circuit::new(4);
        c.h(0).cx(0, 1).cx(1, 2).cx(2, 3).rz(3, 0.3).x(1);
        let cfg = ExecutionConfig::default();
        let scaling = NoiseScaling::uniform(c.gate_count());
        let prepared =
            PreparedJob::prepare(&c, &[0, 1, 2, 3], &dev, &scaling, &[0.0; 4], &cfg).unwrap();
        let ShotParallelism::Sharded { shards, .. } = ShotParallelism::Auto.resolve(8192) else {
            panic!("Auto resolves to a sharded split");
        };
        assert!(run_work(8192 / shards, &prepared.plan) < SPAWN_WORK_FLOOR);
        for budget in [2, 4] {
            let work = run_work(8192, &prepared.plan);
            assert_eq!(workers_for(budget, shards, work), budget);
        }
        for shots in [1, 8] {
            assert_eq!(workers_for(8, shots, run_work(shots, &prepared.plan)), 1);
        }
    }

    #[test]
    fn prepared_job_is_keyed_on_the_noise_flags() {
        let dev = line_device(2, 0.05, 0.02);
        let cfg = ExecutionConfig::default().with_shots(50);
        let prepared =
            PreparedJob::prepare(&bell(), &[0, 1], &dev, &NoiseScaling::uniform(2), &[], &cfg)
                .unwrap();
        // Shots, seed, kernel and parallelism are free per run.
        assert!(prepared.matches(
            &cfg.with_shots(9)
                .with_seed(1)
                .with_kernel(TrajectoryKernel::SurvivalSkip)
                .with_parallelism(ShotParallelism::Auto)
        ));
        for flip in 0..3 {
            let mut other = cfg;
            match flip {
                0 => other.gate_noise = false,
                1 => other.readout_noise = false,
                _ => other.idle_noise = false,
            }
            assert!(!prepared.matches(&other));
            let refused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                prepared.run(&bell(), &other)
            }));
            assert!(refused.is_err(), "flag {flip} must not replay");
        }
        // Nor does another circuit run on this job's event stream.
        let mut longer = bell();
        longer.x(0);
        let refused =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| prepared.run(&longer, &cfg)));
        assert!(refused.is_err());
    }

    #[test]
    fn prepared_job_retains_a_bounded_amount() {
        let dev = line_device(10, 0.02, 0.01);
        let cfg = ExecutionConfig::default()
            .with_shots(64)
            .with_kernel(TrajectoryKernel::SurvivalSkip);
        // 10 qubits x 28 gate events.
        let mut wide = Circuit::new(10);
        for _ in 0..3 {
            wide.h(0);
            for q in 1..10 {
                wide.cx(q - 1, q);
            }
        }
        let layout = trivial_layout(10);
        let scaling = NoiseScaling::uniform(wide.gate_count());
        let prepared = PreparedJob::prepare(&wide, &layout, &dev, &scaling, &[], &cfg).unwrap();
        let before = prepared.retained_bytes();
        let counts = prepared.run(&wide, &cfg);
        assert_eq!(
            counts,
            run_noisy(&wide, &layout, &dev, &scaling, &cfg).unwrap()
        );
        assert!(prepared.survival.get().is_some(), "SurvivalSkip built them");
        assert_eq!(prepared.retained_bytes(), before, "the bound is shape-only");
        // State + alias table dominate: 2^10 * 28 B. The stream: an
        // event with its error probability and draw thresholds is the
        // 48 bytes the event with its sort keys was, beside 8 of
        // survival and at most 8 of strip; a compiled gate 40; a
        // qubit's readout 8 + 8 + 8 (probability, survival, strip).
        use std::mem::size_of;
        assert_eq!((size_of::<Event>(), size_of::<Op>()), (48, 40));
        let (events, gates) = (prepared.plan.events.len(), wide.gate_count());
        assert_eq!((events, gates), (42, 30), "30 gates and 12 idle windows");
        assert_eq!(
            before,
            (1 << 10) * 28 + events * (48 + 8 + 8) + gates * 40 + 10 * 24
        );
        assert!(before < 64 * 1024, "retains {before} B");

        let small =
            PreparedJob::prepare(&bell(), &[0, 1], &dev, &NoiseScaling::uniform(2), &[], &cfg)
                .unwrap();
        small.run(&bell(), &cfg);
        assert!(small.retained_bytes() < 1024);
    }

    #[test]
    fn pauli_strikes_equal_the_general_kernel() {
        // X, Y and Z as the evaluator strikes them — a half swap, the
        // cross kernel, a sign flip — against their matrices through
        // the general 2x2 product: equal up to the sign of a zero, and
        // bit-equal in every probability.
        use crate::unitaries::single_qubit_matrix;
        let mut rng = StdRng::seed_from_u64(0x5EED_0024);
        for n in 1..=6usize {
            for q in 0..n {
                for sparse in [false, true] {
                    let mut part = || match rng.gen_range(0..4u32) {
                        0 if sparse => 0.0,
                        1 if sparse => -0.0,
                        _ => rng.gen_range(-1.0..1.0),
                    };
                    let state: Vec<Complex> =
                        (0..1 << n).map(|_| Complex::new(part(), part())).collect();
                    for (code, gate) in [(1, Gate::X(q)), (2, Gate::Y(q)), (3, Gate::Z(q))] {
                        let mut expected = state.clone();
                        kernel::apply_single(&mut expected, q, &single_qubit_matrix(&gate));
                        let mut got = state.clone();
                        apply_pauli(&mut got, q, code);
                        assert_eq!(got, expected, "{gate:?} on {n} qubits");
                        let bits = |amps: &[Complex]| -> Vec<u64> {
                            amps.iter().map(|a| a.norm_sqr().to_bits()).collect()
                        };
                        assert_eq!(bits(&got), bits(&expected), "{gate:?} on {n} qubits");
                        // A one-qubit gate's error is that Pauli on its operand.
                        let mut typed = state.clone();
                        apply_typed_gate_error(&mut typed, &Gate::H(q), code);
                        assert_eq!(typed, got);
                    }
                }
            }
        }
    }

    #[test]
    fn kernel_builders_and_default() {
        assert_eq!(TrajectoryKernel::default(), TrajectoryKernel::Replay);
        assert_eq!(ExecutionConfig::default().kernel, TrajectoryKernel::Replay);
        assert_eq!(
            ExecutionConfig::default()
                .with_kernel(TrajectoryKernel::SurvivalSkip)
                .kernel,
            TrajectoryKernel::SurvivalSkip
        );
    }

    #[test]
    fn runs_are_reproducible() {
        let dev = line_device(2, 0.05, 0.02);
        let cfg = ExecutionConfig::default().with_shots(500);
        let a = run_noisy(&bell(), &[0, 1], &dev, &NoiseScaling::uniform(2), &cfg).unwrap();
        let b = run_noisy(&bell(), &[0, 1], &dev, &NoiseScaling::uniform(2), &cfg).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn noise_scaling_accessors() {
        let mut s = NoiseScaling::uniform(3);
        assert_eq!(s.factor(0), 1.0);
        assert_eq!(s.factor(99), 1.0);
        s.set(1, 2.0);
        s.amplify(1, 3.0);
        assert_eq!(s.factor(1), 6.0);
        assert_eq!(s.max_factor(), 6.0);
    }

    #[test]
    fn execution_inputs_and_outputs_are_send_sync() {
        // The qucp-runtime batch scheduler executes batch programs on
        // scoped threads; everything crossing those threads must stay
        // Send + Sync. A compile-time pin, so a refactor introducing
        // Rc/RefCell into these types fails here rather than in the
        // runtime crate.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ExecutionConfig>();
        assert_send_sync::<NoiseScaling>();
        assert_send_sync::<Counts>();
        assert_send_sync::<SimError>();
        assert_send_sync::<Circuit>();
        assert_send_sync::<Device>();
        assert_send_sync::<PreparedJob>();
    }

    #[test]
    fn total_order_bits_sort_as_total_cmp() {
        let mut values = vec![
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.0,
            -0.0,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            5e-324,
            -5e-324,
            1.0,
            -1.0,
            1200.0,
            f64::MAX,
            f64::MIN,
        ];
        let mut by_bits = values.clone();
        values.sort_by(f64::total_cmp);
        by_bits.sort_by_key(|&x| total_order_bits(x));
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&by_bits), bits(&values));
    }

    #[test]
    fn sim_error_display() {
        let e = SimError::NotCoupled {
            gate_index: 4,
            a: 1,
            b: 5,
        };
        assert!(e.to_string().contains("uncoupled"));
        let e = SimError::LayoutMismatch {
            circuit: 2,
            layout: 3,
        };
        assert!(e.to_string().contains("does not match"));
    }
}
